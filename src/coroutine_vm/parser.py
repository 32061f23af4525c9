"""Text syntax for `.ct` / `.gs` files.

Grammar (one term per file, `--` comments to end of line):

    t    ::= "\\" id "." t
           | capture id "." t | restore id t
           | atoms
    atoms ::= atom atom+            left-associative application
    atom ::= id | "(" t ")"

capture/restore is catch/throw in `.ct` files and getctx/setctx in `.gs`
files (terms.KEYWORDS); both parse to NCatch/NThrow.

Prefix-form bodies extend maximally to the right; application binds tighter,
so a prefix form used as a function or argument must be parenthesized.

The tokenizer is one regular expression, read in one findall pass, and the
parser is one loop over an explicit stack of open parentheses, so both take
time linear in the input at any nesting depth. Every token is checked before
parsing, so a bad character is reported before a syntax error to its left.
No token keeps its offset: a ParseError finds it only when raising.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import ParseError
from .terms import (
    KEYWORDS,
    NamedTerm,
    NamedTermCT,
    NamedTermGS,
    NApp,
    NCatch,
    NLam,
    NThrow,
    NVar,
)

ALL_KEYWORDS = {word for capture, restore, _, _ in KEYWORDS.values() for word in (capture, restore)}

# Skip blanks and comments, then read one token: a word, a punctuation mark,
# the end of input (""), or a character no token starts with. \w is
# isalnum() or "_", so a word's first character is tested apart. The token
# group matches after any skip (\Z at the end, "." with re.S elsewhere), so
# the greedy skip is never given back: a comment or a blank is never split.
_TOKEN = re.compile(r"[ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*(\w+|[\\.()]|\Z|.)", re.S)
_KINDS = {"\\": "lambda", ".": "dot", "(": "lparen", ")": "rparen", "": "eof"} | dict.fromkeys(ALL_KEYWORDS, "keyword")


def _error(message: str, src: str, token: int) -> ParseError:
    """A ParseError at the token-th token, found by reading the tokens again.

    Lines split at "\\n" only, every other character is one column, and a
    comment takes none, so the end of input after a trailing comment is at
    the comment's start. A "--" before offset on its line can only open a
    comment: a lone "-" is an error reported where it stands.
    """
    offset = next(islice(_TOKEN.finditer(src), token, None)).start(1)
    start = src.rfind("\n", 0, offset) + 1
    comment = src.find("--", start, offset)
    if comment >= 0:
        offset = comment
    return ParseError(message, src.count("\n", 0, start) + 1, offset - start + 1)


def parse_ct(src: str) -> NamedTermCT:
    """Parse catch/throw source text into a named term."""
    return parse(src, "ct")


def parse_gs(src: str) -> NamedTermGS:
    """Parse getctx/setctx source text into a named term."""
    return parse(src, "gs")


def parse(src: str, calculus: str) -> NamedTerm:
    """Parse source text in calculus ("ct" or "gs") into a named term.

    A term is prefix forms followed by an application of atoms. The loop
    keeps, for the term being read, the pending prefix forms (constructor,
    name) and the application built so far; "(" saves both on the stack and
    ")" restores them, with the finished inner term as the next atom.
    """
    if calculus not in KEYWORDS:
        raise ValueError(f"unknown calculus {calculus!r} (expected 'ct' or 'gs')")
    capture, restore, _, _ = KEYWORDS[calculus]
    texts = _TOKEN.findall(src)
    kinds = list(map(_KINDS.get, texts))  # None for an identifier
    bad = {word for word in set(texts).difference(_KINDS) if not (word[0].isalpha() or word[0] == "_")}
    if bad:
        i = next(i for i, text in enumerate(texts) if text in bad)
        raise _error(f"unexpected character {texts[i][0]!r}", src, i)
    stack: list[tuple[list, NamedTerm | None]] = []
    prefixes: list[tuple[type, str]] = []
    app: NamedTerm | None = None
    i = 0
    while True:
        kind, text = kinds[i], texts[i]
        if kind == "lambda" or kind == "keyword":
            if kind == "lambda":
                node = NLam
            elif text == capture:
                node = NCatch
            elif text == restore:
                node = NThrow
            else:
                raise _error(f"unknown keyword for this calculus: {text!r}", src, i)
            kind, text = kinds[i + 1], texts[i + 1]
            if kind is not None:
                if kind == "keyword":
                    raise _error(f"{text!r} is a keyword, not an identifier", src, i + 1)
                raise _error(f"expected an identifier, got {text or 'end of input'!r}", src, i + 1)
            prefixes.append((node, text))
            i += 2
            if node is not NThrow:
                if kinds[i] != "dot":
                    raise _error(f"expected '.', got {texts[i] or 'end of input'!r}", src, i)
                i += 1
            continue
        if kind == "lparen":
            stack.append((prefixes, app))
            prefixes, app = [], None
            i += 1
            continue
        if kind is not None:
            raise _error(f"expected a term, got {text or 'end of input'!r}", src, i)
        value = NVar(text)
        i += 1
        while True:  # an atom has ended: extend the application, or end the term
            app = value if app is None else NApp(app, value)
            kind, text = kinds[i], texts[i]
            if kind is None or kind == "lparen":
                break
            if kind == "keyword" or kind == "lambda":
                raise _error(f"{text!r} must be parenthesized here (prefix forms are not atoms)", src, i)
            value = app
            for node, name in reversed(prefixes):
                value = node(name, value)
            if not stack:
                if kind != "eof":
                    raise _error(f"unexpected trailing input {text!r}", src, i)
                return value
            if kind != "rparen":
                raise _error(f"expected ')', got {text or 'end of input'!r}", src, i)
            i += 1
            prefixes, app = stack.pop()
