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

The tokenizer is one regular expression, and the parser is one loop over an
explicit stack of open parentheses, so both take time linear in the input at
any nesting depth. A token is a (kind, text, offset) tuple; the line and
column of a ParseError are worked out from the offset when raising.
"""

from __future__ import annotations

import re

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


def _error(message: str, src: str, offset: int) -> ParseError:
    """A ParseError at offset, with its line and column.

    Lines split at "\\n" only, every other character is one column, and a
    comment takes none, so the end of input after a trailing comment is at
    the comment's start. A "--" before offset on its line can only open a
    comment: a lone "-" is an error the tokenizer raises where it stands.
    """
    start = src.rfind("\n", 0, offset) + 1
    comment = src.find("--", start, offset)
    if comment >= 0:
        offset = comment
    return ParseError(message, src.count("\n", 0, start) + 1, offset - start + 1)


def tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, ending with ("eof", "", offset).

    kind is "ident", "keyword", "lambda", "dot", "lparen" or "rparen".
    """
    tokens = []
    append = tokens.append
    for m in _TOKEN.finditer(src):
        text = m[1]
        kind = _KINDS.get(text)
        if kind is None:
            if not (text[0].isalpha() or text[0] == "_"):
                raise _error(f"unexpected character {text[0]!r}", src, m.start(1))
            kind = "ident"
        append((kind, text, m.start(1)))
        if not text:
            break
    return tokens


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
    tokens = tokenize(src)
    stack: list[tuple[list, NamedTerm | None]] = []
    prefixes: list[tuple[type, str]] = []
    app: NamedTerm | None = None
    i = 0
    while True:
        kind, text, offset = tokens[i]
        if kind == "lambda" or kind == "keyword":
            if kind == "lambda":
                node = NLam
            elif text == capture:
                node = NCatch
            elif text == restore:
                node = NThrow
            else:
                raise _error(f"unknown keyword for this calculus: {text!r}", src, offset)
            kind, text, offset = tokens[i + 1]
            if kind != "ident":
                if kind == "keyword":
                    raise _error(f"{text!r} is a keyword, not an identifier", src, offset)
                raise _error(f"expected an identifier, got {text or 'end of input'!r}", src, offset)
            prefixes.append((node, text))
            i += 2
            if node is not NThrow:
                kind, text, offset = tokens[i]
                if kind != "dot":
                    raise _error(f"expected '.', got {text or 'end of input'!r}", src, offset)
                i += 1
            continue
        if kind == "lparen":
            stack.append((prefixes, app))
            prefixes, app = [], None
            i += 1
            continue
        if kind != "ident":
            raise _error(f"expected a term, got {text or 'end of input'!r}", src, offset)
        value = NVar(text)
        i += 1
        while True:  # an atom has ended: extend the application, or end the term
            app = value if app is None else NApp(app, value)
            kind, text, offset = tokens[i]
            if kind == "ident" or kind == "lparen":
                break
            if kind == "keyword" or kind == "lambda":
                raise _error(f"{text!r} must be parenthesized here (prefix forms are not atoms)", src, offset)
            value = app
            for node, name in reversed(prefixes):
                value = node(name, value)
            if not stack:
                if kind != "eof":
                    raise _error(f"unexpected trailing input {text!r}", src, offset)
                return value
            if kind != "rparen":
                raise _error(f"expected ')', got {text or 'end of input'!r}", src, offset)
            i += 1
            prefixes, app = stack.pop()
