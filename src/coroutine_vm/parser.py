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
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "ident", "keyword", "lambda", "dot", "lparen", "rparen", "eof"
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
        elif ch == "\\":
            tokens.append(Token("lambda", "\\", line, col))
            i += 1
            col += 1
        elif ch == ".":
            tokens.append(Token("dot", ".", line, col))
            i += 1
            col += 1
        elif ch == "(":
            tokens.append(Token("lparen", "(", line, col))
            i += 1
            col += 1
        elif ch == ")":
            tokens.append(Token("rparen", ")", line, col))
            i += 1
            col += 1
        elif ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
                col += 1
            word = src[start:i]
            kind = "keyword" if word in ALL_KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, start_col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], capture: str, restore: str):
        self.tokens = tokens
        self.pos = 0
        self.capture = capture
        self.restore = restore

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, got {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.advance()

    def ident(self) -> str:
        tok = self.peek()
        if tok.kind == "keyword":
            raise ParseError(f"{tok.text!r} is a keyword, not an identifier", tok.line, tok.col)
        return self.expect("ident", "an identifier").text

    def term(self) -> NamedTerm:
        tok = self.peek()
        if tok.kind == "lambda":
            self.advance()
            param = self.ident()
            self.expect("dot", "'.'")
            return NLam(param, self.term())
        if tok.kind == "keyword":
            if tok.text not in (self.capture, self.restore):
                raise ParseError(f"unknown keyword for this calculus: {tok.text!r}", tok.line, tok.col)
            self.advance()
            label = self.ident()
            if tok.text == self.capture:
                self.expect("dot", "'.'")
                body = self.term()
                return NCatch(label, body)
            body = self.term()
            return NThrow(label, body)
        return self.app_seq()

    def app_seq(self) -> NamedTerm:
        out = self.atom()
        while self.peek().kind in ("ident", "lparen"):
            out = NApp(out, self.atom())
        tok = self.peek()
        if tok.kind == "keyword" or tok.kind == "lambda":
            raise ParseError(
                f"{tok.text!r} must be parenthesized here (prefix forms are not atoms)", tok.line, tok.col
            )
        return out

    def atom(self) -> NamedTerm:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return NVar(tok.text)
        if tok.kind == "lparen":
            self.advance()
            inner = self.term()
            self.expect("rparen", "')'")
            return inner
        raise ParseError(f"expected a term, got {tok.text or 'end of input'!r}", tok.line, tok.col)


def parse_ct(src: str) -> NamedTermCT:
    """Parse catch/throw source text into a named term."""
    return parse(src, "ct")


def parse_gs(src: str) -> NamedTermGS:
    """Parse getctx/setctx source text into a named term."""
    return parse(src, "gs")


def parse(src: str, calculus: str) -> NamedTerm:
    """Parse source text in calculus ("ct" or "gs") into a named term."""
    if calculus not in KEYWORDS:
        raise ValueError(f"unknown calculus {calculus!r} (expected 'ct' or 'gs')")
    capture, restore, _, _ = KEYWORDS[calculus]
    parser = _Parser(tokenize(src), capture, restore)
    term = parser.term()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.line, trailing.col)
    return term
