"""One term syntax for both calculi, in named and index form.

Named terms are what the parser produces and the printer renders; index terms
are what the safety judgment, the translation and the machines consume.
getctx/setctx is catch/throw read under another indexing, so both calculi
share every node: NCatch/Catch captures and NThrow/Throw restores. The caller
names the calculus, and KEYWORDS gives the words it is parsed and printed in.

Index terms use 0-based indices in two separate name spaces:
  * variable indices count intervening Lam binders (catch/throw calculus) or
    positions in the current coroutine's visible vector (getctx/setctx
    calculus);
  * label indices count intervening capture binders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

# ---------------------------------------------------------------------------
# Named terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NVar:
    name: str


@dataclass(frozen=True, slots=True)
class NApp:
    fn: "NamedTerm"
    arg: "NamedTerm"


@dataclass(frozen=True, slots=True)
class NLam:
    param: str
    body: "NamedTerm"


@dataclass(frozen=True, slots=True)
class NCatch:
    label: str
    body: "NamedTerm"


@dataclass(frozen=True, slots=True)
class NThrow:
    label: str
    body: "NamedTerm"


NamedTerm = Union[NVar, NApp, NLam, NCatch, NThrow]
NamedTermCT = NamedTermGS = NamedTerm

# ---------------------------------------------------------------------------
# Index (de Bruijn) terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Var:
    index: int


@dataclass(frozen=True, slots=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True, slots=True)
class Lam:
    body: "Term"


@dataclass(frozen=True, slots=True)
class Catch:
    body: "Term"


@dataclass(frozen=True, slots=True)
class Throw:
    label: int
    body: "Term"


Term = Union[Var, App, Lam, Catch, Throw]
# The *CT/*GS names only say which indexing a function expects.
TermCT = TermGS = Term

PREFIX_NODES = (NLam, NCatch, NThrow, Lam, Catch, Throw)

# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

# Per calculus: the named capture and restore keywords, then the index-form
# capture head and restore keyword.
KEYWORDS = {"ct": ("catch", "throw", "catch.", "throw"), "gs": ("getctx", "setctx", "get.", "set")}


def print_term(t: NamedTerm | Term, calculus: str) -> str:
    """Render a term in the concrete syntax of calculus ("ct" or "gs").

    Prefix-form bodies extend maximally to the right, so a prefix form is
    parenthesized whenever it appears to the left of an application or as an
    argument; parse(print_term(t, c), c) == t for named terms. Index terms
    render variables as #k and binders without names (`\\.`, `catch.`, `get.`).
    """
    match t:
        case NVar(name):
            return name
        case Var(index):
            return f"#{index}"
        case NApp(fn, arg) | App(fn, arg):
            fn_s = _wrap(fn, calculus, also_app=False)
            arg_s = _wrap(arg, calculus, also_app=True)
            return f"{fn_s} {arg_s}"
        case NLam(param, body):
            return f"\\{param}. {print_term(body, calculus)}"
        case NCatch(label, body):
            return f"{KEYWORDS[calculus][0]} {label}. {print_term(body, calculus)}"
        case NThrow(label, body):
            return f"{KEYWORDS[calculus][1]} {label} {print_term(body, calculus)}"
        case Lam(body):
            return f"\\. {print_term(body, calculus)}"
        case Catch(body):
            return f"{KEYWORDS[calculus][2]} {print_term(body, calculus)}"
        case Throw(label, body):
            return f"{KEYWORDS[calculus][3]} {label} {print_term(body, calculus)}"
    raise TypeError(f"not a term: {t!r}")


def _wrap(t: NamedTerm | Term, calculus: str, also_app: bool) -> str:
    text = print_term(t, calculus)
    if isinstance(t, PREFIX_NODES) or (also_app and isinstance(t, (NApp, App))):
        return f"({text})"
    return text

# ---------------------------------------------------------------------------
# Closedness / scope checks on index terms
# ---------------------------------------------------------------------------


def is_closed_ct(t: TermCT, lam_depth: int = 0, label_depth: int = 0) -> bool:
    """True iff every Var resolves under the Lam binders and every Throw under the Catch binders."""
    match t:
        case Var(index):
            return index < lam_depth
        case App(fn, arg):
            return is_closed_ct(fn, lam_depth, label_depth) and is_closed_ct(arg, lam_depth, label_depth)
        case Lam(body):
            return is_closed_ct(body, lam_depth + 1, label_depth)
        case Catch(body):
            return is_closed_ct(body, lam_depth, label_depth + 1)
        case Throw(label, body):
            return label < label_depth and is_closed_ct(body, lam_depth, label_depth)
    raise TypeError(f"not a catch/throw term: {t!r}")


def is_scoped_gs(t: TermGS, visible_len: int = 0, snapshot_lens: tuple[int, ...] = ()) -> bool:
    """True iff local and label indices stay in range.

    Local indices are positions in the current coroutine's visible vector, so
    validity depends only on the vector *lengths*: Lam grows the current
    length by one, a capture snapshots it, a restore brings a snapshot back.
    """
    match t:
        case Var(index):
            return index < visible_len
        case App(fn, arg):
            return is_scoped_gs(fn, visible_len, snapshot_lens) and is_scoped_gs(arg, visible_len, snapshot_lens)
        case Lam(body):
            return is_scoped_gs(body, visible_len + 1, snapshot_lens)
        case Catch(body):
            return is_scoped_gs(body, visible_len, (visible_len,) + snapshot_lens)
        case Throw(label, body):
            if label >= len(snapshot_lens):
                return False
            return is_scoped_gs(body, snapshot_lens[label], snapshot_lens)
    raise TypeError(f"not a getctx/setctx term: {t!r}")
