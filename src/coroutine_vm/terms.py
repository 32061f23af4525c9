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

The term classes are frozen slots dataclasses whose __init__ stores each
field through its slot (see _direct_init), so building a node costs no
generic object.__setattr__ call. ==, print_term and the scope checks walk an
explicit work list, so they run at any nesting depth; they dispatch on the
exact class of each node, so a subclass of a term class is not a term.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, dataclass
from typing import Union


def _direct_init(cls):
    """Replace the __init__ of frozen slots dataclass cls with one that stores
    each field through its slot's member descriptor, bound once here, instead
    of one object.__setattr__ call per field.

    The parameters are the generated ones, so keyword construction and
    dataclasses.replace work as before; __setattr__ (FrozenInstanceError),
    __eq__, __hash__, __repr__ and __match_args__ are untouched. Every field
    must be an init field without a default.
    """
    fields = dataclasses.fields(cls)
    if any(not f.init or f.default is not MISSING or f.default_factory is not MISSING for f in fields):
        raise TypeError(f"{cls.__name__}: _direct_init needs init fields without defaults")
    names = [f.name for f in fields]
    setters = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):{body}", setters)
    init = setters["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls

# ---------------------------------------------------------------------------
# Named terms
# ---------------------------------------------------------------------------


@_direct_init
@dataclass(frozen=True, slots=True)
class NVar:
    name: str


@_direct_init
@dataclass(frozen=True, slots=True)
class NApp:
    fn: "NamedTerm"
    arg: "NamedTerm"


@_direct_init
@dataclass(frozen=True, slots=True)
class NLam:
    param: str
    body: "NamedTerm"


@_direct_init
@dataclass(frozen=True, slots=True)
class NCatch:
    label: str
    body: "NamedTerm"


@_direct_init
@dataclass(frozen=True, slots=True)
class NThrow:
    label: str
    body: "NamedTerm"


NamedTerm = Union[NVar, NApp, NLam, NCatch, NThrow]
NamedTermCT = NamedTermGS = NamedTerm

# ---------------------------------------------------------------------------
# Index (de Bruijn) terms
# ---------------------------------------------------------------------------


@_direct_init
@dataclass(frozen=True, slots=True)
class Var:
    index: int


@_direct_init
@dataclass(frozen=True, slots=True)
class App:
    fn: "Term"
    arg: "Term"


@_direct_init
@dataclass(frozen=True, slots=True)
class Lam:
    body: "Term"


@_direct_init
@dataclass(frozen=True, slots=True)
class Catch:
    body: "Term"


@_direct_init
@dataclass(frozen=True, slots=True)
class Throw:
    label: int
    body: "Term"


Term = Union[Var, App, Lam, Catch, Throw]
# The *CT/*GS names only say which indexing a function expects.
TermCT = TermGS = Term


def _term_eq(self, other) -> bool:
    """Structural equality on a work list, so it holds at any nesting depth; every
    pair compared, an index or label too, is of one exact class (Var(1) != Var(True))."""
    todo = [(self, other)]
    while todo:
        x, y = todo.pop()
        cls = type(x)
        if cls is not type(y) or cls.__eq__ is not _term_eq and x != y:
            return False
        if cls.__eq__ is _term_eq and x is not y:
            todo += [(getattr(x, name), getattr(y, name)) for name in cls.__slots__]
    return True


# Set once the classes are made, so the dataclass hash stays; object.__ne__ inverts it.
for _cls in (NVar, NApp, NLam, NCatch, NThrow, Var, App, Lam, Catch, Throw):
    _cls.__eq__ = _term_eq

# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

# Per calculus: the named capture and restore keywords, then the index-form
# capture head and restore keyword.
KEYWORDS = {"ct": ("catch", "throw", "catch.", "throw"), "gs": ("getctx", "setctx", "get.", "set")}


class _Text(str):
    """Text queued on print_term's work list; its class tells it from a subterm."""

    __slots__ = ()


_CLOSE, _SPACE, _SPACE_OPEN = _Text(")"), _Text(" "), _Text(" (")
# A prefix form is parenthesized as an application's function or argument,
# an application only as an argument.
_PREFIX_CLASSES = frozenset({NLam, NCatch, NThrow, Lam, Catch, Throw})
_WRAPPED_ARG_CLASSES = _PREFIX_CLASSES | {NApp, App}


def print_term(t: NamedTerm | Term, calculus: str) -> str:
    """Render a term in the concrete syntax of calculus ("ct" or "gs").

    Prefix-form bodies extend maximally to the right, so a prefix form is
    parenthesized whenever it appears to the left of an application or as an
    argument; parse(print_term(t, c), c) == t for named terms. Index terms
    render variables as #k and binders without names (`\\.`, `catch.`, `get.`).

    A prefix form's head is written when the node is visited, and the text
    that follows a subterm (a closing parenthesis, the space before an
    argument) is queued under it; subterms are visited left to right.
    """
    out: list[str] = []
    emit = out.append
    todo: list = [t]
    push, pop = todo.append, todo.pop
    while todo:
        node = pop()
        cls = type(node)
        if cls is _Text:
            emit(node)
        elif cls is NVar:
            emit(node.name)
        elif cls is Var:
            emit(f"#{node.index}")
        elif cls is NApp or cls is App:
            fn, arg = node.fn, node.arg
            if type(arg) in _WRAPPED_ARG_CLASSES:
                push(_CLOSE)
                push(arg)
                push(_SPACE_OPEN)
            else:
                push(arg)
                push(_SPACE)
            if type(fn) in _PREFIX_CLASSES:
                push(_CLOSE)
                emit("(")
            push(fn)
        elif cls is NLam:
            emit(f"\\{node.param}. ")
            push(node.body)
        elif cls is NCatch:
            emit(f"{KEYWORDS[calculus][0]} {node.label}. ")
            push(node.body)
        elif cls is NThrow:
            emit(f"{KEYWORDS[calculus][1]} {node.label} ")
            push(node.body)
        elif cls is Lam:
            emit("\\. ")
            push(node.body)
        elif cls is Catch:
            emit(f"{KEYWORDS[calculus][2]} ")
            push(node.body)
        elif cls is Throw:
            emit(f"{KEYWORDS[calculus][3]} {node.label} ")
            push(node.body)
        else:
            raise TypeError(f"not a term: {node!r}")
    return "".join(out)

# ---------------------------------------------------------------------------
# Closedness / scope checks on index terms
# ---------------------------------------------------------------------------


def is_closed_ct(t: TermCT) -> bool:
    """True iff every Var resolves under the Lam binders and every Throw under the Catch binders.

    The walk visits subterms left to right and answers False at the first
    index out of range, so a malformed node to its right raises nothing. An
    index or label that is not exactly an int is out of range.
    """
    todo = [(t, 0, 0)]
    push, pop = todo.append, todo.pop
    while todo:
        node, lam_depth, label_depth = pop()
        cls = type(node)
        if cls is Var:
            if type(node.index) is not int or not 0 <= node.index < lam_depth:
                return False
        elif cls is App:
            push((node.arg, lam_depth, label_depth))
            push((node.fn, lam_depth, label_depth))
        elif cls is Lam:
            push((node.body, lam_depth + 1, label_depth))
        elif cls is Catch:
            push((node.body, lam_depth, label_depth + 1))
        elif cls is Throw:
            if type(node.label) is not int or not 0 <= node.label < label_depth:
                return False
            push((node.body, lam_depth, label_depth))
        else:
            raise TypeError(f"not a catch/throw term: {node!r}")
    return True


def is_scoped_gs(t: TermGS) -> bool:
    """True iff local and label indices stay in range.

    Local indices are positions in the current coroutine's visible vector, so
    validity depends only on the vector *lengths*: Lam grows the current
    length by one, a capture snapshots it, a restore brings a snapshot back.
    The snapshots in scope are a linked tuple (length, rest), newest first,
    None when empty, so a capture pushes one pair. The walk visits subterms
    left to right and answers False at the first index out of range. An
    index or label that is not exactly an int is out of range.
    """
    todo = [(t, 0, None)]
    push, pop = todo.append, todo.pop
    while todo:
        node, visible_len, snapshots = pop()
        cls = type(node)
        if cls is Var:
            if type(node.index) is not int or not 0 <= node.index < visible_len:
                return False
        elif cls is App:
            push((node.arg, visible_len, snapshots))
            push((node.fn, visible_len, snapshots))
        elif cls is Lam:
            push((node.body, visible_len + 1, snapshots))
        elif cls is Catch:
            push((node.body, visible_len, (visible_len, snapshots)))
        elif cls is Throw:
            snapshot, k = snapshots, node.label
            while snapshot is not None and k:
                snapshot, k = snapshot[1], k - 1
            if snapshot is None or type(node.label) is not int:
                return False
            push((node.body, snapshot[0], snapshots))
        else:
            raise TypeError(f"not a getctx/setctx term: {node!r}")
    return True
