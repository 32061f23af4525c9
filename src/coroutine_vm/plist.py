"""Persistent singly-linked lists.

PList is the list of the machines and of lock-step: environments, stacks,
vectors and tables. The capture rules snapshot whole sequences on every
context switch, so O(1) cons with spine sharing is what keeps runs (and the
lock-step checkers, which memoize by spine identity) linear, not quadratic.
The term walkers' scope lists are cheaper linked tuples (entry, rest).

NIL is the only empty list, so `xs is NIL` tests emptiness, and every cell
caches its length in the read-only `length` slot; the machines' hot paths use
both instead of `__bool__`/`__len__`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator


class PList:
    """Immutable cons list. The empty list is the module-level singleton NIL."""

    __slots__ = ("head", "tail", "length")

    head: Any
    tail: "PList"
    length: int

    def __init__(self, head: Any, tail: "PList"):
        _set_head(self, head)
        _set_tail(self, tail)
        _set_length(self, tail.length + 1)

    def __setattr__(self, name: str, value: Any):
        raise AttributeError("PList is immutable")

    def cons(self, item: Any) -> "PList":
        # The cell is built by direct slot stores: no __init__ call on the
        # machines' hottest path.
        cell = _new_cell(PList)
        _set_head(cell, item)
        _set_tail(cell, self)
        _set_length(cell, self.length + 1)
        return cell

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __iter__(self) -> Iterator[Any]:
        node = self
        while node.length > 0:
            yield node.head
            node = node.tail

    def __getitem__(self, index: int) -> Any:
        if type(index) is not int:
            raise TypeError(f"plist indices must be int, not {type(index).__name__}")
        if index < 0 or index >= self.length:
            raise IndexError(f"plist index {index} out of range (length {self.length})")
        node = self
        while index > 3:  # four cells a turn: a deep index costs fewer turns
            node = node.tail.tail.tail.tail
            index -= 4
        while index:
            node = node.tail
            index -= 1
        return node.head

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PList):
            return NotImplemented
        if self.length != other.length:
            return False
        a, b = self, other
        while a.length > 0:
            if a is b:
                return True
            if a.head != b.head:
                return False
            a, b = a.tail, b.tail
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "plist([" + ", ".join(repr(x) for x in self) + "])"


# Slot stores that bypass PList.__setattr__, which rejects every assignment.
_new_cell = object.__new__
_set_head = PList.head.__set__
_set_tail = PList.tail.__set__
_set_length = PList.length.__set__

# The empty list: a self-consistent sentinel cell of length 0.
NIL = _new_cell(PList)
_set_head(NIL, None)
_set_tail(NIL, NIL)
_set_length(NIL, 0)


def plist(items: Iterable[Any] = ()) -> PList:
    """Build a PList with the same order as the iterable (head = first item)."""
    out = NIL
    for item in reversed(list(items)):
        out = out.cons(item)
    return out

