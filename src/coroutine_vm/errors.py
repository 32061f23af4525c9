"""Exception types shared across the workbench.

Scope/translation errors carry a *term path*: the tuple of child selectors
("fn" / "arg" / "body") leading from the root to the offending subterm, so the
CLI can localize a failure inside a printed term.

No walker carries a path. Every walker visits a term's nodes in
left-to-right pre-order and counts its visits; when it raises, path_at
rebuilds the path of the node it stopped at from the root and that count,
so only a failure pays for a path.
"""

from __future__ import annotations

from .terms import App, NApp, NVar, Var

TermPath = tuple[str, ...]
PathLink = tuple["PathLink", str] | None


def flatten_path(link: PathLink) -> TermPath:
    """The selectors from the root down to the node that link was made for."""
    steps = []
    while link is not None:
        link, step = link
        steps.append(step)
    steps.reverse()
    return tuple(steps)


def path_at(root, n: int) -> TermPath:
    """The path of the n-th node of root in left-to-right pre-order, the root being the first."""
    todo: list[tuple[object, PathLink]] = [(root, None)]
    for _ in range(n - 1):
        node, link = todo.pop()
        cls = type(node)
        if cls is App or cls is NApp:
            todo.append((node.arg, (link, "arg")))
            todo.append((node.fn, (link, "fn")))
        elif cls is not Var and cls is not NVar:
            todo.append((node.body, (link, "body")))
    return flatten_path(todo[-1][1])


def format_path(path: TermPath) -> str:
    return "root" if not path else "root." + ".".join(path)


class WorkbenchError(Exception):
    """Base class for all input-level failures (parsing, scoping, translation)."""


class ParseError(WorkbenchError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnboundNameError(WorkbenchError):
    """An identifier occurs with no enclosing binder for it."""

    def __init__(self, name: str, path: TermPath, kind: str = "variable"):
        super().__init__(f"unbound {kind} {name!r} at {format_path(path)}")
        self.name = name
        self.path = path


class NotVisibleError(WorkbenchError):
    """A variable is bound, but not visible in the coroutine where it occurs."""

    def __init__(self, name: str, path: TermPath):
        super().__init__(f"variable {name!r} is bound but not visible in the current coroutine at {format_path(path)}")
        self.name = name
        self.path = path


class UnsafeLocalIndexError(WorkbenchError):
    """A local index points past the end of the current visibility vector."""

    def __init__(self, index: int, vector_len: int, path: TermPath):
        super().__init__(f"local index {index} out of range (visible vector has length {vector_len}) at {format_path(path)}")
        self.index = index
        self.path = path


class OpenMuTermError(WorkbenchError):
    """A context label is not covered by the label table/map in scope."""

    def __init__(self, label: int | str, table_len: int, path: TermPath):
        super().__init__(
            f"context label {label!r} not in scope (table has {table_len} entr{'y' if table_len == 1 else 'ies'}) at {format_path(path)}"
        )
        self.label = label
        self.path = path


class NotSafeError(WorkbenchError):
    """A global index resolves to a binder outside the current visibility vector."""

    def __init__(self, index: int, path: TermPath):
        super().__init__(f"variable #{index} at {format_path(path)} is not visible in its coroutine")
        self.index = index
        self.path = path


class OpenTermError(WorkbenchError):
    """A machine was asked to load a term that is not closed/well-scoped."""
