"""No function of the library calls itself, directly or through others of its module.

Each module's call graph is built with the standard ast module. Its nodes are
the module's functions: module-level ones, methods (Class.name) and nested
ones (outer.name). A call adds an edge when it names one of them: a bare name
resolved as Python resolves it (enclosing functions first, then the module),
self.name or cls.name inside a class, or Class.name. Calls through a table or
another module are not followed. A cycle in the graph is recursion that deep
input could drive into RecursionError.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coroutine_vm"


def call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """The edges caller -> callee among the functions that tree defines."""
    functions: dict[str, tuple[ast.AST, str, str | None]] = {}  # name -> (node, enclosing function, class)
    classes: set[str] = set()
    todo = [(node, "", None) for node in tree.body]
    while todo:
        node, scope, cls = todo.pop()
        if isinstance(node, ast.ClassDef):
            classes.add(node.name)
            todo.extend((child, scope, node.name) for child in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{scope or cls or ''}.{node.name}".lstrip(".")
            functions[name] = (node, scope, cls)
            todo.extend((child, name, None) for child in node.body)
        else:
            todo.extend((child, scope, cls) for child in ast.iter_child_nodes(node))

    def resolve(call: ast.Call, scope: str, cls: str | None) -> str | None:
        target = call.func
        if isinstance(target, ast.Name):
            while True:
                candidate = f"{scope}.{target.id}".lstrip(".")
                if candidate in functions:
                    return candidate
                if not scope:
                    return None
                scope = functions[scope][1]
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            owner = target.value.id
            if owner in ("self", "cls"):
                owner = cls
            if owner in classes and f"{owner}.{target.attr}" in functions:
                return f"{owner}.{target.attr}"
        return None

    edges: dict[str, set[str]] = {name: set() for name in functions}
    for name, (node, _, cls) in functions.items():
        # the calls in this function's own body, not in the bodies it nests
        todo = list(ast.iter_child_nodes(node))
        while todo:
            child = todo.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, ast.Call):
                callee = resolve(child, name, cls)
                if callee is not None:
                    edges[name].add(callee)
            todo.extend(ast.iter_child_nodes(child))
    return edges


def cycles(edges: dict[str, set[str]]) -> list[list[str]]:
    """One cycle through each function that can reach itself, as a path from it back to it."""
    found = []
    for start in sorted(edges):
        paths = {start: [start]}
        todo = [start]
        while todo:
            node = todo.pop()
            for callee in sorted(edges[node]):
                if callee == start:
                    found.append(paths[node] + [start])
                    todo.clear()
                    break
                if callee not in paths:
                    paths[callee] = paths[node] + [callee]
                    todo.append(callee)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_function_is_recursive(path):
    assert cycles(call_graph(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_the_call_graph_sees_every_kind_of_recursion():
    source = '''
def direct(n):
    return direct(n - 1)

def ping(n):
    return pong(n)

def pong(n):
    return ping(n)

def outer(n):
    def inner(k):
        return inner(k - 1)
    return inner(n)

class Walker:
    def walk(self, n):
        return self.walk(n - 1)

    @classmethod
    def build(cls, n):
        return Walker.build(n)

def loop(items):
    return [len(item) for item in items]
'''
    found = {tuple(cycle) for cycle in cycles(call_graph(ast.parse(source)))}
    assert found == {
        ("direct", "direct"),
        ("ping", "pong", "ping"),
        ("pong", "ping", "pong"),
        ("outer.inner", "outer.inner"),
        ("Walker.walk", "Walker.walk"),
        ("Walker.build", "Walker.build"),
    }
