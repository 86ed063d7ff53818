"""No function in src/dcroadmap binds a name by a plain `name = ...` that it
never reads: such a store is work whose result is thrown away.  Names that
start with an underscore, unpacking targets and loop targets are exempt,
and so are the names a function declares global or nonlocal.  A read in a
nested function or comprehension counts, and so does `name += ...`.
Likewise no underscore-named function, a module's own helper whose every
caller is in the package, takes a parameter it never reads: its callers
pass a value that nothing uses.  Dunder methods keep the signature Python
gives them, and parameters that start with an underscore are exempt.  This
is an AST check, so it also covers the modules that no other test runs.
(No pyflakes here.)"""

import ast
import pathlib

import dcroadmap.mpoly

PACKAGE = pathlib.Path(dcroadmap.mpoly.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(fn):
    """The nodes of fn's body outside its nested functions and classes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _dead_stores(source, name):
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, FUNCTIONS):
            continue
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        found += [f"{name}:{node.lineno}: {node.targets[0].id}" for node in _own_nodes(fn)
                  if isinstance(node, ast.Assign) and len(node.targets) == 1
                  and isinstance(node.targets[0], ast.Name)
                  and not node.targets[0].id.startswith("_")
                  and node.targets[0].id not in read]
        if fn.name.startswith("_") and not fn.name.endswith("__"):
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            found += [f"{name}:{fn.lineno}: {fn.name}({a.arg})" for a in params
                      if not a.arg.startswith("_") and a.arg not in read]
    return found


def test_no_function_stores_a_name_it_never_reads():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _dead_stores(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_check_sees_each_form():
    source = """
def f(xs):
    dead = len(xs)
    used = 1
    total = 0
    total += used
    _spare = 2
    a, b = xs
    for item in xs:
        pass
    def inner():
        late = 3
        return seen
    seen = 4
    other = lambda: dead_too
    dead_too = 5
    return inner
def _helper(used, unused, _spare, *rest, flag=None, **extra):
    return used + len(rest) + extra["k"]
def public(unused):
    return 1
class C:
    def __init__(self, unused):
        pass
    def _method(self, unused):
        return self
"""
    hits = [hit.split(": ")[1] for hit in _dead_stores(source, "m")]
    assert sorted(hits) == ["_helper(flag)", "_helper(unused)", "_method(unused)",
                            "dead", "late", "other"]
