"""No handler in src/dcroadmap catches every error: a bare `except:` or an
`except Exception` would turn any failed step, a programming error included,
into a partial result.  A handler names the errors its route hands on."""

import ast
import pathlib

import dcroadmap.mpoly

PACKAGE = pathlib.Path(dcroadmap.mpoly.__file__).parent
BROAD = {"Exception", "BaseException"}


def _broad_handlers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(isinstance(t, ast.Name) and t.id in BROAD for t in types):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_bare_or_catch_all_handlers():
    found = [h for path in sorted(PACKAGE.glob("*.py")) for h in _broad_handlers(path)]
    assert found == []
