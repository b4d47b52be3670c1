"""The package's surface: every function and class it defines has a caller,
and every name it exports exists."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "charp").glob("*.py"))
# the library, the benchmark, and the acceptance criteria that state the paper's claims
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _references(path):
    """Every name the module uses: names, attributes, imported names, and
    string constants (the benchmark patches layers by name)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_has_a_caller():
    used = {name for path in CALLERS for name in _references(path)}
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path in PACKAGE for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert unused == []


def test_every_export_resolves():
    import charp
    assert [name for name in charp.__all__ if not hasattr(charp, name)] == []
    exec("from charp import *", {})
