"""The package's surface: every function and class it defines has a caller,
every name it exports exists, its value records behave as frozen dataclasses
did, and importing it stays cheap."""

import ast
import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from charp import GREVLEX, LEX, GroebnerBudget, MonomialOrder, elim
from charp.frobenius import FClosureResult
from charp.ideals import DEFAULT_BUDGET

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


def test_importing_the_cli_loads_no_dataclasses():
    """Every command is one process, so every command pays for what
    ``import charp.cli`` loads; ``dataclasses`` brings ``inspect`` with it."""
    code = ("import sys; before = set(sys.modules); import charp, charp.cli; "
            "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == []


def test_no_module_imports_dataclasses():
    found = [f"{path.name}:{node.lineno}"
             for path in PACKAGE for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
             or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)]
    assert found == []


@pytest.mark.parametrize("record, same, fields, text", [
    (GroebnerBudget(max_pairs=5), GroebnerBudget(5, 100_000, 4096),
     {"max_pairs": 5, "max_poly_terms": 100_000, "max_degree": 4096},
     "GroebnerBudget(max_pairs=5, max_poly_terms=100000, max_degree=4096)"),
    (GroebnerBudget(), DEFAULT_BUDGET,
     {"max_pairs": 200_000, "max_poly_terms": 100_000, "max_degree": 4096},
     "GroebnerBudget(max_pairs=200000, max_poly_terms=100000, max_degree=4096)"),
    (elim(2), MonomialOrder(kind="elim", block=2), {"kind": "elim", "block": 2},
     "MonomialOrder(kind='elim', block=2)"),
    (LEX, MonomialOrder("lex"), {"kind": "lex", "block": 0}, "MonomialOrder(kind='lex', block=0)"),
])
def test_value_records_keep_frozen_dataclass_semantics(record, same, fields, text):
    """Budgets and orders are hashed into ring hashes and basis-cache keys."""
    values = tuple(fields.values())
    assert {name: getattr(record, name) for name in fields} == fields
    assert record == same and hash(record) == hash(same) == hash(values)
    assert record != values and values != record  # never equal to a tuple
    assert repr(record) == text
    assert copy.deepcopy(record) == record and pickle.loads(pickle.dumps(record)) == record
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert GREVLEX != LEX and GroebnerBudget(max_degree=5) != GroebnerBudget(max_pairs=5)


def test_f_closure_results_never_share_witnesses():
    first, second = (FClosureResult(None, 0, False, []) for _ in range(2))
    assert first.witnesses == [] and first.witnesses is not second.witnesses
