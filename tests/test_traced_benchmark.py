"""The benchmark still runs against charp.

``perfbench/spans.py`` patches charp by module, class and attribute name, so
a refactor that moves or renames a layer function breaks ``perfbench/run.py
--trace 1`` without failing anything else in this suite.  Likewise the
workloads' checks in ``perfbench/workloads.py`` read charp's results
(exponent tuples, terms, lead coefficients), so a change to those breaks
the benchmark's gates.
"""

import pathlib
import sys

import pytest

import charp.cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def _owner(module, cls):
    owner = sys.modules[module]
    return owner if cls is None else getattr(owner, cls)


def test_tracer_wraps_every_layer_and_restores_it(monkeypatch, capsys):
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        wrapped = {(id(target), attr) for target, attr, _ in patches}
        for name, module, cls, attr, _ in spans.LAYER_POINTS:
            assert (id(_owner(module, cls)), attr) in wrapped, name
        monkeypatch.chdir(ROOT)
        assert charp.cli.main(["frob", "closure", "specs/cusp.ini", "--ideal", "u"]) == 0
    finally:
        spans.uninstall(patches)
    capsys.readouterr()
    calls = tracer.calls()
    assert calls["frobenius.f_closure"] == 1
    assert calls["frobenius.frob_root"] >= 1
    for target, attr, original in patches:
        assert vars(target)[attr] is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_warmup_passes_its_check(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = workloads.WORKLOADS[name]()
    inst = workload.warmup()
    raw = workload.run(inst)
    assert workload.canon(inst, raw)
    assert workload.check(inst, raw) is None
