"""The benchmark still runs against charp.

``perfbench/spans.py`` patches charp by module, class and attribute name, so
a refactor that moves or renames a layer function breaks ``perfbench/run.py
--trace 1`` without failing anything else in this suite.  Likewise the
workloads' checks in ``perfbench/workloads.py`` read charp's results
(exponent tuples, terms, lead coefficients), so a change to those breaks
the benchmark's gates, and a change that moves a report or a basis moves the
digests pinned in ``perfbench/reference.json``.
"""

import argparse
import json
import os
import pathlib
import shutil
import sys

import pytest

import charp._kernels
import charp.cli
import charp.decomposition
import charp.frobenius
import charp.ideals
import charp.poly

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402
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


# critical pairs of one pass at the reference seed, as ``ideals.pairs_per_pass``
PAIRS_PER_PASS = {"gb_dense": 10663, "frobenius_closure": 7747, "cli_specs": 3942}
# ceilings on the division-kernel calls, exponent decodings and Polynomial
# hashes of one frobenius_closure pass at the reference seed: generators and
# basis elements are members without division, Frobenius powers and roots are
# tested on packed ints, an empty S-polynomial or a lone basis lead is not
# divided, an elimination stops decoding a basis element at its first
# auxiliary term, an ideal drops repeated generators on their ints, an
# F-closure in a polynomial ring takes no Frobenius power or root, and a
# monomial route's result that is minimal by construction keeps its rows, a
# text that parses is never scanned for the columns of its tokens, and an
# F-closure in a polynomial ring tests no membership and searches no witness
CALLS_PER_PASS = {"normal_form": 1443, "unpack": 2459, "__hash__": 0, "frobenius": 1614,
                  "try_p_root": 1507, "_tokenize": 0, "contains": 17, "_closure_witnesses": 1}
# ceilings on the decodings, redundancy searches, Polynomial products,
# outside calls of the merge kernel, divisions, Polynomial hashes and argparse
# parses in one cli_specs pass: products check overflow on packed ints,
# monomial decomposition runs no redundancy search, monomial powers are packed
# sums, monomial membership and minimal generators test packed ints, a parsed
# term is packed as it is, monomial localisation zeroes exponents instead of
# substituting 1, a shift translates packed ints term by term, a basis of
# one-term generators forms no S-polynomial, an ideal drops repeated
# generators on their ints, a leaf's argv is parsed by the leaf parser alone,
# an F-closure in a polynomial ring takes no Frobenius power, monomial routes
# build their results from exponent rows without the validating
# Ring.monomial, growth certificates test packed ints scaled by p^n, a text
# that parses is never scanned for the columns of its tokens, and the growth
# of Frobenius powers splits term 0 alone and scales its components' rows, and
# a component's radical, or a monomial ideal used only to test membership,
# decodes no row
CLI_CALLS_PER_PASS = {"unpack": 11936, "_redundant_index": 305, "__mul__": 112,
                      "combine": 232, "normal_form": 314, "s_normal_form": 294,
                      "__hash__": 0, "parse_known_args": 1511, "frobenius": 4160,
                      "monomial": 48, "_tokenize": 0, "_split_irreducible": 1445}


@pytest.mark.parametrize("name", sorted(PAIRS_PER_PASS))
def test_reference_pass_matches_pinned_digest(name, monkeypatch):
    """One pass at the reference seed, checked as the benchmark checks it,
    hashes to the digest in perfbench/reference.json (read, never written)."""
    monkeypatch.chdir(ROOT)
    work = ROOT / "perfbench" / "_work"
    monkeypatch.setattr(workloads, "WORK_DIR", os.path.relpath(work, ROOT))
    workload = workloads.WORKLOADS[name]()
    instances = workload.generate(bench.DEFAULT_SEED)
    checker = bench.Checker(workload, instances)
    try:
        if hasattr(workload, "prepare"):
            workload.prepare(instances)
        records, _ = bench.run_loop(workload, instances, indices=range(len(instances)),
                                    checker=checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert not any(failed for *_, failed in records), checker.errors
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert checker.digest() == reference["sha256"][name]
    assert sum(checker.pairs.values()) == PAIRS_PER_PASS[name]


def _count_calls(monkeypatch, workload, instances, targets):
    """Calls to each (owner, name) of targets over running the instances."""
    calls = {name: 0 for _, name in targets}
    for owner, name in targets:
        def spy(*args, real=getattr(owner, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, spy)
    for inst in instances:
        workload.run(inst)
    monkeypatch.undo()
    return calls


def test_frobenius_closure_pass_divides_and_decodes_no_more(monkeypatch):
    """One frobenius_closure pass at the reference seed calls the division
    kernel, decodes exponent tuples, hashes Polynomials, takes Frobenius
    powers and p-th roots of them, finds token columns, tests ideal membership
    and searches F-closure witnesses at most as often as CALLS_PER_PASS."""
    monkeypatch.chdir(ROOT)
    workload = workloads.WORKLOADS["frobenius_closure"]()
    calls = _count_calls(monkeypatch, workload, workload.generate(bench.DEFAULT_SEED),
                         ((charp._kernels, "normal_form"), (charp.poly.Ring, "unpack"),
                          (charp.poly.Polynomial, "__hash__"),
                          (charp.poly.Polynomial, "frobenius"),
                          (charp.poly.Polynomial, "try_p_root"), (charp.poly, "_tokenize"),
                          (charp.ideals.Ideal, "contains"), (charp.frobenius, "_closure_witnesses")))
    assert all(calls[name] <= bound for name, bound in CALLS_PER_PASS.items()), calls


def test_cli_specs_pass_decodes_and_searches_no_more(monkeypatch, tmp_path):
    """One cli_specs pass at the reference seed decodes exponent tuples, looks
    for redundant components, multiplies Polynomials, merges raw terms,
    divides, hashes Polynomials, runs argparse, takes Frobenius powers of
    Polynomials, builds checked monomials, finds token columns and splits
    monomial ideals at most as often as CLI_CALLS_PER_PASS."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(workloads, "WORK_DIR", str(tmp_path))
    workload = workloads.WORKLOADS["cli_specs"]()
    instances = workload.generate(bench.DEFAULT_SEED)
    workload.prepare(instances)
    calls = _count_calls(monkeypatch, workload, instances,
                         ((charp.poly.Ring, "unpack"),
                          (charp.decomposition, "_redundant_index"),
                          (charp.poly.Polynomial, "__mul__"), (charp._kernels, "combine"),
                          (charp._kernels, "normal_form"), (charp._kernels, "s_normal_form"),
                          (charp.poly.Polynomial, "__hash__"),
                          (argparse.ArgumentParser, "parse_known_args"),
                          (charp.poly.Polynomial, "frobenius"), (charp.poly.Ring, "monomial"),
                          (charp.poly, "_tokenize"), (charp.decomposition, "_split_irreducible")))
    assert all(calls[name] <= bound for name, bound in CLI_CALLS_PER_PASS.items()), calls


# ceiling on the division-kernel calls of ex8_build(7, 2, (1,) * 4, 4) under a
# raised degree budget: each shifted component's radical is checked to contain
# it in the component's monomial frame, by packed divisibility, not by division
EX8_NORMAL_FORMS = 547


def test_ex8_build_divides_no_more(monkeypatch):
    calls = []
    real = charp._kernels.normal_form
    monkeypatch.setattr(charp._kernels, "normal_form",
                        lambda *args: calls.append(None) or real(*args))
    with charp.ideals.using_budget(charp.ideals.GroebnerBudget(max_degree=10 ** 11)):
        charp.decomposition.ex8_build(7, 2, (1,) * 4, 4)
    assert len(calls) <= EX8_NORMAL_FORMS
