"""Spec-file parsing, subcommand behaviour, exit codes, and report stability."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import shlex

import pytest

from charp import InputError, ideals
from charp.cli import build_parser, main, parse_spec
from charp.ideals import GroebnerBudget

ROOT = pathlib.Path(__file__).resolve().parent.parent
README_REPORTS = ROOT / "tests" / "data" / "readme_reports.json"


DEMO = """
[ring]
p = 2
vars = X, Y

[ideal a]
gens = X^2, X*Y

[ideal xp]
gens = X

[ideal xyp]
gens = X, Y

[fseq s]
kind = frobenius-powers
ideal = a

[fseq fg]
kind = fg-perfection
ideal = a
k = 0

[fseq both]
kind = intersection
of = s, cp

[fseq cp]
kind = constant-prime
ideal = xp
"""

CUSP = """
[ring]
p = 2
vars = U, V
quotient = V^2 + U^3
reduced = true

[ideal u]
gens = U
"""

TABLE = """
[ring]
p = 2
vars = X

[ideal a0]
gens = X

[ideal a1]
gens = X^2

[ideal a2]
gens = X^3

[ideal a3]
gens = X^4

[fseq bad]
kind = table
terms = a0, a1, a2, a3
"""


@pytest.fixture
def demo(tmp_path):
    f = tmp_path / "demo.ini"
    f.write_text(DEMO)
    return str(f)


@pytest.fixture
def cusp(tmp_path):
    f = tmp_path / "cusp.ini"
    f.write_text(CUSP)
    return str(f)


@pytest.fixture
def table(tmp_path):
    f = tmp_path / "table.ini"
    f.write_text(TABLE)
    return str(f)


def run_json(capsys, *argv):
    code = main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- spec parsing ----------------------------------------------------------------


def test_parse_spec_resolves_everything(demo):
    spec = parse_spec(demo)
    assert set(spec.ideals) == {"a", "xp", "xyp"}
    assert set(spec.fseqs) == {"s", "fg", "both", "cp"}
    assert spec.fseqs["both"].term(1) == spec.fseqs["s"].term(1).intersect(
        spec.fseqs["cp"].term(1))


def test_parse_spec_rejects_unknown_variable(tmp_path):
    f = tmp_path / "bad.ini"
    f.write_text("[ring]\np = 2\nvars = X\n\n[ideal a]\ngens = Z\n")
    with pytest.raises(InputError):
        parse_spec(str(f))


def test_parse_spec_rejects_composite_characteristic(tmp_path):
    f = tmp_path / "bad.ini"
    f.write_text("[ring]\np = 4\nvars = X\n")
    with pytest.raises(InputError):
        parse_spec(str(f))


def test_parse_spec_rejects_unknown_section(tmp_path):
    f = tmp_path / "bad.ini"
    f.write_text("[ring]\np = 2\nvars = X\n\n[mystery]\nfoo = 1\n")
    with pytest.raises(InputError):
        parse_spec(str(f))


def test_parse_spec_rejects_fseq_cycle(tmp_path):
    f = tmp_path / "bad.ini"
    f.write_text("[ring]\np = 2\nvars = X\n\n[fseq a]\nkind = intersection\nof = a\n")
    with pytest.raises(InputError):
        parse_spec(str(f))


@pytest.mark.parametrize("key, value", [("k", "two"), ("max_e", "1.5"), ("confirm", "")])
def test_parse_spec_rejects_non_integer_fseq_keys(tmp_path, key, value):
    kind = "fg-perfection" if key == "k" else "canonical"
    f = tmp_path / "bad.ini"
    f.write_text(f"[ring]\np = 2\nvars = X\n\n[ideal a]\ngens = X\n\n"
                 f"[fseq s]\nkind = {kind}\nideal = a\n{key} = {value}\n")
    with pytest.raises(InputError, match=rf"'{key}' must be an integer.*\[fseq s\]"):
        parse_spec(str(f))


def test_parse_spec_rejects_non_boolean_reduced(tmp_path):
    f = tmp_path / "bad.ini"
    f.write_text("[ring]\np = 2\nvars = U, V\nquotient = V^2 + U^3\nreduced = maybe\n")
    with pytest.raises(InputError, match=r"'reduced' must be true or false.*\[ring\]"):
        parse_spec(str(f))


# -- exit code matrix --------------------------------------------------------------


def test_exit_codes(demo, cusp, table, tmp_path, capsys):
    ok = main(["gb", demo, "--ideal", "a"])
    assert ok == 0
    verified = main(["fseq", "verify", demo, "--fseq", "s", "--depth", "3"])
    assert verified == 0
    failed = main(["fseq", "verify", table, "--fseq", "bad", "--depth", "3"])
    assert failed == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[ring]\np = 4\nvars = X\n")
    input_err = main(["gb", str(bad), "--ideal", "a"])
    assert input_err == 2
    budget = main(["gb", demo, "--ideal", "a", "--budget-degree", "2"])
    assert budget == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["frob", "power", "specs/demo.ini", "--ideal", "a", "--e", "-1"],
    ["lg2", "specs/demo.ini", "--ideal", "a", "--primes", "px,pxy", "--h", "2", "--n", "-1"],
    ["frob", "closure", "specs/cusp.ini", "--ideal", "u", "--max-e", "0"],
    ["frob", "closure", "specs/cusp.ini", "--ideal", "u", "--confirm", "0"],
    ["perfection", "decompose", "specs/demo.ini", "--fseq", "upstairs", "--depth", "-1"],
    ["gb", "specs/demo.ini", "--ideal", "a", "--budget-pairs", "0"],
    ["gb", "specs/demo.ini", "--ideal", "a", "--budget-terms", "0"],
    ["gb", "specs/demo.ini", "--ideal", "a", "--budget-degree", "0"],
    ["ex8", "--p", "7", "--l", "2", "--t", "a", "--depth", "1"],
], ids=["power-e", "lg2-n", "closure-max-e", "closure-confirm", "decompose-depth",
        "budget-pairs", "budget-terms", "budget-degree", "ex8-t"])
def test_bad_numbers_are_input_errors(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code, data = run_json(capsys, *argv)
    assert code == 2
    assert data["result"]["error_kind"] == "InputError"


# U + 1 is a valid hint; the localised terms then break the root law in the cusp
@pytest.mark.parametrize("shint, code", [("V", 2), ("U", 2), ("U + 1", 1)])
def test_localize_contract_hint_inside_prime_exits_2_from_a_spec(shint, code, tmp_path, capsys):
    spec = tmp_path / "loc.ini"
    spec.write_text(CUSP + "\n[ideal m]\ngens = U, V\n\n[fseq s]\nkind = frobenius-powers\n"
                    "ideal = u\n\n[fseq loc]\nkind = localize-contract\ninner = s\n"
                    f"prime = m\nshint = {shint}\n")
    got, data = run_json(capsys, "fseq", "verify", str(spec), "--fseq", "loc", "--depth", "1")
    assert got == code
    if code == 2:
        assert data["result"]["error_kind"] == "InputError"


# -- budgets ---------------------------------------------------------------------


def _readme_lines():
    text = (ROOT / "README.md").read_text()
    return [line for line in text.splitlines() if line.startswith("charp ")]


def _readme_commands():
    return [shlex.split(line)[1:] for line in _readme_lines()]


def test_every_basis_runs_under_the_user_budget(monkeypatch, capsys):
    seen = []
    run = ideals._Buchberger.run

    def spy(self, gens):
        seen.append(self.budget)
        return run(self, gens)

    monkeypatch.setattr(ideals._Buchberger, "run", spy)
    monkeypatch.chdir(ROOT)
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        seen.clear()
        assert main(argv + ["--budget-pairs", "150000"]) == 0, argv
        assert seen, argv
        assert set(seen) == {GroebnerBudget(max_pairs=150000)}, argv
    capsys.readouterr()


def test_budget_pairs_bounds_every_basis_of_a_command(capsys):
    spec = str(ROOT / "specs" / "demo.ini")
    code = main(["lg2", spec, "--ideal", "a", "--primes", "px,pxy", "--h", "2",
                 "--n", "1", "--mode", "fclosure", "--budget-pairs", "1"])
    assert code == 3
    capsys.readouterr()


def test_gb_report(demo, capsys):
    code, data = run_json(capsys, "gb", demo, "--ideal", "a")
    assert code == 0
    assert data["format_version"] == 1
    assert data["result"]["groebner"] == ["X*Y", "X^2"]
    assert data["ring"] == {"p": 2, "vars": ["X", "Y"], "order": "grevlex"}
    assert data["timing_ms"] is None
    assert data["budget"]["max_pairs"] == 200000


def test_frob_power_and_root_reports(demo, capsys):
    code, data = run_json(capsys, "frob", "power", demo, "--ideal", "a", "--e", "2")
    assert code == 0
    assert data["result"]["groebner"] == ["X^4*Y^4", "X^8"]
    code, data = run_json(capsys, "frob", "root", demo, "--ideal", "a")
    assert code == 0
    assert data["result"]["groebner"] == ["X"]


def test_frob_closure_report_cusp(cusp, capsys):
    code, data = run_json(capsys, "frob", "closure", cusp, "--ideal", "u")
    assert code == 0
    r = data["result"]
    assert r["closure"] == ["V", "U"]
    assert r["stabilized_at"] == 1
    assert r["is_f_closed"] is False
    assert r["certified"] is False
    assert data["witnesses"] == [{"element": "V", "exponent": 1}]


def test_decompose_report(demo, capsys):
    code, data = run_json(capsys, "decompose", demo, "--ideal", "a")
    assert code == 0
    comps = data["result"]["components"]
    assert [c["radical_gens"] for c in comps] == [["X"], ["Y", "X"]]
    assert data["result"]["minimal"] is True


def test_fseq_verify_failure_payload(table, capsys):
    code, data = run_json(capsys, "fseq", "verify", table, "--fseq", "bad", "--depth", "3")
    assert code == 1
    w = data["witnesses"][0]
    assert w["index"] == 2
    assert w["expected"] == ["X^3"]
    assert w["got"] == ["X^2"]


def test_fseq_growth_find_h(demo, capsys):
    code, data = run_json(capsys, "fseq", "growth", demo, "--fseq", "s",
                          "--find-h", "--depth", "3")
    assert code == 0
    cert = data["result"]["certificate"]
    assert cert["h"] == 2
    assert all(c["ok"] for c in cert["checks"])


def test_perfection_member_reports(demo, capsys):
    code, data = run_json(capsys, "perfection", "member", demo, "--fseq", "fg",
                          "--elem", "X", "--root", "1")
    assert code == 0
    assert data["result"]["member"] is False
    code, data = run_json(capsys, "perfection", "member", demo, "--ideal", "a",
                          "--k", "0", "--elem", "X^4", "--root", "1")
    assert code == 0
    assert data["result"]["member"] is True
    assert data["result"]["normalized_depth"] == 0
    assert data["result"]["normalized_body"] == "X^2"


def test_perfection_decompose_report(demo, capsys):
    code, data = run_json(capsys, "perfection", "decompose", demo, "--fseq", "fg",
                          "--depth", "3")
    assert code == 0
    comps = data["result"]["components"]
    assert len(comps) == 2
    assert comps[0]["terms"][0] == ["X"]


def test_lg2_report(demo, capsys):
    code, data = run_json(capsys, "lg2", demo, "--ideal", "a",
                          "--primes", "xp, xyp", "--h", "2", "--n", "1")
    assert code == 0
    comps = data["result"]["components"]
    assert comps[0]["component_gens"] == ["X^2"]
    code = main(["lg2", demo, "--ideal", "a", "--primes", "xp", "--h", "2", "--n", "1"])
    assert code == 1  # dropping the embedded prime breaks the identity


def test_ex8_report(capsys):
    code, data = run_json(capsys, "ex8", "--p", "5", "--l", "2", "--t", "1,1", "--depth", "2")
    assert code == 0
    r = data["result"]
    assert r["ass_sizes"] == [1, 2, 3]
    assert r["fseq_verified"] is True
    assert r["no_primary_decomposition"] is True
    assert all(c["ok"] for c in r["certificate"]["checks"])
    code = main(["ex8", "--p", "3", "--l", "2", "--t", "1,1,1", "--depth", "3"])
    assert code == 2  # field too small for 3 distinct constants
    capsys.readouterr()


# -- determinism ----------------------------------------------------------------------


def test_json_reports_byte_identical(demo, capsys):
    argv = ["decompose", demo, "--ideal", "a", "--json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def _readme_report_hashes() -> list:
    """sha256 of the --json report and of the text output of every README
    `charp ...` line, run in-process from the repository root."""
    out = []
    for line in _readme_lines():
        entry = {"line": line}
        for kind, extra in (("json", ["--json"]), ("text", [])):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(shlex.split(line)[1:] + extra)
            entry[f"{kind}_sha256"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        out.append(entry)
    return out


def test_readme_reports_match_recorded_hashes(monkeypatch):
    """A change that alters a README report on purpose regenerates
    tests/data/readme_reports.json (PYTHONPATH=src python tests/test_cli.py)."""
    monkeypatch.chdir(ROOT)
    recorded = json.loads(README_REPORTS.read_text())
    assert len(recorded) >= 10
    assert _readme_report_hashes() == recorded


# -- the shared parser ------------------------------------------------------------

# one process, one parser: parse errors, input errors and budget stops in between
REUSE_SEQUENCE = [
    (["gb", "specs/demo.ini", "--ideal", "a", "--json"], 0),
    (["frob", "closure", "specs/cusp.ini", "--ideal", "u", "--json"], 0),
    (["gb", "specs/demo.ini"], 2),
    (["fseq", "growth", "specs/demo.ini", "--fseq", "powers", "--h", "2", "--depth", "2"], 0),
    (["fseq", "growth", "specs/demo.ini", "--fseq", "powers", "--find-h", "--depth", "2",
      "--json"], 0),
    (["gb", "specs/demo.ini", "--ideal", "nope", "--json"], 2),
    (["frob", "power", "specs/demo.ini", "--ideal", "a", "--e", "2", "--budget-degree", "3",
      "--json"], 3),
    (["decompose", "specs/demo.ini", "--ideal", "a"], 0),
    (["perfection", "member", "specs/demo.ini", "--ideal", "a", "--elem", "X^4", "--root", "1",
      "--json"], 0),
    (["ex8", "--p", "5", "--l", "2", "--t", "1,1", "--depth", "1", "--json"], 0),
    (["frob", "root", "specs/demo.ini", "--ideal", "a", "--json"], 0),
]


def _run_captured(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_shared_parser_gives_the_bytes_of_a_fresh_one(monkeypatch):
    monkeypatch.chdir(ROOT)
    build_parser.cache_clear()
    shared = [_run_captured(argv) for argv, _ in REUSE_SEQUENCE]
    for (argv, code), got in zip(REUSE_SEQUENCE, shared):
        build_parser.cache_clear()
        assert got == _run_captured(argv), argv
        assert got[0] == code, argv


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    monkeypatch.chdir(ROOT)
    build_parser.cache_clear()
    assert main(["gb", "specs/demo.ini", "--ideal", "a"]) == 0
    one_build = len(built)
    assert one_build > 0
    for _ in range(5):
        assert main(["frob", "root", "specs/demo.ini", "--ideal", "a"]) == 0
    assert len(built) == one_build
    assert build_parser.cache_info().misses == 1
    capsys.readouterr()


COMMON_FLAGS = {"--json", "--timing", "--budget-pairs", "--budget-terms", "--budget-degree"}
LEAF_ARGUMENTS = {
    "gb": {"spec", "--ideal"},
    "frob power": {"spec", "--ideal", "--e"},
    "frob root": {"spec", "--ideal"},
    "frob closure": {"spec", "--ideal", "--max-e", "--confirm"},
    "decompose": {"spec", "--ideal"},
    "fseq verify": {"spec", "--fseq", "--depth"},
    "fseq growth": {"spec", "--fseq", "--h", "--find-h", "--depth"},
    "perfection member": {"spec", "--fseq", "--ideal", "--k", "--elem", "--root"},
    "perfection decompose": {"spec", "--fseq", "--ideal", "--k", "--depth"},
    "lg2": {"spec", "--ideal", "--primes", "--h", "--n", "--mode"},
    "ex8": {"--p", "--l", "--t", "--depth"},
}


@pytest.mark.parametrize("command", sorted(LEAF_ARGUMENTS))
def test_leaf_help_lists_its_own_and_the_common_flags(command):
    code, out, err = _run_captured(command.split() + ["--help"])
    assert code == 0 and err == ""
    assert out.startswith(f"usage: charp {command} ")
    listed = {m.group(1) for m in re.finditer(r"^  ([^\s,]+)", out, re.MULTILINE)}
    assert listed == {"-h"} | COMMON_FLAGS | LEAF_ARGUMENTS[command]


def test_print_parse_round_trip_via_reports(demo, capsys):
    spec = parse_spec(demo)
    code, data = run_json(capsys, "gb", demo, "--ideal", "a")
    ring = spec.ring
    for s in data["result"]["groebner"]:
        f = ring.parse(s)
        assert str(f) == s


def test_timing_flag_fills_timing(demo, capsys):
    code, data = run_json(capsys, "gb", demo, "--ideal", "a", "--timing")
    assert code == 0
    assert isinstance(data["timing_ms"], float)


if __name__ == "__main__":
    os.chdir(ROOT)
    README_REPORTS.write_text(json.dumps(_readme_report_hashes(), indent=2) + "\n")
