"""Spec-file parsing, subcommand behaviour, exit codes, and report stability."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import sys

import pytest

import charp.cli
from charp import Ideal, InputError, ideals
from charp.cli import build_parser, main, parse_spec
from charp.frobenius import f_closure
from charp.ideals import GroebnerBudget
from charp.perfection import FSequence, VerifyResult

from conftest import cusp_ring, deadline

ROOT = pathlib.Path(__file__).resolve().parent.parent
README_REPORTS = ROOT / "tests" / "data" / "readme_reports.json"
CLI_ARGV = ROOT / "tests" / "data" / "cli_argv.json"


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


@pytest.mark.parametrize("quotient", ["quotient = V^2 + U^3\n", ""],
                         ids=["with-quotient", "without-quotient"])
def test_parse_spec_rejects_non_boolean_reduced(quotient, tmp_path):
    f = tmp_path / "bad.ini"
    f.write_text(f"[ring]\np = 2\nvars = U, V\n{quotient}reduced = maybe\n")
    with pytest.raises(InputError, match=r"'reduced' must be true or false.*\[ring\]"):
        parse_spec(str(f))


@pytest.mark.parametrize("kind, body", [("ideal", "gens = X"),
                                        ("fseq", "kind = constant-prime\nideal = a")],
                         ids=["ideal", "fseq"])
def test_parse_spec_rejects_duplicate_names(kind, body, tmp_path, capsys):
    f = tmp_path / "dup.ini"
    f.write_text(f"[ring]\np = 2\nvars = X, Y\n\n[ideal a]\ngens = Y\n\n"
                 f"[{kind} s]\n{body}\n\n[{kind}  s]\n{body}\n")
    with pytest.raises(InputError, match=rf"duplicate {kind} 's'.*dup.ini \[{kind}  s\]"):
        parse_spec(str(f))
    code, data = run_json(capsys, "gb", str(f), "--ideal", "a")
    assert code == 2
    assert data["result"]["error_kind"] == "InputError"


GB = ["gb", "bad.ini", "--ideal", "a"]
RING_X = "[ring]\np = 2\nvars = X\n\n[ideal a]\ngens = X\n\n"

# input errors of the spec reader and the perfection front end: spec text,
# argv, and the message with its location (None for one without)
SPEC_INPUT_ERRORS = {
    "no-ring": ("[ideal a]\ngens = X\n", GB, "spec file needs a [ring] section", "bad.ini"),
    "ring-key": ("[ring]\np = 2\nvars = X\nchar = 2\n", GB, "unknown [ring] keys ['char']",
                 "bad.ini"),
    "empty-vars": ("[ring]\np = 2\nvars = ,\n", GB, "ring key 'vars' must list variables",
                   "bad.ini [ring]"),
    "ideal-key": ("[ring]\np = 2\nvars = X\n\n[ideal a]\ngens = X\nkind = table\n", GB,
                  "unknown keys ['kind']", "bad.ini [ideal a]"),
    "fseq-key": (RING_X + "[fseq s]\nkind = constant-prime\nideal = a\ngens = X\n", GB,
                 "unknown keys ['gens']", "bad.ini [fseq s]"),
    "fseq-key-of-another-kind": (RING_X + "[fseq s]\nkind = frobenius-powers\nideal = a\nk = 7\n"
                                 "terms = nonsense\nshint = X+1\n", GB,
                                 "unknown keys ['k', 'shint', 'terms']", "bad.ini [fseq s]"),
    "fseq-names-unknown-fseq": (RING_X + "[fseq s]\nkind = intersection\nof = t\n", GB,
                                "unknown fseq 't'", "bad.ini"),
    "command-names-unknown-fseq": (RING_X + "[fseq s]\nkind = constant-prime\nideal = a\n",
                                   ["fseq", "verify", "bad.ini", "--fseq", "t", "--depth", "1"],
                                   "unknown fseq 't'; defined: ['s']", None),
    "fseq-names-unknown-ideal": (RING_X + "[fseq s]\nkind = constant-prime\nideal = b\n", GB,
                                 "fseq references unknown ideal 'b'", "bad.ini [fseq s]"),
    "table-without-terms": (RING_X + "[fseq s]\nkind = table\n", GB,
                            "table fseq needs 'terms'", "bad.ini [fseq s]"),
    "table-names-unknown-ideal": (RING_X + "[fseq s]\nkind = table\nterms = a, b\n", GB,
                                  "table references unknown ideal 'b'", "bad.ini [fseq s]"),
    "intersection-without-of": (RING_X + "[fseq s]\nkind = intersection\n", GB,
                                "intersection fseq needs 'of'", "bad.ini [fseq s]"),
    "unknown-kind": (RING_X + "[fseq s]\nkind = sequence\n", GB,
                     "unknown fseq kind 'sequence'", "bad.ini [fseq s]"),
    "perfection-without-input": (RING_X, ["perfection", "decompose", "bad.ini"],
                                 "give --fseq NAME or --ideal NAME", None),
}


@pytest.mark.parametrize("name", SPEC_INPUT_ERRORS)
def test_spec_input_errors_are_pinned(name, tmp_path, monkeypatch, capsys):
    text, argv, message, location = SPEC_INPUT_ERRORS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.ini").write_text(text)
    code, data = run_json(capsys, *argv)
    error = f"{message} (at {location})" if location else message
    assert (code, data["exit_status"]) == (2, 2)
    assert data["result"] == {"error": error, "error_kind": "InputError"}


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


@pytest.mark.parametrize("t", ["0,1,1", "1,-1,1"])
def test_ex8_rejects_multiplicities_below_1(t, capsys):
    code, data = run_json(capsys, "ex8", "--p", "7", "--l", "2", "--t", t, "--depth", "3")
    assert code == 2
    assert data["result"] == {"error": "multiplicities must be >= 1",
                              "error_kind": "InputError"}


# failure reports the README does not run: exit code, the error payload, and
# the sha256 of the --json report and of the text output
FAILURE_REPORTS = [
    ("frob closure specs/cusp.ini --ideal u --max-e 1 --confirm 2", 3,
     {"error": "F-closure chain still moving after 1 steps", "error_kind": "DepthExceeded",
      "partial_steps": [["U", "V^2"], ["V", "U"]]}, [],
     "41c801ed78bdc1914b61b649ccd3640724c5c08d69adb255b1bc8de6168e7811",
     "b319a330c47f4eb2b7a7e8fe221a2db95ebdfe1e96db39573beec92250dfeab4"),
    ("fseq growth specs/demo.ini --fseq powers --h 1 --depth 2", 1,
     {"error": "growth containment failed at term n=0, component i=1: "
               "(radical^1)^[p^0] escapes the component",
      "error_kind": "CertificateFailure"}, [{"n": 0, "i": 1}],
     "d3c5fa81366e5f1b1c255cb29b85ff64713187cdf4534f56f150411b02cc3eff",
     "829fe27e438ae5e1425210e16e5ec3344112fdd0465c1eb0def9c4e0968738e4"),
    ("ex8 --p 3 --l 2 --t 1,1,1 --depth 3", 2,
     {"error": "depth 3 needs 3 distinct constants but F_3 has only 2 nonzero ones",
      "error_kind": "DistinctLambdaExhausted"}, [],
     "e7b48632361bbba12bc8b34e5d58c508654df7b841e4da425815fb35ef2f79b8",
     "b681bc2ff25c0360a02953dea738f99fd99833c5e4a918e64699bc2e05094798"),
    ("lg2 specs/demo.ini --ideal a --primes px --h 2 --n 1", 1,
     {"error": "decomposition identity failed: components do not intersect to the "
               "target at n=1 (witness: X^2)",
      "error_kind": "IdentityFailure"}, [{"witness": "X^2"}],
     "6f2c802bc9d2fe16329f32c23faa45c1b61552f05e03393234c9985ad5861558",
     "46a66776f4a2c1a4c686806792eb0e64f7f2117f54fabe13b836ff6ecb7b7b3c"),
]


@pytest.mark.parametrize("line, code, result, witnesses, json_sha, text_sha", FAILURE_REPORTS,
                         ids=["depth", "certificate", "lambda", "identity"])
def test_failure_reports_are_pinned(line, code, result, witnesses, json_sha, text_sha,
                                    monkeypatch):
    monkeypatch.chdir(ROOT)
    got_code, out, err = _run_captured(line.split() + ["--json"])
    data = json.loads(out)
    assert (got_code, data["exit_status"], err) == (code, code, "")
    assert data["result"] == result
    assert data["witnesses"] == witnesses
    assert hashlib.sha256(out.encode()).hexdigest() == json_sha
    got_code, out, err = _run_captured(line.split())
    assert (got_code, err) == (code, "")
    assert out.count("\n") == 1
    assert hashlib.sha256(out.encode()).hexdigest() == text_sha


def test_budget_terms_exits_3(tmp_path, capsys):
    spec = tmp_path / "dense.ini"
    spec.write_text("[ring]\np = 3\nvars = X, Y, Z\n\n[ideal d]\n"
                    "gens = X^2+Y*Z, Y^2-X*Z, Z^2+2*X*Y-1\n")
    code, data = run_json(capsys, "gb", str(spec), "--ideal", "d", "--budget-terms", "2")
    assert code == 3
    assert data["result"]["error_kind"] == "GroebnerBudgetExceeded"
    assert data["result"]["error"] == "budget exceeded: max_poly_terms > 2"


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


@pytest.mark.parametrize("edit, argv, code, result", [
    (("p = 2", "p = 3"), ["--elem", "X", "--root", "30000000"], 3,
     {"error_kind": "ExponentOverflow"}),
    (("k = 0", "k = 1000000"), ["--elem", "X", "--root", "0"], 0,
     {"member": True, "normalized_depth": 0}),
    (None, ["--elem", "1", "--root", "1000000"], 0,
     {"member": False, "normalized_depth": 0, "normalized_body": "1"}),
], ids=["deep-element", "deep-spec-k", "deep-constant"])
def test_perfection_member_at_user_sized_depths(edit, argv, code, result, tmp_path, capsys):
    """A depth of millions, in --root or in a spec's k, ends within the
    deadline: a Frobenius power past EXP_LIMIT fails at once, a monomial
    root stops at its fixed point, and a constant has depth 0."""
    spec = tmp_path / "deep.ini"
    spec.write_text(DEMO.replace(*edit) if edit else DEMO)
    with deadline(2):
        got, data = run_json(capsys, "perfection", "member", str(spec), "--fseq", "fg", *argv)
    assert got == code
    assert result.items() <= data["result"].items()


@pytest.mark.parametrize("root, member", [(0, True), (1, False)])
def test_perfection_member_over_a_quotient_ring(root, member, cusp, capsys):
    """--elem is read in the cover ring: V lies in (U)^F = (U, V) of the cusp,
    V^(1/2) does not."""
    code, data = run_json(capsys, "perfection", "member", cusp, "--ideal", "u",
                          "--elem", "V", "--root", str(root))
    assert code == 0
    assert data["result"]["member"] is member
    assert (data["result"]["normalized_depth"], data["result"]["normalized_body"]) == (root, "V")


@pytest.mark.parametrize("extra", [["--ideal", "px"], ["--k", "0"], ["--ideal", "a", "--k", "1"]],
                         ids=["ideal", "k", "both"])
@pytest.mark.parametrize("command", [["member", "--elem", "X", "--root", "1"], ["decompose"]],
                         ids=["member", "decompose"])
def test_perfection_fseq_rejects_ideal_and_k(command, extra, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code, data = run_json(capsys, "perfection", command[0], "specs/demo.ini",
                          "--fseq", "upstairs", *command[1:], *extra)
    assert code == 2
    assert data["result"]["error_kind"] == "InputError"


def test_perfection_ideal_without_k_anchors_at_depth_0(demo, capsys):
    for command in (["member", "--elem", "X^4", "--root", "1"], ["decompose"]):
        argv = ["perfection", command[0], demo, "--ideal", "a", *command[1:]]
        code, implicit = run_json(capsys, *argv)
        assert code == 0
        _, explicit = run_json(capsys, *argv, "--k", "0")
        assert implicit["result"] == explicit["result"]


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


def test_lg2_at_a_large_h_answers_with_the_recorded_bytes(monkeypatch):
    """(X, Y)^1000 has 1001 monomial generators; they are exponent sums, so
    the command answers within the deadline, with the --json bytes recorded
    from the Polynomial products."""
    monkeypatch.chdir(ROOT)
    with deadline(2):
        code, out, err = _run_captured(["lg2", "specs/demo.ini", "--ideal", "a", "--primes",
                                        "px,pxy", "--h", "1000", "--n", "1", "--mode", "plain",
                                        "--json"])
    assert (code, err) == (0, "")
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "95bd1c09077a1c68f516749b3f857dc4e74db49f16b564c6342a3b071d089df9")


# px = (X^EXP_LIMIT): its h-th power overflows at its first product, and an
# unchecked sum of h = 256 exponent fields of 2^56 carries into the next field
OVERFLOW_SPEC = """
[ring]
p = 2
vars = X, Y

[ideal a]
gens = X^2, X*Y

[ideal px]
gens = X^72057594037927936

[ideal pxy]
gens = X, Y
"""


# the sha256 of each --json report, recorded from the Polynomial products
OVERFLOW_REPORTS = {
    127: "09a4883e22fc9c9d5b41d33ea13a8a3ad382b34c8a6e3b5116b64daa26945bc4",
    128: "ed83cfa5fbf8b82df7bfbf7f5a1290722a820a00162888c53785445813dcc8e0",
    255: "85fe10732be720fe971f3893e82a6324c501599d667718e5c13ef75b967a061b",
    256: "4dd402332b3fced586f6f5cd168fde71b02f216435da2267f281e41060118946",
    1000: "a38f67678ae98eeb65d9b0262555a719b86b38eac132d55da30cff9ba83aada8",
}


@pytest.mark.parametrize("h", sorted(OVERFLOW_REPORTS))
def test_lg2_power_past_exp_limit_exits_3(h, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "overflow.ini").write_text(OVERFLOW_SPEC)
    code, out, err = _run_captured(["lg2", "overflow.ini", "--ideal", "a", "--primes", "px,pxy",
                                    "--h", str(h), "--n", "1", "--mode", "plain", "--json"])
    assert (code, err) == (3, "")
    assert json.loads(out)["result"] == {"error": "exponent exceeds 72057594037927936",
                                         "error_kind": "ExponentOverflow"}
    assert hashlib.sha256(out.encode()).hexdigest() == OVERFLOW_REPORTS[h]


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


def test_ex8_reports_a_failed_root_law(monkeypatch, capsys):
    def failing(self, depth):
        return VerifyResult(False, 0, "frobenius root mismatch")

    monkeypatch.setattr(FSequence, "verify", failing)
    argv = ["ex8", "--p", "5", "--l", "2", "--t", "1,1", "--depth", "2"]
    code, data = run_json(capsys, *argv)
    assert code == 0
    assert data["result"]["fseq_verified"] is False
    main(argv)
    assert "root law verified: False" in capsys.readouterr().out.splitlines()


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


def test_commands_leave_no_cyclic_garbage(monkeypatch):
    """The README commands with --json, and an F-closure in a quotient ring,
    free what they build by reference counting alone."""
    monkeypatch.chdir(ROOT)
    build_parser()  # built once per process; argparse leaves its help formatters in cycles
    gc.collect()
    gc.disable()
    try:
        for argv in _readme_commands():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv + ["--json"]) == 0, argv
        f_closure(Ideal(cusp_ring(), ["U"]))
        assert gc.collect() == 0
    finally:
        gc.enable()


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


# argv lists that go past the usual path: help at every level, then errors
# argparse reports, abbreviations and -- (run from the repository root)
HELP_ARGV = ([["--help"]] + [[group, "--help"] for group in ("frob", "fseq", "perfection")]
             + [command.split() + ["--help"] for command in sorted(LEAF_ARGUMENTS)])
UNUSUAL_ARGV = [
    [],
    ["nope"],
    ["frob"],
    ["perfection"],
    ["frob", "nope", "specs/demo.ini", "--ideal", "a"],
    ["-h", "gb"],
    ["frob", "-h", "power"],
    ["frob", "power", "-h"],
    ["gb", "specs/demo.ini", "--ideal", "a", "--nope"],
    ["gb", "specs/demo.ini", "extra", "--ideal", "a"],
    ["gb", "specs/demo.ini", "--ideal", "a", "--", "x"],
    ["gb", "specs/demo.ini"],
    ["ex8", "--p", "5"],
    ["gb", "specs/demo.ini", "--ideal", "a", "--budget-pairs"],
    ["frob", "power", "specs/demo.ini", "--ideal", "a", "--e", "two"],
    ["lg2", "specs/demo.ini", "--ideal", "a", "--primes", "px,pxy", "--h", "2", "--n", "1",
     "--mode", "wrong"],
    ["fseq", "growth", "specs/demo.ini", "--fseq", "powers", "--h", "2", "--find-h",
     "--depth", "2"],
    ["fseq", "growth", "specs/demo.ini", "--fseq", "powers", "--f", "x", "--depth", "2"],
    ["gb", "specs/demo.ini", "--id", "a"],
    ["gb", "specs/demo.ini", "--ideal=a", "--he"],
    ["gb", "specs/demo.ini", "--ideal=a"],
    ["gb", "--", "specs/demo.ini", "--ideal", "a"],
    ["--json", "gb", "specs/demo.ini", "--ideal", "a"],
    ["frob", "--json", "power", "specs/demo.ini", "--ideal", "a", "--e", "1"],
]


def _argv_outcomes():
    """{argv joined by spaces: [exit code, stdout, stderr]} of the argv lists above."""
    return {" ".join(argv): list(_run_captured(argv)) for argv in HELP_ARGV + UNUSUAL_ARGV}


@pytest.mark.parametrize("argv", HELP_ARGV + UNUSUAL_ARGV, ids=lambda argv: " ".join(argv) or "-")
def test_help_and_argv_errors_are_pinned(argv, monkeypatch):
    """Help, usage and error text come from the parser that writes them today.
    argparse words them per Python version; tests/data/cli_argv.json holds the
    text at 80 columns of the version it names (regenerate it with
    PYTHONPATH=src python tests/test_cli.py)."""
    recorded = json.loads(CLI_ARGV.read_text())
    if recorded["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"argparse text recorded under Python {recorded['python']}")
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    assert list(_run_captured(argv)) == recorded["runs"][" ".join(argv)]


def _cli_specs_argv():
    """The argv list of every instance of a cli_specs pass, as the benchmark runs it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [inst[2] + ["--json"] for inst in workloads.CliSpecs().generate(4057)]


def test_main_parses_as_the_full_parser(monkeypatch):
    """For the README commands and every cli_specs command shape, main hands
    the command the namespace the full parser gives."""
    seen = []
    monkeypatch.setattr(charp.cli, "_dispatch", lambda args, report: seen.append(args) or 0)
    monkeypatch.chdir(ROOT)
    argvs = _readme_commands() + _cli_specs_argv()
    assert len(argvs) == 11 + 1511
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        assert vars(seen.pop()) == vars(build_parser().parse_args(argv)), argv


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
    os.environ["COLUMNS"] = "80"
    CLI_ARGV.write_text(json.dumps({"python": "%d.%d" % sys.version_info[:2],
                                    "runs": _argv_outcomes()}, indent=2) + "\n")
