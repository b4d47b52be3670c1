"""The spec-file reader: configparser as a differential oracle, the inputs it
rejects, and the spec examples in the README and the cli docstring."""

import configparser
import gc
import json
import pathlib
import re
import textwrap
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from charp import Ideal, InputError, cli
from charp.cli import _read_spec, main, parse_spec

ROOT = pathlib.Path(__file__).resolve().parent.parent

_ORACLE_OPTIONS = dict(interpolation=None, delimiters=("=",),
                       inline_comment_prefixes=(";", "#"))


def _oracle(path, default_section="DEFAULT"):
    cp = configparser.ConfigParser(default_section=default_section, **_ORACLE_OPTIONS)
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    return {s: dict(cp[s]) for s in cp.sections()}


def _reads_a_default_header(path):
    """Whether configparser reads a [DEFAULT] header in the file: with another
    default section name, [DEFAULT] becomes an ordinary section."""
    try:
        return "DEFAULT" in _oracle(path, default_section="\0")
    except configparser.DuplicateSectionError:
        return True  # [DEFAULT] twice, which the default section tolerates


# -- differential test -------------------------------------------------------------

_SPACE = st.text(" \t\f", max_size=2)
_INDENT = st.text(" \t", min_size=1, max_size=4)
# configparser scans the n-th ; together with the n-th #, so it cuts "a#b #c ;d"
# at the ; (the first round that finds a mark after whitespace), not at " #c"
_VALUE = st.one_of(st.text("XYab^*+-,;# ", min_size=1, max_size=8),
                   st.sampled_from(["X#Y #Z", "a;b ;c", "X;Y#Z #a ;b", "a#b#c ;d"]))
_INLINE = st.one_of(st.just(""), st.builds(
    lambda ws, mark, text: ws + mark + text,
    st.text(" \t", min_size=1, max_size=2), st.sampled_from(";#"),
    st.text("XY;# =[]", max_size=6)))
_HEADER = st.builds(
    lambda ws, name, rest: f"{ws}[{name}]{rest}", _SPACE,
    st.one_of(st.sampled_from(["ring", "Ring", "ideal  b", "a]b", "DEFAULT"]),
              st.builds("ideal a{}".format, st.integers(0, 20))),
    st.sampled_from(["", " ", " ; note", "# x", " junk"]))
_KEY = st.builds(
    lambda ws, key, sp1, sp2, value, comment: f"{ws}{key}{sp1}={sp2}{value}{comment}",
    _SPACE, st.sampled_from(["p", "P", "gens", "Gens", "vars", "k", "a b", "Order", "of",
                             "kind", "terms", "max_E"]),
    _SPACE, _SPACE, st.one_of(st.just(""), _VALUE), _INLINE)
_CONTINUATION = st.builds(lambda ws, value, comment: ws + value + comment,
                          _INDENT, _VALUE, _INLINE)
_COMMENT = st.builds(lambda ws, mark, text: ws + mark + text,
                     _SPACE, st.sampled_from(";#"), _VALUE)
_MALFORMED = st.sampled_from(["X^2", "= 3", " = 3", "[]", "[ring"])
_ENTRY = st.builds(lambda key, more: [key] + more,
                   _KEY, st.lists(st.one_of(_CONTINUATION, _COMMENT, _SPACE), max_size=3))
_SECTION = st.builds(lambda head, entries, tail: [head] + sum(entries, []) + tail,
                     _HEADER, st.lists(_ENTRY, max_size=3),
                     st.lists(st.one_of(_COMMENT, _SPACE, _MALFORMED), max_size=1))
_PREAMBLE = st.one_of(st.lists(st.one_of(_COMMENT, _SPACE), max_size=2),
                      st.lists(st.one_of(_KEY, _CONTINUATION, _MALFORMED), max_size=1))
_TEXT = st.builds(lambda preamble, sections: preamble + sum(sections, []),
                  _PREAMBLE, st.lists(_SECTION, max_size=4))


@settings(max_examples=300, deadline=None)
@given(_TEXT, st.booleans())
@example(["[ring]", "vars = a;b ;c #d"], False)  # the first # comes before the second ;
def test_reader_matches_configparser(tmp_path_factory, lines, final_newline):
    path = tmp_path_factory.getbasetemp() / "differential.ini"
    path.write_text("\n".join(lines) + "\n" * final_newline, encoding="utf-8")
    try:
        expected = _oracle(path)
    except configparser.Error:
        expected = None
    if expected is None or _reads_a_default_header(path):
        with pytest.raises(InputError, match=re.escape(str(path))):
            _read_spec(str(path))
    else:
        assert _read_spec(str(path)) == expected


# -- rejections ---------------------------------------------------------------------


@pytest.mark.parametrize("text, lineno", [
    ("[ring]\np = 2\nvars = X\n[ring]\np = 3\n", 4),
    ("[ring]\np = 2\nP = 3\nvars = X\n", 3),
    ("[ring]\np = 2\nvars X\n", 3),
    ("[ring]\np = 2\n= X\n", 3),
    ("p = 2\n[ring]\nvars = X\n", 1),
    ("[DEFAULT]\np = 2\n[ring]\nvars = X\n", 1),
], ids=["duplicate-section", "duplicate-key", "no-equals", "no-key", "key-before-section",
        "default"])
def test_malformed_spec_exits_2_naming_path_and_line(text, lineno, tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["gb", str(path), "--ideal", "a", "--json"]) == 2
    error = json.loads(capsys.readouterr().out)["result"]["error"]
    assert f"{path} line {lineno}" in error


def test_directory_as_spec_exits_2_naming_it(tmp_path, capsys):
    assert main(["gb", str(tmp_path), "--ideal", "a", "--json"]) == 2
    assert str(tmp_path) in json.loads(capsys.readouterr().out)["result"]["error"]


def test_spec_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"[ring]\np = 2\nvars = X\n\n[ideal a]\ngens = X\xff\n")
    assert main(["gb", str(path), "--ideal", "a", "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["error_kind"] == "InputError"
    assert str(path) in report["result"]["error"]


def test_keys_are_case_insensitive_and_values_continue(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text("[ring]\nP = 2\nVars = X, Y\n\n[ideal a]\nGENS = X^2,\n    X*Y\n")
    spec = parse_spec(str(path))
    assert spec.ring.p == 2
    assert spec.ideal("a") == Ideal(spec.ring, ["X^2", "X*Y"])


@pytest.mark.parametrize("word, value", [("YES", True), ("On", True), ("1", True),
                                         ("false", False), ("OFF", False), ("0", False)])
def test_reduced_takes_the_words_of_getboolean(word, value, tmp_path):
    path = tmp_path / "s.ini"
    path.write_text(f"[ring]\np = 2\nvars = U, V\nquotient = V^2 + U^3\nreduced = {word}\n")
    assert parse_spec(str(path)).ring.reduced_assertion is value


# -- documented examples ---------------------------------------------------------------


def _frob_closure_report(spec, capsys):
    assert main(["frob", "closure", str(spec), "--ideal", "u", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    return report["result"], report["witnesses"]


def test_readme_spec_example_reads_as_the_cusp(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert (_frob_closure_report(path, capsys)
            == _frob_closure_report(ROOT / "specs" / "cusp.ini", capsys))


def test_cli_docstring_spec_example_parses(tmp_path):
    block = re.search(r"::\n\n(.*?)\n\n(?=\S)", cli.__doc__, re.S).group(1)
    path = tmp_path / "doc.ini"
    path.write_text(textwrap.dedent(block))
    spec = parse_spec(str(path))
    assert str(spec.ring.order) == "grevlex" and spec.ring.is_quotient()
    assert spec.fseq("s").term(1) == Ideal(spec.ring, ["U^4", "U^2*V^2"])


# -- no reference cycles ---------------------------------------------------------------


def test_parsed_spec_frees_its_ring_without_the_cycle_collector():
    gc.disable()
    try:
        spec = parse_spec(str(ROOT / "specs" / "demo.ini"))
        ring = weakref.ref(spec.ring)
        upstairs, powers = spec.fseq("upstairs").term(1), spec.fseq("powers").term(1)
        del spec, upstairs, powers
        assert ring() is None
    finally:
        gc.enable()
