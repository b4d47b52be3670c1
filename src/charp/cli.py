"""File-driven command line front end.

Spec files are INI-style UTF-8 text::

    [ring]
    p = 2
    vars = U, V
    order = grevlex            ; optional: grevlex | lex | elim(k)
    quotient = V^2 + U^3       ; optional, comma-separated generators
    reduced = true             ; assertion recorded with the quotient

    [ideal a]
    gens = U^2, U*V

    [fseq s]
    kind = frobenius-powers    ; or canonical | constant-prime | fg-perfection
    ideal = a                  ;    | table | intersection | localize-contract

Keys are case-insensitive and values stripped.  A comment runs to the end of
the line from a ; or # that starts the line or follows whitespace, where, as
in configparser, the n-th ; and the n-th # are tried together, lowest n
first: vars = a;b ;c #d reads a;b ;c.  An indented line continues the value
above it, joined with a newline.  A duplicate section or key, a line without
=, a key before any section and [DEFAULT] are input errors.

Polynomials use the grammar of the core parser (a sum is terms joined by
+/-, optionally led by a sign; a term is factors joined by *; a factor is a
coefficient, VAR, VAR^k or a parenthesised sum); commas separate list
entries, so they never collide with the grammar.

Exit codes: 0 success or property verified, 1 verification or certification
failed (the report carries the witness), 2 input error, 3 budget or depth
exceeded.  JSON reports are deterministic for fixed inputs; timing_ms stays
null unless --timing is given, precisely so that reports are byte-stable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time
from json.encoder import encode_basestring_ascii

from . import ideals as ideals_mod
from .decomposition import (Decomposition, GrowthCertificate, certify_growth,
                            decompose_monomial, decompose_perfection_ideal, ex8_build,
                            find_linear_growth_h, lg2_decompose, localize_contract)
from .errors import (CertificateFailure, CharpError, DepthExceeded, ExponentOverflow,
                     GroebnerBudgetExceeded, IdentityFailure, InputError)
from .frobenius import f_closure, frob_power, frob_root
from .ideals import DEFAULT_BUDGET, GroebnerBudget, Ideal, using_budget
from .orders import parse_order
from .perfection import FSequence, PerfectionElement, PerfectionIdeal
from .poly import Polynomial, Ring

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

_RING_KEYS = {"p", "vars", "order", "quotient", "reduced"}
_FSEQ_KEYS = {  # the keys each fseq kind reads besides 'kind'
    "frobenius-powers": {"ideal"}, "constant-prime": {"ideal"}, "fg-perfection": {"ideal", "k"},
    "canonical": {"ideal", "max_e", "confirm"}, "table": {"terms"}, "intersection": {"of"},
    "localize-contract": {"inner", "prime", "shint"},
}


class SpecFile:
    def __init__(self, ring: Ring, ideals: dict, fseqs: dict):
        self.ring = ring
        self.ideals = ideals
        self.fseqs = fseqs

    def ideal(self, name: str) -> Ideal:
        if name not in self.ideals:
            raise InputError(f"unknown ideal {name!r}; defined: {sorted(self.ideals)}")
        return self.ideals[name]

    def fseq(self, name: str) -> FSequence:
        if name not in self.fseqs:
            raise InputError(f"unknown fseq {name!r}; defined: {sorted(self.fseqs)}")
        return self.fseqs[name]


def _split_list(value: str) -> list:
    return [part.strip() for part in value.split(",") if part.strip()]


def _read_spec(path: str) -> dict:
    """The spec file as {section: {key: value}}, read in one pass: what configparser
    reads with delimiter = and inline comment marks ; and #, but [DEFAULT] is an error."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeError) as e:
        raise InputError(f"cannot read spec file: {e}", path) from None
    sections: dict = {}
    values = key = None  # the current section's {key: lines} and its last key
    indent = 0  # of the last header or key line; deeper lines continue the value
    for lineno, line in enumerate(lines, 1):
        # a comment starts at a ; or # that starts the line or follows whitespace;
        # configparser pairs the n-th ; with the n-th #, lowest n first
        cut = min(((line.count(ch, 0, i), i) for i, ch in enumerate(line)
                   if ch in ";#" and (i == 0 or line[i - 1].isspace())),
                  default=(0, None))[1] if ";" in line or "#" in line else None
        text = line[:cut].strip()
        if not text:
            if cut is None and key:
                values[key].append("")
            continue
        depth = len(line) - len(line.lstrip())
        if key and depth > indent:
            values[key].append(text)
            continue
        indent = depth
        if text[0] == "[" and text.rfind("]") > 1:
            key, name = None, text[1:text.rfind("]")]
            if name in sections or name == "DEFAULT":
                raise InputError("[DEFAULT] is not a spec section" if name == "DEFAULT"
                                 else f"duplicate section [{name}]", f"{path} line {lineno}")
            values = sections[name] = {}
            continue
        if values is None:
            raise InputError("key before any section", f"{path} line {lineno}")
        key, eq, value = text.partition("=")
        key = key.rstrip().lower()
        if not (eq and key) or key in values:
            raise InputError(f"duplicate key {key!r}" if eq and key else "expected key = value",
                             f"{path} line {lineno}")
        values[key] = [value.strip()]
    return {name: {k: "\n".join(v).rstrip() for k, v in kv.items()}
            for name, kv in sections.items()}


def parse_spec(path: str) -> SpecFile:
    sections = _read_spec(path)
    if "ring" not in sections:
        raise InputError("spec file needs a [ring] section", path)
    ring_sec = sections["ring"]
    unknown = set(ring_sec) - _RING_KEYS
    if unknown:
        raise InputError(f"unknown [ring] keys {sorted(unknown)}", path)
    p = _int_key(ring_sec, "p", "", "ring", f"{path} [ring]")
    vars_ = _split_list(ring_sec.get("vars", ""))
    if not vars_:
        raise InputError("ring key 'vars' must list variables", f"{path} [ring]")
    order = parse_order(ring_sec.get("order", "grevlex"))
    ring = plain = Ring(p, vars_, order)
    qgens = [_parse_in(plain, s, f"{path} [ring] quotient")
             for s in _split_list(ring_sec.get("quotient", ""))]
    reduced = ring_sec.get("reduced", "false").lower()  # the words of getboolean
    if reduced not in ("1", "yes", "true", "on", "0", "no", "false", "off"):
        raise InputError("ring key 'reduced' must be true or false", f"{path} [ring]")
    if "quotient" in ring_sec:
        ring = Ring(p, vars_, order, quotient=qgens, reduced=reduced in ("1", "yes", "true", "on"))

    ideals: dict = {}
    fseq_secs: dict = {}
    for section, sec in sections.items():
        if section == "ring":
            continue
        if section.startswith("ideal "):
            name = section[len("ideal "):].strip()
            if name in ideals:
                raise InputError(f"duplicate ideal {name!r}", f"{path} [{section}]")
            keys = set(sec)
            if keys - {"gens"}:
                raise InputError(f"unknown keys {sorted(keys - {'gens'})}", f"{path} [{section}]")
            gens = [_parse_in(ring, s, f"{path} [{section}]") for s in _split_list(sec.get("gens", ""))]
            ideals[name] = Ideal(ring, gens)
        elif section.startswith("fseq "):
            name = section[len("fseq "):].strip()
            if name in fseq_secs:
                raise InputError(f"duplicate fseq {name!r}", f"{path} [{section}]")
            # an unknown kind reads every key: _build_fseq reports the kind itself
            unknown = set(sec) - {"kind"} - _FSEQ_KEYS.get(sec.get("kind", "").strip(), set(sec))
            if unknown:
                raise InputError(f"unknown keys {sorted(unknown)}", f"{path} [{section}]")
            fseq_secs[name] = sec
        else:
            raise InputError(f"unknown section [{section}]", path)

    spec = SpecFile(ring, ideals, {})
    for name in fseq_secs:
        _build_fseq(spec, fseq_secs, name, path, set())
    return spec


def _build_fseq(spec: SpecFile, fseq_secs: dict, name: str, path: str, building: set) -> FSequence:
    """Build the named fseq and those it refers to into spec.fseqs, with no closure cycle."""
    fseqs, ideals, ring = spec.fseqs, spec.ideals, spec.ring
    if name in fseqs:
        return fseqs[name]
    if name not in fseq_secs:
        raise InputError(f"unknown fseq {name!r}", path)
    if name in building:
        raise InputError(f"fseq {name!r} references itself", path)
    building.add(name)
    sec = fseq_secs[name]
    where = f"{path} [fseq {name}]"
    kind = sec.get("kind", "").strip()

    def named_ideal(key="ideal"):
        iname = sec.get(key, "").strip()
        if iname not in ideals:
            raise InputError(f"fseq references unknown ideal {iname!r}", where)
        return ideals[iname]

    if kind == "frobenius-powers":
        seq = FSequence.frobenius_powers(named_ideal())
    elif kind == "canonical":
        seq = FSequence.canonical(named_ideal(), _int_key(sec, "max_e", 10, "fseq", where),
                                  _int_key(sec, "confirm", 2, "fseq", where))
    elif kind == "constant-prime":
        seq = FSequence.constant_prime(named_ideal())
    elif kind == "fg-perfection":
        seq = FSequence.finitely_generated(named_ideal(), _int_key(sec, "k", 0, "fseq", where))
    elif kind == "table":
        names = _split_list(sec.get("terms", ""))
        if not names:
            raise InputError("table fseq needs 'terms'", where)
        for t in names:
            if t not in ideals:
                raise InputError(f"table references unknown ideal {t!r}", where)
        seq = FSequence.from_table([ideals[t] for t in names])
    elif kind == "intersection":
        names = _split_list(sec.get("of", ""))
        if not names:
            raise InputError("intersection fseq needs 'of'", where)
        seq = FSequence.intersection(
            [_build_fseq(spec, fseq_secs, t, path, building) for t in names])
    elif kind == "localize-contract":
        inner = _build_fseq(spec, fseq_secs, sec.get("inner", "").strip(), path, building)
        prime = named_ideal("prime")
        s_hint = None
        if sec.get("shint", "").strip():
            s_hint = _parse_in(ring, sec["shint"], where)
        seq = FSequence(inner.ring, lambda n: localize_contract(inner.term(n), prime, s_hint))
    else:
        raise InputError(f"unknown fseq kind {kind!r}", where)
    building.discard(name)
    fseqs[name] = seq
    return seq


def _int_key(sec, key: str, default, kind: str, where: str) -> int:
    try:
        return int(sec.get(key, default))
    except ValueError:
        raise InputError(f"{kind} key {key!r} must be an integer", where) from None


def _parse_in(ring: Ring, text: str, where: str) -> Polynomial:
    try:
        return ring.parse(text)
    except InputError as e:  # one location: where, then the column
        raise InputError(e.message, f"{where}, {e.location}" if e.location else where) from None


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _strs(polys) -> list:
    return [str(g) for g in polys]


def _tuple_text(strs) -> str:
    return "(" + ", ".join(strs) + ")"


def _ideal_json(I: Ideal) -> dict:
    return {"generators": _strs(I.generators), "groebner": _strs(I.groebner())}


def _ring_json(ring: Ring) -> dict:
    out = {"p": ring.p, "vars": list(ring.vars), "order": str(ring.order)}
    if ring.is_quotient():
        out["quotient"] = _strs(ring.quotient)
        out["reduced_assertion"] = bool(ring.reduced_assertion)
    return out


def _decomposition_json(d: Decomposition) -> dict:
    return {
        "minimal": d.minimal,
        "components": [
            {
                "component_gens": _strs(c.ideal.groebner()),
                "radical_gens": _strs(c.radical.groebner()),
                "shift": {v: int(b) for v, b in (c.shift or ())} or None,
                "verified_primary": c.verified_primary,
            }
            for c in d.components
        ],
    }


def _certificate_json(cert: GrowthCertificate) -> dict:
    return {
        "h": cert.h,
        "depth": cert.depth,
        "checks": [{"n": c.n, "i": c.i, "ok": c.ok} for c in cert.checks],
    }


class Report:
    def __init__(self, command: str):
        self.data = {
            "format_version": FORMAT_VERSION,
            "command": command,
            "ring": None,
            "result": {},
            "witnesses": [],
            "timing_ms": None,
            "budget": {},
            "exit_status": EXIT_OK,
        }
        self.lines: list = []

    def say(self, line: str):
        self.lines.append(line)


def _json_text(value, indent: str = "\n") -> str:
    """The bytes of ``json.dumps(value, indent=2)`` for the JSON types a report
    holds.  With an indent the stdlib encoder is built from nested functions
    that refer to each other, so every call would leave a reference cycle."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, (int, float)):
        return repr(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in value.items()]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _json_text(v, inner) for v in value]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    raise TypeError(f"{type(value).__name__} is not a report type")


def _emit(report: Report, args, started: float, pairs_before: int, code: int) -> int:
    report.data["exit_status"] = code
    report.data["budget"]["pairs_used"] = ideals_mod.pair_count - pairs_before
    if args.timing:
        report.data["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    if args.json:
        print(_json_text(report.data))
    else:
        for line in report.lines:
            print(line)
    return code


# ---------------------------------------------------------------------------
# subcommand implementations (each returns an exit code)
# ---------------------------------------------------------------------------


def _cmd_gb(args, report: Report, spec: SpecFile) -> int:
    basis = _strs(spec.ideal(args.ideal).groebner())
    report.data["result"] = {"ideal": args.ideal, "groebner": basis}
    report.say(f"reduced groebner basis of {args.ideal} "
               f"({len(basis)} generators):")
    for g in basis:
        report.say(f"  {g}")
    return EXIT_OK


def _cmd_frob_power(args, report: Report, spec: SpecFile) -> int:
    I = spec.ideal(args.ideal)
    res = _ideal_json(frob_power(I, args.e))
    report.data["result"] = {"ideal": args.ideal, "e": args.e, **res}
    report.say(f"{args.ideal}^[p^{args.e}] = {_tuple_text(res['groebner'])}")
    return EXIT_OK


def _cmd_frob_root(args, report: Report, spec: SpecFile) -> int:
    I = spec.ideal(args.ideal)
    res = _ideal_json(frob_root(I))
    report.data["result"] = {"ideal": args.ideal, **res}
    report.say(f"frobenius root of {args.ideal} = {_tuple_text(res['groebner'])}")
    return EXIT_OK


def _cmd_frob_closure(args, report: Report, spec: SpecFile) -> int:
    I = spec.ideal(args.ideal)
    res = f_closure(I, args.max_e, args.confirm)
    closed = res.closure == I
    closure = _strs(res.closure.groebner())
    report.data["result"] = {
        "ideal": args.ideal,
        "closure": closure,
        "stabilized_at": res.stabilized_at,
        "certified": res.certified,
        "is_f_closed": closed,
        "steps": [_strs(s.groebner()) for s in res.steps],
    }
    report.data["witnesses"] = witnesses = [
        {"element": str(w["element"]), "exponent": w["exponent"]} for w in res.witnesses
    ]
    report.say(f"F-closure of {args.ideal} = {_tuple_text(closure)}")
    report.say(f"stabilized_at = {res.stabilized_at}, certified = {res.certified}, "
               f"is_f_closed = {closed}")
    for w in witnesses:
        report.say(f"witness: ({w['element']})^(p^{w['exponent']}) lies in the "
                   f"matching Frobenius power")
    return EXIT_OK


def _cmd_decompose(args, report: Report, spec: SpecFile) -> int:
    I = spec.ideal(args.ideal)
    deco = _decomposition_json(decompose_monomial(I))
    report.data["result"] = {"ideal": args.ideal, **deco}
    report.say(f"minimal primary decomposition of {args.ideal}:")
    for c in deco["components"]:
        report.say(f"  {_tuple_text(c['component_gens'])}"
                   f"   radical {_tuple_text(c['radical_gens'])}")
    return EXIT_OK


def _cmd_fseq_verify(args, report: Report, spec: SpecFile) -> int:
    seq = spec.fseq(args.fseq)
    res = seq.verify(args.depth)
    report.data["result"] = {
        "fseq": args.fseq, "depth": args.depth, "ok": res.ok,
        "failed_at": res.failed_at, "reason": res.reason,
    }
    if res.ok:
        report.say(f"fseq {args.fseq} satisfies the root law to depth {args.depth}")
        return EXIT_OK
    expected, got = _strs(res.expected.groebner()), _strs(res.got.groebner())
    report.data["witnesses"] = [{
        "index": res.failed_at, "reason": res.reason, "expected": expected, "got": got,
    }]
    report.say(f"fseq {args.fseq} FAILS at index {res.failed_at}: {res.reason}")
    report.say(f"  expected {_tuple_text(expected)} but got {_tuple_text(got)}")
    return EXIT_FAILED


def _cmd_fseq_growth(args, report: Report, spec: SpecFile) -> int:
    seq = spec.fseq(args.fseq)

    def decomposer(n):
        return decompose_monomial(seq.term(n))

    h = find_linear_growth_h(decomposer(0)) if args.find_h else args.h
    cert = certify_growth(seq, decomposer, h, args.depth)
    report.data["result"] = {
        "fseq": args.fseq, "found_h": args.find_h,
        "certificate": _certificate_json(cert),
    }
    report.say(f"{h}-linear growth certified for {args.fseq} to depth {args.depth} "
               f"({len(cert.checks)} containments)")
    return EXIT_OK


def _perfection_ideal(args, spec: SpecFile) -> PerfectionIdeal:
    if args.fseq:
        if args.ideal is not None or args.k is not None:
            raise InputError("--fseq names the whole sequence; drop --ideal and --k")
        return PerfectionIdeal(spec.fseq(args.fseq))
    if args.ideal:
        return PerfectionIdeal.finitely_generated(spec.ideal(args.ideal), args.k or 0)
    raise InputError("give --fseq NAME or --ideal NAME")


def _cmd_perfection_member(args, report: Report, spec: SpecFile) -> int:
    A = _perfection_ideal(args, spec)
    body = _parse_in(spec.ring.cover(), args.elem, "--elem")
    e = PerfectionElement(args.root, body)
    ok, text = A.member(e), str(e)
    report.data["result"] = {
        "element": text, "normalized_depth": e.depth,
        "normalized_body": str(e.body), "member": ok,
    }
    report.say(f"{text} {'is' if ok else 'is NOT'} a member")
    return EXIT_OK


def _cmd_perfection_decompose(args, report: Report, spec: SpecFile) -> int:
    A = _perfection_ideal(args, spec)
    seqs = decompose_perfection_ideal(A, args.depth)
    components = [
        {
            "radical_gens": _strs(s.meta["radical"].groebner()),
            "terms": [_strs(s.term(n).groebner()) for n in range(args.depth + 1)],
        }
        for s in seqs
    ]
    report.data["result"] = {"components": components, "depth": args.depth}
    report.say(f"primary decomposition into {len(seqs)} sequences, verified to depth {args.depth}:")
    for c in components:
        terms = "; ".join(map(_tuple_text, c["terms"]))
        report.say(f"  radical {_tuple_text(c['radical_gens'])}: {terms}")
    return EXIT_OK


def _cmd_lg2(args, report: Report, spec: SpecFile) -> int:
    a = spec.ideal(args.ideal)
    primes = [spec.ideal(n) for n in _split_list(args.primes)]
    deco = _decomposition_json(lg2_decompose(a, primes, args.h, args.n, args.mode))
    report.data["result"] = {
        "ideal": args.ideal, "h": args.h, "n": args.n, "mode": args.mode, **deco,
    }
    report.say(f"localized-component decomposition verified (mode {args.mode}, "
               f"h={args.h}, n={args.n}):")
    for c in deco["components"]:
        report.say(f"  {_tuple_text(c['component_gens'])}"
                   f"   at {_tuple_text(c['radical_gens'])}")
    return EXIT_OK


def _cmd_ex8(args, report: Report) -> int:
    try:
        t_list = tuple(int(x) for x in _split_list(args.t))
    except ValueError:
        raise InputError(f"--t must list integers, got {args.t!r}") from None
    rep = ex8_build(args.p, args.l, t_list, args.depth)
    report.data["ring"] = _ring_json(rep.seq.ring)
    ass = [[_strs(prime.groebner()) for prime in level] for level in rep.ass]
    report.data["result"] = {
        "p": rep.p, "l": rep.l, "t": list(rep.t), "depth": rep.depth,
        "ass_sizes": rep.ass_sizes,
        "ass": [[" , ".join(prime) for prime in level] for level in ass],
        "fseq_verified": rep.verify is None or rep.verify.ok,
        "certificate": _certificate_json(rep.certificate),
        "no_primary_decomposition": rep.no_primary_decomposition,
        "notes": rep.notes,
    }
    report.data["witnesses"] = [
        {"m": w["m"], "element": str(w["element"]),
         "in_first_m_components": w["in_first_m"], "in_last_component": w["in_last"]}
        for w in rep.witnesses
    ]
    report.say(f"escalating-primes family at p={rep.p}, l={rep.l}, t={list(rep.t)}, "
               f"depth {rep.depth}")
    report.say(f"ass sizes per level: {rep.ass_sizes}")
    for m, level in enumerate(ass):
        pretty = ", ".join(_tuple_text(prime) for prime in level)
        report.say(f"  level {m}: {pretty}")
    report.say(f"root law verified: {rep.verify is None or rep.verify.ok}")
    report.say(f"growth certificate: h={rep.certificate.h} over depth {rep.certificate.depth}")
    report.say(f"no primary decomposition upstairs: {rep.no_primary_decomposition}")
    for n in rep.notes:
        report.say(f"note: {n}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The charp argument parser, built once per process on first use.

    ``parse_args`` leaves a parser unchanged, so every ``main`` call shares
    this one; callers must not add to it.  Arguments that several
    subcommands take are declared once, on parent parsers: the common
    flags, ``spec``, ``spec`` with ``--ideal``, and the perfection inputs.
    ``leaves`` maps each leaf's command words, as in ``("frob", "power")``,
    to its parser and the values the parsers above it set for those words.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--timing", action="store_true",
                        help="fill timing_ms (off by default to keep reports byte-stable)")
    common.add_argument("--budget-pairs", type=int, default=DEFAULT_BUDGET.max_pairs)
    common.add_argument("--budget-terms", type=int, default=DEFAULT_BUDGET.max_poly_terms)
    common.add_argument("--budget-degree", type=int, default=DEFAULT_BUDGET.max_degree)
    on_spec = argparse.ArgumentParser(add_help=False, parents=[common])
    on_spec.add_argument("spec")
    on_ideal = argparse.ArgumentParser(add_help=False, parents=[on_spec])
    on_ideal.add_argument("--ideal", required=True)
    on_perfection = argparse.ArgumentParser(add_help=False, parents=[on_spec])
    on_perfection.add_argument("--fseq")
    on_perfection.add_argument("--ideal")
    on_perfection.add_argument("--k", type=int)

    ap = argparse.ArgumentParser(prog="charp",
                                 description="exact characteristic-p ideal computations")
    top = ap.add_subparsers(dest="command", required=True)
    ap.leaves = {}

    def add_leaf(sub, words, **kwargs):  # sub.add_parser, recorded in ap.leaves
        leaf = sub.add_parser(words[-1], **kwargs)
        ap.leaves[words] = leaf, dict(zip((top.dest, sub.dest), words))
        return leaf

    g = add_leaf(top, ("gb",), parents=[on_ideal], help="reduced groebner basis of a named ideal")
    g.set_defaults(run=_cmd_gb)

    frob = top.add_parser("frob", help="frobenius power / root / closure")
    fsub = frob.add_subparsers(dest="frob_command", required=True)
    fp = add_leaf(fsub, ("frob", "power"), parents=[on_ideal])
    fp.add_argument("--e", type=int, required=True)
    fp.set_defaults(run=_cmd_frob_power)
    add_leaf(fsub, ("frob", "root"), parents=[on_ideal]).set_defaults(run=_cmd_frob_root)
    fc = add_leaf(fsub, ("frob", "closure"), parents=[on_ideal])
    fc.add_argument("--max-e", type=int, default=10, dest="max_e")
    fc.add_argument("--confirm", type=int, default=2)
    fc.set_defaults(run=_cmd_frob_closure)

    d = add_leaf(top, ("decompose",), parents=[on_ideal],
                 help="minimal primary decomposition (monomial)")
    d.set_defaults(run=_cmd_decompose)

    fseq = top.add_parser("fseq", help="verify or certify growth of an f-sequence")
    ssub = fseq.add_subparsers(dest="fseq_command", required=True)
    sv = add_leaf(ssub, ("fseq", "verify"), parents=[on_spec])
    sv.add_argument("--fseq", required=True)
    sv.add_argument("--depth", type=int, required=True)
    sv.set_defaults(run=_cmd_fseq_verify)
    sg = add_leaf(ssub, ("fseq", "growth"), parents=[on_spec])
    sg.add_argument("--fseq", required=True)
    hgroup = sg.add_mutually_exclusive_group(required=True)
    hgroup.add_argument("--h", type=int)
    hgroup.add_argument("--find-h", action="store_true", dest="find_h")
    sg.add_argument("--depth", type=int, required=True)
    sg.set_defaults(run=_cmd_fseq_growth)

    perf = top.add_parser("perfection", help="perfect-closure membership / decomposition")
    psub = perf.add_subparsers(dest="perfection_command", required=True)
    pm = add_leaf(psub, ("perfection", "member"), parents=[on_perfection])
    pm.add_argument("--elem", required=True)
    pm.add_argument("--root", type=int, required=True,
                    help="depth M: the element is elem^(1/p^M)")
    pm.set_defaults(run=_cmd_perfection_member)
    pd = add_leaf(psub, ("perfection", "decompose"), parents=[on_perfection])
    pd.add_argument("--depth", type=int, default=3)
    pd.set_defaults(run=_cmd_perfection_decompose)

    lg = add_leaf(top, ("lg2",), parents=[on_ideal],
                  help="decompose a frobenius power through localized components")
    lg.add_argument("--primes", required=True, help="comma-separated ideal names")
    lg.add_argument("--h", type=int, required=True)
    lg.add_argument("--n", type=int, required=True)
    lg.add_argument("--mode", choices=("plain", "fclosure", "seqterm"), default="plain")
    lg.set_defaults(run=_cmd_lg2)

    e8 = add_leaf(top, ("ex8",), parents=[common],
                  help="build the escalating-associated-primes family")
    e8.add_argument("--p", type=int, required=True)
    e8.add_argument("--l", type=int, required=True)
    e8.add_argument("--t", required=True, help="comma-separated multiplicities")
    e8.add_argument("--depth", type=int, required=True)

    return ap


# (error types, exit code, text prefix) for a failed command; the first
# entry whose types match the error wins
_FAILURES = (
    (InputError, EXIT_INPUT, "input error"),
    ((GroebnerBudgetExceeded, ExponentOverflow), EXIT_BUDGET, "budget exceeded"),
    (DepthExceeded, EXIT_BUDGET, "depth exceeded"),
    (CertificateFailure, EXIT_FAILED, "certification failed"),
    (IdentityFailure, EXIT_FAILED, "verification failed"),
    (CharpError, EXIT_FAILED, "error"),
)


def main(argv=None) -> int:
    """Run the command argv (default ``sys.argv[1:]``) names; return its exit code.

    An argv that starts with a leaf's command words is parsed by that leaf's
    parser alone, which sets what the full parser sets.  Left-over arguments
    send argv through the full parser, as does any other argv, so every usage,
    help and error text comes from the parser that writes it in a full parse."""
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    parser, values = ap.leaves.get(tuple(argv[:1])) or ap.leaves.get(tuple(argv[:2]), (ap, {}))
    args, extra = parser.parse_known_args(argv[len(values):], argparse.Namespace(**values))
    if extra:  # the full parser reports them
        args = ap.parse_args(argv)
    pairs_before = ideals_mod.pair_count  # the counter only grows: report its growth
    started = time.perf_counter()
    command_echo = " ".join(["charp"] + argv)
    report = Report(command_echo)
    with contextlib.ExitStack() as scope:  # the handlers run inside the user's budget
        try:
            budget = GroebnerBudget(args.budget_pairs, args.budget_terms, args.budget_degree)
            report.data["budget"] = {name: getattr(budget, name) for name in budget.__slots__}
            scope.enter_context(using_budget(budget))
            code = _dispatch(args, report)
        except CharpError as e:
            code, prefix = next((c, t) for types, c, t in _FAILURES if isinstance(e, types))
            report.data["result"] = {"error": str(e), "error_kind": type(e).__name__}
            if isinstance(e, DepthExceeded):
                report.data["result"]["partial_steps"] = [_strs(s.groebner())
                                                          for s in e.partial]
            elif isinstance(e, CertificateFailure):
                report.data["witnesses"] = [{"n": e.n, "i": e.i}]
            elif isinstance(e, IdentityFailure):
                report.data["witnesses"] = [{"witness": str(e.witness)}]
            report.say(f"{prefix}: {e}")
    return _emit(report, args, started, pairs_before, code)


def _dispatch(args, report: Report) -> int:
    if args.command == "ex8":
        return _cmd_ex8(args, report)
    spec = parse_spec(args.spec)
    report.data["ring"] = _ring_json(spec.ring)
    return args.run(args, report, spec)


if __name__ == "__main__":
    sys.exit(main())
