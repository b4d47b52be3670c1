"""File-driven command line front end.

Spec files are INI-style::

    [ring]
    p = 2
    vars = U, V
    order = grevlex            ; optional: grevlex | lex | elim(k)
    quotient = V^2 + U^3       ; optional, comma-separated generators
    reduced = true             ; assertion recorded with the quotient

    [ideal a]
    gens = X^2, X*Y

    [fseq s]
    kind = frobenius-powers    ; or canonical | constant-prime | fg-perfection
    ideal = a                  ;    | table | intersection | localize-contract

Polynomials use the grammar of the core parser (terms joined by +/-, a term
is coeff, coeff*mono or mono, monomials are VAR, VAR^k or *-products);
commas separate list entries, so they never collide with the grammar.

Exit codes: 0 success or property verified, 1 verification or certification
failed (the report carries the witness), 2 input error, 3 budget or depth
exceeded.  JSON reports are deterministic for fixed inputs; timing_ms stays
null unless --timing is given, precisely so that reports are byte-stable.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import functools
import json
import sys
import time

from . import ideals as ideals_mod
from .decomposition import (Decomposition, GrowthCertificate, certify_growth,
                            decompose_monomial, decompose_perfection_ideal,
                            ex8_build, find_linear_growth_h, lg2_decompose)
from .errors import (CertificateFailure, CharpError, DepthExceeded,
                     DistinctLambdaExhausted, ExponentOverflow,
                     GroebnerBudgetExceeded, IdentityFailure, InputError,
                     NonMonomial, NotContainingQuotient, NotPPower)
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
_FSEQ_KEYS = {"kind", "ideal", "k", "max_e", "confirm", "terms", "of",
              "inner", "prime", "shint"}


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


def parse_spec(path: str) -> SpecFile:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except OSError as e:
        raise InputError(f"cannot read spec file: {e}", path) from None
    except configparser.Error as e:
        raise InputError(f"spec parse error: {e}", path) from None
    if "ring" not in cp:
        raise InputError("spec file needs a [ring] section", path)
    ring_sec = cp["ring"]
    unknown = set(ring_sec) - _RING_KEYS
    if unknown:
        raise InputError(f"unknown [ring] keys {sorted(unknown)}", path)
    p = _int_key(ring_sec, "p", "", "ring", f"{path} [ring]")
    vars_ = _split_list(ring_sec.get("vars", ""))
    if not vars_:
        raise InputError("ring key 'vars' must list variables", f"{path} [ring]")
    order = parse_order(ring_sec.get("order", "grevlex"))
    plain = Ring(p, vars_, order)
    ring = plain
    if "quotient" in ring_sec:
        qgens = [_parse_in(plain, s, f"{path} [ring] quotient") for s in _split_list(ring_sec["quotient"])]
        try:
            reduced = ring_sec.getboolean("reduced", fallback=False)
        except ValueError:
            raise InputError("ring key 'reduced' must be true or false", f"{path} [ring]") from None
        ring = Ring(p, vars_, order, quotient=qgens, reduced=reduced)

    ideals: dict = {}
    fseq_secs: dict = {}
    for section in cp.sections():
        if section == "ring":
            continue
        if section.startswith("ideal "):
            name = section[len("ideal "):].strip()
            keys = set(cp[section])
            if keys - {"gens"}:
                raise InputError(f"unknown keys {sorted(keys - {'gens'})}", f"{path} [{section}]")
            gens = [_parse_in(ring, s, f"{path} [{section}]") for s in _split_list(cp[section].get("gens", ""))]
            ideals[name] = Ideal(ring, gens)
        elif section.startswith("fseq "):
            name = section[len("fseq "):].strip()
            unknown = set(cp[section]) - _FSEQ_KEYS
            if unknown:
                raise InputError(f"unknown keys {sorted(unknown)}", f"{path} [{section}]")
            fseq_secs[name] = dict(cp[section])
        else:
            raise InputError(f"unknown section [{section}]", path)

    fseqs: dict = {}
    building: set = set()

    def build_fseq(name: str) -> FSequence:
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
            seq = FSequence.intersection([build_fseq(t) for t in names])
        elif kind == "localize-contract":
            inner = build_fseq(sec.get("inner", "").strip())
            prime = named_ideal("prime")
            s_hint = None
            if sec.get("shint", "").strip():
                s_hint = _parse_in(ring, sec["shint"], where)
            from .decomposition import localize_contract
            seq = FSequence.mapped(
                inner, lambda t: localize_contract(t, prime, s_hint),
                "localize-contract", f"localize-contract of {inner.describe}")
        else:
            raise InputError(f"unknown fseq kind {kind!r}", where)
        building.discard(name)
        fseqs[name] = seq
        return seq

    for name in fseq_secs:
        build_fseq(name)
    return SpecFile(ring, ideals, fseqs)


def _int_key(sec, key: str, default, kind: str, where: str) -> int:
    try:
        return int(sec.get(key, default))
    except ValueError:
        raise InputError(f"{kind} key {key!r} must be an integer", where) from None


def _parse_in(ring: Ring, text: str, where: str) -> Polynomial:
    try:
        return ring.parse(text)
    except InputError as e:
        raise InputError(f"{e}", where) from None


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _ideal_json(I: Ideal) -> dict:
    return {
        "generators": [str(g) for g in I.generators],
        "groebner": [str(g) for g in I.groebner()],
    }


def _ring_json(ring: Ring) -> dict:
    out = {"p": ring.p, "vars": list(ring.vars), "order": str(ring.order)}
    if ring.is_quotient():
        out["quotient"] = [str(g) for g in ring.quotient]
        out["reduced_assertion"] = bool(ring.reduced_assertion)
    return out


def _decomposition_json(d: Decomposition) -> dict:
    return {
        "minimal": d.minimal,
        "components": [
            {
                "component_gens": [str(g) for g in c.ideal.groebner()],
                "radical_gens": [str(g) for g in c.radical.groebner()],
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
    def __init__(self, command: str, ring=None):
        self.data = {
            "format_version": FORMAT_VERSION,
            "command": command,
            "ring": _ring_json(ring) if ring is not None else None,
            "result": {},
            "witnesses": [],
            "timing_ms": None,
            "budget": {},
            "exit_status": EXIT_OK,
        }
        self.lines: list = []

    def say(self, line: str):
        self.lines.append(line)


def _emit(report: Report, args, started: float, code: int) -> int:
    report.data["exit_status"] = code
    report.data["budget"]["pairs_used"] = ideals_mod.pair_count
    if getattr(args, "timing", False):
        report.data["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    if getattr(args, "json", False):
        print(json.dumps(report.data, indent=2))
    else:
        for line in report.lines:
            print(line)
    return code


# ---------------------------------------------------------------------------
# subcommand implementations (each returns an exit code)
# ---------------------------------------------------------------------------


def _cmd_gb(args, report: Report, spec: SpecFile) -> int:
    I = spec.ideal(args.ideal)
    basis = I.groebner()
    report.data["result"] = {"ideal": args.ideal, "groebner": [str(g) for g in basis]}
    report.say(f"reduced groebner basis of {args.ideal} "
               f"({len(basis)} generators):")
    for g in basis:
        report.say(f"  {g}")
    return EXIT_OK


def _cmd_frob_power(args, report: Report, spec: SpecFile) -> int:
    I = spec.ideal(args.ideal)
    res = frob_power(I, args.e)
    report.data["result"] = {"ideal": args.ideal, "e": args.e, **_ideal_json(res)}
    report.say(f"{args.ideal}^[p^{args.e}] = ({', '.join(str(g) for g in res.groebner())})")
    return EXIT_OK


def _cmd_frob_root(args, report: Report, spec: SpecFile) -> int:
    I = spec.ideal(args.ideal)
    res = frob_root(I)
    report.data["result"] = {"ideal": args.ideal, **_ideal_json(res)}
    report.say(f"frobenius root of {args.ideal} = ({', '.join(str(g) for g in res.groebner())})")
    return EXIT_OK


def _cmd_frob_closure(args, report: Report, spec: SpecFile) -> int:
    I = spec.ideal(args.ideal)
    res = f_closure(I, args.max_e, args.confirm)
    closed = res.closure == I
    report.data["result"] = {
        "ideal": args.ideal,
        "closure": [str(g) for g in res.closure.groebner()],
        "stabilized_at": res.stabilized_at,
        "certified": res.certified,
        "is_f_closed": closed,
        "steps": [[str(g) for g in s.groebner()] for s in res.steps],
    }
    report.data["witnesses"] = [
        {"element": str(w["element"]), "exponent": w["exponent"]} for w in res.witnesses
    ]
    report.say(f"F-closure of {args.ideal} = ({', '.join(str(g) for g in res.closure.groebner())})")
    report.say(f"stabilized_at = {res.stabilized_at}, certified = {res.certified}, "
               f"is_f_closed = {closed}")
    for w in res.witnesses:
        report.say(f"witness: ({w['element']})^(p^{w['exponent']}) lies in the "
                   f"matching Frobenius power")
    return EXIT_OK


def _cmd_decompose(args, report: Report, spec: SpecFile) -> int:
    I = spec.ideal(args.ideal)
    deco = decompose_monomial(I)
    report.data["result"] = {"ideal": args.ideal, **_decomposition_json(deco)}
    report.say(f"minimal primary decomposition of {args.ideal}:")
    for c in deco.components:
        report.say(f"  ({', '.join(str(g) for g in c.ideal.groebner())})"
                   f"   radical ({', '.join(str(g) for g in c.radical.groebner())})")
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
    report.data["witnesses"] = [{
        "index": res.failed_at,
        "reason": res.reason,
        "expected": [str(g) for g in res.expected.groebner()],
        "got": [str(g) for g in res.got.groebner()],
    }]
    report.say(f"fseq {args.fseq} FAILS at index {res.failed_at}: {res.reason}")
    report.say(f"  expected ({', '.join(str(g) for g in res.expected.groebner())})"
               f" but got ({', '.join(str(g) for g in res.got.groebner())})")
    return EXIT_FAILED


def _cmd_fseq_growth(args, report: Report, spec: SpecFile) -> int:
    seq = spec.fseq(args.fseq)

    def decomposer(n):
        return decompose_monomial(seq.term(n))

    if args.find_h:
        h = find_linear_growth_h(decomposer(0))
    else:
        h = args.h
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
        return PerfectionIdeal(spec.fseq(args.fseq))
    if args.ideal:
        return PerfectionIdeal.finitely_generated(spec.ideal(args.ideal), args.k)
    raise InputError("give --fseq NAME or --ideal NAME")


def _cmd_perfection_member(args, report: Report, spec: SpecFile) -> int:
    A = _perfection_ideal(args, spec)
    body = _parse_in(spec.ring, args.elem, "--elem")
    e = PerfectionElement(args.root, body)
    ok = A.member(e)
    report.data["result"] = {
        "element": str(e), "normalized_depth": e.depth,
        "normalized_body": str(e.body), "member": ok,
    }
    report.say(f"{e} {'is' if ok else 'is NOT'} a member")
    return EXIT_OK


def _cmd_perfection_decompose(args, report: Report, spec: SpecFile) -> int:
    A = _perfection_ideal(args, spec)
    seqs = decompose_perfection_ideal(A, args.depth)
    report.data["result"] = {
        "components": [
            {
                "radical_gens": [str(g) for g in s.meta["radical"].groebner()],
                "terms": [[str(g) for g in s.term(n).groebner()] for n in range(args.depth + 1)],
            }
            for s in seqs
        ],
        "depth": args.depth,
    }
    report.say(f"primary decomposition into {len(seqs)} sequences, verified to depth {args.depth}:")
    for s in seqs:
        rad = ", ".join(str(g) for g in s.meta["radical"].groebner())
        terms = "; ".join("(" + ", ".join(str(g) for g in s.term(n).groebner()) + ")"
                          for n in range(args.depth + 1))
        report.say(f"  radical ({rad}): {terms}")
    return EXIT_OK


def _cmd_lg2(args, report: Report, spec: SpecFile) -> int:
    a = spec.ideal(args.ideal)
    primes = [spec.ideal(n) for n in _split_list(args.primes)]
    deco = lg2_decompose(a, primes, args.h, args.n, args.mode)
    report.data["result"] = {
        "ideal": args.ideal, "h": args.h, "n": args.n, "mode": args.mode,
        **_decomposition_json(deco),
    }
    report.say(f"localized-component decomposition verified (mode {args.mode}, "
               f"h={args.h}, n={args.n}):")
    for c in deco.components:
        report.say(f"  ({', '.join(str(g) for g in c.ideal.groebner())})"
                   f"   at ({', '.join(str(g) for g in c.radical.groebner())})")
    return EXIT_OK


def _cmd_ex8(args, report: Report) -> int:
    try:
        t_list = tuple(int(x) for x in _split_list(args.t))
    except ValueError:
        raise InputError(f"--t must list integers, got {args.t!r}") from None
    rep = ex8_build(args.p, args.l, t_list, args.depth)
    report.data["ring"] = _ring_json(rep.seq.ring)
    report.data["result"] = {
        "p": rep.p, "l": rep.l, "t": list(rep.t), "depth": rep.depth,
        "ass_sizes": rep.ass_sizes,
        "ass": [[" , ".join(str(g) for g in prime.groebner()) for prime in level]
                for level in rep.ass],
        "fseq_verified": rep.verify.ok if rep.verify else True,
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
    for m, level in enumerate(rep.ass):
        pretty = ", ".join("(" + ", ".join(str(g) for g in prime.groebner()) + ")"
                           for prime in level)
        report.say(f"  level {m}: {pretty}")
    report.say(f"root law verified: {rep.verify.ok if rep.verify else True}")
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
    flags, ``spec``, and ``spec`` with ``--ideal``.
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

    ap = argparse.ArgumentParser(prog="charp",
                                 description="exact characteristic-p ideal computations")
    top = ap.add_subparsers(dest="command", required=True)

    g = top.add_parser("gb", parents=[on_ideal], help="reduced groebner basis of a named ideal")
    g.set_defaults(run=_cmd_gb)

    frob = top.add_parser("frob", help="frobenius power / root / closure")
    fsub = frob.add_subparsers(dest="frob_command", required=True)
    fp = fsub.add_parser("power", parents=[on_ideal])
    fp.add_argument("--e", type=int, required=True)
    fp.set_defaults(run=_cmd_frob_power)
    fsub.add_parser("root", parents=[on_ideal]).set_defaults(run=_cmd_frob_root)
    fc = fsub.add_parser("closure", parents=[on_ideal])
    fc.add_argument("--max-e", type=int, default=10, dest="max_e")
    fc.add_argument("--confirm", type=int, default=2)
    fc.set_defaults(run=_cmd_frob_closure)

    d = top.add_parser("decompose", parents=[on_ideal],
                       help="minimal primary decomposition (monomial)")
    d.set_defaults(run=_cmd_decompose)

    fseq = top.add_parser("fseq", help="verify or certify growth of an f-sequence")
    ssub = fseq.add_subparsers(dest="fseq_command", required=True)
    sv = ssub.add_parser("verify", parents=[on_spec])
    sv.add_argument("--fseq", required=True)
    sv.add_argument("--depth", type=int, required=True)
    sv.set_defaults(run=_cmd_fseq_verify)
    sg = ssub.add_parser("growth", parents=[on_spec])
    sg.add_argument("--fseq", required=True)
    hgroup = sg.add_mutually_exclusive_group(required=True)
    hgroup.add_argument("--h", type=int)
    hgroup.add_argument("--find-h", action="store_true", dest="find_h")
    sg.add_argument("--depth", type=int, required=True)
    sg.set_defaults(run=_cmd_fseq_growth)

    perf = top.add_parser("perfection", help="perfect-closure membership / decomposition")
    psub = perf.add_subparsers(dest="perfection_command", required=True)
    pm = psub.add_parser("member", parents=[on_spec])
    pm.add_argument("--fseq")
    pm.add_argument("--ideal")
    pm.add_argument("--k", type=int, default=0)
    pm.add_argument("--elem", required=True)
    pm.add_argument("--root", type=int, required=True,
                    help="depth M: the element is elem^(1/p^M)")
    pm.set_defaults(run=_cmd_perfection_member)
    pd = psub.add_parser("decompose", parents=[on_spec])
    pd.add_argument("--fseq")
    pd.add_argument("--ideal")
    pd.add_argument("--k", type=int, default=0)
    pd.add_argument("--depth", type=int, default=3)
    pd.set_defaults(run=_cmd_perfection_decompose)

    lg = top.add_parser("lg2", parents=[on_ideal],
                        help="decompose a frobenius power through localized components")
    lg.add_argument("--primes", required=True, help="comma-separated ideal names")
    lg.add_argument("--h", type=int, required=True)
    lg.add_argument("--n", type=int, required=True)
    lg.add_argument("--mode", choices=("plain", "fclosure", "seqterm"), default="plain")
    lg.set_defaults(run=_cmd_lg2)

    e8 = top.add_parser("ex8", parents=[common],
                        help="build the escalating-associated-primes family")
    e8.add_argument("--p", type=int, required=True)
    e8.add_argument("--l", type=int, required=True)
    e8.add_argument("--t", required=True, help="comma-separated multiplicities")
    e8.add_argument("--depth", type=int, required=True)

    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    ideals_mod.reset_pair_count()
    started = time.perf_counter()
    command_echo = " ".join(["charp"] + argv)
    report = Report(command_echo)
    with contextlib.ExitStack() as scope:  # the handlers run inside the user's budget
        try:
            budget = GroebnerBudget(args.budget_pairs, args.budget_terms, args.budget_degree)
            report.data["budget"] = dataclasses.asdict(budget)
            scope.enter_context(using_budget(budget))
            code = _dispatch(args, report)
        except (InputError, NotPPower, NonMonomial, NotContainingQuotient) as e:
            report.data["result"] = {"error": str(e), "error_kind": type(e).__name__}
            report.say(f"input error: {e}")
            return _emit(report, args, started, EXIT_INPUT)
        except (GroebnerBudgetExceeded, ExponentOverflow) as e:
            report.data["result"] = {"error": str(e), "error_kind": type(e).__name__}
            report.say(f"budget exceeded: {e}")
            return _emit(report, args, started, EXIT_BUDGET)
        except DepthExceeded as e:
            report.data["result"] = {"error": str(e), "error_kind": "DepthExceeded",
                                     "partial_steps": [[str(g) for g in s.groebner()]
                                                       for s in e.partial]}
            report.say(f"depth exceeded: {e}")
            return _emit(report, args, started, EXIT_BUDGET)
        except CertificateFailure as e:
            report.data["result"] = {"error": str(e), "error_kind": "CertificateFailure"}
            report.data["witnesses"] = [{"n": e.n, "i": e.i}]
            report.say(f"certification failed: {e}")
            return _emit(report, args, started, EXIT_FAILED)
        except IdentityFailure as e:
            report.data["result"] = {"error": str(e), "error_kind": "IdentityFailure"}
            report.data["witnesses"] = [{"witness": str(e.witness)}]
            report.say(f"verification failed: {e}")
            return _emit(report, args, started, EXIT_FAILED)
        except DistinctLambdaExhausted as e:
            report.data["result"] = {"error": str(e), "error_kind": "DistinctLambdaExhausted"}
            report.say(f"input error: {e}")
            return _emit(report, args, started, EXIT_INPUT)
        except CharpError as e:
            report.data["result"] = {"error": str(e), "error_kind": type(e).__name__}
            report.say(f"error: {e}")
            return _emit(report, args, started, EXIT_FAILED)
    return _emit(report, args, started, code)


def _dispatch(args, report: Report) -> int:
    if args.command == "ex8":
        return _cmd_ex8(args, report)
    spec = parse_spec(args.spec)
    report.data["ring"] = _ring_json(spec.ring)
    return args.run(args, report, spec)


if __name__ == "__main__":
    sys.exit(main())
