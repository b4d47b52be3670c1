"""Monomial primary decomposition, associated primes, and linear growth.

Decomposition scope is monomial ideals plus "shifted monomial" ones: ideals
that become monomial after translating some variables by field constants
(the shift is recorded on each component).  That covers every decomposition
this package constructs, without a general-position algorithm.

A sequence of ideals has h-linear growth of primary decompositions when
each term a_n admits a minimal primary decomposition whose every component
q satisfies (sqrt(q)^h)^[p^n] <= q.  certify_growth checks exactly that
containment, generator by generator, and returns a re-checkable
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (CertificateFailure, DistinctLambdaExhausted,
                     IdentityFailure, InputError, NonMonomial)
from .frobenius import f_closure, frob_power, frob_root
from .ideals import Ideal, _power_products, intersect_all, minimal_rows
from .perfection import FSequence, PerfectionIdeal
from .poly import Polynomial, Ring


# ---------------------------------------------------------------------------
# components and decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimaryComponent:
    """A primary ideal with its radical prime; shift maps it to monomial frame.

    ``shift`` is a var -> constant mapping: substituting var + constant for
    var turns both ideal and radical into monomial ideals.
    """

    ideal: Ideal
    radical: Ideal
    verified_primary: bool
    shift: Optional[tuple] = None  # ((var, constant), ...) or None

    def __post_init__(self):
        if not self.radical.contains_ideal(self.ideal):
            raise InputError("component does not lie inside its radical")

    def shift_map(self) -> dict:
        return dict(self.shift) if self.shift else {}

    def radical_key(self):
        rad = apply_shift(self.radical, self.shift_map())
        vars_ = tuple(sorted(v for g in rad.minimal_monomial_exps()
                             for v, e in zip(rad.ring.vars, g) if e))
        return (vars_, self.shift or ())


@dataclass(frozen=True)
class Decomposition:
    components: tuple
    minimal: bool

    def intersection(self) -> Ideal:
        return intersect_all(c.ideal for c in self.components)


def apply_shift(I: Ideal, shift: dict) -> Ideal:
    """Substitute var -> var + constant for every (var, constant) in shift."""
    if not shift:
        return I
    ring = I.ring
    assignments = {v: ring.var(v) + ring.constant(c) for v, c in shift.items()}
    return Ideal(ring, [g.substitute(assignments) for g in I.generators])


def unapply_shift(I: Ideal, shift: dict) -> Ideal:
    if not shift:
        return I
    return apply_shift(I, {v: -c for v, c in shift.items()})


def is_primary_monomial(I: Ideal) -> bool:
    """Monomial criterion: every variable occurring in a generator occurs
    as a pure power among the generators."""
    mins = I.minimal_monomial_exps()
    if mins.shape[0] == 0:
        return False
    occurring = np.nonzero(mins.max(axis=0) > 0)[0]
    pure = {int(np.nonzero(row)[0][0]) for row in mins if np.count_nonzero(row) == 1}
    return all(int(v) in pure for v in occurring)


def _primary_in_frame(I: Ideal, shift) -> bool:
    """Whether I is monomial and primary once the shift (a ((var, constant),
    ...) tuple, or None) is applied."""
    view = apply_shift(I, dict(shift or ()))
    return view.is_monomial() and is_primary_monomial(view)


def _split_irreducible(rows: list) -> list:
    """Splitting step: a generator with mixed support u*v gives
    (I+u) cap (I+v); recurse until every generator is a pure power."""
    rows = minimal_rows(rows)
    for idx, row in enumerate(rows):
        supp = np.nonzero(row)[0]
        if len(supp) >= 2:
            u = np.zeros_like(row)
            u[supp[0]] = row[supp[0]]
            v = row - u
            rest = rows[:idx] + rows[idx + 1:]
            return (_split_irreducible(rest + [u])
                    + _split_irreducible(rest + [v]))
    return [rows]


def decompose_monomial(I: Ideal, shift: Optional[dict] = None) -> Decomposition:
    """Minimal primary decomposition of a proper monomial ideal.

    With a shift given, the ideal is decomposed in the shifted (monomial)
    frame and the components are translated back, carrying the shift.
    """
    shift = dict(shift) if shift else {}
    work = apply_shift(I, shift)
    if not work.is_monomial():
        raise NonMonomial(f"{I!r} is not monomial" + (" after the given shift" if shift else ""))
    mins = work.minimal_monomial_exps()
    if mins.shape[0] == 0:
        raise InputError("cannot decompose the zero ideal")
    if not np.all(mins.sum(axis=1) > 0):
        raise InputError("cannot decompose an improper ideal")
    ring = I.ring
    irreducibles = _split_irreducible([r for r in mins])
    seen = []
    for rows in irreducibles:
        arr = np.stack(sorted(rows, key=tuple))
        if not any(a.shape == arr.shape and np.array_equal(a, arr) for a in seen):
            seen.append(arr)
    by_radical: dict = {}
    for arr in seen:
        supp = tuple(sorted({int(np.nonzero(r)[0][0]) for r in arr}))
        by_radical.setdefault(supp, []).append(arr)
    comps = [(supp, intersect_all(Ideal(ring, [ring.monomial(r) for r in arr])
                                  for arr in by_radical[supp]))
             for supp in sorted(by_radical)]
    while len(comps) > 1:
        i = _redundant_index([c for _, c in comps])
        if i is None:
            break
        del comps[i]
    out = []
    shift_t = tuple(sorted(shift.items())) if shift else None
    for supp, comp in comps:
        radical = Ideal(ring, [ring.var(ring.vars[i]) for i in supp])
        out.append(PrimaryComponent(
            ideal=unapply_shift(comp, shift),
            radical=unapply_shift(radical, shift),
            verified_primary=is_primary_monomial(comp),
            shift=shift_t,
        ))
    deco = Decomposition(tuple(out), minimal=True)
    if deco.intersection() != I:
        raise IdentityFailure(I, "monomial decomposition does not intersect back")
    return deco


def _redundant_index(ideals: list) -> Optional[int]:
    """Index of the first of two or more ideals that contains the
    intersection of the others, or None when none does."""
    if len(ideals) < 2:
        return None
    for i, I in enumerate(ideals):
        if I.contains_ideal(intersect_all(ideals[:i] + ideals[i + 1:])):
            return i
    return None


def ass_monomial(I: Ideal) -> tuple:
    """Associated primes of a proper monomial ideal, canonically sorted."""
    deco = decompose_monomial(I)
    rads = sorted(deco.components, key=PrimaryComponent.radical_key)
    return tuple(c.radical for c in rads)


# ---------------------------------------------------------------------------
# localisation at a monomial prime
# ---------------------------------------------------------------------------


def _monomial_prime_vars(p: Ideal) -> tuple:
    mins = p.minimal_monomial_exps()
    if mins.shape[0] and not np.all((mins.sum(axis=1) == 1) & (mins.max(axis=1) == 1)):
        raise NonMonomial(f"{p!r} is not generated by a subset of the variables")
    return tuple(int(np.nonzero(r)[0][0]) for r in mins)


def localize_contract(I: Ideal, prime: Ideal, s_hint: Optional[Polynomial] = None) -> Ideal:
    """Contraction of I localised at a prime.

    Monomial fast path: substituting 1 for every variable outside a monomial
    prime inverts them, which is exactly extension-contraction.  Otherwise a
    caller-supplied multiplier s outside the prime drives a saturation that
    kills the components not inside it.  A hint inside the prime raises
    InputError.  The contraction is either the unit ideal or lies in the
    prime, so a proper result outside the prime raises IdentityFailure; when
    I lies in the prime the result must be proper; in a polynomial ring a
    monomial result must be primary to the prime.
    """
    ring = I.ring
    if s_hint is not None and prime.contains(s_hint):
        raise InputError(f"localisation hint {s_hint} lies in the prime")
    if I.is_monomial() and prime.is_monomial():
        inside = set(_monomial_prime_vars(prime))
        outside = {v: 1 for i, v in enumerate(ring.vars) if i not in inside}
        gens = [g.substitute(outside) for g in I.generators]
        return Ideal(ring, gens)
    if s_hint is None:
        raise NonMonomial("general localisation needs a multiplier hint")
    result = I.saturate(s_hint)
    if result.is_unit():
        if prime.contains_ideal(I):
            raise IdentityFailure(result, "saturation hint gave the unit ideal "
                                          "from an ideal inside the prime")
        return result
    if not prime.contains_ideal(result):
        raise IdentityFailure(result, "saturation hint did not isolate the prime")
    basis = result.groebner()
    if not ring.is_quotient() and all(g.is_monomial() for g in basis):
        deco = decompose_monomial(Ideal(ring, basis))
        if len(deco.components) != 1 or deco.components[0].radical != prime:
            raise IdentityFailure(result, "saturation hint did not isolate the prime")
    return result


# ---------------------------------------------------------------------------
# linear growth
# ---------------------------------------------------------------------------

_H_CAP = 10_000


def find_linear_growth_h(deco: Decomposition) -> int:
    """Least h with radical^h inside the matching component, over all components."""
    best = 1
    for comp in deco.components:
        gens = comp.radical.generators
        h = 1
        while True:
            if all(comp.ideal.contains(g) for g in _power_products(gens, h)):
                break
            h += 1
            if h > _H_CAP:
                raise InputError("no linear-growth exponent below the search cap")
        best = max(best, h)
    return best


@dataclass(frozen=True)
class GrowthCheck:
    n: int
    i: int
    ok: bool


@dataclass(frozen=True)
class GrowthCertificate:
    h: int
    depth: int
    decompositions: tuple  # Decomposition per n = 0..depth
    checks: tuple          # GrowthCheck per (n, component)


def certify_growth(seq: FSequence, decomposer: Callable[[int], Decomposition],
                   h: int, depth: int) -> GrowthCertificate:
    """Verify (radical^h)^[p^n] <= component for every term and component.

    The two readings of the growth exponentiation agree because a power of a
    Frobenius power and a Frobenius power of a power have the same
    generating set; the check uses generator membership only, so the
    certificate can be replayed.
    """
    if h < 1 or depth < 0:
        raise InputError("certify_growth wants h >= 1 and depth >= 0")
    decos = []
    checks = []
    for n in range(depth + 1):
        deco = decomposer(n)
        target = seq.term(n)
        inter = deco.intersection()
        if inter != target:
            raise IdentityFailure(target, f"decomposition at n={n} misses the term")
        decos.append(deco)
        for i, comp in enumerate(deco.components):
            ok = all(comp.ideal.contains(g.frobenius(n))
                     for g in _power_products(comp.radical.generators, h))
            checks.append(GrowthCheck(n, i, ok))
            if not ok:
                raise CertificateFailure(n, i, f"(radical^{h})^[p^{n}] escapes the component")
    return GrowthCertificate(h, depth, tuple(decos), tuple(checks))


# ---------------------------------------------------------------------------
# decompositions of Frobenius powers through localised components
# ---------------------------------------------------------------------------


def frobenius_decompositions(deco: Decomposition) -> Callable[[int], Decomposition]:
    """n -> the component-wise Frobenius power of a minimal decomposition
    (primary with the same radicals; the Frobenius is flat here)."""
    def decomposer(n: int) -> Decomposition:
        if n == 0:
            return deco
        comps = []
        for c in deco.components:
            shifted = frob_power(c.ideal, n)
            comps.append(PrimaryComponent(
                ideal=shifted, radical=c.radical,
                verified_primary=_primary_in_frame(shifted, c.shift), shift=c.shift))
        return Decomposition(tuple(comps), minimal=deco.minimal)
    return decomposer


def lg2_decompose(a: Ideal, primes: Sequence[Ideal], h: int, n: int,
                  mode: str = "plain") -> Decomposition:
    """Decompose a Frobenius power (or its closure) through its primes.

    For each prime p_i the component is the p_i-contraction of

        plain:    (a + p_i^h)^[p^n]
        fclosure: ((a + p_i^h)^[p^n])^F
        seqterm:  (a_n + (p_i^h)^[p^n])^F   with a_n = (a^[p^n])^F

    and the intersection of the components is checked against the matching
    target (a^[p^n], or its F-closure).  Each component is checked primary
    to its prime in the monomial frame.
    """
    if mode not in ("plain", "fclosure", "seqterm"):
        raise InputError(f"unknown mode {mode!r}")
    ring = a.ring
    if mode == "plain":
        target = frob_power(a, n)
    else:
        target = f_closure(frob_power(a, n)).closure
    comps = []
    for p_i in primes:
        if mode == "seqterm":
            base = Ideal(ring, target.generators + frob_power(p_i.power(h), n).generators)
            comp_src = f_closure(base).closure
        else:
            base = frob_power(Ideal(ring, a.generators + p_i.power(h).generators), n)
            comp_src = base if mode == "plain" else f_closure(base).closure
        comp = localize_contract(comp_src, p_i)
        primary = _primary_in_frame(comp, None)
        if primary and comp.monomial_radical() != p_i:
            raise IdentityFailure(comp, f"component radical is not {p_i!r}")
        comps.append(PrimaryComponent(ideal=comp, radical=p_i,
                                      verified_primary=primary, shift=None))
    deco = Decomposition(tuple(comps), minimal=_is_minimal(comps))
    inter = deco.intersection()
    if inter != target:
        witness = _containment_witness(inter, target)
        raise IdentityFailure(witness, f"components do not intersect to the target at n={n}")
    return deco


def _is_minimal(comps: Sequence[PrimaryComponent]) -> bool:
    rads = [c.radical for c in comps]
    for i in range(len(rads)):
        for j in range(i + 1, len(rads)):
            if rads[i] == rads[j]:
                return False
    return _redundant_index([c.ideal for c in comps]) is None


def _containment_witness(left: Ideal, right: Ideal):
    for g in left.groebner():
        if not right.contains(g):
            return g
    for g in right.groebner():
        if not left.contains(g):
            return g
    return None


# ---------------------------------------------------------------------------
# primary decomposition of finitely generated perfect-closure ideals
# ---------------------------------------------------------------------------


def decompose_perfection_ideal(A: PerfectionIdeal, check_depth: int = 3) -> list:
    """Split a finitely generated perfect-closure ideal into primary sequences.

    Decomposes the anchor term, pushes each component upward by Frobenius
    powers and downward by Frobenius roots, and checks that the term-wise
    intersection reproduces the original sequence up to check_depth.
    Returns one FSequence per component, tagged with its radical.
    """
    if check_depth < 0:
        raise InputError(f"check depth must be >= 0, got {check_depth}")
    seq = A.seq
    meta = getattr(seq, "meta", None)
    if seq.kind != "fg-perfection" or not meta:
        raise InputError("decompose_perfection_ideal needs a finitely generated ideal")
    if seq.ring.is_quotient():
        raise InputError("perfection decomposition needs a polynomial ambient ring")
    k = meta["k"]
    anchor = seq.term(k)
    deco = decompose_monomial(anchor)
    out = []
    for comp in deco.components:
        out.append(_primary_sequence(comp, k))
    for n in range(check_depth + 1):
        acc = intersect_all(s.term(n) for s in out)
        if acc != seq.term(n):
            witness = _containment_witness(acc, seq.term(n))
            raise IdentityFailure(witness, f"component intersection misses term {n}")
    return out


def _primary_sequence(comp: PrimaryComponent, k: int) -> FSequence:
    def fn(n):
        if n >= k:
            return frob_power(comp.ideal, n - k)
        return frob_root(comp.ideal, k - n)

    seq = FSequence(comp.ideal.ring, "primary-frobenius", fn,
                    f"{comp.radical!r}-primary sequence from depth {k}")
    seq.meta = {"radical": comp.radical, "k": k}
    return seq


# ---------------------------------------------------------------------------
# the escalating-associated-primes family
# ---------------------------------------------------------------------------


@dataclass
class Ex8Report:
    p: int
    l: int
    t: tuple
    depth: int
    seq: FSequence
    decompositions: list          # Decomposition per m = 0..depth
    ass: list                     # list of radical tuples per m
    ass_sizes: list
    verify: object                # VerifyResult over the full depth
    witnesses: list               # per m >= 1: dict with element and checks
    certificate: GrowthCertificate
    no_primary_decomposition: bool
    notes: list = field(default_factory=list)


def ex8_build(p: int, l: int, t_list: Sequence[int], depth: int) -> Ex8Report:
    """Build the two-variable family whose associated primes grow without bound.

    Level m is the intersection of the fixed height-one prime (X) with m
    translated components (X^(l*p^(m-j)), (Y-c_j)^(t_j*p^m)), one per
    distinct constant c_j = j.  The report verifies the root law, certifies
    minimality of each level's decomposition (so the associated primes
    really are m+1 of them), exhibits the membership witnesses separating
    the last component, and issues a max(t)-linear growth certificate.
    Since the associated primes escalate, the matching perfect-closure
    ideal admits no primary decomposition; the finite prime field only
    supports depths below p (distinct constants run out).
    """
    ring = Ring(p, ("X", "Y"))
    if not 2 <= l <= p:
        raise InputError(f"l must satisfy 2 <= l <= p, got {l}")
    if depth < 0:
        raise InputError("depth must be >= 0")
    if depth >= p:
        raise DistinctLambdaExhausted(
            f"depth {depth} needs {depth} distinct constants but F_{p} has only {p - 1} nonzero ones")
    t_list = tuple(t_list)
    if len(t_list) < depth:
        raise InputError(f"need at least {depth} multiplicities, got {len(t_list)}")
    X = ring.var("X")
    Y = ring.var("Y")

    def q_term(j: int, n: int) -> Ideal:
        if j == 0:
            return Ideal(ring, [X])
        lam = j % p
        t_j = t_list[j - 1]
        if n >= j:
            xgen = ring.monomial({"X": l * p ** (n - j)})
            ygen = (Y - lam).power(t_j).frobenius(n)
            return Ideal(ring, [xgen, ygen])
        top = Ideal(ring, [ring.monomial({"X": l}), ring.monomial({"Y": t_j * p ** j})])
        return unapply_shift(frob_root(top, j - n), {"Y": lam})

    def a_term(m: int) -> Ideal:
        return intersect_all(q_term(j, m) for j in range(m + 1))

    seq = FSequence(ring, "intersection", a_term, "escalating-primes family")

    decos = []
    ass = []
    for m in range(depth + 1):
        comps = []
        for j in range(m + 1):
            ideal = q_term(j, m)
            if j == 0:
                radical = Ideal(ring, [X])
                shift = None
            else:
                lam = j % p
                radical = Ideal(ring, [X, Y - lam])
                shift = (("Y", lam),)
            comps.append(PrimaryComponent(
                ideal=ideal, radical=radical,
                verified_primary=_primary_in_frame(ideal, shift), shift=shift))
        for j in range(m + 1, depth + 1):  # deeper components vanish into (X) here
            if not q_term(j, m).contains_ideal(Ideal(ring, [X])):
                raise IdentityFailure(q_term(j, m), f"component {j} fails to absorb (X) at level {m}")
        deco = Decomposition(tuple(comps), minimal=_is_minimal(comps))
        if deco.intersection() != seq.term(m):
            raise IdentityFailure(seq.term(m), f"level {m} decomposition mismatch")
        if not deco.minimal:
            raise IdentityFailure(seq.term(m), f"level {m} decomposition is not minimal")
        decos.append(deco)
        ass.append(tuple(c.radical for c in comps))

    witnesses = []
    for m in range(1, depth + 1):
        w = X
        for kk in range(1, m):
            lam = kk % p
            w = w * (Y - lam).power(t_list[kk - 1]).frobenius(m)
        in_first = all(q_term(j, m).contains(w) for j in range(m))
        in_last = q_term(m, m).contains(w)
        if not in_first or in_last:
            raise IdentityFailure(w, f"level-{m} separating witness failed")
        witnesses.append({"m": m, "element": w, "in_first_m": in_first,
                          "in_last": in_last})

    verify = seq.verify(depth) if depth >= 1 else None
    h = max(t_list[:depth]) if depth else 1
    certificate = certify_growth(seq, lambda m: decos[m], h, depth)
    sizes = [len(a) for a in ass]
    escalates = all(b == a + 1 for a, b in zip(sizes, sizes[1:]))
    report = Ex8Report(
        p=p, l=l, t=t_list[:depth], depth=depth, seq=seq,
        decompositions=decos, ass=ass, ass_sizes=sizes, verify=verify,
        witnesses=witnesses, certificate=certificate,
        no_primary_decomposition=escalates and depth >= 1,
        notes=[
            f"constants c_j = j are distinct in F_{p} only below depth {p}; "
            "deeper levels would need a larger field",
        ],
    )
    if report.no_primary_decomposition:
        report.notes.append(
            "associated primes strictly escalate, so the matching ideal of the "
            "perfect closure has no primary decomposition")
    return report
