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

from typing import Callable, Optional, Sequence

from .errors import (CertificateFailure, DistinctLambdaExhausted,
                     IdentityFailure, InputError, NonMonomial)
from .frobenius import f_closure, frob_power, frob_root
from .ideals import Ideal, _minimal, _monomial_ideal, _power_products, intersect_all
from .orders import FrozenRecord, as_index
from .perfection import FSequence, PerfectionIdeal
from .poly import Polynomial, Ring


# ---------------------------------------------------------------------------
# components and decompositions
# ---------------------------------------------------------------------------


class PrimaryComponent(FrozenRecord):
    """A primary ideal with its radical prime; shift maps it to monomial frame.

    ``shift`` holds (var, constant) pairs, or is None: putting var + constant
    for var makes both ideals monomial, so there the radical contains the ideal
    by packed divisibility.  A radical not monomial there is checked as given.
    """

    __slots__ = ("ideal", "radical", "shift")

    def __init__(self, ideal: Ideal, radical: Ideal, shift: Optional[tuple] = None):
        view = apply_shift(radical, shift)
        if not (view.contains_ideal(apply_shift(ideal, shift)) if view.is_monomial()
                else radical.contains_ideal(ideal)):
            raise InputError("component does not lie inside its radical")
        super().__init__(ideal, radical, shift)

    @property
    def verified_primary(self) -> bool:
        """Whether the ideal is monomial and primary in the shift frame."""
        view = apply_shift(self.ideal, self.shift)
        return view.is_monomial() and is_primary_monomial(view)


class Decomposition(FrozenRecord):
    __slots__ = ("components", "minimal")

    def intersection(self) -> Ideal:
        return intersect_all(c.ideal for c in self.components)


def apply_shift(I: Ideal, shift) -> Ideal:
    """Put var + constant for var, for every (var, constant) in shift (a dict,
    pairs, or None)."""
    if not shift:
        return I
    ring, gens = I.ring, I.generators
    for v, c in dict(shift).items():
        i = ring._var_index.get(v)
        if i is None:
            raise InputError(f"unknown variable {v!r}")
        gens = [g._shifted(i, c) for g in gens]
    return Ideal(ring, gens)


def unapply_shift(I: Ideal, shift) -> Ideal:
    return apply_shift(I, {v: -c for v, c in dict(shift or ()).items()})


def _support(row: tuple) -> tuple:
    """Indices of the variables an exponent tuple involves."""
    return tuple(i for i, e in enumerate(row) if e)


def is_primary_monomial(I: Ideal) -> bool:
    """Monomial criterion: every variable occurring in a generator occurs
    as a pure power among the generators."""
    supports = [_support(r) for r in I.minimal_monomial_exps()]
    pure = {s[0] for s in supports if len(s) == 1}
    return bool(supports) and all(v in pure for s in supports for v in s)


def _split_irreducible(rows: Sequence[tuple]) -> list:
    """Splitting step: a generator with mixed support u*v gives
    (I+u) cap (I+v); recurse until every generator is a pure power."""
    rows = [rows[i] for i in _minimal(rows)]
    for idx, row in enumerate(rows):
        supp = _support(row)
        if len(supp) >= 2:
            u = tuple(e if i == supp[0] else 0 for i, e in enumerate(row))
            v = tuple(0 if i == supp[0] else e for i, e in enumerate(row))
            rest = rows[:idx] + rows[idx + 1:]
            return (_split_irreducible(rest + [u])
                    + _split_irreducible(rest + [v]))
    return [rows]


def decompose_monomial(I: Ideal, shift: Optional[dict] = None) -> Decomposition:
    """Minimal primary decomposition of a proper monomial ideal.

    The splitter writes I as an intersection of irreducible leaves.  A
    radical is kept iff one of its leaves contains no other leaf, and its
    component is the intersection of all its leaves.  An irreducible monomial
    ideal containing I cap J contains I or J (a pure power dividing lcm(m, n)
    divides m or n), so the other radicals are exactly the redundant ones.

    With a shift given, the ideal is decomposed in the shifted (monomial)
    frame and the components are translated back, carrying the shift.
    """
    shift = tuple(sorted(dict(shift).items())) if shift else None
    work = apply_shift(I, shift)
    if I.ring.is_quotient():  # no ideal of a quotient ring counts as monomial
        raise NonMonomial(f"decomposition needs a polynomial ring, not {I.ring!r}")
    if not work.is_monomial():
        raise NonMonomial(f"{I!r} is not monomial" + (" after the given shift" if shift else ""))
    mins = work.minimal_monomial_exps()
    if not mins:
        raise InputError("cannot decompose the zero ideal")
    if not all(any(r) for r in mins):
        raise InputError("cannot decompose an improper ideal")
    ring = I.ring
    leaves = [_monomial_ideal(ring, rows, minimal=True)  # the distinct leaves
              for rows in dict.fromkeys(tuple(sorted(irr)) for irr in _split_irreducible(mins))]
    by_radical, kept = {}, set()  # the leaves by radical; the radicals kept
    for a in leaves:
        supp = tuple(sorted(_support(r)[0] for r in a.minimal_monomial_exps()))
        by_radical.setdefault(supp, []).append(a)
        if not any(b is not a and a.contains_ideal(b) for b in leaves):
            kept.add(supp)
    out = []
    for supp in sorted(kept):
        comp = intersect_all(by_radical[supp])
        rad = Ideal(ring, [ring.var(ring.vars[i]) for i in supp])
        out.append(PrimaryComponent(unapply_shift(comp, shift), unapply_shift(rad, shift), shift))
    deco = Decomposition(tuple(out), minimal=True)
    _check_identity(deco.intersection(), I, "monomial decomposition does not intersect back")
    return deco


def growth_decomposer(seq: FSequence) -> Callable[[int], Decomposition]:
    """n -> decompose_monomial(seq.term(n)).  Frobenius powers of a decompose a
    once: over a polynomial ring the Frobenius is flat (Kunz), and splitting,
    containment, lcms, row order and deduplication commute with scaling, so a
    later call scales a's components by p^n and checks them as decompose_monomial does."""
    if "ideal" not in seq.meta:
        return lambda n: decompose_monomial(seq.term(n))
    first = []  # decompose_monomial(seq.term(0))

    def decomposer(n):
        term = seq.term(n)
        if not first:
            first.append(decompose_monomial(seq.term(0)))
            if n == 0:
                return first[0]
        comps = [PrimaryComponent(_scaled(c.ideal, seq.ring.p ** n), c.radical)
                 for c in first[0].components]
        deco = Decomposition(tuple(comps), minimal=True)
        _check_identity(deco.intersection(), term, "monomial decomposition does not intersect back")
        return deco
    return decomposer


def _scaled(I: Ideal, q: int) -> Ideal:
    """A new ideal on I's monomial generators and minimal rows times q.  It has no
    cached basis, so reading one charges its pairs as decompose_monomial's would."""
    J = Ideal(I.ring, [Polynomial(I.ring, [g.keys[0] * q], [g.packed[0] * q], g.coeffs)
                       for g in I.generators])
    J._min_exps = tuple(tuple(e * q for e in r) for r in I.minimal_monomial_exps())
    J._min_packed = tuple(x * q for x in I._min_packed)
    return J


def _redundant_index(ideals: list) -> Optional[int]:
    """Index of the first of two or more ideals that contains the
    intersection of the others, or None when none does."""
    if len(ideals) < 2:
        return None
    for i, I in enumerate(ideals):
        if I.contains_ideal(intersect_all(ideals[:i] + ideals[i + 1:])):
            return i
    return None


# ---------------------------------------------------------------------------
# localisation at a monomial prime
# ---------------------------------------------------------------------------


def localize_contract(I: Ideal, prime: Ideal, s_hint: Optional[Polynomial] = None) -> Ideal:
    """Contraction of I localised at a prime.

    Monomial fast path: zeroing the exponents of the variables outside a
    monomial prime inverts them, exactly extension-contraction.  Otherwise a
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
        mins = prime.minimal_monomial_exps()
        if any(sum(r) != 1 for r in mins):
            raise NonMonomial(f"{prime!r} is not generated by a subset of the variables")
        inside = {r.index(1) for r in mins}
        return Ideal(ring, [ring._term([e if i in inside else 0
                                        for i, e in enumerate(ring.unpack(g.packed[0]))],
                                       g.coeffs[0]) for g in I.generators])
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
        h = 1
        while not comp.ideal._contains_all(_power_products(comp.radical.generators, h)):
            h += 1
            if h > _H_CAP:
                raise InputError("no linear-growth exponent below the search cap")
        best = max(best, h)
    return best


class GrowthCheck(FrozenRecord):
    __slots__ = ("n", "i", "ok")


class GrowthCertificate(FrozenRecord):
    # checks: a GrowthCheck per (n, component), n = 0..depth
    __slots__ = ("h", "depth", "checks")


def certify_growth(seq: FSequence, decomposer: Callable[[int], Decomposition],
                   h: int, depth: int) -> GrowthCertificate:
    """Verify (radical^h)^[p^n] <= component for every term and component.

    The two readings of the growth exponentiation agree because a power of a
    Frobenius power and a Frobenius power of a power have the same
    generating set; the check uses generator membership only, so the
    certificate can be replayed.
    """
    h, depth = as_index(h, "growth exponent h", 1), as_index(depth, "certificate depth", 0)
    checks = []
    for n in range(depth + 1):
        deco = decomposer(n)
        target = seq.term(n)
        _check_identity(deco.intersection(), target, f"decomposition at n={n} misses the term")
        for i, comp in enumerate(deco.components):
            ok = comp.ideal._contains_all(_power_products(comp.radical.generators, h), n)
            checks.append(GrowthCheck(n, i, ok))
            if not ok:
                raise CertificateFailure(n, i, f"(radical^{h})^[p^{n}] escapes the component")
    return GrowthCertificate(h, depth, tuple(checks))


# ---------------------------------------------------------------------------
# decompositions of Frobenius powers through localised components
# ---------------------------------------------------------------------------


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
    h, n = as_index(h, "lg2_decompose h", 1), as_index(n, "lg2_decompose n", 0)
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
        # before the component is built, so a unit contraction fails here (exit 1)
        if comp.is_monomial() and is_primary_monomial(comp) and comp.monomial_radical() != p_i:
            raise IdentityFailure(comp, f"component radical is not {p_i!r}")
        comps.append(PrimaryComponent(comp, p_i))
    deco = Decomposition(tuple(comps), minimal=_is_minimal(comps))
    _check_identity(deco.intersection(), target,
                    f"components do not intersect to the target at n={n}")
    return deco


def _is_minimal(comps: Sequence[PrimaryComponent]) -> bool:
    rads = [c.radical for c in comps]
    return (not any(a == b for i, a in enumerate(rads) for b in rads[i + 1:])
            and _redundant_index([c.ideal for c in comps]) is None)


def _check_identity(got: Ideal, target: Ideal, detail: str) -> None:
    """IdentityFailure unless got == target, witnessed by a basis element one side lacks."""
    if got != target:
        raise IdentityFailure(_containment_witness(got, target), detail)


def _containment_witness(left: Ideal, right: Ideal):
    """The first basis element of left outside right, else of right outside left, else None."""
    for first, second in ((left, right), (right, left)):
        for g in first.groebner():
            if not second.contains(g):
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
    check_depth = as_index(check_depth, "check depth", 0)
    seq = A.seq
    if "k" not in seq.meta:
        raise InputError("decompose_perfection_ideal needs a finitely generated ideal")
    if seq.ring.is_quotient():
        raise InputError("perfection decomposition needs a polynomial ambient ring")
    k = seq.meta["k"]
    anchor = seq.term(k)
    deco = decompose_monomial(anchor)
    out = [_primary_sequence(comp, k) for comp in deco.components]
    for n in range(check_depth + 1):
        _check_identity(intersect_all(s.term(n) for s in out), seq.term(n),
                        f"component intersection misses term {n}")
    return out


def _primary_sequence(comp: PrimaryComponent, k: int) -> FSequence:
    seq = FSequence(comp.ideal.ring, lambda n: frob_power(comp.ideal, n - k) if n >= k
                    else frob_root(comp.ideal, k - n))
    seq.meta = {"radical": comp.radical}
    return seq


# ---------------------------------------------------------------------------
# the escalating-associated-primes family
# ---------------------------------------------------------------------------


class Ex8Report(FrozenRecord):
    # ass (tuples of radicals) per level m = 0..depth; verify: the VerifyResult to depth
    # (None at 0); witnesses per m >= 1: dicts of element and checks
    __slots__ = ("p", "l", "t", "depth", "seq", "ass", "ass_sizes",
                 "verify", "witnesses", "certificate", "no_primary_decomposition", "notes")


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
    l, depth = as_index(l, "l"), as_index(depth, "depth", 0)
    t_list = tuple(as_index(t, "multiplicity") for t in t_list)
    if not 2 <= l <= p:
        raise InputError(f"l must satisfy 2 <= l <= p, got {l}")
    if depth >= p:
        raise DistinctLambdaExhausted(
            f"depth {depth} needs {depth} distinct constants but F_{p} has only {p - 1} nonzero ones")
    if len(t_list) < depth:
        raise InputError(f"need at least {depth} multiplicities, got {len(t_list)}")
    if min(t_list[:depth], default=1) < 1:
        raise InputError("multiplicities must be >= 1")
    X = ring.var("X")
    Y = ring.var("Y")

    def q_term(j: int, n: int) -> Ideal:
        if j == 0:
            return Ideal(ring, [X])
        top = Ideal(ring, [ring.monomial((l, 0)), ring.monomial((0, t_list[j - 1] * p ** j))])
        frame = frob_power(top, n - j) if n >= j else frob_root(top, j - n)
        return unapply_shift(frame, {"Y": j % p})

    def a_term(m: int) -> Ideal:
        return intersect_all(q_term(j, m) for j in range(m + 1))

    seq = FSequence(ring, a_term)

    decos = []
    ass = []
    for m in range(depth + 1):
        comps = []
        for j in range(m + 1):
            comps.append(PrimaryComponent(q_term(j, m), Ideal(ring, [X, Y - j % p] if j else [X]),
                                          (("Y", j % p),) if j else None))
        for j in range(m + 1, depth + 1):  # deeper components vanish into (X) here
            if not q_term(j, m).contains_ideal(Ideal(ring, [X])):
                raise IdentityFailure(q_term(j, m), f"component {j} fails to absorb (X) at level {m}")
        deco = Decomposition(tuple(comps), minimal=_is_minimal(comps))
        _check_identity(deco.intersection(), seq.term(m), f"level {m} decomposition mismatch")
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
    no_primary_decomposition = escalates and depth >= 1
    notes = [f"constants c_j = j are distinct in F_{p} only below depth {p}; "
             "deeper levels would need a larger field"]
    if no_primary_decomposition:
        notes.append("associated primes strictly escalate, so the matching ideal of the "
                     "perfect closure has no primary decomposition")
    return Ex8Report(
        p=p, l=l, t=t_list[:depth], depth=depth, seq=seq,
        ass=ass, ass_sizes=sizes, verify=verify,
        witnesses=witnesses, certificate=certificate,
        no_primary_decomposition=no_primary_decomposition, notes=notes,
    )
