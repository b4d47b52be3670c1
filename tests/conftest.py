"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's fast paths: monomial
membership is a plain double loop over exponent tuples, intersections are
compared point-by-point over a finite exponent box that decides membership,
Frobenius roots are recomputed by exponent ceilings or by brute-force
enumeration of small polynomials, saturations by iterating colons until
the chain stops, changes of variables column by column, and translations by
products of powers.  The
Buchberger routes that the fast paths are checked against are the
library's own route functions, called directly.

Radical membership, radical sequences, associated primes and component-wise
Frobenius powers of a decomposition live here too: no command needs them,
and the tests use them to check the objects the library builds.

The ``poly_*`` functions are the Polynomial routes that the monomial routes
replaced: they build every monomial through the validating ``Ring.monomial``
and test membership one coerced generator (or Frobenius power) at a time.
"""

import contextlib
import itertools
import random
import signal

import pytest

from charp import CharpError, Ideal, InputError, NonMonomial, Ring
from charp.decomposition import (Decomposition, PrimaryComponent, _primary_in_frame,
                                 _split_irreducible, _support, decompose_monomial)
from charp.frobenius import frob_power
from charp.ideals import _aux_cover, _intersection, _mono_divides, _sorted_minimal, normal_form
from charp.perfection import FSequence


@pytest.fixture
def rng():
    return random.Random(20240811)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run for `seconds`, so that
    a computation that would hang fails instead (SIGALRM: main thread only)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- random objects ---------------------------------------------------------


def rand_poly(ring, rng, max_terms=3, max_total_deg=4, allow_zero=False):
    """Random polynomial with bounded total degree per term."""
    n = rng.randint(0 if allow_zero else 1, max_terms)
    out = ring.zero()
    for _ in range(n):
        degs = []
        remaining = max_total_deg
        for _v in ring.vars:
            e = rng.randint(0, remaining)
            degs.append(e)
            remaining -= e
        rng.shuffle(degs)
        coeff = rng.randint(1, ring.p - 1)
        out = out + ring.monomial(degs, coeff)
    return out


def rand_ideal(ring, rng, max_gens=3, max_total_deg=4):
    gens = []
    while not gens:
        gens = [rand_poly(ring, rng, 3, max_total_deg) for _ in range(rng.randint(1, max_gens))]
        gens = [g for g in gens if not g.is_zero()]
    return Ideal(ring, gens)


def cusp_ring():
    """The coordinate ring of the cuspidal cubic V^2 + U^3 over F_2."""
    plain = Ring(2, ["U", "V"])
    return Ring(2, ["U", "V"], quotient=[plain.parse("V^2+U^3")], reduced=True)


def rand_monomial_ideal(ring, rng, max_gens=4, max_exp=6):
    """Proper nonzero monomial ideal."""
    gens = []
    while not gens:
        for _ in range(rng.randint(1, max_gens)):
            vec = [rng.randint(0, max_exp) for _ in ring.vars]
            if sum(vec) == 0:
                vec[rng.randrange(len(vec))] = rng.randint(1, max_exp)
            gens.append(ring.monomial(vec))
    return Ideal(ring, gens)


# -- independent oracles ------------------------------------------------------


def ideal_generators(ring, gens):
    """The generators Ideal(ring, gens) keeps: each coerced into ring, zeros
    dropped, and the first of equal Polynomials kept (dict.fromkeys)."""
    return tuple(dict.fromkeys(g for g in map(ring.coerce, gens) if not g.is_zero()))


def monomial_gen_exps(I):
    """Generator exponent tuples straight off the stored generators."""
    return [tuple(int(e) for e in g.exps[0]) for g in I.generators]


def oracle_mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def oracle_mono_member(gen_exps, vec):
    """vec's monomial lies in the monomial ideal given by gen_exps."""
    return any(oracle_mono_divides(g, vec) for g in gen_exps)


def oracle_poly_member_monomial(gen_exps, poly):
    """Every term of poly must be divisible by some generator."""
    if poly.is_zero():
        return True
    return all(oracle_mono_member(gen_exps, tuple(int(e) for e in vec))
               for vec, _c in poly.terms())


def membership_box(*ideals, pad=1):
    """An exponent box that decides membership for all the given monomial
    ideals: one past the componentwise maximum generator exponent."""
    nvars = len(ideals[0].ring.vars)
    tops = [0] * nvars
    for I in ideals:
        for g in monomial_gen_exps(I):
            tops = [max(t, e) for t, e in zip(tops, g)]
    return itertools.product(*(range(t + pad + 1) for t in tops))


def oracle_ceiling_root(gen_exps, p):
    """Frobenius root of a monomial ideal: componentwise ceilings."""
    return sorted({tuple(-(-e // p) for e in g) for g in gen_exps})


def all_polys_up_to_degree(ring, max_total_deg):
    """Every polynomial supported on monomials of total degree <= bound."""
    monos = [m for m in itertools.product(*(range(max_total_deg + 1) for _ in ring.vars))
             if sum(m) <= max_total_deg]
    for coeffs in itertools.product(range(ring.p), repeat=len(monos)):
        yield ring.from_terms([(m, c) for m, c in zip(monos, coeffs) if c])


def oracle_saturate(I, g):
    """I : g^inf by iterating colons until the chain stabilises."""
    current = I
    while True:
        nxt = current.quotient(g)
        if nxt == current:
            return current
        current = nxt


def groebner_member(I, g):
    """g in I by the normal form modulo I's reduced basis."""
    return normal_form(g, I.groebner()).is_zero()


def elimination_intersection(I, J):
    """I cap J by eliminating T from T*I + (1 - T)*J."""
    return _intersection(I.effective_generators(), J.effective_generators(),
                         _aux_cover(I.ring, 1), I.ring)


def map_poly(f, target, col_map):
    """f read in target, sending column i of f's ring to column col_map[i]
    and leaving every other column 0, one exponent at a time."""
    rows = []
    for vec in f.exps:
        row = [0] * target.nvars
        for i, j in enumerate(col_map):
            row[j] = vec[i]
        rows.append(row)
    return target.from_terms(zip(rows, f.coeffs))


def substitute(f, assignments):
    """Simultaneous substitution of polynomials or integers for the variables
    named in assignments, term by term with Polynomial products and powers."""
    ring = f.ring
    values = {ring.vars.index(v): ring.coerce(val) for v, val in assignments.items()}
    out = ring.zero()
    for vec, c in f.terms():
        term = ring.constant(c)
        plain = list(vec)
        for i, val in values.items():
            if vec[i]:
                plain[i] = 0
                term = term * val.power(vec[i])
        out = out + term * ring.monomial(plain)
    return out


def project(g, k, target):
    """g read in target through all but the first k variables of g's ring."""
    return target.from_terms((vec[k:], c) for vec, c in g.terms())


def power_products(gens, h):
    """Products of every multiset of h generators, in combinations order, as
    Polynomial products: the route ``ideals._power_products`` takes for
    generators of several terms."""
    for combo in itertools.combinations_with_replacement(gens, h):
        out = combo[0]
        for g in combo[1:]:
            out = out * g
        yield out


# -- the Polynomial routes of the monomial fast paths -------------------------


def poly_minimal_monomial_exps(I):
    """The distinct minimal generators of a monomial ideal, ascending, from
    every generator's decoded exponent tuple by the quadratic ``_minimal``."""
    if not I.is_monomial():
        raise InputError("not a monomial ideal")
    return _sorted_minimal([g.exps[0] for g in I.generators])


def poly_intersect(I, J):
    """Monomial I cap J: the lcm of each pair of minimal generators, I's outer."""
    b = poly_minimal_monomial_exps(J)
    return Ideal(I.ring, [I.ring.monomial(tuple(map(max, r, s)))
                          for r in poly_minimal_monomial_exps(I) for s in b])


def poly_quotient(I, g):
    """Monomial (I : g) by exponent subtraction from the minimal generators."""
    vec = g.exps[0]
    return Ideal(I.ring, [I.ring.monomial([max(e - v, 0) for e, v in zip(r, vec)])
                          for r in poly_minimal_monomial_exps(I)])


def poly_monomial_radical(I):
    squarefree = [tuple(min(e, 1) for e in r) for r in poly_minimal_monomial_exps(I)]
    return Ideal(I.ring, [I.ring.monomial(r) for r in _sorted_minimal(squarefree)])


def poly_frob_root_monomial(I):
    p = I.ring.p
    return Ideal(I.ring, [I.ring.monomial([-(-e // p) for e in r])
                          for r in poly_minimal_monomial_exps(I)])


def poly_closure_term(b):
    """A chain term of the F-closure of a monomial b in a polynomial ring."""
    return Ideal(b.ring, [b.ring.monomial(r) for r in poly_minimal_monomial_exps(b)])


def poly_localize_monomial(I, prime):
    """I contracted at a monomial prime: the other variables' exponents zeroed."""
    ring, inside = I.ring, {r.index(1) for r in poly_minimal_monomial_exps(prime)}
    return Ideal(ring, [ring.monomial([e if i in inside else 0 for i, e in enumerate(g.exps[0])],
                                      g.coeffs[0]) for g in I.generators])


def poly_contains_ideal(I, J):
    return all(I.contains(g) for g in J.effective_generators())


def poly_contains_all(I, gens, e=0):
    """Whether I holds the p^e-th power of each of gens, built and coerced."""
    return all(I.contains(g.frobenius(e)) for g in gens)


def poly_decomposition_components(I):
    """(component, support of its radical) of decompose_monomial(I), ascending
    by support: leaves as exponent rows, leaf containment by tuple
    divisibility, and each kept radical's leaves intersected in turn."""
    ring = I.ring
    leaves = list(dict.fromkeys(tuple(sorted(irr)) for irr in
                                _split_irreducible(poly_minimal_monomial_exps(I))))
    by_radical, kept = {}, set()
    for a in leaves:
        supp = tuple(sorted(_support(r)[0] for r in a))
        by_radical.setdefault(supp, []).append(a)
        if not any(b != a and all(any(_mono_divides(r, s) for r in a) for s in b)
                   for b in leaves):
            kept.add(supp)
    out = []
    for supp in sorted(kept):
        ideals = [Ideal(ring, [ring.monomial(r) for r in rows]) for rows in by_radical[supp]]
        comp = ideals[0]
        for J in ideals[1:]:
            comp = poly_intersect(comp, J)
        out.append((comp, supp))
    return out


def chained_root(I, e, step):
    """e single Frobenius roots in a row, each taken by ``step``."""
    for _ in range(e):
        I = step(I)
    return I


def assert_same_ideal_on_box(I, J, pad=1):
    """Monomial ideals agree pointwise over a deciding box."""
    gi = monomial_gen_exps(I)
    gj = monomial_gen_exps(J)
    for vec in membership_box(I, J, pad=pad):
        assert oracle_mono_member(gi, vec) == oracle_mono_member(gj, vec), vec


def in_radical(I, g):
    """Rabinowitsch test: g in sqrt(I) iff I : g^inf is the unit ideal."""
    g = I.ring.coerce(g)
    return g.is_zero() or I.saturate(g).is_unit()


def radical_sequence(inner):
    """The term-wise monomial radical of an f-sequence; a radical ideal's
    f-sequence is constant, and that constancy is checked across the queried
    depths."""
    state = {}

    def fn(n):
        t = inner.term(n)
        if not t.is_monomial():
            raise NonMonomial("radical sequence needs monomial terms")
        rad = t.monomial_radical()
        ref = state.setdefault("ref", rad)
        if ref != rad:
            raise CharpError(f"radical sequence is not constant: term {n} gives {rad!r}, "
                             f"earlier terms gave {ref!r}")
        return rad

    return FSequence(inner.ring, fn)


def ass_monomial(I):
    """The associated primes of a proper monomial ideal, sorted by the
    variables of each prime."""
    def variables(c):
        return sorted(v for g in c.radical.minimal_monomial_exps()
                      for v, e in zip(I.ring.vars, g) if e)

    return tuple(c.radical for c in sorted(decompose_monomial(I).components, key=variables))


def frobenius_decompositions(deco):
    """n -> the component-wise Frobenius power of a minimal decomposition
    (primary with the same radicals; the Frobenius is flat here)."""
    def decomposer(n):
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
