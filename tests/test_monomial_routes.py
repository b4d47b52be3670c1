"""The monomial routes on packed ints and exponent rows against the Polynomial
routes they replaced (the ``poly_*`` oracles in conftest.py).

A later basis computation reads an ideal's generators in order, and its pair
count depends on that order, so each result must have the oracle's generator
sequence (keys, packed, coeffs, order), the same minimal generators and the
same pair count; a failing route must raise the same exception class with
the same message, after consuming as many generators."""

from hypothesis import given, settings, strategies as st

from charp import CharpError, Ideal, Ring
from charp.decomposition import decompose_monomial, is_primary_monomial, localize_contract
from charp.frobenius import _frob_root_monomial, f_closure
from charp.ideals import _power_products, groebner_basis
from charp.orders import GREVLEX, LEX
from charp.poly import EXP_LIMIT

from conftest import (poly_closure_term, poly_contains_all, poly_contains_ideal,
                      poly_decomposition_components, poly_frob_root_monomial, poly_intersect,
                      poly_localize_monomial, poly_minimal_monomial_exps, poly_monomial_radical,
                      poly_quotient)


def outcome(fn, *args):
    """fn(*args), or the class and message of the CharpError it raises."""
    try:
        return "value", fn(*args)
    except CharpError as e:
        return type(e), str(e)


def shape(I):
    """What a later basis read of I sees, and what it charges."""
    return ([(g.keys, g.packed, g.coeffs) for g in I.generators],
            outcome(I.minimal_monomial_exps),
            outcome(lambda: groebner_basis(I.generators, I.ring)[1]))


def assert_same(got, want):
    """got is want's twin, and its minimal generators are the ones the
    Polynomial route finds for it."""
    assert shape(got) == shape(want)
    assert got.minimal_monomial_exps() == poly_minimal_monomial_exps(got)


@st.composite
def rings(draw):
    nvars = draw(st.integers(1, 4), label="nvars")
    order = draw(st.sampled_from([GREVLEX, LEX]), label="order")
    return Ring(draw(st.sampled_from([2, 3, 5]), label="p"), tuple("XYZW"[:nvars]), order)


@st.composite
def monomial_ideals(draw, ring, big=False):
    """Monomial generators with any coefficient, repeated (with other
    coefficients too), non-minimal and of equal degree; with big, some
    exponents lie near EXP_LIMIT."""
    value = st.integers(0, 4)
    if big:
        value |= st.sampled_from([EXP_LIMIT, EXP_LIMIT // ring.p, EXP_LIMIT // ring.p ** 20])
    row = st.lists(value, min_size=ring.nvars, max_size=ring.nvars).map(tuple)
    rows = draw(st.lists(row, max_size=4), label="rows")
    for base in draw(st.lists(st.sampled_from(rows), max_size=3) if rows else st.just([]),
                     label="derived"):
        kind = draw(st.sampled_from(["repeat", "multiple", "equal-degree"]), label="kind")
        if kind == "multiple":
            base = tuple(min(e + d, EXP_LIMIT) for e, d in zip(base, draw(row, label="factor")))
        elif kind == "equal-degree":
            base = tuple(draw(st.permutations(base), label="permuted"))
        rows.append(base)
    coeffs = st.integers(1, ring.p - 1)
    return Ideal(ring, [ring.monomial(r, draw(coeffs, label="coeff")) for r in rows])


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_monomial_routes_match_the_polynomial_routes(data):
    ring = data.draw(rings(), label="ring")
    big = data.draw(st.booleans(), label="big")
    I = data.draw(monomial_ideals(ring, big), label="I")
    J = data.draw(monomial_ideals(ring, big), label="J")
    g = ring.monomial(data.draw(st.lists(st.integers(0, 3), min_size=ring.nvars,
                                         max_size=ring.nvars), label="g"))
    assert outcome(I.minimal_monomial_exps) == outcome(poly_minimal_monomial_exps, I)
    assert_same(I.intersect(J), poly_intersect(I, J))
    assert_same(I.quotient(g), poly_quotient(I, g))
    assert_same(I.monomial_radical(), poly_monomial_radical(I))
    assert_same(_frob_root_monomial(I), poly_frob_root_monomial(I))

    if not big:  # the chain reads bases, which exceed the degree budget near EXP_LIMIT
        for step in f_closure(I, max_e=2, confirm=1).steps[1:]:
            assert_same(step, poly_closure_term(I))

    inside = data.draw(st.sets(st.sampled_from(ring.vars), min_size=1), label="prime")
    prime = Ideal(ring, [ring.var(v) for v in sorted(inside)])
    assert_same(localize_contract(I, prime), poly_localize_monomial(I, prime))

    twin = Ring(ring.p, ring.vars, ring.order)  # equal, but another Ring object
    for K in (J, I.intersect(J), Ideal(ring, []),
              Ideal(twin, [twin.coerce(h) for h in J.generators])):
        assert I.contains_ideal(K) == poly_contains_ideal(I, K)

    mins = poly_minimal_monomial_exps(I)
    # decompose_monomial refuses the zero and the unit ideal, and near EXP_LIMIT
    # its identity check exceeds the degree budget
    if big or not mins or not all(map(any, mins)):
        return
    got = [(tuple(sorted(r.index(1) for r in c.radical.minimal_monomial_exps())),
            c.verified_primary, shape(c.ideal)) for c in decompose_monomial(I).components]
    assert got == [(supp, is_primary_monomial(comp), shape(comp))
                   for comp, supp in poly_decomposition_components(I)]


def _counted(gens, seen):
    for g in gens:
        seen.append(g)
        yield g


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_growth_membership_matches_the_polynomial_route(data):
    """The membership tests of certify_growth (e = n) and find_linear_growth_h
    (e = 0): the same answer, or the same ExponentOverflow, after the same
    number of products, for monomial and other component ideals."""
    ring = data.draw(rings(), label="ring")
    I = data.draw(monomial_ideals(ring, data.draw(st.booleans(), label="big")), label="I")
    if data.draw(st.booleans(), label="mixed"):  # a component with a two-term generator
        I = Ideal(ring, I.generators + (ring.var(ring.vars[0]) + 1,))
    assert outcome(I.minimal_monomial_exps) == outcome(poly_minimal_monomial_exps, I)
    radical = data.draw(monomial_ideals(ring, big=False), label="radical")
    if data.draw(st.booleans(), label="non-monomial radical"):
        radical = Ideal(ring, radical.generators + (ring.var(ring.vars[-1]) + ring.one(),))
    h = data.draw(st.integers(1, 4), label="h")
    e = data.draw(st.integers(0, 3) | st.integers(20, 60), label="e")
    seen_got, seen_want = [], []
    got = outcome(I._contains_all, _counted(_power_products(radical.generators, h), seen_got), e)
    want = outcome(poly_contains_all, I,
                   _counted(_power_products(radical.generators, h), seen_want), e)
    assert got == want
    assert len(seen_got) == len(seen_want)
