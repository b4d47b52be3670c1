"""Groebner engine: canonical bases, membership, intersection, quotient,
saturation, elimination, radical membership, budgets, and the monomial
fast paths against their oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charp import (GroebnerBudget, GroebnerBudgetExceeded, Ideal, InputError,
                   Ring, ideals, using_budget)
from charp.frobenius import frob_root
from charp.ideals import minimal_rows, normal_form
from charp.orders import GREVLEX, LEX, elim

from conftest import (assert_same_ideal_on_box,
                      monomial_gen_exps, oracle_mono_member, oracle_saturate,
                      oracle_poly_member_monomial, rand_ideal,
                      rand_monomial_ideal, rand_poly)


@pytest.fixture
def R2():
    return Ring(2, ["X", "Y"])


def gb_strs(I):
    return [str(g) for g in I.groebner()]


# -- reduced bases -------------------------------------------------------------


def test_gb_hand_example(R2):
    assert gb_strs(Ideal(R2, ["X", "X^2+Y"])) == ["Y", "X"]


def test_gb_single_monomial():
    for order in (GREVLEX, LEX, elim(1)):
        assert gb_strs(Ideal(Ring(2, ["X", "Y"], order), ["X*Y"])) == ["X*Y"]


def test_gb_zero_ideal(R2):
    assert gb_strs(Ideal(R2, [])) == []
    assert gb_strs(Ideal(R2, ["0"])) == []


def test_gb_idempotent(R2, rng):
    for _ in range(10):
        I = rand_ideal(R2, rng)
        basis = I.groebner()
        again = Ideal(R2, basis).groebner()
        assert basis == again


def test_gb_is_order_sensitive_cache():
    gens = ["X^2 - Y", "Y^2 - X"]
    I = Ideal(Ring(7, ["X", "Y"]), gens)
    J = Ideal(Ring(7, ["X", "Y"], LEX), gens)
    g1 = I.groebner()
    g2 = J.groebner()
    assert g1 is I.groebner()
    assert g2 is J.groebner()
    assert [str(g) for g in g1] != [str(g) for g in g2]


def test_ideal_equality_is_canonical(R2):
    assert Ideal(R2, ["X", "Y"]) == Ideal(R2, ["X+Y", "Y"])
    assert Ideal(R2, ["X"]) != Ideal(R2, ["X^2"])


# -- membership ---------------------------------------------------------------


def test_contains_examples(R2):
    I = Ideal(R2, ["X", "X^2+Y"])
    assert I.contains(R2.parse("Y^2"))
    assert not Ideal(R2, ["X^2"]).contains(R2.parse("X"))
    assert Ideal(R2, ["X^2"]).contains(R2.zero())


def test_contains_agrees_with_divisibility_oracle_full_box(rng):
    R = Ring(2, ["X", "Y"])
    box = [vec for vec in itertools.product(range(13), repeat=2) if sum(vec) <= 12]
    for _ in range(8):
        I = rand_monomial_ideal(R, rng, max_gens=4, max_exp=6)
        gens = monomial_gen_exps(I)
        for vec in box:
            mono = R.monomial(dict(zip(R.vars, vec)))
            expect = oracle_mono_member(gens, vec)
            assert I.contains(mono) == expect
            assert I.contains(mono, method="groebner") == expect


def test_contains_random_monomial_ideals_vs_oracle(rng):
    R = Ring(3, ["X", "Y"])
    for _ in range(25):
        I = rand_monomial_ideal(R, rng, max_gens=4, max_exp=6)
        gens = monomial_gen_exps(I)
        g = rand_poly(R, rng, 4, 8, allow_zero=True)
        expect = oracle_poly_member_monomial(gens, g)
        assert I.contains(g) == expect
        assert I.contains(g, method="groebner") == expect


def test_normal_form_is_zero_only_on_members(R2, rng):
    I = Ideal(R2, ["X^2 + Y", "Y^2"])
    basis = I.groebner()
    for _ in range(20):
        f = rand_poly(R2, rng, 3, 4, allow_zero=True)
        member = I.contains(f)
        assert normal_form(f, basis).is_zero() == member


# -- intersection ----------------------------------------------------------------


def test_intersect_examples(R2):
    assert Ideal(R2, ["X"]).intersect(Ideal(R2, ["Y"])) == Ideal(R2, ["X*Y"])
    got = Ideal(R2, ["X^2"]).intersect(Ideal(R2, ["X^4", "X^2*Y^2", "Y^4"]))
    assert got == Ideal(R2, ["X^4", "X^2*Y^2"])
    I = Ideal(R2, ["X^2+Y"])
    assert I.intersect(Ideal(R2, ["1"])) == I


def test_intersect_monomial_vs_elimination(rng):
    R = Ring(2, ["X", "Y"])
    for _ in range(12):
        I = rand_monomial_ideal(R, rng)
        K = rand_monomial_ideal(R, rng)
        fast = I.intersect(K, method="monomial")
        slow = I.intersect(K, method="elimination")
        assert fast == slow
        assert_same_ideal_on_box(fast, slow)


def test_intersect_properties(rng):
    R = Ring(3, ["X", "Y"])
    for _ in range(8):
        I = rand_ideal(R, rng, 2, 3)
        K = rand_ideal(R, rng, 2, 3)
        L = rand_ideal(R, rng, 2, 3)
        IK = I.intersect(K)
        assert IK == K.intersect(I)
        assert I.intersect(K.intersect(L)) == IK.intersect(L)
        for g in IK.generators:
            assert I.contains(g) and K.contains(g)


# -- quotient and saturation -------------------------------------------------------


def test_quotient_examples(R2):
    I = Ideal(R2, ["X^2", "X*Y"])
    assert I.quotient(R2.parse("X")) == Ideal(R2, ["X", "Y"])
    assert I.saturate(R2.parse("Y")) == Ideal(R2, ["X"])
    assert Ideal(R2, ["X"]).quotient(R2.parse("Y")) == Ideal(R2, ["X"])


def test_quotient_monomial_vs_colon(rng):
    R = Ring(2, ["X", "Y"])
    for _ in range(12):
        I = rand_monomial_ideal(R, rng)
        m = rand_monomial_ideal(R, rng, max_gens=1, max_exp=3).generators[0]
        assert I.quotient(m, method="monomial") == I.quotient(m, method="colon")


def test_quotient_membership_characterisation(rng):
    R = Ring(3, ["X", "Y"])
    for _ in range(6):
        I = rand_ideal(R, rng, 2, 3)
        g = rand_poly(R, rng, 2, 2)
        if g.is_zero():
            continue
        Q = I.quotient(g)
        for _ in range(10):
            r = rand_poly(R, rng, 2, 3, allow_zero=True)
            assert Q.contains(r) == I.contains(r * g)


def test_saturate_idempotent(rng):
    R = Ring(2, ["X", "Y"])
    for _ in range(8):
        I = rand_monomial_ideal(R, rng)
        g = R.var("Y")
        S = I.saturate(g)
        assert S.saturate(g) == S


def test_saturate_one_step_example(R2):
    I = Ideal(R2, ["X^2", "X*Y"])
    q1 = I.quotient(R2.parse("Y"))
    assert q1 == Ideal(R2, ["X"])
    assert q1.quotient(R2.parse("Y")) == q1


def _colon_rings():
    plain = Ring(2, ["U", "V"])
    return {
        "grevlex-p2": Ring(2, ["X", "Y"]),
        "grevlex-p3": Ring(3, ["X", "Y"]),
        "lex-p3": Ring(3, ["X", "Y"], LEX),
        "cusp": Ring(2, ["U", "V"], quotient=[plain.parse("V^2+U^3")], reduced=True),
    }


@pytest.mark.parametrize("name", ["lex-p3", "cusp"])
def test_colon_membership_in_lex_and_quotient_rings(name, rng):
    R = _colon_rings()[name]
    for _ in range(6):
        I = rand_ideal(R, rng, 2, 3)
        g = rand_poly(R, rng, 2, 2)
        if g.is_zero():
            continue
        Q = I.quotient(g, method="colon")
        for _ in range(10):
            r = rand_poly(R, rng, 2, 3, allow_zero=True)
            assert Q.contains(r) == I.contains(r * g)


@pytest.mark.parametrize("name", list(_colon_rings()))
def test_saturate_and_in_radical_match_colon_chain_oracle(name, rng):
    R = _colon_rings()[name]
    for _ in range(8):
        I = rand_ideal(R, rng, 2, 3)
        g = rand_poly(R, rng, 2, 2)
        if g.is_zero():
            continue
        S = oracle_saturate(I, g)
        assert I.saturate(g) == S
        assert I.in_radical(g) == S.is_unit()


def test_saturate_by_zero_is_rejected(R2):
    with pytest.raises(InputError):
        Ideal(R2, ["X*Y"]).saturate(0)


@pytest.mark.parametrize("name, gens, g", [
    ("grevlex-p2", ["X^2*Y", "X*Y^3"], "Y"),
    ("lex-p3", ["X^2*Y + X*Y", "Y^3"], "X + Y"),
    ("cusp", ["U*V"], "U"),
])
def test_saturate_computes_one_basis(name, gens, g, monkeypatch):
    R = _colon_rings()[name]
    I = Ideal(R, gens)
    calls = []
    run = ideals._Buchberger.run

    def spy(self, gens):
        calls.append(self.ring)
        return run(self, gens)

    monkeypatch.setattr(ideals._Buchberger, "run", spy)
    S = I.saturate(g)
    assert len(calls) == 1
    monkeypatch.undo()
    assert S == oracle_saturate(I, R.coerce(g))


# -- elimination and radical membership ----------------------------------------------


def test_eliminate_examples():
    R = Ring(2, ["X", "U"])
    assert gb_strs(Ideal(R, ["X", "U+X^2"]).eliminate(1)) == ["U"]
    R2 = Ring(2, ["X", "Y"])
    assert Ideal(R2, ["X*Y"]).eliminate(1).is_zero()
    got = Ideal(R2, ["Y+1"]).eliminate(1)
    assert gb_strs(got) == ["Y + 1"]


def test_eliminate_bounds():
    R = Ring(2, ["X", "Y"])
    I = Ideal(R, ["X"])
    assert I.eliminate(0) is I
    with pytest.raises(InputError):
        I.eliminate(2)
    with pytest.raises(InputError):
        I.eliminate(3)


def test_in_radical_examples(R2):
    assert Ideal(R2, ["X^2"]).in_radical(R2.parse("X"))
    assert not Ideal(R2, ["X^2"]).in_radical(R2.parse("Y"))
    R = Ring(2, ["U", "V"])
    I = Ideal(R, ["V^2+U^3", "U"])
    assert I.in_radical(R.parse("V"))


def test_in_radical_on_powers(rng):
    R = Ring(3, ["X", "Y"])
    for _ in range(6):
        g = rand_poly(R, rng, 2, 2)
        if g.is_zero():
            continue
        I = Ideal(R, [g.power(3)])
        assert I.in_radical(g)


# -- budgets ---------------------------------------------------------------------


def test_budget_pairs_raises():
    R = Ring(3, ["X", "Y", "Z"])
    I = Ideal(R, ["X^2+Y*Z", "Y^2-X*Z", "Z^2+2*X*Y-1"])
    with using_budget(GroebnerBudget(max_pairs=2)):
        with pytest.raises(GroebnerBudgetExceeded):
            I.groebner()


def test_budget_degree_raises(R2):
    I = Ideal(R2, ["X^2", "X*Y + Y^2"])
    with using_budget(GroebnerBudget(max_degree=2)):
        with pytest.raises(GroebnerBudgetExceeded):
            I.groebner()


def test_budget_scope_covers_ideal_equality():
    R = Ring(3, ["X", "Y", "Z"])
    gens = ["X^2+Y*Z", "Y^2-X*Z", "Z^2+2*X*Y-1"]
    I, J = Ideal(R, gens), Ideal(R, gens[::-1])
    with using_budget(GroebnerBudget(max_pairs=2)):
        with pytest.raises(GroebnerBudgetExceeded):
            I == J  # equality compares reduced bases, so it computes them
    assert I == J  # outside the scope the default budget applies again


def test_budget_fields_positive():
    with pytest.raises(InputError):
        GroebnerBudget(max_pairs=0)


# -- routes and powers ---------------------------------------------------------------


ROUTES = {
    "contains": (("auto", "monomial", "groebner"), lambda I, J, m: I.contains("X", method=m)),
    "intersect": (("auto", "monomial", "elimination"), lambda I, J, m: I.intersect(J, method=m)),
    "quotient": (("auto", "monomial", "colon"), lambda I, J, m: I.quotient("X", method=m)),
    "frob_root": (("auto", "monomial", "flat", "elimination"), lambda I, J, m: frob_root(I, method=m)),
}
# typos, near misses, and the routes of the other operations
NEAR_MISSES = ["", "Auto", " auto", "auto ", "Monomial", "groebner", "elimination", "colon",
               "flat"]


@settings(max_examples=30, deadline=None)
@given(st.data())
@pytest.mark.parametrize("op, method", [
    ("contains", "monomail"), ("contains", "elimination"),
    ("intersect", "bogus"), ("intersect", "colon"),
    ("quotient", "x"), ("quotient", "groebner"),
    ("frob_root", "typo"), ("frob_root", "groebner"),
], ids=["contains-typo", "contains-foreign", "intersect-typo", "intersect-foreign",
        "quotient-typo", "quotient-foreign", "frob_root-typo", "frob_root-foreign"])
def test_unknown_method_is_rejected(op, method, data):
    accepted, call = ROUTES[op]
    drawn = data.draw(st.one_of(st.sampled_from(NEAR_MISSES), st.text(max_size=12))
                      .filter(lambda m: m not in accepted), label="method")
    R = Ring(2, ["X", "Y"])
    I = Ideal(R, ["X^2", "X*Y + Y^2"])
    J = Ideal(R, ["Y^3"])
    for m in (method, drawn):
        with pytest.raises(InputError):
            call(I, J, m)


def _power_oracle(gens, h):
    """Nested products of h generators, first occurrences kept in order."""
    current = list(gens)
    for _ in range(h - 1):
        current = [a * b for a in current for b in gens]
    out = []
    for g in current:
        if not g.is_zero() and not any(g == o for o in out):
            out.append(g)
    return tuple(out)


def test_power_matches_nested_product_oracle(rng):
    R = Ring(3, ["X", "Y", "Z"])
    for _ in range(12):
        for I in (rand_monomial_ideal(R, rng, max_gens=4, max_exp=3),
                  rand_ideal(R, rng, max_gens=3, max_total_deg=2)):
            for h in (1, 2, 3):
                assert I.power(h).generators == _power_oracle(I.generators, h)


# -- quotient rings ------------------------------------------------------------------


def test_quotient_ring_membership():
    plain = Ring(2, ["U", "V"])
    R = Ring(2, ["U", "V"], quotient=[plain.parse("V^2+U^3")], reduced=True)
    I = Ideal(R, ["U"])
    # V^2 = (V^2+U^3) + U^3 lies in (U) + J
    assert I.contains(R.parse("V^2"))
    assert not I.contains(R.parse("V"))


def test_quotient_ring_equality_is_preimage_equality():
    plain = Ring(2, ["U", "V"])
    R = Ring(2, ["U", "V"], quotient=[plain.parse("V^2+U^3")], reduced=True)
    assert Ideal(R, ["U"]) == Ideal(R, ["U", "V^2"])
    assert Ideal(R, []) == Ideal(R, ["V^2+U^3"])


def test_reduced_basis_matches_sympy_oracle():
    """An independent engine must produce the same reduced basis (up to the
    positive-residue coefficient convention)."""
    sympy = pytest.importorskip("sympy")
    cases = [
        (3, ["X^2+Y*Z", "Y^2-X*Z", "Z^2+2*X*Y-1"]),
        (5, ["X*Y+Z^2", "Y^2-1", "X^2+Y+Z"]),
        (2, ["X^2+Y^2+Z^2", "X*Y+Y*Z"]),
    ]
    for p, gens in cases:
        R = Ring(p, ["X", "Y", "Z"])
        ours = {str(g) for g in Ideal(R, gens).groebner()}
        X, Y, Z = sympy.symbols("X Y Z")
        theirs = sympy.groebner([sympy.parse_expr(s.replace("^", "**")) for s in gens],
                                X, Y, Z, order="grevlex", modulus=p)
        converted = set()
        for e in theirs.exprs:
            poly = sympy.Poly(e, X, Y, Z, modulus=p)
            terms = [((int(a), int(b), int(c)), int(coef) % p)
                     for (a, b, c), coef in poly.terms()]
            converted.add(str(R.from_terms(terms)))
        assert ours == converted


# -- the monomial minimiser -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=9))
def test_minimal_rows_matches_brute_force(rows):
    """A row stays iff no other row strictly divides it and no equal row comes
    before it; the survivors keep input order and are the input's own arrays."""
    arrays = [np.array(r, np.int64) for r in rows]
    want = [i for i, r in enumerate(rows)
            if r not in rows[:i]
            and not any(s != r and all(x <= y for x, y in zip(s, r)) for s in rows)]
    got = minimal_rows(arrays)
    assert [id(a) for a in got] == [id(arrays[i]) for i in want]
    R = Ring(2, ["X", "Y", "Z"])
    mins = Ideal(R, [R.monomial(a) for a in arrays]).minimal_monomial_exps()
    assert sorted(map(tuple, mins.tolist())) == sorted(rows[i] for i in want)


_EXPS3 = st.tuples(*[st.integers(0, 3)] * 3)


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3]), order=st.sampled_from([GREVLEX, LEX]),
       gens=st.lists(_EXPS3, min_size=1, max_size=5),
       probes=st.lists(st.lists(st.tuples(_EXPS3, st.integers(1, 2)), min_size=1, max_size=3),
                       min_size=1, max_size=5))
def test_minimal_generators_are_memoised(p, order, gens, probes):
    """Repeated membership keeps agreeing with the Groebner route, and every
    call returns the one read-only array of minimal generators."""
    R = Ring(p, ["X", "Y", "Z"], order)
    I = Ideal(R, [R.monomial(np.array(g, np.int64)) for g in gens])
    mins = I.minimal_monomial_exps()
    snapshot = mins.copy()
    for _ in range(2):
        for terms in probes:
            f = R.from_terms([(e, c % (p - 1) + 1) for e, c in terms])
            expect = I.contains(f, method="groebner")
            assert I.contains(f) == expect
            assert I.contains(f, method="monomial") == expect
            assert oracle_poly_member_monomial(gens, f) == expect
    assert I.minimal_monomial_exps() is mins
    assert not mins.flags.writeable
    with pytest.raises(ValueError):
        mins[...] = 0
    assert np.array_equal(mins, snapshot)
