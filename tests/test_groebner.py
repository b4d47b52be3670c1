"""Groebner engine: canonical bases, membership, intersection, quotient,
saturation, elimination, radical membership, budgets, and the monomial
fast paths against their oracles."""

import gc
import itertools
import json
import pathlib
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charp import (CharpError, ExponentOverflow, GroebnerBudget, GroebnerBudgetExceeded, Ideal,
                   InputError, Polynomial, Ring, ideals, using_budget)
from charp.frobenius import frob_power, frob_root
from charp.ideals import (_colon, _minimal, _mono_divides, _power_products, _sorted_minimal,
                          normal_form)
from charp.orders import GREVLEX, LEX, elim, parse_order
from charp.poly import EXP_LIMIT

from conftest import (assert_same_ideal_on_box, cusp_ring, elimination_intersection,
                      groebner_member, ideal_generators, in_radical, monomial_gen_exps,
                      oracle_mono_member, oracle_saturate, oracle_poly_member_monomial,
                      power_products, rand_ideal, rand_monomial_ideal, rand_poly)


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


# -- pair counts -------------------------------------------------------------

PAIR_COUNTS = pathlib.Path(__file__).resolve().parent / "data" / "pair_counts.json"

# (name, p, variables, order, quotient generators, ideal generators)
PAIR_CORPUS = [
    ("cyclic3-grevlex-p32003", 32003, "X,Y,Z", "grevlex", [],
     ["X+Y+Z", "X*Y+Y*Z+Z*X", "X*Y*Z-1"]),
    ("cyclic3-lex-p32003", 32003, "X,Y,Z", "lex", [],
     ["X+Y+Z", "X*Y+Y*Z+Z*X", "X*Y*Z-1"]),
    ("cyclic4-grevlex-p32003", 32003, "A,B,C,D", "grevlex", [],
     ["A+B+C+D", "A*B+B*C+C*D+D*A", "A*B*C+B*C*D+C*D*A+D*A*B", "A*B*C*D-1"]),
    ("katsura3-grevlex-p32003", 32003, "X,Y,Z", "grevlex", [],
     ["X+2*Y+2*Z-1", "X^2+2*Y^2+2*Z^2-X", "2*X*Y+2*Y*Z-Y"]),
    ("dense-grevlex-p32003", 32003, "X,Y,Z", "grevlex", [],
     ["7*X^2*Y + 11*Y*Z^2 + 13*X*Z + 5", "3*X*Y^2 + 17*Z^2*X + 2*Y + 19*Z",
      "23*X^2 + 29*Y^2*Z + 31*Z + 37*X*Y*Z"]),
    ("twisted-cubic-lex-p3", 3, "X,Y,Z,W", "lex", [],
     ["X*Z-Y^2", "Y*W-Z^2", "X*W-Y*Z"]),
    ("dense-grevlex-p3", 3, "X,Y,Z", "grevlex", [],
     ["X^2+Y*Z", "Y^2-X*Z", "Z^2+2*X*Y-1"]),
    ("dense-lex-p3", 3, "X,Y,Z", "lex", [],
     ["X*Y+Z^2", "Y^2-1", "X^2+Y+Z"]),
    ("graph-elim1-p3", 3, "T,X,Y", "elim(1)", [],
     ["X-T^2", "Y-T^3-T"]),
    ("dense-grevlex-p2", 2, "X,Y,Z", "grevlex", [],
     ["X^2+Y^2+Z^2", "X*Y+Y*Z", "X^3+Z+1"]),
    ("intersection-elim1-p2", 2, "T,X,Y", "elim(1)", [],
     ["T*X^2", "T*X*Y+T*Y^3", "X*Y+Y^2+X*Y^2+Y^3"]),
    ("cusp-quotient-p2", 2, "U,V", "grevlex", ["V^2+U^3"],
     ["U*V+V", "U^2+V"]),
    ("cusp-quotient-lex-p3", 3, "U,V", "lex", ["V^2+U^3"],
     ["U*V+1", "U^2+2*V"]),
]


def _pair_count_entries():
    """For each corpus system: its reduced basis and the pairs it processed."""
    out = []
    for name, p, names, order, quotient, gens in PAIR_CORPUS:
        names = names.split(",")
        plain = Ring(p, names, parse_order(order))
        ring = Ring(p, names, parse_order(order), quotient=[plain.parse(q) for q in quotient])
        before = ideals.pair_count
        basis = Ideal(ring, gens).groebner()
        out.append({"name": name, "basis": [str(g) for g in basis],
                    "pairs": ideals.pair_count - before})
    return out


def test_pair_counts_match_recorded():
    """Bases and pair counts of a fixed corpus.  A change that alters them on
    purpose regenerates tests/data/pair_counts.json
    (PYTHONPATH=src python tests/test_groebner.py)."""
    recorded = json.loads(PAIR_COUNTS.read_text())
    assert [e["name"] for e in recorded] == [c[0] for c in PAIR_CORPUS]
    assert _pair_count_entries() == recorded


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
            mono = R.monomial(vec)
            expect = oracle_mono_member(gens, vec)
            assert I.contains(mono) == expect
            assert groebner_member(I, mono) == expect


def test_contains_random_monomial_ideals_vs_oracle(rng):
    R = Ring(3, ["X", "Y"])
    for _ in range(25):
        I = rand_monomial_ideal(R, rng, max_gens=4, max_exp=6)
        gens = monomial_gen_exps(I)
        g = rand_poly(R, rng, 4, 8, allow_zero=True)
        expect = oracle_poly_member_monomial(gens, g)
        assert I.contains(g) == expect
        assert groebner_member(I, g) == expect


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_contains_routes_agree_in_64_variables_up_to_exp_limit(data):
    """Groebner membership on packed monomials of 64 variables with exponents
    up to EXP_LIMIT agrees with divisibility.  A query is a generator moved
    by a sparse shift, clamped to [0, EXP_LIMIT]; half the shifts are
    nonnegative, so members and non-members both come up."""
    order = data.draw(st.sampled_from([GREVLEX, LEX, elim(1), elim(32)]), label="order")
    R = Ring(2, [f"x{i}" for i in range(64)], order)

    def vectors(lo):
        value = st.one_of(st.just(0), st.just(EXP_LIMIT), st.integers(lo, EXP_LIMIT))
        return st.lists(st.one_of(st.just(0), value), min_size=64, max_size=64)

    gens = data.draw(st.lists(vectors(0), min_size=1, max_size=4), label="gens")
    I = Ideal(R, [R.monomial(g) for g in gens])
    with using_budget(GroebnerBudget(max_degree=2**63)):
        for _ in range(5):
            base = data.draw(st.sampled_from(gens), label="base")
            lo = data.draw(st.sampled_from([0, -EXP_LIMIT]), label="lo")
            shift = data.draw(vectors(lo), label="shift")
            query = R.monomial([min(max(b + s, 0), EXP_LIMIT) for b, s in zip(base, shift)])
            assert groebner_member(I, query) == I.contains(query)


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
        fast = I.intersect(K)
        slow = elimination_intersection(I, K)
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
        assert I.quotient(m) == _colon(I, m)


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
        Q = _colon(I, g)
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
        assert in_radical(I, g) == S.is_unit()


def test_colon_reports_an_undivided_generator_as_an_internal_error(R2, monkeypatch):
    """A broken invariant is no input error: it exits 1, not 2, from the CLI."""
    monkeypatch.setattr(ideals, "normal_form", lambda f, basis: f)  # T*h left undivided
    with pytest.raises(CharpError, match="colon generator not divisible") as info:
        _colon(Ideal(R2, ["X*Y"]), R2.parse("X + Y"))
    assert type(info.value) is CharpError


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


def test_in_radical_examples(R2):
    assert in_radical(Ideal(R2, ["X^2"]), R2.parse("X"))
    assert not in_radical(Ideal(R2, ["X^2"]), R2.parse("Y"))
    R = Ring(2, ["U", "V"])
    I = Ideal(R, ["V^2+U^3", "U"])
    assert in_radical(I, R.parse("V"))


def test_in_radical_on_powers(rng):
    R = Ring(3, ["X", "Y"])
    for _ in range(6):
        g = rand_poly(R, rng, 2, 2)
        if g.is_zero():
            continue
        I = Ideal(R, [g.power(3)])
        assert in_radical(I, g)


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


def test_budget_terms_raises():
    R = Ring(3, ["X", "Y", "Z"])
    gens = ["X^2+Y*Z", "Y^2-X*Z", "Z^2+2*X*Y-1"]
    with using_budget(GroebnerBudget(max_poly_terms=2)):
        with pytest.raises(GroebnerBudgetExceeded) as err:
            Ideal(R, gens).groebner()
    assert err.value.which == "max_poly_terms"
    with using_budget(GroebnerBudget(max_poly_terms=3)):  # the largest intermediate
        assert Ideal(R, gens).groebner() == Ideal(R, gens[::-1]).groebner()


@pytest.mark.parametrize("budget", [None, {"max_pairs": 2}, 2, (200_000, 100_000, 4096)])
def test_using_budget_rejects_anything_but_a_budget(budget):
    """A scope opens only on a GroebnerBudget: anything else is an InputError on
    entry, not an engine error at the first basis, and the default stays active."""
    R = Ring(3, ["X", "Y"])
    with pytest.raises(InputError, match="GroebnerBudget"):
        with using_budget(budget):
            Ideal(R, ["X+Y", "X*Y"]).groebner()
    assert ideals._budget.get() is ideals.DEFAULT_BUDGET
    assert Ideal(R, ["X+Y", "X*Y"]).groebner() == Ideal(R, ["X+Y", "Y^2"]).groebner()


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


@pytest.mark.parametrize("field", ["max_pairs", "max_poly_terms", "max_degree"])
@pytest.mark.parametrize("value", [1.5, "5", None, -1])
def test_budget_fields_are_positive_integers(field, value):
    with pytest.raises(InputError):
        GroebnerBudget(**{field: value})


def test_budget_fields_are_stored_as_ints():
    budget = GroebnerBudget(np.int64(5), max_degree=True)
    assert budget == GroebnerBudget(5, 100_000, 1)
    assert [type(v) for v in (budget.max_pairs, budget.max_degree)] == [int, int]


# -- the ring's basis cache ------------------------------------------------------


def _spied_bases(calls):
    """Patch ideals.groebner_basis with a wrapper that logs the ring of each call."""
    real = ideals.groebner_basis

    def spy(gens, ring):
        calls.append(ring)
        return real(gens, ring)

    return mock.patch.object(ideals, "groebner_basis", spy)


_CACHE_RINGS = [(p, order) for p in (2, 3) for order in (GREVLEX, LEX)] + ["cusp"]


def _cache_ring(kind):
    if kind == "cusp":
        return cusp_ring()
    p, order = kind
    return Ring(p, ["X", "Y"], order)


_TERM = st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(1, 2))
_GENS = st.lists(st.lists(_TERM, min_size=1, max_size=3), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(_CACHE_RINGS), data=st.data())
def test_ring_basis_cache_is_invisible(kind, data):
    """A shared ring gives every call the basis and pair count a fresh equal
    ring gives, and computes nothing for a repeated ideal."""
    distinct = data.draw(st.lists(_GENS, min_size=1, max_size=4))
    order = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=10))

    def run(ring_for):
        out = []
        for k in order:
            ring = ring_for()
            I = Ideal(ring, [ring.from_terms(t) for t in distinct[k]])
            before = ideals.pair_count
            basis = I.groebner()
            out.append((I.generators, basis, ideals.pair_count - before))
        return out

    shared_ring = _cache_ring(kind)
    calls = []
    with _spied_bases(calls):
        shared = run(lambda: shared_ring)
    fresh = run(lambda: _cache_ring(kind))
    assert [(b, d) for _, b, d in shared] == [(b, d) for _, b, d in fresh]
    firsts = {gens for gens, _, _ in shared}
    assert len(calls) == len(firsts)  # one computation per distinct ideal
    assert len(shared_ring._bases) == len(firsts)


def test_ring_basis_cache_keys_on_the_budget():
    R = Ring(2, ["X", "Y"])
    gens = ["X^2+Y", "X*Y^2+1"]  # two pairs
    basis = Ideal(R, gens).groebner()
    with using_budget(GroebnerBudget(max_pairs=1)):
        with pytest.raises(GroebnerBudgetExceeded):
            Ideal(R, gens).groebner()
    assert len(R._bases) == 1
    calls = []
    with _spied_bases(calls):
        assert Ideal(R, gens).groebner() == basis
    assert calls == []  # recalled under the budget it was computed under


def test_ring_basis_cache_keeps_no_failed_computation():
    R = Ring(2, ["X", "Y"])
    calls = []
    with _spied_bases(calls), using_budget(GroebnerBudget(max_pairs=1)):
        for _ in range(2):
            with pytest.raises(GroebnerBudgetExceeded):
                Ideal(R, ["X^2+Y", "X*Y^2+1"]).groebner()
    assert len(R._bases) == 0
    assert len(calls) == 2


def test_ring_basis_cache_is_bounded_oldest_out():
    R = Ring(2, ["X", "Y"])
    extra = 5
    for i in range(1, ideals._BASES_KEPT + extra + 1):
        Ideal(R, [f"X^{i}"]).groebner()
    assert len(R._bases) == ideals._BASES_KEPT
    calls = []
    with _spied_bases(calls):
        Ideal(R, [f"X^{ideals._BASES_KEPT + extra}"]).groebner()  # the newest
        Ideal(R, [f"X^{extra + 1}"]).groebner()  # the oldest kept
        assert calls == []
        Ideal(R, [f"X^{extra}"]).groebner()  # dropped
    assert len(calls) == 1
    assert len(R._bases) == ideals._BASES_KEPT


def test_ring_basis_cache_under_concurrent_threads():
    """Threads sharing one ring, with more distinct ideals than the bound and
    a short switch interval, get the bases a fresh ring gives; afterwards the
    cache holds at most the bound and recalls only right bases."""
    import sys
    import threading

    R = Ring(3, ["X", "Y"])
    nthreads, per_thread = 8, ideals._BASES_KEPT // 4
    gens = [[f"X^{1 + i % 7}+Y^{1 + i // 7}", f"X*Y+{1 + t}"]
            for t in range(nthreads) for i in range(per_thread)]
    expected = [Ideal(Ring(3, ["X", "Y"]), g).groebner() for g in gens]
    got, errors = {}, []

    def worker(t):
        try:
            for k in range(t * per_thread, (t + 1) * per_thread):
                for _ in range(2):
                    got[k] = Ideal(R, gens[k]).groebner()
        except Exception as e:  # reported below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(nthreads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert [got[k] for k in range(len(gens))] == expected
    assert len(R._bases) <= ideals._BASES_KEPT
    assert [Ideal(R, g).groebner() for g in gens] == expected  # recalled or computed again


def test_ring_basis_cache_charges_each_basis_its_own_pairs_across_threads():
    """Threads that fill one ring store the pairs each computation processed,
    not pairs other threads processed meanwhile, so every later recall
    charges pair_count what the same basis costs in a fresh ring."""
    import random
    import sys
    import threading

    rng = random.Random(7)
    R = Ring(3, ["X", "Y"])
    nthreads, per_thread = 4, 30
    gens = list(dict.fromkeys(tuple(str(g) for g in rand_ideal(R, rng, 3, 3).generators)
                              for _ in range(nthreads * per_thread)))

    def charged(ring, g):
        before = ideals.pair_count
        Ideal(ring, g).groebner()
        return ideals.pair_count - before

    fresh = [charged(Ring(3, ["X", "Y"]), g) for g in gens]
    assert sum(fresh) > 0

    def worker(t):
        for g in gens[t::nthreads]:
            Ideal(R, g).groebner()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(nthreads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(R._bases) == len(gens)
    calls = []
    with _spied_bases(calls):
        recalled = [charged(R, g) for g in gens]
    assert calls == []
    assert recalled == fresh


@pytest.mark.parametrize("make_gens", [
    lambda R: [R.from_terms([((2, 0), 1), ((0, 1), 1)]), R.from_terms([((1, 2), 1), ((0, 0), 1)])],
    lambda R: [R.parse("-(X+1)*Y + 3*X^2"), R.parse("X*Y^2 + 1")],
    lambda R: [R.var("X") * R.one() + R.zero(), R.one() - R.var("Y")],
], ids=["terms", "text", "zero_one"])
def test_ring_basis_cache_adds_no_reference_cycle(make_gens):
    """Once its ideals are gone, a ring that computed and recalled bases is
    freed by reference counting alone, whether its generators were built from
    terms, parsed from text or built with its zero and one."""
    def rings():
        return sum(isinstance(o, Ring) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = rings()
        R = Ring(2, ["X", "Y"])
        gens = make_gens(R)
        for _ in range(2):
            Ideal(R, gens).groebner()
        assert rings() == before + 1
        del R, gens
        assert rings() == before
    finally:
        gc.enable()


# -- membership by lookup ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(_CACHE_RINGS), data=st.data())
def test_contains_matches_the_normal_form(kind, data):
    """Membership agrees with the normal form modulo the reduced basis for
    generators, basis elements, quotient generators, their multiples and
    random polynomials, whether the lookup or the division decides it."""
    ring = _cache_ring(kind)
    I = Ideal(ring, [ring.from_terms(t) for t in data.draw(_GENS, label="gens")])
    known = st.sampled_from((ring.one(),) + I.generators + I.groebner() + ring.quotient)
    g = data.draw(known | st.tuples(known, st.integers(1, ring.p - 1)).map(lambda t: t[0] * t[1])
                  | st.lists(_TERM, max_size=3).map(ring.from_terms), label="g")
    assert I.contains(g) == normal_form(g, I.groebner()).is_zero()


def test_contains_charges_a_recalled_basis_once():
    """A fresh ideal equal to a computed one charges that basis's pairs on
    its first membership test and on none after, lookup or division."""
    R = Ring(3, ["X", "Y"])
    gens = ["X^2 + Y", "X*Y + 1"]
    before = ideals.pair_count
    Ideal(R, gens).groebner()
    pairs = ideals.pair_count - before
    assert pairs > 0
    fresh = Ideal(R, gens)
    before = ideals.pair_count
    assert all(fresh.contains(g) for g in fresh.generators + fresh.generators)
    assert not fresh.contains("X")
    assert ideals.pair_count - before == pairs


# -- routes and powers ---------------------------------------------------------------


def _engine_outcome(route, gens):
    """The term lists of the basis a route gives, the pairs it reports and the
    pairs it charges; or the budget error's class and field, and the charge."""
    before = ideals.pair_count
    try:
        basis, processed = route(gens)
    except GroebnerBudgetExceeded as e:
        return type(e), e.which, e.limit, ideals.pair_count - before
    return [(g.keys, g.packed, g.coeffs) for g in basis], processed, ideals.pair_count - before


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_monomial_route_matches_the_pair_loop(data):
    """One-term generators, with repeats, multiples of earlier ones, coefficients
    other than 1 and the constant 1, in a ring that may carry the quotient X*Y:
    the engine's monomial route gives the pair loop's basis, pair count and
    charge, or stops at the same budget field after the same charge, and it is
    the route run takes."""
    nvars = data.draw(st.integers(1, 4), label="nvars")
    p = data.draw(st.sampled_from([2, 3, 7]), label="p")
    order = data.draw(st.sampled_from([GREVLEX, LEX] + [elim(k) for k in range(1, nvars + 1)]),
                      label="order")
    names = ["X", "Y", "Z", "W"][:nvars]
    R = Ring(p, names, order)
    if nvars > 1 and data.draw(st.booleans(), label="quotient"):
        R = Ring(p, names, order, [R.parse("X*Y")])
    vec = st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars)
    gens = []
    for kind, row, c, k in data.draw(st.lists(st.tuples(
            st.sampled_from(["new", "repeat", "multiple", "one"]), vec, st.integers(1, p - 1),
            st.integers(0, 7)), max_size=8), label="gens"):
        if kind == "one":
            gens.append(R.one())
        elif kind == "new" or not gens:
            gens.append(R.monomial(row, c))
        elif kind == "repeat":
            gens.append(gens[k % len(gens)])
        else:
            gens.append(gens[k % len(gens)] * R.monomial(row, c))
    gens += R.quotient
    budget = GroebnerBudget(max_pairs=data.draw(st.sampled_from([1, 2, 3, 5, 200_000])),
                            max_degree=data.draw(st.sampled_from([1, 2, 3, 5, 8, 4096])))
    with using_budget(budget):
        loop = _engine_outcome(ideals._Buchberger(R)._pair_loop, gens)
        assert _engine_outcome(ideals._Buchberger(R)._monomial_run, gens) == loop
        with mock.patch.object(ideals.K, "normal_form", side_effect=AssertionError), \
                mock.patch.object(ideals.K, "s_normal_form", side_effect=AssertionError):
            assert _engine_outcome(ideals._Buchberger(R).run, gens) == loop


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ideal_generators_match_the_dict_oracle(data):
    """Ideal keeps the generators the coerce-and-dict.fromkeys oracle keeps,
    each in the ideal's ring, whatever mix of one-term generators (equal terms
    with other coefficients among them), zeros, ints, text, polynomials of an
    equal but distinct ring and several-term generators it is given, and its
    is_monomial is the definition on those generators."""
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    quotient = data.draw(st.booleans(), label="quotient")
    plain = Ring(p, ["X", "Y"])
    make = (lambda: Ring(p, ["X", "Y"], quotient=[plain.parse("X*Y")])) if quotient else (
        lambda: Ring(p, ["X", "Y"]))
    R, twin = make(), make()
    term = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, p))
    entry = st.one_of(
        term.map(lambda t: R.monomial(t[:2], t[2])),
        term.map(lambda t: twin.monomial(t[:2], t[2])),
        st.integers(-p, p),
        term.map(lambda t: f"{t[2]}*X^{t[0]}*Y^{t[1]}"),
        st.lists(term, min_size=2, max_size=3).map(
            lambda ts: R.from_terms(((a, b), c) for a, b, c in ts)))
    gens = data.draw(st.lists(entry, max_size=8), label="gens")
    I = Ideal(R, gens)
    assert I.generators == ideal_generators(R, gens)
    assert all(g.ring is R for g in I.generators)
    assert I.is_monomial() == (not quotient and all(g.is_monomial() for g in I.generators))


def _two_path_generators(ring, gens):
    """Ideal's generators and is_monomial as two paths kept them: one-term
    generators keyed on their packed int and coefficient, until a generator
    of several terms sent the whole list to a dict on the term tuples."""
    gens = [g if type(g) is Polynomial and g.ring is ring else ring.coerce(g) for g in gens]
    terms = {}
    for g in gens:
        if len(g.coeffs) > 1:
            return tuple({(tuple(h.packed), tuple(h.coeffs)): h
                          for h in gens if h.coeffs}.values()), False
        if g.coeffs:
            terms.setdefault((g.packed[0], g.coeffs[0]), g)
    return tuple(terms.values()), not ring.is_quotient()


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(st.data())
def test_one_key_matches_the_two_path_generators(data):
    """One loop keyed on the term tuples keeps the generators and gives the
    is_monomial of the two paths it replaced, over zeros, repeats, equal
    terms with other coefficients, polynomials of an equal but distinct ring
    and quotient rings; its key is the one the ring's bases are stored under."""
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    plain = Ring(p, ["X", "Y"])
    quotient = data.draw(st.sampled_from([(), ("X*Y",), ("Y^2 + X^3",)]), label="quotient")
    R, twin = (Ring(p, ["X", "Y"], quotient=[plain.parse(q) for q in quotient])
               for _ in range(2))
    term = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, p))
    fresh = st.one_of(
        term.map(lambda t: R.monomial(t[:2], t[2])),
        term.map(lambda t: twin.monomial(t[:2], t[2])),
        st.just(R.zero()),
        st.lists(term, min_size=2, max_size=3).map(
            lambda ts: R.from_terms(((a, b), c) for a, b, c in ts)))
    gens = []
    for kind, g, k, c in data.draw(st.lists(st.tuples(
            st.sampled_from(["fresh", "repeat", "rescaled"]), fresh, st.integers(0, 7),
            st.integers(1, p - 1)), max_size=8), label="gens"):
        if kind == "fresh" or not gens:
            gens.append(g)
        elif kind == "repeat":
            gens.append(gens[k % len(gens)])
        else:
            gens.append(gens[k % len(gens)] * c)
    I = Ideal(R, gens)
    kept, monomial = _two_path_generators(R, gens)
    assert I.generators == kept
    assert all(g.ring is R for g in I.generators)
    assert I.is_monomial() == monomial
    assert I._key == tuple((tuple(g.packed), tuple(g.coeffs)) for g in kept)


def test_route_follows_the_input(rng):
    """Monomial ideals of a polynomial ring take the monomial route of every
    operation and compute no basis; a non-monomial input computes one; the
    root of a cusp ideal runs one elimination per step."""
    for p, order in [(2, GREVLEX), (3, LEX)]:
        R = Ring(p, ["X", "Y", "Z"], order)
        for _ in range(10):
            I = rand_monomial_ideal(R, rng, max_gens=3, max_exp=6)
            K = rand_monomial_ideal(R, rng, max_gens=3, max_exp=6)
            m = rand_monomial_ideal(R, rng, max_gens=1, max_exp=3).generators[0]
            g = rand_poly(R, rng, 3, 6)
            calls = []
            with _spied_bases(calls):
                I.contains(g)
                I.intersect(K)
                I.quotient(m)
                frob_root(I, 3)
            assert calls == []
        calls = []
        with _spied_bases(calls):
            Ideal(R, ["X + Y"]).contains("X")
        assert calls == [R]
    R = cusp_ring()
    for e in (1, 2, 3):
        calls = []
        with _spied_bases(calls):
            frob_root(frob_power(Ideal(R, ["U"]), e), e)
        assert len([ring for ring in calls if ring != R]) == e

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


def _products(products, limit=None):
    """The term lists of the first `limit` products, and the message of the
    ExponentOverflow that ends them early, if one does."""
    out = []
    try:
        for g in itertools.islice(products, limit):
            out.append((g.keys, g.packed, g.coeffs))
    except ExponentOverflow as e:
        return out, str(e)
    return out, None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_power_products_match_the_polynomial_products(data):
    """Packed products of one-term generators equal the Polynomial products,
    keys included, with non-unit coefficients in 1 to 64 variables; near the
    overflow boundary both stop at the same product with the same message."""
    nvars = data.draw(st.sampled_from([1, 2, 3, 64]), label="nvars")
    p = data.draw(st.sampled_from([2, 3, 7, 2**31 - 1]), label="p")
    order = data.draw(st.sampled_from([GREVLEX, LEX, elim(1)]), label="order")
    R = Ring(p, [f"x{i}" for i in range(nvars)], order)
    h = data.draw(st.integers(1, 4), label="h")
    near = st.sampled_from([EXP_LIMIT // h - 1, EXP_LIMIT // h, EXP_LIMIT // h + 1,
                            EXP_LIMIT]).map(lambda e: min(e, EXP_LIMIT))
    exponent = st.one_of(st.just(0), st.integers(0, 5), near)
    vecs = st.lists(st.lists(exponent, min_size=nvars, max_size=nvars), min_size=1, max_size=4)
    gens = [R.monomial(v, c) for v, c in zip(data.draw(vecs, label="gens"),
                                             data.draw(st.lists(st.integers(1, p - 1),
                                                                min_size=4, max_size=4)))]
    assert _products(_power_products(gens, h)) == _products(power_products(gens, h))


@pytest.mark.parametrize("h", [127, 128, 255, 256, 1000])
def test_power_products_overflow_at_the_carry_boundary(h):
    """h factors of exponent EXP_LIMIT sum to 2^56 * h, which carries out of a
    64-bit field from h = 256 on (and passes a one-shot guard test from
    h = 255 on), so the check must not wait for the whole sum.  Each list
    stops at the product where the Polynomial products overflow."""
    for nvars in (2, 64):
        R = Ring(5, [f"x{i}" for i in range(nvars)])
        x1 = R.var("x1")
        for top in (EXP_LIMIT // h - 1, EXP_LIMIT // h, EXP_LIMIT // h + 1, EXP_LIMIT):
            every = R.monomial([top] * nvars, 3)
            for gens in ([R.monomial([top] + [0] * (nvars - 1))], [every], [x1, every],
                         [every, R.monomial([1] * nvars, 2)]):
                got = _products(_power_products(gens, h), 4)
                assert got == _products(power_products(gens, h), 4), (nvars, top, len(gens))
                if gens[0] is not x1:  # the first product is gens[0]^h
                    assert (got[1] is None) == (h * top <= EXP_LIMIT)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_packed_monomial_routes_match_the_tuples_at_exp_limit(data):
    """Minimal generators from packed ints and membership by packed
    divisibility agree with _sorted_minimal and _mono_divides on exponent
    tuples in 64 variables with exponents up to EXP_LIMIT; duplicate rows
    with other coefficients come up too."""
    R = Ring(3, [f"x{i}" for i in range(64)])
    value = st.sampled_from([0, 0, 1, EXP_LIMIT - 1, EXP_LIMIT]) | st.integers(0, EXP_LIMIT)
    row = st.lists(value, min_size=64, max_size=64).map(tuple)
    rows = data.draw(st.lists(row, min_size=1, max_size=5), label="rows")
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=2), label="repeats")
    I = Ideal(R, [R.monomial(r, 1 + i % 2) for i, r in enumerate(rows)])
    want = _sorted_minimal(rows)
    assert I.minimal_monomial_exps() == want
    assert I._min_packed == tuple(map(R.pack, want))
    for _ in range(4):
        base = data.draw(st.sampled_from(rows), label="base")
        terms = [tuple(min(max(b + s, 0), EXP_LIMIT) for b, s in zip(base, shift))
                 for shift in data.draw(st.lists(st.lists(
                     st.sampled_from([0, 0, 1, -1, EXP_LIMIT, -EXP_LIMIT]),
                     min_size=64, max_size=64), min_size=1, max_size=3), label="shifts")]
        f = R.from_terms((t, 1) for t in terms)
        assert I.contains(f) == all(any(_mono_divides(m, vec) for m in want) for vec in f.exps)


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
    before it; the survivors keep input order, and an ideal's minimal
    generators are them in ascending order."""
    want = [i for i, r in enumerate(rows)
            if r not in rows[:i]
            and not any(s != r and all(x <= y for x, y in zip(s, r)) for s in rows)]
    assert _minimal(rows) == want
    R = Ring(2, ["X", "Y", "Z"])
    mins = Ideal(R, [R.monomial(r) for r in rows]).minimal_monomial_exps()
    assert mins == tuple(sorted(rows[i] for i in want))


_EXPS3 = st.tuples(*[st.integers(0, 3)] * 3)


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3]), order=st.sampled_from([GREVLEX, LEX]),
       gens=st.lists(_EXPS3, min_size=1, max_size=5),
       probes=st.lists(st.lists(st.tuples(_EXPS3, st.integers(1, 2)), min_size=1, max_size=3),
                       min_size=1, max_size=5))
def test_minimal_generators_are_memoised(p, order, gens, probes):
    """Repeated membership keeps agreeing with the Groebner route, and every
    call returns the one tuple of minimal generators."""
    R = Ring(p, ["X", "Y", "Z"], order)
    I = Ideal(R, [R.monomial(g) for g in gens])
    mins = I.minimal_monomial_exps()
    for _ in range(2):
        for terms in probes:
            f = R.from_terms([(e, c % (p - 1) + 1) for e, c in terms])
            expect = groebner_member(I, f)
            assert I.contains(f) == expect
            assert oracle_poly_member_monomial(gens, f) == expect
    assert I.minimal_monomial_exps() is mins


def _oracle_sorted_minimal(rows):
    """The distinct exponent tuples no other tuple strictly divides, ascending."""
    return sorted({r for r in rows
                   if not any(s != r and all(x <= y for x, y in zip(s, r)) for s in rows)})


@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from([2, 3]), a=st.lists(_EXPS3, max_size=5),
       b=st.lists(_EXPS3, max_size=5), g=_EXPS3)
def test_monomial_routes_generate_from_sorted_minimal_rows(p, a, b, g):
    """Each monomial route maps the sorted minimal generators in order, so its
    generator list (which a later basis computation reads in order) is fixed."""
    R = Ring(p, ["X", "Y", "Z"])
    I = Ideal(R, [R.monomial(e) for e in a])
    J = Ideal(R, [R.monomial(e) for e in b])
    ma, mb = _oracle_sorted_minimal(a), _oracle_sorted_minimal(b)

    def distinct(rows):
        return list(dict.fromkeys(rows))

    assert monomial_gen_exps(I.intersect(J)) == distinct(
        tuple(map(max, r, s)) for r in ma for s in mb)
    assert monomial_gen_exps(I.quotient(R.monomial(g))) == distinct(
        tuple(max(x - y, 0) for x, y in zip(r, g)) for r in ma)
    assert monomial_gen_exps(frob_root(I)) == distinct(
        tuple(-(-x // p) for x in r) for r in ma)
    assert monomial_gen_exps(I.monomial_radical()) == _oracle_sorted_minimal(
        [tuple(min(x, 1) for x in r) for r in ma])


if __name__ == "__main__":
    PAIR_COUNTS.write_text(json.dumps(_pair_count_entries(), indent=2) + "\n")
