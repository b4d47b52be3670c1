"""Frobenius powers, roots, and F-closure, with their oracles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from charp import (CharpError, DepthExceeded, ExponentOverflow, Ideal, InputError, Ring,
                   frobenius, ideals)
from charp.frobenius import (_frob_root_elimination, _frob_root_monomial, _p_roots,
                             f_closure, frob_power, frob_root, is_f_closed)
from charp.ideals import GroebnerBudget, _aux_cover, _eliminate, using_budget
from charp.orders import GREVLEX, LEX, elim
from charp.poly import E_MAX, Polynomial

from conftest import (all_polys_up_to_degree, chain_f_closure, chained_root, cusp_ring,
                      deadline, in_radical,
                      monomial_gen_exps, oracle_ceiling_root, rand_ideal,
                      rand_monomial_ideal)


@pytest.fixture
def R2():
    return Ring(2, ["X", "Y"])


# -- frob_power -----------------------------------------------------------------


def test_frob_power_examples(R2):
    assert frob_power(Ideal(R2, ["X", "Y"]), 1) == Ideal(R2, ["X^2", "Y^2"])
    assert frob_power(Ideal(R2, ["X^2", "X*Y"]), 2) == Ideal(R2, ["X^8", "X^4*Y^4"])
    I = Ideal(R2, ["X^2+Y"])
    assert frob_power(I, 0) is I


def test_frob_power_composes(R2, rng):
    for _ in range(10):
        I = rand_ideal(R2, rng, 2, 3)
        for e1 in range(3):
            for e2 in range(3 - e1):
                assert frob_power(I, e1 + e2) == frob_power(frob_power(I, e1), e2)


def test_frob_power_in_quotient_ring_carries_relations():
    R = cusp_ring()
    I = Ideal(R, ["U"])
    P = frob_power(I, 1)
    # the relation itself must stay inside the preimage of the power
    assert P.contains(R.parse("V^2+U^3"))
    assert P.contains(R.parse("U^2"))
    assert not P.contains(R.parse("U"))


# -- frob_root -----------------------------------------------------------------------


def test_frob_root_ceiling_examples(R2):
    assert frob_root(Ideal(R2, ["X^2", "Y^2"])) == Ideal(R2, ["X", "Y"])
    assert frob_root(Ideal(R2, ["X^3*Y"])) == Ideal(R2, ["X^2*Y"])
    assert frob_root(Ideal(R2, ["X"])) == Ideal(R2, ["X"])


def test_frob_root_brute_force_oracle():
    """r^2 in (X) iff X divides r, over every polynomial of degree <= 3."""
    R = Ring(2, ["X", "Y"])
    I = Ideal(R, ["X"])
    root = _frob_root_elimination(I)
    for r in all_polys_up_to_degree(R, 3):
        expect = I.contains(r.frobenius(1))
        assert root.contains(r) == expect


def test_frob_root_monomial_vs_elimination(rng):
    for p in (2, 3):
        R = Ring(p, ["X", "Y"])
        for _ in range(10):
            I = rand_monomial_ideal(R, rng, max_gens=3, max_exp=6)
            fast = _frob_root_monomial(I)
            slow = _frob_root_elimination(I)
            assert fast == slow
            ceilings = oracle_ceiling_root(monomial_gen_exps(I), p)
            want = sorted(v for v in ceilings
                          if not any(w != v and all(a <= b for a, b in zip(w, v))
                                     for w in ceilings))
            got = sorted(tuple(int(e) for e in row) for row in fast.minimal_monomial_exps())
            assert got == want


def test_kunz_roundtrip_random(rng):
    """In a polynomial ring the Frobenius is flat: root(power(I)) = I."""
    for ring in (Ring(2, ["X", "Y"]), Ring(3, ["X", "Y", "Z"])):
        for _ in range(10):
            I = rand_ideal(ring, rng, 3, 4)
            assert frob_root(frob_power(I, 1)) == I


def test_root_of_power_contains_and_reverse(R2, rng):
    for _ in range(10):
        I = rand_ideal(R2, rng, 2, 3)
        back = frob_power(frob_root(I), 1)
        assert I.contains_ideal(back)


def test_frob_root_in_quotient_ring():
    R = cusp_ring()
    P = frob_power(Ideal(R, ["U"]), 1)
    root = frob_root(P)
    assert root == Ideal(R, ["U", "V"])


# -- e-fold roots ------------------------------------------------------------------


def assert_root_is_chain(I, step=frob_root):
    """frob_root(I, e) is e steps in a row; an elimination step gives the
    same ideal from other generators, every other step the same generators."""
    for e in range(4):
        got = frob_root(I, e)
        want = chained_root(I, e, step)
        assert got == want
        if step is not _frob_root_elimination:
            assert got.generators == want.generators


def test_frob_root_e_fold_matches_chain_monomial(rng):
    for p in (2, 3):
        R = Ring(p, ["X", "Y"])
        for _ in range(6):
            I = rand_monomial_ideal(R, rng, max_gens=3, max_exp=20)
            for step in (frob_root, _frob_root_monomial, _frob_root_elimination):
                assert_root_is_chain(I, step)


def test_frob_root_e_fold_matches_chain_non_monomial(rng):
    for p in (2, 3):
        R = Ring(p, ["X", "Y"])
        for _ in range(4):
            I = rand_ideal(R, rng, 2, 3)
            assert_root_is_chain(I)
            assert_root_is_chain(frob_power(I, 2))


def test_frob_root_e_fold_in_quotient_ring():
    R = cusp_ring()
    for I in (Ideal(R, ["U"]), frob_power(Ideal(R, ["U"]), 3), Ideal(R, ["U^3+V", "V^3"])):
        assert_root_is_chain(I)
    assert frob_root(frob_power(Ideal(R, ["U"]), 2), 2) == Ideal(R, ["U", "V"])


def test_frob_root_e_zero_and_negative(R2):
    I = Ideal(R2, ["X^2+Y"])
    assert frob_root(I, 0) is I
    with pytest.raises(InputError):
        frob_root(I, -1)
    for J in (I, Ideal(R2, ["X^2"]), Ideal(R2, [])):  # a fractional countdown would pass 0
        with pytest.raises(InputError):
            frob_root(J, 1.5)
        with pytest.raises(InputError):
            frob_power(J, 1.5)
    with pytest.raises(InputError):
        frob_power(I, -1)


def test_monomial_root_stops_at_its_fixed_point():
    """The e-fold root of a monomial ideal has the generators of e single
    ceiling steps; once a step leaves the minimal generators as they were,
    no later step moves them, so a depth of 10^9 ends at once."""
    rng = random.Random(4057)
    for p in (2, 3, 5):
        R = Ring(p, ["X", "Y", "Z"])
        for _ in range(8):
            I = rand_monomial_ideal(R, rng, max_gens=4, max_exp=20)
            for e in range(7):
                want = chained_root(I, e, _frob_root_monomial)
                assert frob_root(I, e).generators == want.generators
            fixed = chained_root(I, 8, _frob_root_monomial)  # ceilings of exponents <= 20
            assert _frob_root_monomial(fixed).generators == fixed.generators
            with deadline(2):
                assert frob_root(I, 10**9).generators == fixed.generators


def test_deep_roots_end_at_once():
    """Depths of the size a user may name end within the deadline: an
    elimination that reaches a monomial fixed point, and a flat search whose
    scan starts at p^57 > EXP_LIMIT."""
    R = Ring(3, ["X", "Y"])
    with deadline(2):
        assert frob_root(Ideal(R, ["X^3+Y^3", "X*Y"]), 30000) == Ideal(R, ["X", "Y"])
        assert _p_roots(Ideal(R, ["X^9+Y^18", "Y^27"]).generators, 10**9) == (
            2, [R.parse("X+Y^2"), R.parse("Y^3")])
        assert _p_roots((R.parse("X+1"),), 10**9) == (0, None)
        assert _p_roots((R.one(),), 10**9) == (57, [R.one()])


# -- the flat route ------------------------------------------------------------------


def _polys(ring, max_deg=2):
    """Nonzero polynomials of a few terms with exponents up to max_deg."""
    term = st.tuples(st.tuples(*[st.integers(0, max_deg)] * ring.nvars),
                     st.integers(1, ring.p - 1))
    return (st.lists(term, min_size=1, max_size=3).map(ring.from_terms)
            .filter(lambda g: not g.is_zero()))


def _is_power(g, q):
    return not any(e % q for vec in g.exps for e in vec)


def _flat_root(I, e):
    """e flat steps in a row, or None at the first generator without a p-th root."""
    for _ in range(e):
        k, roots = _p_roots(I.generators, 1)
        if not k:
            return None
        I = Ideal(I.ring, roots)
    return I


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_flat_route_matches_elimination_and_chain(data):
    """In a polynomial ring every route agrees; roots of a Frobenius power
    give the ideal back (Kunz), and a non-power generator bars the flat route."""
    p = data.draw(st.sampled_from((2, 3)), label="p")
    order = data.draw(st.sampled_from((GREVLEX, LEX)), label="order")
    e = data.draw(st.integers(0, 3), label="e")
    R = Ring(p, ["X", "Y"], order)
    base = Ideal(R, data.draw(st.lists(_polys(R), min_size=1, max_size=2), label="base"))
    I = frob_power(base, e)
    mixed = data.draw(st.booleans(), label="mixed")
    if mixed:
        I = Ideal(R, I.generators + (data.draw(_polys(R), label="extra"),))
    want = chained_root(I, e, _frob_root_elimination)
    got = frob_root(I, e)
    assert got == want
    assert got.generators == chained_root(I, e, frob_root).generators
    if not mixed:
        assert want == base
    if e == 0 or all(_is_power(g, p ** e) for g in I.generators):
        assert _flat_root(I, e) == want
    else:
        assert _flat_root(I, e) is None


def test_root_of_frobenius_power_computes_no_basis(monkeypatch):
    R = Ring(3, ["X", "Y", "Z"])
    I = Ideal(R, ["X^2 + Y*Z", "Y^3 - X*Z"])
    P = frob_power(I, 2)
    calls = []
    run = ideals._Buchberger.run

    def spy(self, gens):
        calls.append(self.ring)
        return run(self, gens)

    monkeypatch.setattr(ideals._Buchberger, "run", spy)
    root = frob_root(P, 2)
    assert calls == []
    monkeypatch.undo()
    assert root.generators == I.generators


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_partly_flat_root_matches_the_chain(data):
    """Generators that are p^j-th powers for one j < e, none a p^(j+1)-th
    power: the e-fold root takes j flat steps at once and eliminates after
    them, and its generators are those of e single roots."""
    p = data.draw(st.sampled_from((2, 3)), label="p")
    e = data.draw(st.integers(2, 3), label="e")
    j = data.draw(st.integers(1, e - 1), label="j")
    R = Ring(p, ["X", "Y"])
    roots = data.draw(st.lists(_polys(R).filter(lambda g: not _is_power(g, p)),
                               min_size=1, max_size=2), label="roots")
    I = frob_power(Ideal(R, roots), j)
    assert all(_is_power(g, p) and not _is_power(g, p ** e) for g in I.generators)
    assert _p_roots(I.generators, e) == (j, list(Ideal(R, roots).generators))
    assert frob_root(I, e).generators == chained_root(I, e, frob_root).generators


def test_f_closure_of_a_computed_ideal_divides_nothing(monkeypatch, rng):
    """Once a polynomial-ring ideal's basis is known, its F-closure tests
    membership of generators and basis elements only, by lookup."""
    R = Ring(3, ["X", "Y", "Z"])
    ideals_seen = [Ideal(R, ["X^2 + Y*Z", "Y^3 - Z", "X*Y + 2"])]
    ideals_seen += [I for I in (rand_ideal(R, rng, 3, 4) for _ in range(8))
                    if not I.is_monomial()]
    calls = []
    normal_form = ideals.K.normal_form

    def spy(*args):
        calls.append(args)
        return normal_form(*args)

    for I in ideals_seen:
        I.groebner()
        monkeypatch.setattr(ideals.K, "normal_form", spy)
        res = f_closure(I)
        monkeypatch.undo()
        assert calls == []
        assert res.closure == I and res.witnesses == []


# -- the elimination ring ------------------------------------------------------------


def _x_first_root(I):
    """The elimination root with the blocks swapped: I in the ring's own
    variables in front, fresh variables r_i after them, relations
    r_i - X_i^p.  Up to names this is the ring _frob_root_elimination builds."""
    ring, d = I.ring, I.ring.nvars
    fresh = tuple(f"r_{i}" for i in range(d))
    ext = Ring(ring.p, ring.vars + fresh, elim(d))
    gens = [g._moved(ext) for g in I.effective_generators()]
    gens += [ext.var(r) - ext.var(v).frobenius(1) for r, v in zip(fresh, ring.vars)]
    return _eliminate(gens, ext, d, ring)


def test_aux_cover_avoids_the_ring_variable_names():
    R = Ring(2, ["t_0", "t_1"])
    ext, ts, lift = _aux_cover(R, 2)
    assert ext.vars == ("t_2", "t_3", "t_0", "t_1")
    assert ts == (ext.var("t_2"), ext.var("t_3"))
    assert lift(R.parse("t_0*t_1^2")) == ext.parse("t_0*t_1^2")


def test_elimination_root_in_rings_named_like_the_auxiliary_variables(rng):
    """Variables named t_0 and t_1 push the auxiliary ones to t_2 and t_3;
    the root agrees with the ceiling route, the flat route and the swapped
    layout, whose basis gives the very same generators."""
    for p in (2, 3):
        R = Ring(p, ["t_0", "t_1"])
        for _ in range(4):
            M = rand_monomial_ideal(R, rng, max_gens=3, max_exp=6)
            assert _frob_root_elimination(M) == _frob_root_monomial(M)
            I = rand_ideal(R, rng, 2, 3)
            P = frob_power(I, 1)
            k, roots = _p_roots(P.generators, 1)
            assert k == 1 and _frob_root_elimination(P) == Ideal(R, roots) == I
            for J in (I, P, M):
                assert _frob_root_elimination(J).generators == _x_first_root(J).generators
    plain = Ring(2, ["t_0", "t_1"])
    Q = Ring(2, ["t_0", "t_1"], quotient=[plain.parse("t_1^2+t_0^3")], reduced=True)
    for J in (frob_power(Ideal(Q, ["t_0"]), 1), Ideal(Q, ["t_0^3+t_1", "t_1^3"])):
        assert _frob_root_elimination(J).generators == _x_first_root(J).generators
    assert _frob_root_elimination(frob_power(Ideal(Q, ["t_0"]), 1)) == Ideal(Q, ["t_0", "t_1"])


# -- F-closure ---------------------------------------------------------------------


def test_f_closure_identity_in_regular_rings(R2, rng):
    for _ in range(8):
        I = rand_ideal(R2, rng, 2, 3)
        res = f_closure(I)
        assert res.closure == I
        assert res.stabilized_at == 0
        assert res.certified is False


def _chain_ideals(ring):
    """Monomial, mixed, zero and unit ideals.  Monomials alone take exponents
    up to 2^40, so Frobenius powers overflow EXP_LIMIT at any depth; longer
    generators take small exponents times one factor up to 2^40, which
    leaves their basis as cheap to compute as with the small ones."""
    coeffs = st.integers(1, ring.p - 1)

    def polys(exps, size, terms=(1, 1), scale=1):
        vec = st.tuples(*[exps] * ring.nvars).map(lambda v: tuple(e * scale for e in v))
        poly = st.lists(st.tuples(vec, coeffs), min_size=terms[0], max_size=terms[1])
        return st.lists(poly.map(ring.from_terms), min_size=size[0], max_size=size[1])

    small = st.integers(0, 3)
    monomial = polys(st.one_of(small, st.integers(0, 2**40)), (1, 4))
    mixed = st.sampled_from((1, 2**20, 2**40)).flatmap(
        lambda N: st.tuples(polys(small, (0, 2), scale=N), polys(small, (1, 2), (2, 3), N))
        .map(lambda parts: parts[0] + parts[1]))
    return st.one_of(
        monomial, mixed, st.sampled_from(([], [ring.zero()])),
        st.tuples(coeffs, st.one_of(monomial, mixed))
        .map(lambda parts: [ring.constant(parts[0])] + parts[1]),
    ).map(lambda gens: Ideal(ring, gens))


def _outcome(term):
    """The generators' term lists of the ideal term() builds, or the
    ExponentOverflow message it raises."""
    try:
        return [(g.keys, g.packed, g.coeffs) for g in term().generators]
    except ExponentOverflow as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_f_closure_chain_terms_match_the_round_trip(data):
    """In a polynomial ring each chain term of f_closure has the generators
    of root^n(b^[p^n]), and the chain raises its ExponentOverflow at the
    first n where b^[p^n] overflows, past p^E_MAX too."""
    nvars = data.draw(st.integers(1, 4), label="nvars")
    p = data.draw(st.sampled_from((2, 3, 5, 7)), label="p")
    order = data.draw(st.sampled_from((GREVLEX, LEX, elim(1))), label="order")
    R = Ring(p, ["X", "Y", "Z", "W"][:nvars], order)
    b = data.draw(_chain_ideals(R), label="b")
    n = data.draw(st.one_of(st.integers(1, 60), st.integers(E_MAX - 1, 60)), label="n")
    want = []
    for k in range(1, n + 1):
        want.append(_outcome(lambda: frob_root(frob_power(b, k), k)))
        if isinstance(want[-1], str):
            break
    with using_budget(GroebnerBudget(max_degree=2**62)):  # the monomials' degrees
        got = _outcome(lambda: f_closure(b, max_e=n, confirm=n).closure)
        if isinstance(want[-1], str):
            assert got == want.pop()
            n = len(want)
        if n:
            steps = f_closure(b, max_e=n, confirm=n).steps
            assert [_outcome(lambda: I) for I in steps[1:]] == want


def _terms(I):
    return [(g.keys, g.packed, g.coeffs) for g in I.generators]


def _closure_run(f, b, budget):
    """What f(b, ...) returns or raises under budget, and the pairs it charges."""
    before = ideals.pair_count
    try:
        with using_budget(budget):
            res = f(b)
        got = (_terms(res.closure), res.stabilized_at, res.certified,
               [_terms(I) for I in res.steps],
               [((w["element"].keys, w["element"].packed), w["exponent"]) for w in res.witnesses])
    except CharpError as exc:
        got = (type(exc), str(exc), [_terms(I) for I in getattr(exc, "partial", ())])
    return got, ideals.pair_count - before


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_flat_f_closure_matches_the_chain(data):
    """In a polynomial ring f_closure, which lets flatness settle the ascent,
    the equalities and the witnesses, returns or raises what the chain with
    every test does, with the same steps, and charges the same pairs: each
    run builds b in a fresh ring, so no basis is cached on an ideal."""
    p = data.draw(st.sampled_from((2, 3, 5)), label="p")
    names = ("X", "Y", "Z")[:data.draw(st.integers(2, 3), label="nvars")]
    scale = data.draw(st.sampled_from((1, 1, 2**20, 2**40)), label="scale")  # 2^40: overflow
    vec = st.tuples(*[st.integers(0, 3).map(lambda e: e * scale)] * len(names))
    gen = st.lists(st.tuples(vec, st.integers(1, p - 1)), min_size=1,
                   max_size=data.draw(st.sampled_from((1, 3)), label="terms"))
    gens = data.draw(st.lists(gen, max_size=3), label="gens")
    max_e = data.draw(st.one_of(st.integers(1, 4), st.integers(15, 40)), label="max_e")
    confirm = data.draw(st.one_of(st.integers(1, 4), st.integers(max_e, max_e + 2)),
                        label="confirm")
    budget = data.draw(st.sampled_from((GroebnerBudget(max_degree=2**62),
                                        GroebnerBudget(max_pairs=2, max_degree=2**62),
                                        GroebnerBudget())), label="budget")

    def fresh():
        ring = Ring(p, names)
        return Ideal(ring, [ring.from_terms(terms) for terms in gens])

    with deadline(20):
        want = _closure_run(lambda b: chain_f_closure(b, max_e, confirm), fresh(), budget)
        got = _closure_run(lambda b: f_closure(b, max_e, confirm), fresh(), budget)
    assert got == want


def test_f_closure_overflows_at_the_first_overflowing_frobenius_power():
    """X over F_2 scales past EXP_LIMIT first at p^E_MAX, where the scale is
    capped, and the lex tail Y^4 of X + Y^4 at p^55, before its lead; a
    constant scales by the capped p^E_MAX without overflow."""
    R = Ring(2, ["X", "Y"], LEX)
    X, tail, one = Ideal(R, ["X"]), Ideal(R, ["X + Y^4"]), Ideal(R, ["1"])
    for b, n in ((X, E_MAX), (tail, 55)):
        assert len(f_closure(b, n - 1, n - 1).steps) == n
        message = f"Frobenius scaling by p^{n} exceeds {2**56}"
        for term in (lambda: frob_power(b, n), lambda: f_closure(b, 60, 60)):
            with pytest.raises(ExponentOverflow) as exc:
                term()
            assert str(exc.value) == message
    unit = frob_root(frob_power(one, 60), 60).generators
    assert [I.generators for I in f_closure(one, 60, 60).steps[1:]] == [unit] * 60


def test_f_closure_in_a_polynomial_ring_takes_no_frobenius_power_or_root(R2, monkeypatch):
    """A polynomial ring builds each chain term from b by flatness; the cusp
    still takes the Frobenius power and its root."""
    calls = []
    for owner, name in ((frobenius, "frob_power"), (frobenius, "frob_root"),
                        (Polynomial, "frobenius"), (Polynomial, "try_p_root")):
        def spy(*args, real=getattr(owner, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, spy)
    for gens in (["X^2", "X*Y"], ["X^2+Y", "X*Y^3"], ["X^3", "X+Y^2"], [], ["1"]):
        assert f_closure(Ideal(R2, gens)).closure == Ideal(R2, gens)
    assert calls == []
    f_closure(Ideal(cusp_ring(), ["U"]))
    assert {"frob_power", "frob_root", "frobenius"} <= set(calls)


def test_f_closure_cusp_counterexample():
    R = cusp_ring()
    res = f_closure(Ideal(R, ["U"]))
    assert res.closure == Ideal(R, ["U", "V"])
    assert res.stabilized_at == 1
    elems = {str(w["element"]): w["exponent"] for w in res.witnesses}
    assert elems == {"V": 1}
    # replay the witness: V^2 lies in (U)^[2] + J
    assert frob_power(Ideal(R, ["U"]), 1).contains(R.parse("V^2"))


def test_f_closure_zero_ideal_reduced():
    R = cusp_ring()
    res = f_closure(Ideal(R, []))
    assert res.closure == Ideal(R, [])
    assert res.stabilized_at == 0


def test_is_f_closed_examples(R2):
    assert is_f_closed(Ideal(R2, ["X^2"]))
    assert not is_f_closed(Ideal(cusp_ring(), ["U"]))
    assert is_f_closed(Ideal(cusp_ring(), ["1"]))


def test_f_closure_chain_properties(R2, rng):
    R = cusp_ring()
    res = f_closure(Ideal(R, ["U"]))
    for a, b in zip(res.steps, res.steps[1:]):
        assert b.contains_ideal(a)
    base = Ideal(R, ["U"])
    assert res.closure.contains_ideal(base)
    for g in res.closure.groebner():
        assert in_radical(base, g)


def test_f_closure_idempotent_under_stopping_rule():
    R = cusp_ring()
    first = f_closure(Ideal(R, ["U"]))
    second = f_closure(first.closure)
    assert second.closure == first.closure
    assert second.stabilized_at == 0


def test_f_closure_refuses_confirm_above_max_e():
    """A chain standing still at max_e with confirm > max_e could never have
    been confirmed: the bound is at fault, not the ideal."""
    R = Ring(2, ["X", "Y"])
    with pytest.raises(InputError, match="confirm 5 exceeds max_e 3"):
        f_closure(Ideal(R, ["X^2", "X*Y"]), max_e=3, confirm=5)
    assert f_closure(Ideal(R, ["X^2", "X*Y"]), max_e=3, confirm=3).stabilized_at == 0
    with pytest.raises(InputError, match="confirm 2 exceeds max_e 1"):
        f_closure(Ideal(cusp_ring(), ["U", "V"]), max_e=1, confirm=2)


def test_f_closure_depth_exceeded_payload():
    R = cusp_ring()
    with pytest.raises(DepthExceeded) as exc:
        f_closure(Ideal(R, ["U"]), max_e=1, confirm=2)
    assert len(exc.value.partial) >= 1


# -- the exponent-notation identity --------------------------------------------------


def test_power_then_frobenius_equals_frobenius_then_power(rng):
    """(q^h)^[p^n] and (q^[p^n])^h have the same generating set, so the
    growth-condition exponent needs no parenthesisation."""
    R = Ring(3, ["X", "Y"])
    for _ in range(6):
        q = rand_monomial_ideal(R, rng, 3, 3)
        for h in (1, 2, 3):
            for n in (0, 1, 2):
                a = frob_power(q.power(h), n)
                b = frob_power(q, n).power(h)
                assert a.contains_ideal(b) and b.contains_ideal(a)
                assert a == b
