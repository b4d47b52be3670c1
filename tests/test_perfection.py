"""Perfect-closure elements, f-sequences, and the sequence/ideal dictionary."""

import itertools
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from charp import CharpError, Ideal, InputError, NonMonomial, Ring, perfection
from charp.frobenius import frob_power, frob_root
from charp.perfection import FSequence, PerfectionElement, PerfectionIdeal, VerifyResult

from conftest import ass_monomial, deadline, radical_sequence, rand_monomial_ideal, rand_poly


@pytest.fixture
def R2():
    return Ring(2, ["X", "Y"])


# -- element normal form and arithmetic -----------------------------------------


def test_normalize_examples(R2):
    e = PerfectionElement(2, R2.parse("X^4"))
    assert (e.depth, str(e.body)) == (0, "X")
    f = PerfectionElement(1, R2.parse("X+Y"))
    assert (f.depth, str(f.body)) == (1, "X + Y")
    z = PerfectionElement(3, R2.zero())
    assert (z.depth, z.is_zero()) == (0, True)


def test_normalize_at_user_sized_depths(R2):
    """A constant goes to depth 0 and any other body loses every root it
    has in one step, whatever the depth."""
    with deadline(2):
        c = PerfectionElement(10**9, R2.one())
        g = PerfectionElement(10**9, R2.parse("X^8 + Y^4"))
    assert (c.depth, str(c.body)) == (0, "1")
    assert (g.depth, str(g.body)) == (10**9 - 2, "X^2 + Y")


def test_normalize_idempotent(R2, rng):
    for _ in range(20):
        body = rand_poly(R2, rng, 3, 6, allow_zero=True)
        e = PerfectionElement(rng.randint(0, 3), body)
        again = PerfectionElement(e.depth, e.body)
        assert again == e


def test_elem_add_mul_examples(R2):
    a = PerfectionElement(1, R2.parse("X"))
    b = PerfectionElement(1, R2.parse("Y"))
    assert a + b == PerfectionElement(1, R2.parse("X+Y"))
    c = PerfectionElement(0, R2.parse("X"))
    assert a * c == PerfectionElement(1, R2.parse("X^3"))
    assert a + 0 == a
    assert a * 1 == a


def test_elem_reflected_subtraction_and_negation():
    """An integer or a polynomial left of '-' lifts as it does on the right, and
    equal elements hash alike."""
    R = Ring(3, ["X"])
    X = R.var("X")
    e = PerfectionElement(1, X)
    assert 3 - e == -(e - 3) == PerfectionElement(1, -X)
    assert 1 - X == R.parse("2*X + 1")
    assert (1 - X) - e == -(e - (1 - X)) == PerfectionElement(1, R.parse("2*X^3 + 2*X + 1"))
    assert hash(3 - e) == hash(-(e - 3)) and len({3 - e, -(e - 3), e}) == 2


def test_elem_ring_axioms(rng):
    R = Ring(3, ["X", "Y"])
    elems = [PerfectionElement(rng.randint(0, 2), rand_poly(R, rng, 4, 3, allow_zero=True))
             for _ in range(12)]
    for a, b, c in itertools.islice(itertools.combinations(elems, 3), 30):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()


def test_elem_pth_power_lowers_depth(R2):
    a = PerfectionElement(2, R2.parse("X^2+X*Y"))
    sq = a * a
    assert sq == PerfectionElement(1, R2.parse("X^2+X*Y"))


def test_elements_require_polynomial_ring():
    plain = Ring(2, ["U", "V"])
    R = Ring(2, ["U", "V"], quotient=[plain.parse("V^2+U^3")], reduced=True)
    with pytest.raises(InputError):
        PerfectionElement(1, R.parse("U"))


# -- sequence term dispatch --------------------------------------------------------


def test_fg_perfection_terms(R2):
    seq = FSequence.finitely_generated(Ideal(R2, ["X"]), k=0)
    assert seq.term(3) == Ideal(R2, ["X^8"])
    seq1 = FSequence.finitely_generated(Ideal(R2, ["X"]), k=1)
    assert seq1.term(0) == frob_root(Ideal(R2, ["X"]))
    assert seq1.term(0) == Ideal(R2, ["X"])


def test_constant_prime_terms(R2):
    P = FSequence.constant_prime(Ideal(R2, ["X", "Y"]))
    for n in (0, 2, 5):
        assert P.term(n) == Ideal(R2, ["X", "Y"])


def test_canonical_sequence_equals_frobenius_powers_in_regular(R2):
    I = Ideal(R2, ["X^2", "X*Y"])
    canon = FSequence.canonical(I)
    frob = FSequence.frobenius_powers(I)
    for n in range(3):
        assert canon.term(n) == frob.term(n)


def test_intersection_sequence_terms(R2):
    s1 = FSequence.frobenius_powers(Ideal(R2, ["X"]))
    s2 = FSequence.frobenius_powers(Ideal(R2, ["Y"]))
    both = FSequence.intersection([s1, s2])
    for n in range(3):
        t = both.term(n)
        assert t == s1.term(n).intersect(s2.term(n))
        assert s1.term(n).contains_ideal(t) and s2.term(n).contains_ideal(t)


def test_memoization_returns_same_object(R2):
    seq = FSequence.frobenius_powers(Ideal(R2, ["X"]))
    assert seq.term(2) is seq.term(2)


# -- membership ------------------------------------------------------------------


def test_member_examples(R2):
    A = PerfectionIdeal.finitely_generated(Ideal(R2, ["X"]), k=0)
    assert not A.member(PerfectionElement(1, R2.parse("X")))
    assert A.member(PerfectionElement(0, R2.parse("X^2")))
    assert A.member(PerfectionElement(1, R2.parse("X^2")))


def test_member_depth_consistency(R2):
    """Membership of m at depth n agrees with m^p at depth n+1."""
    A = PerfectionIdeal.finitely_generated(Ideal(R2, ["X^2", "X*Y"]), k=0)
    for n in range(3):
        for vec in itertools.product(range(2 ** 3 + 1), repeat=2):
            m = R2.monomial(vec)
            low = A.member(PerfectionElement(n, m))
            high = A.member(PerfectionElement(n + 1, m.frobenius(1)))
            assert low == high


def test_constant_prime_members_are_pth_powers_of_members(R2):
    """Each depth-n member of a prime's sequence is the p-th power of a
    depth-(n+1) member: primes upstairs are fixed by the Frobenius."""
    P = PerfectionIdeal(FSequence.constant_prime(Ideal(R2, ["X", "Y"])))
    for r in (R2.parse("X"), R2.parse("Y"), R2.parse("X+Y")):
        for n in range(3):
            deeper = PerfectionElement(n + 1, r)
            assert P.member(deeper)
            assert deeper.power(2) == PerfectionElement(n, r)
            assert P.member(deeper.power(2))


# -- verification --------------------------------------------------------------------


def test_verify_frobenius_powers(R2):
    seq = FSequence.frobenius_powers(Ideal(R2, ["X"]))
    assert seq.verify(3).ok


def test_verify_constant_prime(R2):
    assert FSequence.constant_prime(Ideal(R2, ["X"])).verify(5).ok


def test_verify_table_failure():
    R = Ring(2, ["X"])
    seq = FSequence.from_table([Ideal(R, [f"X^{n + 1}"]) for n in range(6)])
    res = seq.verify(4)
    assert not res.ok
    assert res.failed_at == 2
    assert res.got == Ideal(R, ["X^2"])
    assert res.expected == Ideal(R, ["X^3"])


def test_verify_catches_non_descending():
    R = Ring(2, ["X"])
    seq = FSequence.from_table([Ideal(R, ["X^2"]), Ideal(R, ["X"])])
    res = seq.verify(1)
    assert not res.ok


def test_ass_monotone_along_monomial_fseq(rng):
    R = Ring(2, ["X", "Y"])
    for _ in range(6):
        I = rand_monomial_ideal(R, rng, 3, 4)
        seq = FSequence.frobenius_powers(I)
        prev = None
        for n in range(3):
            cur = set(ass_monomial(seq.term(n)))
            if prev is not None:
                assert prev <= cur
            prev = cur


# -- radical sequences ------------------------------------------------------------


def test_radical_sequence_constant(R2):
    seq = FSequence.frobenius_powers(Ideal(R2, ["X^2", "X*Y"]))
    rad = radical_sequence(seq)
    for n in range(4):
        assert rad.term(n) == Ideal(R2, ["X"])


def test_radical_of_prime_is_itself(R2):
    P = FSequence.constant_prime(Ideal(R2, ["X", "Y"]))
    rad = radical_sequence(P)
    assert rad.term(0) == Ideal(R2, ["X", "Y"])
    assert rad.term(3) == Ideal(R2, ["X", "Y"])


def test_radical_of_pure_power_tower():
    R = Ring(2, ["X"])
    seq = FSequence.from_table([Ideal(R, [f"X^{2 ** n}"]) for n in range(5)])
    rad = radical_sequence(seq)
    for n in range(4):
        assert rad.term(n) == Ideal(R, ["X"])


def test_radical_rejects_non_monomial(R2):
    seq = FSequence.frobenius_powers(Ideal(R2, ["X^2+Y"]))
    with pytest.raises(NonMonomial):
        radical_sequence(seq).term(0)


def test_radical_detects_nonconstancy():
    R = Ring(2, ["X", "Y"])
    seq = FSequence.from_table([Ideal(R, ["X"]), Ideal(R, ["Y"])])
    rad = radical_sequence(seq)
    rad.term(0)
    with pytest.raises(CharpError):
        rad.term(1)


def test_concurrent_term_and_basis_access(R2):
    """Memo tables and basis caches stay consistent under concurrent readers."""
    import threading

    seq = FSequence.frobenius_powers(Ideal(R2, ["X^2", "X*Y"]))
    I = Ideal(R2, ["X^2+Y", "X*Y^2"])
    results = []

    def worker():
        results.append((str(seq.term(3)), tuple(str(g) for g in I.groebner())))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1


def test_perfection_sequence_over_reduced_quotient():
    """Sequences work over reduced quotients; member bodies live in the cover."""
    plain = Ring(2, ["U", "V"])
    Q = Ring(2, ["U", "V"], quotient=[plain.parse("V^2+U^3")], reduced=True)
    A = PerfectionIdeal.finitely_generated(Ideal(Q, ["U"]), k=0)
    assert A.term(0) == Ideal(Q, ["U", "V"])  # the anchor is the F-closure
    v = plain.parse("V")
    assert A.member(PerfectionElement(0, v))
    for n in range(3):
        for body in (plain.parse("U"), v, plain.parse("U*V"), plain.parse("U+V")):
            low = A.member(PerfectionElement(n, body))
            high = A.member(PerfectionElement(n + 1, body.frobenius(1)))
            assert low == high


# -- the root law is the whole check -------------------------------------------------


def _three_check_verify(seq, depth):
    """FSequence.verify as it checked the root law, the descent and
    term^[p] in the next term one after the other; the root law implies the
    other two, so verify now checks it alone."""
    for n in range(depth):
        t0 = seq.term(n)
        t1 = seq.term(n + 1)
        root = frob_root(t1)
        if root != t0:
            return VerifyResult(False, n, "frobenius root mismatch", expected=t0, got=root)
        if not t0.contains_ideal(t1):
            return VerifyResult(False, n, "sequence not descending", expected=t0, got=t1)
        if not t1.contains_ideal(frob_power(t0, 1)):
            return VerifyResult(False, n, "term^[p] escapes the next term",
                                expected=t1, got=frob_power(t0, 1))
    return VerifyResult(True)


def _small_ideals(ring, kind):
    """Ideals of ring on one or two generators: monomials, or sums of up to
    two terms of degree at most 3 in the first two variables."""
    term = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, ring.p - 1)).filter(
        lambda t: 0 < t[0] + t[1] <= 3)
    monomial = term.map(lambda t: ring.monomial(t[:2], t[2]))
    poly = st.lists(term, min_size=1, max_size=2).map(
        lambda ts: ring.from_terms(((a, b), c) for a, b, c in ts))
    gen = monomial if kind == "monomial" else poly
    return st.lists(gen, min_size=1, max_size=2).filter(
        lambda gs: not all(g.is_zero() for g in gs)).map(lambda gs: Ideal(ring, gs))


@st.composite
def _sequences(draw):
    p = draw(st.sampled_from([2, 3]), label="p")
    plain = Ring(p, ["X", "Y"])
    shape = draw(st.sampled_from(["table-monomial", "table-poly", "table-cusp",
                                  "frobenius-powers", "canonical", "intersection"]), label="shape")
    if shape == "table-cusp":
        ring = Ring(p, ["X", "Y"], quotient=[plain.parse("Y^2 + X^3")])
    else:
        ring = plain
    ideals = _small_ideals(ring, "monomial" if shape == "table-monomial" else "poly")
    if shape.startswith("table"):
        terms = draw(st.lists(ideals, min_size=2, max_size=3), label="terms")
        if draw(st.booleans(), label="a lawful start"):  # the law holds at n = 0
            terms[0] = frob_root(terms[1])
        return FSequence.from_table(terms), len(terms) - 1
    if shape == "intersection":
        parts = [FSequence.frobenius_powers(draw(ideals, label="powers")),
                 FSequence.constant_prime(Ideal(ring, draw(st.sampled_from(
                     [["X"], ["Y"], ["X", "Y"], ["X + Y"]]), label="prime")))]
        return FSequence.intersection(parts), 2
    make = FSequence.frobenius_powers if shape == "frobenius-powers" else FSequence.canonical
    return make(draw(ideals, label="ideal")), 2


@settings(max_examples=120, deadline=timedelta(seconds=20))
@given(_sequences())
def test_verify_agrees_with_the_three_check_verify(drawn):
    """On table sequences of monomial, several-term and cusp-quotient ideals
    and on frobenius-powers, canonical and intersection sequences, checking
    the root law alone gives the result of checking all three laws."""
    seq, depth = drawn
    with deadline(20):
        assert seq.verify(depth) == _three_check_verify(seq, depth)


def test_fg_terms_up_to_k_root_one_anchor(R2):
    """Terms at and below k are roots of one F-closure, computed once, and
    term(k) is that closure itself."""
    gens = Ideal(R2, ["X^3 + Y^2", "X*Y"])
    seq = FSequence.finitely_generated(gens, 2)
    with mock.patch("charp.perfection.f_closure", wraps=perfection.f_closure) as spy:
        terms = [seq.term(n) for n in (1, 0, 2)]
    assert spy.call_count == 1
    anchor = terms[2]
    assert anchor == perfection.f_closure(gens).closure
    assert terms[:2] == [frob_root(anchor, 1), frob_root(anchor, 2)]
    assert seq.term(3) == perfection.f_closure(frob_power(gens, 1)).closure
