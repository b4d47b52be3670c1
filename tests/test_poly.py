"""Core polynomial arithmetic, Frobenius maps on elements, and the text grammar."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from charp import ExponentOverflow, Ideal, InputError, Ring
from charp import _kernels as K
from charp.decomposition import apply_shift, unapply_shift
from charp.frobenius import frob_power
from charp.ideals import _monic
from charp.orders import GREVLEX, LEX, MonomialOrder, elim
from charp.poly import EXP_LIMIT, Polynomial, _check_exps, _tokenize

from conftest import map_poly, project, rand_poly, substitute


def test_prime_field_rejects_composites():
    for p in (4, 1, 2**31 + 11, 2.0):
        with pytest.raises(InputError):
            Ring(p, ["X"])
    assert Ring(2147483647, ["X"]).p == 2147483647  # largest prime below 2^31


@pytest.mark.parametrize("kwargs", [{"order": "lex"}, {"quotient": ["X^2"]}],
                         ids=["order-name", "quotient-text"])
def test_ring_rejects_an_order_or_quotient_of_another_type(kwargs):
    with pytest.raises(InputError):
        Ring(5, ["X"], **kwargs)


@pytest.mark.parametrize("method, args", [
    ("monomial", ((2.7, 0),)), ("monomial", (("1", 0),)), ("monomial", ((1, 0), 2.5)),
    ("constant", (2.5,)), ("from_terms", ([((1, 1), 2.5)],)), ("from_terms", ([((1.0, 1), 1)],)),
], ids=["float-exponent", "text-exponent", "float-coefficient", "float-constant",
        "float-term-coefficient", "float-term-exponent"])
def test_ring_rejects_non_integer_exponents_and_coefficients(method, args):
    with pytest.raises(InputError):
        getattr(Ring(5, ["X", "Y"]), method)(*args)


@pytest.mark.parametrize("call", [
    lambda R: Ring(5, [1]), lambda R: Ring(5, "XY"), lambda R: R.parse(3),
    lambda R: R.var("X") ** 2.5, lambda R: R.var("X").frobenius(1.5),
    lambda R: R.var("X").try_p_root(1.5), lambda R: R.var("X").try_p_root(-1),
    lambda R: frob_power(Ideal(R, ["X"]), 1.5),
], ids=["int-variable", "string-of-variables", "parse-int", "float-power", "float-frobenius",
        "float-root", "negative-root", "float-frob-power"])
def test_misuse_raises_input_error(call):
    with pytest.raises(InputError):
        call(Ring(5, ["X", "Y"]))


def test_bool_counts_read_as_ints():
    f = Ring(5, ["X", "Y"]).parse("X + 2*Y")
    assert f ** True == f and f ** False == 1
    assert f.frobenius(True) == f.frobenius(1) and f.try_p_root(False) == f


def test_ring_stores_integer_like_exponents_and_coefficients_as_ints():
    R = Ring(5, ["X", "Y"])
    for f in (R.monomial((np.int64(2), True), np.int64(7)),
              R.from_terms([((np.int64(2), True), np.int64(7))])):
        assert f == R.parse("2*X^2*Y")
        assert all(type(x) is int for x in f.keys + f.packed + f.coeffs)
    assert type(R.constant(np.int64(7)).coeffs[0]) is int


def test_field_inverse():
    R = Ring(7, ["X"])
    for a in range(1, 7):
        f = _monic(R.from_terms([([1], a), ([0], 1)]))
        assert f.coeffs[0] == 1 and a * f.coeffs[1] % 7 == 1


# -- Frobenius on elements -------------------------------------------------------


def test_frobenius_freshman_dream():
    R = Ring(2, ["X", "Y"])
    assert R.parse("X+Y").frobenius(1) == R.parse("X^2+Y^2")


def test_frobenius_fixes_coefficients():
    R = Ring(7, ["Y"])
    assert R.parse("Y-3").frobenius(2) == R.parse("Y^49 - 3")


def test_frobenius_fixes_constants():
    R = Ring(5, ["X"])
    for c in range(5):
        assert R.constant(c).frobenius(3) == R.constant(c)


def test_frobenius_composes(rng):
    R = Ring(3, ["X", "Y"])
    for _ in range(20):
        g = rand_poly(R, rng, 4, 5)
        for e1 in range(3):
            for e2 in range(3 - e1 + 1):
                assert g.frobenius(e1 + e2) == g.frobenius(e1).frobenius(e2)


def test_frobenius_is_multiplicative_and_additive(rng):
    R = Ring(5, ["X", "Y"])
    for _ in range(15):
        f, g = rand_poly(R, rng), rand_poly(R, rng)
        assert (f + g).frobenius(1) == f.frobenius(1) + g.frobenius(1)
        assert (f * g).frobenius(1) == f.frobenius(1) * g.frobenius(1)


def test_p_root_examples():
    R = Ring(2, ["X", "Y"])
    assert R.parse("X^2*Y^4 + X^4").try_p_root() == R.parse("X*Y^2 + X^2")
    assert R.parse("X+Y").try_p_root() is None
    R5 = Ring(5, ["X"])
    assert R5.constant(5).is_zero()
    assert R5.constant(5).try_p_root().is_zero()


def test_p_root_inverts_frobenius(rng):
    R = Ring(3, ["X", "Y"])
    for _ in range(25):
        g = rand_poly(R, rng, 5, 6, allow_zero=True)
        assert g.frobenius(1).try_p_root() == g


def test_p_root_is_not_integer_divisibility():
    """X*Y^2 over F_3 packs to a multiple of 3, but has no cube root."""
    R = Ring(3, ["X", "Y"])
    g = R.parse("X*Y^2")
    assert g.packed[0] % 3 == 0
    assert g.try_p_root() is None
    assert g.frobenius(1).try_p_root() == g


# -- the packed Frobenius tests against the exponent tuples ----------------------

_PACKED_PRIMES = (2, 3, 5, 7, 2**31 - 1)


def _packed_ring(data, p):
    n = data.draw(st.sampled_from([1, 2, 3, 4, 64]), label="nvars")
    return Ring(p, [f"x{i}" for i in range(n)])


def _terms(data, ring, exponent):
    rows = st.lists(exponent, min_size=ring.nvars, max_size=ring.nvars)
    terms = st.lists(st.tuples(rows, st.integers(1, ring.p - 1)), min_size=1, max_size=3)
    return data.draw(terms, label="terms")


@pytest.mark.parametrize("e", (1, 2))
@pytest.mark.parametrize("p", _PACKED_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_try_p_root_matches_exponent_tuples(p, e, data):
    """The root exists exactly when every exponent is a multiple of p^e, and
    then it divides every exponent; exponents lie near multiples of p^e and at
    EXP_LIMIT."""
    q = p ** e
    R = _packed_ring(data, p)
    near = st.builds(lambda m, d: min(max(m * q + d, 0), EXP_LIMIT),
                     st.integers(0, 3) | st.integers(0, EXP_LIMIT // q), st.integers(-1, 1))
    g = R.from_terms(_terms(data, R, near | st.sampled_from([0, EXP_LIMIT - 1, EXP_LIMIT])))
    root = g.try_p_root(e)
    if any(x % q for vec in g.exps for x in vec):
        assert root is None
    else:
        assert root == R.from_terms(([x // q for x in vec], c) for vec, c in g.terms())
        assert root.frobenius(e) == g


@pytest.mark.parametrize("e", (1, 2))
@pytest.mark.parametrize("p", _PACKED_PRIMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_frobenius_overflow_matches_exponent_tuples(p, e, data):
    """frobenius(e) raises exactly when the largest exponent times p^e passes
    EXP_LIMIT, with that exponent at EXP_LIMIT // p^e - 1, +0 or +1; the
    degree field may pass the limit without an exponent doing so."""
    q = p ** e
    R = _packed_ring(data, p)
    top = max(EXP_LIMIT // q + data.draw(st.sampled_from([-1, 0, 1]), label="offset"), 0)
    terms = _terms(data, R, st.integers(0, top) | st.just(top))
    if data.draw(st.booleans(), label="all at top"):
        terms.append(([top] * R.nvars, 1))
    g = R.from_terms(terms)
    if g.is_zero():
        return
    if max(map(max, g.exps)) * q > EXP_LIMIT:
        with pytest.raises(ExponentOverflow):
            g.frobenius(e)
    else:
        assert g.frobenius(e) == R.from_terms(([x * q for x in vec], c)
                                              for vec, c in g.terms())


def test_power_examples():
    R = Ring(2, ["X", "Y"])
    assert R.parse("X").power(3) == R.parse("X^3")
    assert R.parse("Y-1").power(2).frobenius(2) == R.parse("Y^8+1")
    assert R.parse("X*Y+1").power(0).is_one()


def test_power_matches_repeated_multiplication(rng):
    R = Ring(5, ["X", "Y"])
    for _ in range(10):
        g = rand_poly(R, rng, 3, 3)
        acc = R.one()
        for m in range(6):
            assert g.power(m) == acc
            acc = acc * g


# base-p digits of a drawn exponent, by p; one for the larger primes, whose
# oracle powers (X + c)^(2^k) have 2^k + 1 terms below p
_DIGITS = {2: 10, 3: 6, 5: 4, 7: 4, 31: 2}


@st.composite
def _lucas_exponents(draw, p, size):
    """An exponent whose base-p digits d_k have prod(d_k + 1) <= size, so that
    (X + c)^e has at most size terms."""
    e, place = 0, 1
    for _ in range(draw(st.integers(1, _DIGITS.get(p, 1)))):
        d = draw(st.integers(0, min(p - 1, size - 1)))
        e, size, place = e + d * place, size // (d + 1), place * p
    return e


@st.composite
def _shift_cases(draw):
    """(p, order, nvars, term lists of two polynomials, {variable index: constant})."""
    p = draw(st.sampled_from((2, 3, 5, 7, 31, 32003, 2147483647)))
    nvars = draw(st.integers(1, 3))
    order = draw(st.sampled_from((GREVLEX, LEX, elim(1))))
    exps = _lucas_exponents(p, 200 if nvars == 1 else 20)
    terms = st.lists(st.tuples(st.lists(exps, min_size=nvars, max_size=nvars),
                               st.integers(0, p - 1)), max_size=4)
    constants = st.one_of(st.integers(-p, p), st.integers(-2, 2).map(lambda k: k * p))
    shift = draw(st.dictionaries(st.integers(0, nvars - 1), constants, min_size=1))
    return p, order, nvars, [draw(terms), draw(terms)], shift


@settings(max_examples=150, deadline=None)
@given(_shift_cases())
@example((7, GREVLEX, 2, [[((0, 1), 1), ((0, 0), -3)], []], {1: 3}))
@example((5, GREVLEX, 2, [[((2, 0), 1), ((0, 1), 1)], [((1, 1), 1)]], {0: 1, 1: 3}))
def test_shifts_match_substitution(case):
    """_shifted, apply_shift and unapply_shift give the keys, packed exponents
    and coefficients of substituting X_i + c for X_i by products of powers,
    for shifts by constants 0 mod p and exponents of several base-p digits."""
    p, order, nvars, term_lists, shift = case
    R = Ring(p, [f"X{i}" for i in range(nvars)], order)
    polys = [R.from_terms(terms) for terms in term_lists]
    for f in polys:
        for i, c in shift.items():
            got, want = f._shifted(i, c), substitute(f, {R.vars[i]: R.var(R.vars[i]) + c})
            assert (got.keys, got.packed, got.coeffs) == (want.keys, want.packed, want.coeffs)
    named = {R.vars[i]: c for i, c in shift.items()}
    I = Ideal(R, polys)
    for move, sign in ((apply_shift, 1), (unapply_shift, -1)):
        assignments = {v: R.var(v) + sign * c for v, c in named.items()}
        want = Ideal(R, [substitute(g, assignments) for g in I.generators]).generators
        assert move(I, named).generators == want
    assert unapply_shift(apply_shift(I, named), named).generators == I.generators


def test_substitute_examples():
    """Translations by the shift routines; a constant and a swap by the
    substitution oracle that test_shifts_match_substitution compares with."""
    R = Ring(7, ["X", "Y"])
    lam = 3
    assert (R.var("Y") - lam)._shifted(1, lam) == R.var("Y")
    assert apply_shift(Ideal(R, [R.var("Y") - lam]), {"Y": lam}).generators == (R.var("Y"),)
    assert substitute(R.parse("X^2*Y"), {"Y": 1}) == R.parse("X^2")
    f = R.parse("X+Y")
    assert substitute(f, {"X": R.var("Y"), "Y": R.var("X")}) == f


def test_substitute_is_simultaneous():
    """Shifts of several variables, and a swap by the substitution oracle,
    read every variable in the polynomial before any is replaced."""
    R = Ring(5, ["X", "Y"])
    f = R.parse("X*Y")
    g = substitute(f, {"X": R.var("Y"), "Y": R.var("X")})
    assert g == R.parse("X*Y")
    want = R.parse("X^2 + 2*X + Y + 4")
    assert R.parse("X^2 + Y")._shifted(0, 1)._shifted(1, 3) == want
    h = apply_shift(Ideal(R, ["X^2 + Y"]), {"X": 1, "Y": 3})
    assert h.generators == Ideal(R, [want]).generators


def test_shifts_form_no_product_and_decode_nothing(monkeypatch):
    R = Ring(7, ["X", "Y", "Z"])
    I = Ideal(R, ["X^3*Y^50 + 2*Y^7*Z", "X - 1", "Z^345"])
    calls = []
    for owner, name in ((Polynomial, "__mul__"), (Ring, "unpack")):
        def spy(*args, real=getattr(owner, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, spy)
    shift = {"X": 2, "Y": -3, "Z": 5}
    assert unapply_shift(apply_shift(I, shift), shift).generators == I.generators
    assert calls == []
    with pytest.raises(InputError):
        apply_shift(I, {"W": 1})


def test_exponent_overflow_checked():
    R = Ring(2, ["X"])
    big = R.monomial([EXP_LIMIT // 2])
    with pytest.raises(ExponentOverflow):
        big.frobenius(2)
    with pytest.raises(ExponentOverflow):
        big * big * R.var("X")


@pytest.mark.parametrize("top", (EXP_LIMIT - 1, EXP_LIMIT, EXP_LIMIT + 1))
@pytest.mark.parametrize("nvars", (1, 4, 64))
def test_product_overflow_matches_exponent_tuples(nvars, top):
    """A product raises exactly when _check_exps rejects the exponent tuples
    of the kernel's product, with one or every exponent of a term at top."""
    R = Ring(3, [f"x{i}" for i in range(nvars)])
    cases = []
    for a in sorted({max(top - EXP_LIMIT, 0), top // 2, min(top, EXP_LIMIT)}):
        for i in sorted({0, nvars // 2, nvars - 1}):
            cases.append(([a if j == i else j % 3 for j in range(nvars)],
                          [top - a if j == i else 1 for j in range(nvars)]))
        cases.append(([a] * nvars, [top - a] * nvars))
    raised = 0
    for u, v in cases:
        f = R.from_terms([(u, 1), ([0] * nvars, 2)])
        g = R.from_terms([(v, 1), ([0] * nvars, 1)])
        raw = Polynomial(R, *K.mul(f.keys, f.packed, f.coeffs, g.keys, g.packed, g.coeffs, R.p))
        try:
            _check_exps(raw.exps)
        except ExponentOverflow:
            raised += 1
            for x, y in ((f, g), (g, f)):
                with pytest.raises(ExponentOverflow):
                    x * y
        else:
            assert f * g == g * f == raw
    assert raised == (len(cases) if top > EXP_LIMIT else 0)


def test_quotient_generators_rebind_across_orders():
    """A lex quotient ring given its generator in grevlex equals the one given
    it in lex, down to the sort keys of its terms."""
    names = ["U", "V"]
    for text in ("V^2+U^3", "V^3+U^2"):
        gens = [Ring(3, names, order).parse(text) for order in (GREVLEX, LEX)]
        from_grevlex, from_lex = (Ring(3, names, LEX, quotient=[g]) for g in gens)
        assert from_grevlex == from_lex
        assert from_grevlex.quotient[0].keys == from_lex.quotient[0].keys
    assert str(from_grevlex.quotient[0]) == "U^2 + V^3"


def _order(kind, nvars, k):
    return elim(min(k, nvars)) if kind == "elim" else MonomialOrder(kind)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.integers(1, 3), st.integers(1, 2), st.data())
def test_moved_matches_the_column_map_and_the_projection(p, n, k, data):
    """_moved with offset >= 0 is the column map i -> i + offset into n + k
    variables; with offset -j it is None when a term has one of the first j
    variables and the projection dropping them otherwise; with offset 0 into
    the same variables it is _rebind to another order.  Grevlex, lex and
    elim(k) rings on either side; the sort keys agree too."""
    offset = data.draw(st.integers(-k, k))
    kinds = st.sampled_from(("grevlex", "lex", "elim"))
    m = n + k if offset < 0 else n
    source = Ring(p, [f"X{i}" for i in range(m)], _order(data.draw(kinds), m, k))
    cols = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    terms = data.draw(st.lists(st.tuples(cols, st.integers(0, p - 1)), max_size=4))
    if offset < 0 and data.draw(st.booleans()):
        terms = [([0] * -offset + vec[-offset:], c) for vec, c in terms]
    f = source.from_terms(terms)
    width = n + k + min(offset, 0)
    target = Ring(p, [f"Y{i}" for i in range(width)], _order(data.draw(kinds), width, k))
    moved = f._moved(target, offset)
    if offset >= 0:
        expected = map_poly(f, target, range(offset, offset + n))
    elif any(any(vec[:-offset]) for vec in f.exps):
        expected = None
    else:
        expected = project(f, -offset, target)
    assert moved == expected
    if expected is not None:
        assert moved.keys == expected.keys
    other = Ring(p, source.vars, _order(data.draw(kinds), m, k))
    rebound, expected = f._rebind(other), map_poly(f, other, range(m))
    assert rebound == expected and rebound.keys == expected.keys


# -- ring laws ---------------------------------------------------------------


@st.composite
def small_polys(draw):
    ring = Ring(5, ["X", "Y"])
    nterms = draw(st.integers(0, 6))
    terms = []
    for _ in range(nterms):
        e1 = draw(st.integers(0, 4))
        e2 = draw(st.integers(0, max(0, 8 - e1)))
        c = draw(st.integers(0, 4))
        terms.append(((e1, e2), c))
    return ring.from_terms(terms)


@settings(max_examples=120, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + f.ring.zero() == f
    assert f * f.ring.one() == f
    assert (f - f).is_zero()


@settings(max_examples=80, deadline=None)
@given(small_polys(), small_polys())
def test_no_zero_coefficients_stored(f, g):
    for poly in (f + g, f * g, f - g, f.power(2)):
        assert all(poly.coeffs)
        assert len(poly.coeffs) == len({tuple(v) for v, _ in poly.terms()})


# -- orders ---------------------------------------------------------------------


def test_order_keys_are_total_multiplicative_with_one_minimal(rng):
    for order in (GREVLEX, LEX, elim(1), elim(2)):
        M = order.key_matrix(3)
        vecs = [np.array([rng.randint(0, 6) for _ in range(3)]) for _ in range(40)]
        keys = {tuple(v): tuple(v @ M) for v in vecs}
        one = tuple(np.zeros(3, dtype=int) @ M)
        for v in vecs:
            kv = keys[tuple(v)]
            if any(v):
                assert kv > one  # 1 is minimal
            for w in vecs:
                kw = keys[tuple(w)]
                if tuple(v) != tuple(w):
                    assert (kv > kw) or (kv < kw)  # total
                # multiplicative: adding u preserves comparisons
                u = np.array([1, 2, 0])
                if kv > kw:
                    assert tuple((v + u) @ M) > tuple((w + u) @ M)


def test_elim_order_separates_blocks():
    order = elim(1)
    M = order.key_matrix(2)
    x = np.array([1, 0]) @ M
    y_big = np.array([0, 9]) @ M
    assert tuple(x) > tuple(y_big)  # anything with the first variable dominates


@pytest.mark.parametrize("kind, block", [
    ("lex", 2), ("grevlex", -1), ("grevlex", True), ("elim", 0), ("elim", 1.5), ("elim", "2"),
    ("elim", None), ("lattice", 0),
])
def test_order_rejects_a_bad_kind_or_block(kind, block):
    with pytest.raises(InputError):
        MonomialOrder(kind, block)


def test_order_block_is_stored_as_an_int():
    for block in (True, np.int64(1)):
        order = MonomialOrder("elim", block)
        assert order == elim(1) and type(order.block) is int and str(order) == "elim(1)"


# -- text grammar ------------------------------------------------------------------


def test_parse_print_round_trip_examples():
    R = Ring(7, ["X", "Y"])
    for text in ["X^2*Y + 3*Y^4 - 1", "X", "5", "X*Y", "Y^4 + 6*X", "0"]:
        f = R.parse(text)
        assert R.parse(str(f)) == f


def test_parse_print_round_trip_random(rng):
    R = Ring(11, ["X", "Y", "Z"])
    for _ in range(40):
        f = rand_poly(R, rng, 5, 6, allow_zero=True)
        assert R.parse(str(f)) == f


def test_parse_whitespace_and_signs():
    R = Ring(7, ["X", "Y"])
    assert R.parse("  X ^ 2 * Y+3* Y^4-1 ") == R.parse("X^2*Y + 3*Y^4 - 1")
    assert R.parse("-X + Y") == R.parse("Y - X")
    assert R.parse("10") == R.constant(3)


def test_parse_parentheses():
    R = Ring(7, ["X", "Y"])
    assert R.parse("(X+Y)*(X-Y)") == R.parse("X^2 - Y^2")
    assert R.parse("-(X+1)*Y") == R.parse("-X*Y - Y")
    with pytest.raises(InputError, match=r"expected '\)'") as info:
        R.parse("(X+Y")
    assert info.value.location == "col 5"
    with pytest.raises(InputError, match="expected a coefficient, variable or '\\('") as info:
        R.parse("()")
    assert info.value.location == "col 2"


def test_parse_of_deep_nesting_is_an_input_error():
    """Nesting past the recursion limit is an input error naming it; a bad
    character anywhere in the text is still reported first."""
    R = Ring(7, ["X", "Y"])
    deep = "(" * 3000 + "X" + ")" * 3000
    with pytest.raises(InputError) as info:
        R.parse(deep)
    assert (str(info.value), info.value.message, info.value.location) == (
        "parentheses nested too deeply", "parentheses nested too deeply", None)
    with pytest.raises(InputError) as info:
        R.parse(deep + " + $")
    assert (info.value.message, info.value.location) == ("unexpected character '$'", "col 6005")
    assert R.parse("(" * 100 + "X + Y" + ")" * 100) == R.parse("X + Y")


def test_parse_errors_keep_their_bare_message():
    R = Ring(7, ["X", "Y"])
    with pytest.raises(InputError) as info:
        R.parse("X + Z")
    assert (str(info.value), info.value.message, info.value.location) == (
        "unknown variable 'Z' (at col 5)", "unknown variable 'Z'", "col 5")


def test_parse_errors_carry_location():
    R = Ring(7, ["X", "Y"])
    with pytest.raises(InputError, match="col"):
        R.parse("X + $")
    with pytest.raises(InputError, match="unknown variable"):
        R.parse("X + Z")
    with pytest.raises(InputError):
        R.parse("X^")
    with pytest.raises(InputError):
        R.parse("")


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))")


def _loop_tokenize(text):
    """The tokenizer as one match per position, the oracle for _tokenize."""
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise InputError(f"unexpected character {stripped[0]!r}", f"col {col}")
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return out


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except InputError as e:
        return str(e), e.location


# tokens, whitespace the two scans must skip alike (Unicode spaces and the
# separators str.isspace counts), and characters no token starts with
_TEXT = st.lists(st.sampled_from(["X", "y_1", "Z", "12", "0", "^", "*", "+", "-", "(", ")",
                                  " ", "  ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
                                  "\xa0", "\u2003", "\u3000", "$", "!", ".", "é", "²", "٣",
                                  "\x00", "{"]), max_size=14).map("".join)


@settings(max_examples=400, deadline=None)
@given(_TEXT, st.sampled_from(["", " ", "\t\n ", "\u3000"]))
def test_tokenize_matches_the_loop_over_positions(text, trailing):
    """One scan over the token pattern and a catch-all for a bad character
    gives the tokens, the message and the column of a match per position."""
    text += trailing
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_loop_tokenize, text)


# A sum is (leading sign, first term, [(op, term), ...]); a term is a list of
# factors; a factor is ("int", n), ("var", name, exponent or None) or
# ("paren", sum).
_VARS = ("X", "Y", "Z")


def _sums(factors):
    terms = st.lists(factors, min_size=1, max_size=3)
    return st.tuples(st.sampled_from(["", "+", "-"]), terms,
                     st.lists(st.tuples(st.sampled_from(["+", "-"]), terms), max_size=3))


_FACTORS = st.recursive(
    st.one_of(st.tuples(st.just("int"), st.integers(0, 40)),
              st.tuples(st.just("var"), st.sampled_from(_VARS), st.none() | st.integers(0, 5))),
    lambda inner: _sums(inner).map(lambda s: ("paren", s)), max_leaves=12)


def _tokens(tree):
    lead, first, rest = tree
    out = [lead] if lead else []
    for i, (op, term) in enumerate([("", first)] + rest):
        if i:
            out.append(op)
        for j, factor in enumerate(term):
            if j:
                out.append("*")
            if factor[0] == "int":
                out.append(str(factor[1]))
            elif factor[0] == "var":
                out += [factor[1]] if factor[2] is None else [factor[1], "^", str(factor[2])]
            else:
                out += ["(", *_tokens(factor[1]), ")"]
    return out


def _evaluate(R, tree):
    def factor(f):
        if f[0] == "int":
            return R.constant(f[1])
        if f[0] == "var":
            return R.var(f[1]) if f[2] is None else R.var(f[1]) ** f[2]
        return _evaluate(R, f[1])

    def term(factors):
        acc = factor(factors[0])
        for f in factors[1:]:
            acc = acc * factor(f)
        return acc

    lead, first, rest = tree
    acc = -term(first) if lead == "-" else term(first)
    for op, t in rest:
        acc = acc - term(t) if op == "-" else acc + term(t)
    return acc


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 5, 32003]), _sums(_FACTORS), st.data())
def test_parse_matches_the_grammar_evaluated_by_arithmetic(p, tree, data):
    R = Ring(p, _VARS)
    tokens = _tokens(tree)
    spaces = data.draw(st.lists(st.sampled_from(["", " ", "  ", "\t"]),
                                min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = spaces[0] + "".join(map(str.__add__, tokens, spaces[1:]))
    f, want = R.parse(text), _evaluate(R, tree)
    assert (f.keys, f.packed, f.coeffs) == (want.keys, want.packed, want.coeffs)
    assert R.parse(str(f)) == f


def test_parse_checks_exponents_where_the_product_overflows():
    R = Ring(7, ["X", "Y"])
    assert R.parse(f"X^{EXP_LIMIT}") == R.monomial([EXP_LIMIT, 0])
    for text in [f"X^{EXP_LIMIT + 1}", f"X^{EXP_LIMIT}*X", f"(X^{EXP_LIMIT} + 1)*X",
                 f"X*(X^{EXP_LIMIT} + Y)", f"(X^{EXP_LIMIT} + 1)*X*Z"]:
        with pytest.raises(ExponentOverflow):
            R.parse(text)
    assert R.parse(f"0*X^{EXP_LIMIT}*X + 7*X^{EXP_LIMIT}*X").is_zero()
    assert R.parse(f"(X - X)*X^{EXP_LIMIT}*X + Y") == R.var("Y")


# The parser before tokens became plain strings, the oracle for Ring.parse:
# tokens carry their kind and column, and each term builds an exponent row.
_ORACLE_TOKENS = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[A-Za-z_][A-Za-z0-9_]*)"
                            r"|(?P<op>[-+*^()])|(?P<bad>\S))")


def _oracle_tokenize(text):
    out = []
    for m in _ORACLE_TOKENS.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise InputError(f"unexpected character {m[kind]!r}", f"col {m.start(kind) + 1}")
        out.append((kind, m[kind], m.start(kind) + 1))
    return out


def _oracle_parse_sum(ring, tokens, pos):
    n, p = ring.nvars, ring.p
    terms = []
    sign = -1 if tokens[pos][1] == "-" else 1
    pos += tokens[pos][1] in ("+", "-")
    while True:
        row, c, poly, top = [0] * n, sign, None, [0] * n
        while True:
            kind, value, col = tokens[pos]
            pos += 1
            if kind == "int":
                c = c * int(value) % p
            elif kind == "var":
                i = ring._var_index.get(value)
                if i is None:
                    raise InputError(f"unknown variable {value!r}", f"col {col}")
                exp = 1
                if tokens[pos][1] == "^":
                    kind, value, col = tokens[pos + 1]
                    if kind != "int":
                        raise InputError("expected integer exponent after '^'", f"col {col}")
                    pos += 2
                    exp = int(value)
                    if exp > EXP_LIMIT:
                        raise ExponentOverflow(f"exponent {exp} exceeds {EXP_LIMIT}")
                row[i] += exp
                if c and row[i] + top[i] > EXP_LIMIT:
                    raise ExponentOverflow(f"exponent exceeds {EXP_LIMIT}")
            elif value == "(":
                inner, pos = _oracle_parse_sum(ring, tokens, pos)
                kind, value, col = tokens[pos]
                if value != ")":
                    raise InputError("expected ')'", f"col {col}")
                pos += 1
                head = ring.monomial(row, c)
                poly = (head if poly is None else poly * head) * inner
                row, c = [0] * n, int(not poly.is_zero())
                top = [max(column) for column in zip(*poly.exps)]
            else:
                raise InputError("expected a coefficient, variable or '('", f"col {col}")
            if tokens[pos][1] != "*":
                break
            pos += 1
        if poly is not None:
            poly = poly * ring.monomial(row, c)
            terms += zip(poly.keys, poly.packed, poly.coeffs)
        elif c:
            terms.append((ring.key_of(row), ring.pack(row), c % p))
        value = tokens[pos][1]
        if value not in ("+", "-"):
            lists = [list(column) for column in zip(*terms)] or [[], [], []]
            return Polynomial(ring, *(K.combine(*lists, p) if len(terms) > 1 else lists)), pos
        sign = -1 if value == "-" else 1
        pos += 1


def _oracle_parse(ring, text):
    tokens = _oracle_tokenize(text)
    if not tokens:
        raise InputError("empty polynomial", "col 1")
    tokens.append((None, None, len(text) + 1))
    result, pos = _oracle_parse_sum(ring, tokens, 0)
    kind, value, col = tokens[pos]
    if kind is not None:
        raise InputError(f"unexpected token {value!r}", f"col {col}")
    return result


def _outcome(parse, ring, text):
    """The term lists parse gives, or the type, message and location it raises."""
    try:
        f = parse(ring, text)
    except (InputError, ExponentOverflow) as e:
        return type(e), str(e), getattr(e, "location", None)
    return f.keys, f.packed, f.coeffs


# the grammar trees with exponents at and around EXP_LIMIT, so products overflow
_BIG_FACTORS = st.recursive(
    st.one_of(st.tuples(st.just("int"), st.sampled_from([0, 3, 10**30])),
              st.tuples(st.just("var"), st.sampled_from(["X", "Y"]),
                        st.sampled_from([None, 2**55, EXP_LIMIT - 1, EXP_LIMIT, EXP_LIMIT + 1]))),
    lambda inner: _sums(inner).map(lambda s: ("paren", s)), max_leaves=6)


def _tree_text(tree):
    """The tree's tokens, each after drawn whitespace."""
    tokens = _tokens(tree)
    return st.lists(st.sampled_from(["", " ", "\t"]), min_size=len(tokens),
                    max_size=len(tokens)).map(lambda spaces: "".join(map(str.__add__, spaces, tokens)))


_PARSE_TEXT = st.one_of(
    _sums(_FACTORS).flatmap(_tree_text), _TEXT,
    st.tuples(_TEXT, _sums(_BIG_FACTORS).flatmap(_tree_text), _TEXT).map("".join))


@settings(max_examples=400, deadline=1000)
@given(st.sampled_from([2, 5, 32003]), st.sampled_from([_VARS, ("X", "Y")]), _PARSE_TEXT)
@example(7, _VARS, f"X^{EXP_LIMIT + 1} + $")  # a bad character after an overflowing exponent
@example(7, _VARS, f"X^{EXP_LIMIT}*X $")
@example(7, _VARS, "X^ + Y + é")  # a parse error before a bad character
@example(7, _VARS, f"(X^{EXP_LIMIT} + Y)*(X + 1)")  # an overflow inside a parenthesised product
@example(7, ("X", "Y"), f"(Y*X^{EXP_LIMIT})*X*Z")
def test_parse_matches_the_column_tuple_parser(p, names, text):
    """Ring.parse gives the polynomial the column-tuple parser gives, or raises
    the same type, message and location."""
    R = Ring(p, names)
    assert _outcome(Ring.parse, R, text) == _outcome(_oracle_parse, R, text)


@pytest.mark.parametrize("digits", [5000, 10**5])
def test_parse_reads_integers_past_the_digit_limit(digits):
    """A token longer than int() reads is a coefficient reduced mod p, or an
    exponent above EXP_LIMIT unless its leading digits are zeros."""
    R = Ring(32003, ["X", "Y"])
    nines = "9" * digits
    assert R.parse(f"{nines}*X - Y") == R.monomial([1, 0], pow(10, digits, 32003) - 1) - R.var("Y")
    assert R.parse("0" * digits + "12*X^" + "0" * digits + "3") == R.monomial([3, 0], 12)
    with pytest.raises(ExponentOverflow, match=f"exponent of {digits} digits exceeds"):
        R.parse(f"X^{nines} + Y")


def test_printing_is_deterministic_and_descending():
    R = Ring(7, ["X", "Y"])
    f = R.parse("1 + Y^4 + X^2*Y")
    assert str(f) == "Y^4 + X^2*Y + 1"
