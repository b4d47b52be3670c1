"""The term kernels against a pure-Python oracle.

A term list is modelled as a dict from exponent tuple to coefficient mod p
with no zero entries; every kernel output must be exactly that dict, laid out
strictly descending in the ring's order.  The expected order comes from the
key-matrix rows, not from the packed keys under test.
"""

from hypothesis import example, given, settings, strategies as st

from charp import Ring
from charp import _kernels as K
from charp.orders import GREVLEX, LEX, elim
from charp.poly import EXP_LIMIT

from conftest import cusp_ring

P = 5
VARS = ["X", "Y", "Z"]
RINGS = [Ring(P, VARS, order) for order in (GREVLEX, LEX, elim(1))]

exponents = st.tuples(*[st.integers(0, 2)] * len(VARS))
raw_terms = st.lists(st.tuples(exponents, st.integers(0, 3 * P - 1)), max_size=12)


def term_dicts(min_size=0, max_size=5):
    return st.dictionaries(exponents, st.integers(1, P - 1), min_size=min_size, max_size=max_size)


def _key(ring, e):
    """The key-matrix row of exponent vector e."""
    return tuple(sum(x * m for x, m in zip(e, col))
                 for col in zip(*ring.order.key_matrix(ring.nvars)))


def _lists(ring, d):
    """Kernel layout of an oracle dict: (keys, exps, coeffs), descending."""
    terms = sorted(d.items(), key=lambda t: _key(ring, t[0]), reverse=True)
    return ([ring.key_of(e) for e, _ in terms], [ring.pack(e) for e, _ in terms],
            [c for _, c in terms])


def _assert_matches(ring, out, d):
    keys, exps, coeffs = out[:3]
    want = sorted(d.items(), key=lambda t: _key(ring, t[0]), reverse=True)
    assert [ring.unpack(e) for e in exps] == [e for e, _ in want]
    assert coeffs == [c for _, c in want]
    assert keys == [ring.key_of(e) for e, _ in want]


def _add(d, e, c):
    c = (d.get(e, 0) + c) % P
    if c:
        d[e] = c
    else:
        d.pop(e, None)


def _oracle_combine(terms):
    d = {}
    for e, c in terms:
        _add(d, e, c)
    return d


def _oracle_axpy(a, b, scale):
    d = dict(a)
    for e, c in b.items():
        _add(d, e, c * scale)
    return d


def _oracle_mul(a, b):
    d = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _add(d, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return d


def _monic(ring, d):
    lead = max(d, key=lambda e: _key(ring, e))
    inv = pow(d[lead], -1, P)
    return lead, {e: c * inv % P for e, c in d.items()}


def _oracle_normal_form(ring, f, basis, max_terms, max_degree):
    """Textbook division by the first basis element whose lead divides the
    current lead, with the kernel's budget checks.  Returns (remainder, status)."""
    rem, todo = {}, dict(f)
    while todo:
        m = max(todo, key=lambda e: _key(ring, e))
        for lead, g in basis:
            if all(x >= y for x, y in zip(m, lead)):
                shift = tuple(x - y for x, y in zip(m, lead))
                if sum(shift) + max(sum(e) for e in g) > max_degree:
                    return {}, 2
                c = todo[m]
                for e, gc in g.items():
                    _add(todo, tuple(x + y for x, y in zip(e, shift)), -c * gc)
                break
        else:
            rem[m] = todo.pop(m)
            continue
        if len(rem) + len(todo) > max_terms:
            return {}, 1
    return rem, 0


def _pack(ring, basis):
    return tuple(K.divisor(*_lists(ring, g)) for _, g in basis)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), raw_terms, st.data())
def test_combine_matches_oracle(ring, terms, data):
    # append the negation of some terms so that whole monomials cancel
    flips = data.draw(st.lists(st.sampled_from(terms), max_size=4) if terms else st.just([]))
    terms = terms + [(e, -c % P) for e, c in flips]
    out = K.combine([ring.key_of(e) for e, _ in terms], [ring.pack(e) for e, _ in terms],
                    [c for _, c in terms], P)
    _assert_matches(ring, out, _oracle_combine(terms))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), term_dicts(), term_dicts(), st.integers(0, 2 * P))
def test_axpy_matches_oracle(ring, a, b, scale):
    out = K.axpy(*_lists(ring, a), *_lists(ring, b), scale, P)
    _assert_matches(ring, out, _oracle_axpy(a, b, scale))
    # B = A scaled by -1 cancels every term
    _assert_matches(ring, K.axpy(*_lists(ring, a), *_lists(ring, a), P - 1, P), {})


# a one-term factor takes the shift route of mul, on either side
_factors = st.one_of(term_dicts(min_size=1, max_size=1), term_dicts())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), _factors, _factors)
@example(RINGS[0], {(2, 0, 1): 3}, {(0, 1, 0): 4, (1, 0, 0): 2, (0, 0, 0): 1})
@example(RINGS[1], {(0, 2, 1): 1, (1, 0, 0): 2}, {(1, 1, 0): 4})
@example(RINGS[2], {(1, 0, 2): 2}, {(0, 2, 0): 3})
@example(RINGS[2], {(1, 0, 2): 2}, {})
def test_mul_matches_oracle(ring, a, b):
    out = K.mul(*_lists(ring, a), *_lists(ring, b), P)
    _assert_matches(ring, out, _oracle_mul(a, b))


def _normal_form(ring, f, basis, max_terms, max_degree):
    basis = [_monic(ring, g) for g in basis]
    out = K.normal_form(*_lists(ring, f), _pack(ring, basis), P, max_terms, max_degree)
    want, status = _oracle_normal_form(ring, f, basis, max_terms, max_degree)
    assert out[3] == status
    _assert_matches(ring, out, want)
    return status


# X*Y under (X^2 + 2*Z, X + 3*Y): X^2 has a larger key than X*Y in every
# order here, and the X after it divides X*Y, so a scan that stops at the
# first lead with a larger key than the term leaves X*Y unreduced
SCAN_PAST_A_LARGER_LEAD = ({(1, 1, 0): 1}, [{(2, 0, 0): 1, (0, 0, 1): 2},
                                            {(1, 0, 0): 1, (0, 1, 0): 3}])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RINGS), term_dicts(max_size=6),
       st.lists(term_dicts(min_size=1, max_size=3), min_size=1, max_size=3),
       st.integers(0, 12), st.integers(0, 8))
@example(RINGS[0], *SCAN_PAST_A_LARGER_LEAD, 12, 8)
@example(RINGS[1], *SCAN_PAST_A_LARGER_LEAD, 12, 8)
@example(RINGS[2], *SCAN_PAST_A_LARGER_LEAD, 12, 8)
def test_normal_form_matches_oracle(ring, f, basis, max_terms, max_degree):
    _normal_form(ring, f, basis, max_terms, max_degree)
    _normal_form(ring, f, basis, 10**6, 10**6)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), term_dicts(max_size=6),
       st.lists(term_dicts(min_size=1, max_size=3), min_size=1, max_size=3),
       st.integers(2**38, 2**39), st.integers(0, 12), st.integers(0, 2**42))
def test_normal_form_matches_oracle_on_exponents_up_to_2_40(ring, f, basis, scale, max_terms,
                                                            max_degree):
    """Every exponent times one scale near 2^39: packed key and exponent
    fields carry and borrow well above 32 bits.  A common scale keeps
    divisibility, products and each order's comparisons, so division takes
    as many steps as on the small exponents."""
    def scaled(d):
        return {tuple(x * scale for x in e): c for e, c in d.items()}

    f, basis = scaled(f), [scaled(g) for g in basis]
    _normal_form(ring, f, basis, max_terms, max_degree)
    _normal_form(ring, f, basis, 10**6, 2**62)


def _monic_polys(ring):
    """Monic polynomials of ring with up to four terms, exponents at most 2."""
    exps = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    terms = st.dictionaries(exps, st.integers(1, ring.p - 1), min_size=1, max_size=4)

    def monic(d):
        f = ring.from_terms(d.items())
        inv = pow(f.coeffs[0], -1, ring.p)
        return ring.from_terms((e, c * inv) for e, c in f.terms())

    return terms.map(monic)


def _shifted(f, key, exp):
    dk, de = key - f.keys[0], exp - f.packed[0]
    return [k + dk for k in f.keys], [e + de for e in f.packed], f.coeffs


def test_s_normal_form_matches_axpy_then_normal_form():
    """The S-pair entry against the path it replaces: the S-polynomial as
    the axpy of the two shifted polynomials, then ``normal_form``.  The
    basis holds f and g, as the engine's does, in any order, and in the
    cusp ring its quotient generator too.  The limits are drawn so that
    every status occurs."""
    statuses = set()

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(RINGS + [cusp_ring()]), st.data(), st.integers(0, 12),
           st.integers(0, 8))
    def check(ring, data, max_terms, max_degree):
        polys = _monic_polys(ring)
        f, g = data.draw(polys, label="f"), data.draw(polys, label="g")
        others = data.draw(st.lists(polys, max_size=2), label="others")
        basis = data.draw(st.permutations([f, g, *others, *ring.quotient]), label="basis")
        lcm = tuple(map(max, f.exps[0], g.exps[0]))
        key, exp = ring.key_of(lcm), ring.pack(lcm)
        packed = [K.divisor(h.keys, h.packed, h.coeffs) for h in basis]
        s = K.axpy(*_shifted(f, key, exp), *_shifted(g, key, exp), ring.p - 1, ring.p)
        for limits in ((max_terms, max_degree), (10**6, 10**6)):
            want = K.normal_form(*s, packed, ring.p, *limits)
            got = K.s_normal_form(K.divisor(f.keys, f.packed, f.coeffs),
                                  K.divisor(g.keys, g.packed, g.coeffs),
                                  key, exp, packed, ring.p, *limits)
            assert got == want
            statuses.add(got[3])

    check()
    assert statuses == {0, 1, 2}


def test_normal_form_budget_statuses():
    ring = RINGS[0]
    f = {(2, 0, 0): 1}
    basis = [{(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}]  # X + Y + Z
    assert _normal_form(ring, f, basis, 10**6, 10**6) == 0
    assert _normal_form(ring, f, basis, 1, 10**6) == 1  # X^2 -> -XY - XZ
    assert _normal_form(ring, f, basis, 10**6, 1) == 2  # the step X*(X+Y+Z) has degree 2


def test_empty_inputs_all_kernels():
    R = Ring(3, ["X", "Y"])
    z = R.zero()
    one = R.one()
    assert (z + z).is_zero()
    assert (z * one).is_zero()
    assert (one - one).is_zero()
    assert K.combine(z.keys, z.packed, z.coeffs, 3) == ([], [], [])


# -- packed monomials at the limits ---------------------------------------------


def _exponent_vectors(n):
    value = st.one_of(st.just(0), st.just(EXP_LIMIT), st.integers(0, EXP_LIMIT))
    return st.lists(value, min_size=n, max_size=n)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_keys_follow_key_rows_up_to_64_variables(data):
    """Packed keys order monomials as their key-matrix rows do, in rings of
    up to 64 variables with exponents up to EXP_LIMIT, and packed exponents
    unpack to the vector.  b is a with a few entries redrawn, so rows that
    first differ deep in the key come up often."""
    n = data.draw(st.integers(1, 64), label="nvars")
    order = data.draw(st.sampled_from([GREVLEX, LEX]) | st.integers(1, n).map(elim),
                      label="order")
    ring = Ring(P, [f"x{i}" for i in range(n)], order)
    a = data.draw(_exponent_vectors(n), label="a")
    b = list(a)
    for i, v in data.draw(st.lists(st.tuples(st.integers(0, n - 1), _exponent_vectors(1)),
                                   max_size=3), label="changes"):
        b[i] = v[0]
    for u, v in ((a, b), (b, a)):
        assert (ring.key_of(u) < ring.key_of(v)) == (_key(ring, u) < _key(ring, v))
    assert (ring.key_of(a) == ring.key_of(b)) == (a == b)
    assert ring.unpack(ring.pack(a)) == tuple(a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lcms_match_exponent_maxima_up_to_64_variables(data):
    """The packed lcms are the packed exponent-wise maxima, degree included,
    in rings of up to 64 variables with exponents up to EXP_LIMIT."""
    n = data.draw(st.sampled_from([1, 2, 3, 64]), label="nvars")
    ring = Ring(P, [f"x{i}" for i in range(n)])
    leads = data.draw(st.lists(_exponent_vectors(n), max_size=4), label="leads")
    e = data.draw(_exponent_vectors(n), label="e")
    assert K.lcms([ring.pack(a) for a in leads], ring.pack(e), n) == [
        ring.pack(list(map(max, a, e))) for a in leads]
