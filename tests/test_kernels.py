"""The term kernels against a pure-Python oracle.

A term list is modelled as a dict from exponent tuple to coefficient mod p
with no zero entries; every kernel output must be exactly that dict, laid out
strictly descending in the ring's order.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from charp import Ring
from charp import _kernels as K
from charp.orders import GREVLEX, LEX, elim

P = 5
VARS = ["X", "Y", "Z"]
RINGS = [Ring(P, VARS, order) for order in (GREVLEX, LEX, elim(1))]

exponents = st.tuples(*[st.integers(0, 2)] * len(VARS))
raw_terms = st.lists(st.tuples(exponents, st.integers(0, 3 * P - 1)), max_size=12)


def term_dicts(min_size=0, max_size=5):
    return st.dictionaries(exponents, st.integers(1, P - 1), min_size=min_size, max_size=max_size)


def _key(ring, e):
    return tuple(ring.keys_of(np.array([e], np.int64))[0].tolist())


def _arrays(ring, d):
    """Kernel layout of an oracle dict: (keys, exps, coeffs), descending."""
    terms = sorted(d.items(), key=lambda t: _key(ring, t[0]), reverse=True)
    exps = np.array([e for e, _ in terms], np.int64).reshape(len(terms), len(VARS))
    coeffs = np.array([c for _, c in terms], np.int64)
    return ring.keys_of(exps), exps, coeffs


def _assert_matches(ring, out, d):
    keys, exps, coeffs = out[:3]
    want_keys, want_exps, want_coeffs = _arrays(ring, d)
    assert exps.tolist() == want_exps.tolist()
    assert coeffs.tolist() == want_coeffs.tolist()
    assert keys.tolist() == want_keys.tolist()


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
    return tuple(K.divisor(*_arrays(ring, g)) for _, g in basis)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), raw_terms, st.data())
def test_combine_matches_oracle(ring, terms, data):
    # append the negation of some terms so that whole monomials cancel
    flips = data.draw(st.lists(st.sampled_from(terms), max_size=4) if terms else st.just([]))
    terms = terms + [(e, -c % P) for e, c in flips]
    exps = np.array([e for e, _ in terms], np.int64).reshape(len(terms), len(VARS))
    coeffs = np.array([c for _, c in terms], np.int64)
    out = K.combine(ring.keys_of(exps), exps, coeffs, P)
    _assert_matches(ring, out, _oracle_combine(terms))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), term_dicts(), term_dicts(), st.integers(0, 2 * P))
def test_axpy_matches_oracle(ring, a, b, scale):
    out = K.axpy(*_arrays(ring, a), *_arrays(ring, b), scale, P)
    _assert_matches(ring, out, _oracle_axpy(a, b, scale))
    # B = A scaled by -1 cancels every term
    _assert_matches(ring, K.axpy(*_arrays(ring, a), *_arrays(ring, a), P - 1, P), {})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), term_dicts(), term_dicts())
def test_mul_matches_oracle(ring, a, b):
    out = K.mul(*_arrays(ring, a), *_arrays(ring, b), P)
    _assert_matches(ring, out, _oracle_mul(a, b))


def _normal_form(ring, f, basis, max_terms, max_degree):
    basis = [_monic(ring, g) for g in basis]
    out = K.normal_form(*_arrays(ring, f), _pack(ring, basis), P, max_terms, max_degree)
    want, status = _oracle_normal_form(ring, f, basis, max_terms, max_degree)
    assert out[3] == status
    _assert_matches(ring, out, want)
    return status


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RINGS), term_dicts(max_size=6),
       st.lists(term_dicts(min_size=1, max_size=3), min_size=1, max_size=3),
       st.integers(0, 12), st.integers(0, 8))
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
    ke, ee, ce = K.combine(z.keys, z.exps, z.coeffs, 3)
    assert ce.shape == (0,)
