"""Hot term-array kernels, written once in numpy.

A polynomial's terms live in three parallel arrays: an (nterms, nvars) int64
exponent matrix, an (nterms,) int64 coefficient vector with entries in
[1, p), and an (nterms, keywidth) int64 sort-key matrix (see orders.py).
Keys are linear in the exponents, so multiplying monomials adds key rows and
shifting a whole polynomial adds one key row to all of them.  Terms are kept
strictly descending in row-lexicographic key order; key equality is monomial
equality.

The kernels below do the work that dominates Groebner-basis runtime:

* ``combine``      -- sort raw terms, merge duplicates mod p, drop zeros;
* ``axpy``         -- merge A + scale*B for two sorted term lists;
* ``mul``          -- full product of two term lists;
* ``normal_form``  -- complete division of a term list by a packed basis.
"""

import numpy as np


def backend() -> str:
    """Name of the kernel implementation."""
    return "numpy"


def combine(keys, exps, coeffs, p):
    """Sort raw terms descending, merge equal monomials mod p, drop zeros."""
    n = keys.shape[0]
    if n == 0:
        return keys, exps, coeffs
    # descending row-lex order of the key rows, column 0 primary
    order = np.lexsort(keys.T[::-1])[::-1] if n > 1 else np.zeros(1, np.int64)
    sk = keys[order]
    sc = coeffs[order] % p
    if n == 1:
        starts = np.array([0], dtype=np.int64)
    else:
        new_run = np.empty(n, dtype=bool)
        new_run[0] = True
        new_run[1:] = np.any(sk[1:] != sk[:-1], axis=1)
        starts = np.nonzero(new_run)[0]
    sums = np.add.reduceat(sc, starts) % p
    keep = sums != 0
    idx = order[starts[keep]]
    return keys[idx], exps[idx], sums[keep]


def axpy(ka, ea, ca, kb, eb, cb, scale, p):
    """A + scale*B for two descending-sorted term lists."""
    scale = scale % p
    if scale == 0 or kb.shape[0] == 0:
        return ka, ea, ca
    keys = np.concatenate((ka, kb))
    exps = np.concatenate((ea, eb))
    coeffs = np.concatenate((ca, (cb * scale) % p))
    return _combine(keys, exps, coeffs, p)


def mul(ka, ea, ca, kb, eb, cb, p):
    """Product of two term lists."""
    na, nb = ka.shape[0], kb.shape[0]
    if na == 0 or nb == 0:
        return ka[:0], ea[:0], ca[:0]
    keys = (ka[:, None, :] + kb[None, :, :]).reshape(na * nb, ka.shape[1])
    exps = (ea[:, None, :] + eb[None, :, :]).reshape(na * nb, ea.shape[1])
    coeffs = (ca[:, None] * cb[None, :]).reshape(na * nb) % p
    return _combine(keys, exps, coeffs, p)


def normal_form(kf, ef, cf, bkeys, bexps, bcoeffs, bstarts, bmaxdeg, p, max_terms, max_degree):
    """Fully divide a term list by a packed monic basis.

    The basis arrays hold the concatenated terms of every divisor, each block
    sorted descending and starting with its (monic) lead; ``bstarts`` bounds
    the blocks, ``bmaxdeg`` holds each block's maximal total degree.  Returns
    ``(keys, exps, coeffs, status)`` with status 0 on success, 1 when the
    intermediate term count passed ``max_terms``, 2 when a reduction step
    would pass ``max_degree``.
    """
    leads = bexps[bstarts[:-1]]
    keys, exps, coeffs = kf, ef, cf
    r = 0
    while r < coeffs.shape[0]:
        hits = np.nonzero(np.all(leads <= exps[r], axis=1))[0]
        if len(hits) == 0:
            r += 1
            continue
        g = int(hits[0])
        lo, hi = int(bstarts[g]), int(bstarts[g + 1])
        shift_e = exps[r] - bexps[lo]
        if int(shift_e.sum()) + int(bmaxdeg[g]) > max_degree:
            return keys[:0], exps[:0], coeffs[:0], 2
        shift_k = keys[r] - bkeys[lo]
        scale = (p - coeffs[r]) % p
        tk, te, tc = _axpy(
            keys[r:], exps[r:], coeffs[r:],
            bkeys[lo:hi] + shift_k, bexps[lo:hi] + shift_e, bcoeffs[lo:hi],
            scale, p,
        )
        keys = np.concatenate((keys[:r], tk))
        exps = np.concatenate((exps[:r], te))
        coeffs = np.concatenate((coeffs[:r], tc))
        if coeffs.shape[0] > max_terms:
            return keys[:0], exps[:0], coeffs[:0], 1
    return keys, exps, coeffs, 0


# Kernels call each other through these aliases, so wrapping a public name
# (as a tracer does) sees only the calls made from outside this module.
_combine, _axpy = combine, axpy
