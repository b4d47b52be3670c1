"""Hot term kernels.

A polynomial's terms live in three parallel arrays: an (nterms, nvars) int64
exponent matrix, an (nterms,) int64 coefficient vector with entries in
[1, p), and an (nterms, keywidth) int64 sort-key matrix (see orders.py).
Keys are linear in the exponents, so multiplying monomials adds key rows and
shifting a whole polynomial adds one key row to all of them.  Terms are kept
strictly descending in row-lexicographic key order; key equality is monomial
equality.  These arrays are the storage format and every kernel takes and
returns them.

The kernels below do the work that dominates Groebner-basis runtime:

* ``combine``      -- sort raw terms, merge duplicates mod p, drop zeros;
* ``axpy``         -- merge A + scale*B for two sorted term lists;
* ``mul``          -- full product of two term lists;
* ``normal_form``  -- complete division of a term list by a packed basis.

The first three are numpy operations on whole arrays.  Division works one
term at a time, where numpy's per-call cost would dominate, so
``normal_form`` packs each monomial into Python ints (see "packed
monomials" below) and divides with a heap and a dict: a reduction step is a
few integer operations per reducer term.  ``divisor`` packs a basis element
once, so a basis in use is passed in packed form.
"""

from heapq import heappop, heappush

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


def normal_form(kf, ef, cf, basis, p, max_terms, max_degree):
    """Fully divide a term list by a packed monic basis.

    ``basis`` holds ``divisor`` encodings in scan order: the largest
    remaining term is reduced by the first one whose lead divides it.
    Returns ``(keys, exps, coeffs, status)`` with status 0 on success, 1 when
    the intermediate term count passed ``max_terms``, 2 when a reduction step
    would pass ``max_degree``.

    Pending terms live in a dict from packed key to coefficient, ordered by a
    max-heap of packed keys; a key whose term cancelled stays in the heap and
    is skipped when it comes up.  A reduction step costs one integer
    addition per reducer term for the key, one for the exponents and one
    multiply-add for the coefficient.
    """
    nterms, nvars = ef.shape
    if nterms == 0 or not basis:
        return kf, ef, cf, 0
    guard = _guard(nvars)
    deg_shift = _FIELD * nvars
    leads = [d[1] for d in basis]
    keys = _pack_keys(kf)
    coef = dict(zip(keys, cf.tolist()))
    expo = dict(zip(keys, _pack_exps(ef)))
    heap = [-q for q in keys]  # ascending, so already a heap
    rem_k, rem_e, rem_c = [], [], []
    stepped = False
    while heap:
        q = -heappop(heap)
        c = coef.pop(q, None)
        if c is None:
            continue
        e = expo[q]
        probe = e | guard
        for g, lead_e in enumerate(leads):
            if (probe - lead_e) & guard == guard:
                break
        else:
            rem_k.append(q)
            rem_e.append(e)
            rem_c.append(c)
            continue
        lead_k, lead_e, excess, tail_k, tail_e, tail_c = basis[g]
        if (e >> deg_shift) + excess > max_degree:
            return kf[:0], ef[:0], cf[:0], 2
        dk, de, scale = q - lead_k, e - lead_e, p - c
        for tk, te, tc in zip(tail_k, tail_e, tail_c):
            r = tk + dk
            old = coef.get(r)
            if old is None:
                coef[r] = scale * tc % p
                expo[r] = te + de
                heappush(heap, -r)
            else:
                old = (old + scale * tc) % p
                if old:
                    coef[r] = old
                else:
                    del coef[r]
        stepped = True
        if len(rem_c) + len(coef) > max_terms:
            return kf[:0], ef[:0], cf[:0], 1
    if not stepped:
        return kf, ef, cf, 0
    return _unpack_keys(rem_k, kf.shape[1]), _unpack_exps(rem_e, nvars), np.array(rem_c, np.int64), 0


# -- packed monomials ---------------------------------------------------------
#
# A key row packs into one int of big-endian 64-bit fields, each offset by
# 2^63, so integer order is row-lexicographic key order (the monomial order)
# and, keys being linear, multiplying by a monomial adds one integer.  An
# exponent row and its total degree pack into one int of little-endian
# 64-bit fields, the degree on top.  Fields stay below 2^63, so with a guard
# bit set on top of every field of b, ((b | guard) - a) & guard == guard
# exactly when a divides b: no field borrows from the next.

_FIELD = 64
_SIGN = 1 << 63


def _guard(nvars):
    return sum(_SIGN << (_FIELD * j) for j in range(nvars + 1))


def _pack_keys(keys):
    step = 8 * keys.shape[1]
    buf = (keys.view(np.uint64) ^ np.uint64(_SIGN)).astype(">u8").tobytes()
    return [int.from_bytes(buf[i:i + step], "big") for i in range(0, len(buf), step)]


def _pack_exps(exps):
    rows = np.empty((exps.shape[0], exps.shape[1] + 1), "<i8")
    rows[:, :-1] = exps
    rows[:, -1] = exps.sum(axis=1)
    step = 8 * rows.shape[1]
    buf = rows.tobytes()
    return [int.from_bytes(buf[i:i + step], "little") for i in range(0, len(buf), step)]


def _unpack_keys(packed, width):
    buf = b"".join(q.to_bytes(8 * width, "big") for q in packed)
    fields = np.frombuffer(buf, ">u8").astype(np.uint64) ^ np.uint64(_SIGN)
    return fields.view(np.int64).reshape(len(packed), width)


def _unpack_exps(packed, nvars):
    buf = b"".join(e.to_bytes(8 * (nvars + 1), "little") for e in packed)
    rows = np.frombuffer(buf, "<i8").reshape(len(packed), nvars + 1)
    return rows[:, :-1].astype(np.int64)


def divisor(keys, exps, coeffs):
    """A monic term list in the packed form ``normal_form`` divides by:
    ``(lead key, lead exponents, degree excess, tail keys, tail exponents,
    tail coefficients)``, where the excess is the total degree minus the
    lead's.  The tails are lists: tuples of many lengths freed together
    would fill the interpreter's per-length tuple free lists, which only a
    full garbage collection empties."""
    packed_k = _pack_keys(keys)
    packed_e = _pack_exps(exps)
    degs = exps.sum(axis=1)
    return (packed_k[0], packed_e[0], int(degs.max() - degs[0]),
            packed_k[1:], packed_e[1:], coeffs[1:].tolist())


# Kernels call combine through this alias, so wrapping the public name (as a
# tracer does) sees only the calls made from outside this module.
_combine = combine
