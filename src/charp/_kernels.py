"""Hot term kernels.

A polynomial's terms live in three parallel lists of Python ints: packed
sort keys, packed exponent vectors and coefficients in [1, p), kept
strictly descending by key.  These lists are the storage format and every
kernel takes and returns them.

A key is the monomial's key-matrix row (see orders.py) packed into one int
of signed big-endian 64-bit fields.  With at most 64 variables and
exponents up to EXP_LIMIT = 2^56 (see poly.py), every field lies within
+-2^62, so integer order is row-lexicographic key order, which is the
monomial order, and key equality is monomial equality.  An exponent vector packs into one
int of little-endian 64-bit fields: the total degree in field 0 and the
exponent of variable i in field i + 1.  Both packings are linear in the
exponents, so multiplying monomials adds their ints, a Frobenius power
multiplies them by p^e and a p-th root divides them by p.  Exponent fields
stay below 2^63, so with the guard bit 63 set in every field of b,
((b | guard) - a) & guard == guard exactly when a divides b: no field
borrows from the next.

The kernels below do the work that dominates Groebner-basis runtime:

* ``combine``      -- sort raw terms, merge duplicates mod p, drop zeros;
* ``axpy``         -- merge A + scale*B for two sorted term lists;
* ``mul``          -- full product of two term lists;
* ``normal_form``  -- complete division of a term list by a packed basis;
* ``s_normal_form``-- the same for the S-polynomial of two basis elements.

Polynomials here have few terms, so the kernels are plain loops over the
lists: a dict merges equal keys and ``sorted`` orders them.  Division
works one term at a time with a heap and a dict, so a reduction step is a
few integer operations per reducer term.  ``divisor`` prepares a basis
element once, so a basis in use is passed in that form, and an
S-polynomial is formed from two such encodings inside the kernel that
reduces it.  If a divides b, then key(a) <= key(b) in every monomial order,
so a term is tested only against the leads before the first suffix minimum
of the lead keys that exceeds its key; every lead from there on has a
larger key.  That bound holds for any basis order, so the first dividing
lead is still the one found.
"""

import struct
from bisect import bisect_right
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import accumulate

_FIELD = 64
_MASK = (1 << _FIELD) - 1
# bit 63 of each field of a ring of up to 64 variables (the degree and 64 exponents)
_GUARD = sum(1 << (_FIELD * j + 63) for j in range(65))
DEGREE = _MASK  # a packed exponent int & DEGREE is its total degree


def backend() -> str:
    """Name of the kernel implementation."""
    return "python-packed-int"


def units(rows):
    """The packed key and the packed exponent int of each variable, given
    the key-matrix rows: ``key_of(e)`` and ``pack(e)`` are dot products of
    e with them."""
    width = len(rows[0])
    keys = [sum(m << _FIELD * (width - 1 - j) for j, m in enumerate(row)) for row in rows]
    return keys, [1 | 1 << _FIELD * (i + 1) for i in range(len(rows))]


def guard_bits(nvars):
    """The guard bits of the fields of packed exponent ints in nvars variables."""
    return _GUARD & ((1 << _FIELD * (nvars + 1)) - 1)


def spread(value, nvars):
    """value in every exponent field of nvars variables, 0 in the degree field."""
    return value * (((1 << _FIELD * nvars) - 1) // _MASK) << _FIELD


def lcms(leads, e, nvars):
    """The packed lcm of e with each packed exponent int in leads.  The
    guard bit of a field of (a | guard) - e is set where a's exponent is the
    larger, which masks the field maximum out of a and e; the degree field
    is then the field sum, read off one multiply by a 1 in every field."""
    guard, ones, shift = guard_bits(nvars), spread(1, nvars), _FIELD * (nvars + 1)
    out = []
    for a in leads:
        t = ((a | guard) - e) & guard
        m = (e ^ (a ^ e) & (t - (t >> 63))) >> _FIELD << _FIELD
        out.append(m | ((m * ones) >> shift) & _MASK)
    return out


@cache
def _fields(nvars):
    return struct.Struct(f"<{nvars + 1}Q")


def unpack(e, nvars):
    """The exponent tuple of a packed exponent int in nvars variables."""
    fields = _fields(nvars)
    return fields.unpack(e.to_bytes(fields.size, "little"))[1:]


def exponent(e, i):
    """The exponent of variable i in a packed exponent int."""
    return e >> _FIELD * (i + 1) & _MASK


def combine(keys, exps, coeffs, p):
    """Sort raw terms descending, merge equal monomials mod p, drop zeros."""
    coef, expo = {}, dict(zip(keys, exps))
    for k, c in zip(keys, coeffs):
        coef[k] = coef.get(k, 0) + c
    out = sorted((k for k, c in coef.items() if c % p), reverse=True)
    return out, [expo[k] for k in out], [coef[k] % p for k in out]


def axpy(ka, ea, ca, kb, eb, cb, scale, p):
    """A + scale*B for two descending-sorted term lists."""
    scale = scale % p
    if scale == 0 or not kb:
        return ka, ea, ca
    return _combine(ka + kb, ea + eb, ca + [c * scale for c in cb], p)


def mul(ka, ea, ca, kb, eb, cb, p):
    """Product of two term lists.  A one-term factor shifts the other's
    terms, which keeps their order, and scales its coefficients, which
    leaves none zero: p is prime."""
    if len(kb) == 1:
        ka, ea, ca, kb, eb, cb = kb, eb, cb, ka, ea, ca
    if len(ka) == 1:
        return [ka[0] + x for x in kb], [ea[0] + x for x in eb], [ca[0] * x % p for x in cb]
    return _combine([x + y for x in ka for y in kb], [x + y for x in ea for y in eb],
                    [x * y for x in ca for y in cb], p)


def normal_form(kf, ef, cf, basis, p, max_terms, max_degree):
    """Fully divide a term list by a packed monic basis.

    ``basis`` holds ``divisor`` encodings in scan order: the largest
    remaining term is reduced by the first one whose lead divides it.
    Returns ``(keys, exps, coeffs, status)`` with status 0 on success, 1 when
    the intermediate term count passed ``max_terms``, 2 when a reduction step
    would pass ``max_degree``.
    """
    if not kf or not basis:
        return kf, ef, cf, 0
    heap = [-q for q in kf]  # ascending, so already a heap
    return _divide(dict(zip(kf, cf)), dict(zip(kf, ef)), heap, basis, p, max_terms, max_degree)


def s_normal_form(f, g, key, exp, basis, p, max_terms, max_degree):
    """``normal_form`` of the S-polynomial of the ``divisor`` encodings f
    and g, whose leads have the lcm of packed key ``key`` and packed
    exponents ``exp``: f's tail shifted to that lcm, minus g's tail shifted
    to it.  The leads cancel, so neither is formed.  As for any input, the
    term count is checked only after a reduction step."""
    dk, de = key - f[0], exp - f[1]
    shifted = [tk + dk for tk in f[3]]
    coef, expo = dict(zip(shifted, f[5])), dict(zip(shifted, [te + de for te in f[4]]))
    dk, de = key - g[0], exp - g[1]
    for tk, te, tc in zip(g[3], g[4], g[5]):
        r = tk + dk
        c = (coef.get(r, 0) - tc) % p
        if c:
            coef[r] = c
            expo[r] = te + de
        else:
            del coef[r]
    if not coef:
        return [], [], [], 0
    heap = [-q for q in coef]
    heapify(heap)
    return _divide(coef, expo, heap, basis, p, max_terms, max_degree)


def _divide(coef, expo, heap, basis, p, max_terms, max_degree):
    """The division loop of both entries.  Pending terms live in a dict
    from packed key to coefficient, ordered by a max-heap of negated keys;
    a key whose term cancelled stays in the heap and is skipped when it
    comes up.  A reduction step costs one integer addition per reducer term
    for the key, one for the exponents and one multiply-add for the
    coefficient."""
    leads = [d[1] for d in basis]
    bound = list(accumulate(reversed([d[0] for d in basis]), min))[::-1]  # suffix minima
    # guard the fields up to the top one any lead uses: every lead is zero
    # above it, so the test stays exact, and short ints keep it cheap
    nfields = -(-max(leads).bit_length() // _FIELD)
    guard = _GUARD & ((1 << _FIELD * nfields) - 1)
    rem_k, rem_e, rem_c = [], [], []
    while heap:
        q = -heappop(heap)
        c = coef.pop(q, None)
        if c is None:
            continue
        e = expo[q]
        probe = e | guard
        for g in range(bisect_right(bound, q)):
            if (probe - leads[g]) & guard == guard:
                break
        else:
            rem_k.append(q)
            rem_e.append(e)
            rem_c.append(c)
            continue
        lead_k, lead_e, excess, tail_k, tail_e, tail_c = basis[g]
        if (e & _MASK) + excess > max_degree:
            return [], [], [], 2
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
        if len(rem_c) + len(coef) > max_terms:
            return [], [], [], 1
    return rem_k, rem_e, rem_c, 0


def divisor(keys, exps, coeffs):
    """A monic term list in the form ``normal_form`` divides by:
    ``(lead key, lead exponents, degree excess, tail keys, tail exponents,
    tail coefficients)``, where the excess is the total degree minus the
    lead's.  The tails are lists: tuples of many lengths freed together
    would fill the interpreter's per-length tuple free lists, which only a
    full garbage collection empties."""
    return (keys[0], exps[0], max(e & _MASK for e in exps) - (exps[0] & _MASK),
            keys[1:], exps[1:], coeffs[1:])


# Kernels call combine through this alias, so wrapping the public name (as a
# tracer does) sees only the calls made from outside this module.
_combine = combine
