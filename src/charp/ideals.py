"""Ideal arithmetic on top of Buchberger's algorithm.

Reduced Groebner bases are unique for a fixed order, so ideal equality is
equality of canonical bases.  In a quotient ring F_p[X]/J an Ideal always
stands for its full preimage: J's generators take part in every basis
computation implicitly, which keeps Frobenius roots and membership uniform
across plain and quotient rings.

Monomial ideals get dedicated fast paths (membership by divisibility,
intersection by lcm, quotient by exponent subtraction, and a basis engine
route that forms no S-polynomial but counts the pairs Buchberger's would).
The input picks the route; the test suite cross-checks each fast path against
the Buchberger route, calling ``normal_form``, ``_intersection``, ``_colon``
and ``_Buchberger._pair_loop`` directly.

One auxiliary ring serves intersection, colon, saturation and the p-power
root: the cover of the ring with k variables T_i in front, under elim(k)
(``_aux_cover``).  Intersection eliminates T from T*I + (1 - T)*J,
saturation eliminates T from I + (1 - T*g), the colon divides by g as a
normal form modulo T*g - 1, and the root takes one T_i per variable.

The Groebner budget lives here and nowhere else.  Callers enter a scope
with ``using_budget(budget)``; each basis computation reads the active
budget when it starts (pair and degree limits) and each normal form reads
it for its term and degree limits.  Outside any scope the active budget is
DEFAULT_BUDGET.

Each Ring keeps the last _BASES_KEPT reduced bases it computed, keyed by
generators and budget.  A recalled basis charges pair_count the pairs its own
computation processed, so counts do not depend on what the ring, or another
thread sharing it, computed before.
"""

from __future__ import annotations

import bisect
import contextvars
import heapq
import itertools
import math
from contextlib import contextmanager
from functools import reduce
from operator import itemgetter, le, mul
from typing import Iterable, Sequence

from . import _kernels as K
from .errors import CharpError, ExponentOverflow, GroebnerBudgetExceeded, InputError
from .orders import FrozenRecord, as_index, elim
from .poly import EXP_LIMIT, Polynomial, Ring

pair_count = 0  # pairs of every basis computed or recalled; it only grows, callers read differences
_BASES_KEPT = 256  # reduced bases each Ring remembers


class GroebnerBudget(FrozenRecord):
    __slots__ = ("max_pairs", "max_poly_terms", "max_degree")

    def __init__(self, max_pairs: int = 200_000, max_poly_terms: int = 100_000,
                 max_degree: int = 4096):
        fields = [as_index(v, "budget field", 1) for v in (max_pairs, max_poly_terms, max_degree)]
        super().__init__(*fields)


DEFAULT_BUDGET = GroebnerBudget()
_budget = contextvars.ContextVar("charp_groebner_budget", default=DEFAULT_BUDGET)


@contextmanager
def using_budget(budget: GroebnerBudget):
    """Run every Groebner computation in the enclosed block under ``budget``.

    The scope belongs to the current context: a thread started inside it
    sees DEFAULT_BUDGET unless it runs through contextvars.copy_context().run.
    A basis the ring computed under another budget is computed again, so a
    recalled basis is always one that succeeded under ``budget``.
    """
    token = _budget.set(budget)
    try:
        yield
    finally:
        _budget.reset(token)


# ---------------------------------------------------------------------------
# low-level reduction machinery
# ---------------------------------------------------------------------------


def _monic(f: Polynomial) -> Polynomial:
    lc = f.lead_coeff()
    if lc == 1:
        return f
    p = f.ring.p
    inv = pow(lc, p - 2, p)
    return Polynomial(f.ring, f.keys, f.packed, [c * inv % p for c in f.coeffs])


def _pack(polys: Sequence[Polynomial]) -> list:
    """The normal-form kernel's encoding of a monic basis, in scan order."""
    return [K.divisor(f.keys, f.packed, f.coeffs) for f in polys]


def _remainder(out, budget: GroebnerBudget) -> list:
    """The remainder terms of a normal-form kernel result; a budget status raises."""
    *terms, status = out
    if status:
        which = "max_poly_terms" if status == 1 else "max_degree"
        raise GroebnerBudgetExceeded(which, getattr(budget, which))
    return terms


def _nf_packed(f: Polynomial, packed) -> Polynomial:
    if f.is_zero() or not packed:
        return f
    budget = _budget.get()
    return Polynomial(f.ring, *_remainder(K.normal_form(
        f.keys, f.packed, f.coeffs, packed, f.ring.p, budget.max_poly_terms, budget.max_degree),
        budget))


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Complete remainder of f under division by (monic-normalised) basis."""
    reducers = [_monic(g) for g in basis if not g.is_zero()]
    return _nf_packed(f, _pack(reducers))


def _mono_divides(a: tuple, b: tuple) -> bool:
    """Exponent tuple a divides exponent tuple b."""
    return all(map(le, a, b))


def _minimal(rows: Sequence, divides=_mono_divides) -> list:
    """Indices of the exponent tuples (or packed exponents, with their
    divisibility test) no other one divides, in input order; of equal ones
    the first stays."""
    return [i for i, r in enumerate(rows)
            if not any(divides(s, r) and (j < i or s != r)
                       for j, s in enumerate(rows) if j != i)]


def _sorted_minimal(rows: Sequence[tuple]) -> tuple:
    """The distinct minimal exponent tuples, ascending."""
    return tuple(sorted(rows[i] for i in _minimal(rows)))


class _Buchberger:
    """One basis computation; deterministic normal strategy with
    Gebauer-Moeller pair pruning and first-match-in-sorted-basis reducers.

    Each element is kept as its kernel encoding (``K.divisor``) beside its
    packed lead, from which ``K.lcms`` forms the lcms; insertion keeps the
    encodings in scan order, ascending by lead key.  A pair is (lcm degree,
    lcm key, i, j, packed lcm).  The kernel forms and reduces each
    S-polynomial from the two encodings, and the criteria test divisibility
    of packed lcms by the kernel's guard-bit subtraction.

    One-term generators take the monomial route: every S-polynomial is 0, so
    the pairs processed are those the criteria leave, counted off the leads,
    and the basis is the minimal leads."""

    def __init__(self, ring: Ring):
        self.ring = ring
        self.budget = _budget.get()
        self.limits = ring.p, self.budget.max_poly_terms, self.budget.max_degree
        self.guard = K.guard_bits(ring.nvars)
        self.leads: list[int] = []  # packed lead exponents, in insertion order
        self.divisors: list[tuple] = []  # in insertion order, as pairs index them
        self.pairs: list[tuple] = []  # a heap; the monomial route's are (i, j, lcm)
        self._packed: list[tuple] = []  # the divisors in scan order

    def _criteria(self, lt_e: int) -> list:
        """Install lead j = lt_e, dropping the pairs (last fields i, j, packed lcm)
        it covers; return those of its new pairs the criteria keep."""
        guard, j = self.guard, len(self.leads)
        if not j:  # a first lead prunes no pair and forms none
            self.leads.append(lt_e)
            return []
        lcm_with = K.lcms(self.leads, lt_e, self.ring.nvars)
        # prune old pairs now covered through the new lead, in place: callers
        # extend self.pairs with the result
        self.pairs[:] = [pair for pair in self.pairs
                         if not ((pair[-1] | guard) - lt_e & guard == guard
                                 and lcm_with[pair[-3]] != pair[-1]
                                 and lcm_with[pair[-2]] != pair[-1])]
        first = {}
        for i, m in enumerate(lcm_with):
            first.setdefault(m, i)  # criterion F: one pair per distinct lcm
        # criterion M drops an lcm another one divides: they are distinct,
        # so only one of lower degree can.  Criterion B drops coprime leads.
        by_degree = sorted(first, key=K.DEGREE.__and__)
        new, lower, deg = [], 0, 0
        for k, m in enumerate(by_degree):
            if m & K.DEGREE != deg:
                lower, deg = k, m & K.DEGREE
            i = first[m]
            if (m != self.leads[i] + lt_e
                    and not any((m | guard) - s & guard == guard for s in by_degree[:lower])):
                new.append((i, j, m))
        self.leads.append(lt_e)
        return new

    def add(self, keys: list, exps: list, coeffs: list):
        """Install the monic multiple of a remainder unless it is zero,
        updating the pair set."""
        if not keys:
            return
        ring = self.ring
        if coeffs[0] != 1:
            inv = pow(coeffs[0], ring.p - 2, ring.p)
            coeffs = [c * inv % ring.p for c in coeffs]
        self.pairs += [(m & K.DEGREE, ring.key_of(ring.unpack(m)), i, j, m)
                       for i, j, m in self._criteria(exps[0])]
        heapq.heapify(self.pairs)
        self.divisors.append(K.divisor(keys, exps, coeffs))
        self._packed.insert(bisect.bisect(self._packed, keys[0], key=itemgetter(0)),
                            self.divisors[-1])

    def run(self, gens: Sequence[Polynomial]) -> tuple:
        """The reduced basis of gens and the number of pairs processed."""
        if all(len(g.coeffs) == 1 for g in gens):
            return self._monomial_run(gens)
        return self._pair_loop(gens)

    def _pair_loop(self, gens: Sequence[Polynomial]) -> tuple:
        global pair_count
        for g in gens:
            h = _nf_packed(g, self._packed)
            self.add(h.keys, h.packed, h.coeffs)
        processed = 0
        while self.pairs:
            deg, key, i, j, lcm = heapq.heappop(self.pairs)
            processed += 1
            pair_count += 1
            if processed > self.budget.max_pairs:
                raise GroebnerBudgetExceeded("max_pairs", self.budget.max_pairs)
            if deg > self.budget.max_degree:
                raise GroebnerBudgetExceeded("max_degree", self.budget.max_degree)
            self.add(*_remainder(K.s_normal_form(self.divisors[i], self.divisors[j], key, lcm,
                                                 self._packed, *self.limits), self.budget))
        return tuple(self._reduce_final()), processed

    def _monomial_run(self, gens: Sequence[Polynomial]) -> tuple:
        """``_pair_loop`` for one-term gens.  A generator an installed lead divides
        reduces to 0 in one step, checked against max_degree, and the S-polynomial
        of two monomials is 0: the loop processes the pairs the criteria leave."""
        global pair_count
        guard, budget, kept = self.guard, self.budget, []  # kept: the minimal (key, lead)s
        for g in gens:
            e = g.packed[0]
            if not any((e | guard) - s & guard == guard for s in self.leads):
                self.pairs += self._criteria(e)
                kept = [(k, s) for k, s in kept if (s | guard) - e & guard != guard]
                kept.append((g.keys[0], e))
            elif e & K.DEGREE > budget.max_degree:
                raise GroebnerBudgetExceeded("max_degree", budget.max_degree)
        # the loop charges each pair, ascending by degree, then tests max_pairs and max_degree
        degrees = sorted([m & K.DEGREE for *_, m in self.pairs])
        stop = min(budget.max_pairs, bisect.bisect(degrees, budget.max_degree))
        pair_count += min(stop + 1, len(degrees))
        if stop < len(degrees):
            which = "max_pairs" if stop == budget.max_pairs else "max_degree"
            raise GroebnerBudgetExceeded(which, getattr(budget, which))
        return tuple([Polynomial(self.ring, [k], [e], [1]) for k, e in sorted(kept)]), len(degrees)

    def _reduce_final(self) -> list[Polynomial]:
        # keep the minimal leads, ascending: a lead's divisors come before it,
        # and a kept one divides it whenever any does.  Each is reduced by the
        # kept ones before it, already reduced: a tail term lies below its
        # lead, so no later lead divides it, and a lone lead is reduced as it
        # is.  The reduced basis is unique.
        guard, reduced, reducers = self.guard, [], []
        for lead_k, lead_e, _, tail_k, tail_e, tail_c in self._packed:
            if not any((lead_e | guard) - r[1] & guard == guard for r in reducers):
                h = Polynomial(self.ring, [lead_k] + tail_k, [lead_e] + tail_e, [1] + tail_c)
                if tail_k:
                    h = _nf_packed(h, reducers)
                reducers.append(K.divisor(h.keys, h.packed, h.coeffs))
                reduced.append(h)
        return reduced


def groebner_basis(gens: Sequence[Polynomial], ring: Ring) -> tuple:
    """The unique reduced Groebner basis, sorted ascending by lead monomial,
    and the number of pairs its computation processed."""
    return _Buchberger(ring).run(list(gens))


# ---------------------------------------------------------------------------
# ring extension / variable mapping helpers
# ---------------------------------------------------------------------------


def _fresh_names(taken, count):
    out = []
    n = 0
    while len(out) < count:
        name = f"t_{n}"
        if name not in taken:
            out.append(name)
        n += 1
    return out


def _eliminate(gens: Sequence[Polynomial], ext: Ring, k: int, target: Ring) -> "Ideal":
    """The basis elements of gens in ext (an elim(k) ring) that are free of
    ext's first k variables, read in target through ext's remaining ones."""
    basis, _ = groebner_basis(gens, ext)
    return Ideal(target, [h for h in (g._moved(target, -k) for g in basis) if h is not None])


def _aux_cover(ring: Ring, k: int):
    """The cover of ring with k auxiliary variables T_i in front, under elim(k):
    returns that ring, the T_i, and the map of ring's polynomials into it."""
    aux = tuple(_fresh_names(set(ring.vars), k))
    ext = Ring(ring.p, aux + ring.vars, elim(k))
    return ext, tuple(map(ext.var, aux)), lambda f: f._moved(ext, k)


def _intersection(a: Sequence[Polynomial], b: Sequence[Polynomial], aux, target: Ring) -> "Ideal":
    """(a) cap (b) in target: eliminate T from T*(a) + (1 - T)*(b)."""
    ext, (t,), lift = aux
    one_minus_t = ext.one() - t
    gens = [t * lift(g) for g in a] + [one_minus_t * lift(g) for g in b]
    return _eliminate(gens, ext, 1, target)


# ---------------------------------------------------------------------------
# the Ideal type
# ---------------------------------------------------------------------------


class Ideal:
    """Immutable ideal with a cached reduced Groebner basis."""

    __slots__ = ("ring", "generators", "_gb_cache", "_monomial", "_min_exps", "_min_packed")

    def __init__(self, ring: Ring, gens: Sequence):
        self.ring, self._gb_cache = ring, None
        self._min_exps = self._min_packed = None  # minimal monomial generators
        gens = [g if type(g) is Polynomial and g.ring is ring else ring.coerce(g) for g in gens]
        terms = {}  # one-term generators on their ints, the first of equal ones kept
        for g in gens:
            if len(g.coeffs) > 1:  # keyed as Polynomial.__eq__ compares within one ring
                self.generators = tuple({(tuple(h.packed), tuple(h.coeffs)): h
                                         for h in gens if h.coeffs}.values())
                self._monomial = False
                return
            if g.coeffs:
                terms.setdefault((g.packed[0], g.coeffs[0]), g)
        self.generators, self._monomial = tuple(terms.values()), not ring.is_quotient()

    # -- basics ---------------------------------------------------------------

    def effective_generators(self) -> tuple:
        """User generators plus the ring's quotient generators (preimage view)."""
        return self.generators + self.ring.quotient

    def groebner(self) -> tuple:
        """The reduced Groebner basis under the ring's order, computed once
        per ring and budget for these generators."""
        global pair_count
        if self._gb_cache is None:
            # entries hold term lists: Polynomials would refer back to the ring
            # and leave it, with its bases, to the cycle collector
            ring = self.ring
            key = tuple((tuple(g.packed), tuple(g.coeffs)) for g in self.generators), _budget.get()
            hit = ring._bases.get(key)
            if hit is None:
                self._gb_cache, pairs = groebner_basis(self.effective_generators(), ring)
                ring._bases[key] = ([(g.keys, g.packed, g.coeffs) for g in self._gb_cache],
                                    pairs)
                if len(ring._bases) > _BASES_KEPT:
                    ring._bases.popitem(last=False)
            else:
                pair_count += hit[1]
                self._gb_cache = tuple(Polynomial(ring, *terms) for terms in hit[0])
        return self._gb_cache

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_one()

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.groebner() == other.groebner()

    def __hash__(self):
        return hash((self.ring, self.groebner()))

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.generators) or "0"
        return f"({inner})"

    # -- membership and comparison ---------------------------------------------

    def is_monomial(self) -> bool:
        """Every generator a single term, in a ring without quotient (set on construction)."""
        return self._monomial

    def minimal_monomial_exps(self) -> tuple:
        """The minimal monomial generators as exponent tuples, ascending.

        Computed once per ideal from the packed ints, with the guard-bit
        divisibility test, so only the minimal ones are decoded; their packed
        ints are kept beside them.  Every monomial route reads them in this
        order, so equal monomial ideals give equal generator lists.
        """
        if self._min_exps is None:
            if not self.is_monomial():
                raise InputError("not a monomial ideal")
            packed, guard = [g.packed[0] for g in self.generators], K.guard_bits(self.ring.nvars)
            kept = sorted((self.ring.unpack(packed[i]), packed[i]) for i in
                          _minimal(packed, lambda a, b: (b | guard) - a & guard == guard))
            self._min_exps, self._min_packed = tuple(zip(*kept)) or ((), ())
        return self._min_exps

    def contains(self, g) -> bool:
        """Membership by divisibility for a monomial ideal, otherwise by the
        normal form modulo the reduced basis.  The basis is read first (a recalled
        one charges its pairs); its elements and the effective generators are
        members without division."""
        g = self.ring.coerce(g)
        if g.is_zero():
            return True
        if self.is_monomial():
            self.minimal_monomial_exps()
            mins, guard = self._min_packed, K.guard_bits(self.ring.nvars)
            return all(any((x | guard) - m & guard == guard for m in mins) for x in g.packed)
        if g in self.groebner() or g in self.effective_generators():
            return True
        return _nf_packed(g, _pack(self.groebner())).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        """self contains other, i.e. other is a subset of self."""
        return all(self.contains(g) for g in other.effective_generators())

    # -- ideal operations --------------------------------------------------------

    def intersect(self, other: "Ideal") -> "Ideal":
        """self cap other; pairwise lcms when both are monomial, otherwise the
        one-auxiliary-variable elimination construction."""
        if other.ring != self.ring:
            raise InputError("intersection across rings")
        if self.is_monomial() and other.is_monomial():
            a = self.minimal_monomial_exps()
            b = other.minimal_monomial_exps()
            gens = [self.ring.monomial(tuple(map(max, r, s))) for r in a for s in b]
            return Ideal(self.ring, gens)
        if self.is_unit():
            return other
        if other.is_unit():
            return self
        return _intersection(self.effective_generators(), other.effective_generators(),
                             _aux_cover(self.ring, 1), self.ring)

    def quotient(self, g) -> "Ideal":
        """(self : g) for a nonzero polynomial g: exponent subtraction when
        the ideal and g are monomial, otherwise the colon (``_colon``)."""
        g = self.ring.coerce(g)
        if g.is_zero():
            raise InputError("quotient by the zero polynomial")
        if self.is_monomial() and g.is_monomial():
            vec = g.exps[0]
            gens = [self.ring.monomial([max(e - v, 0) for e, v in zip(r, vec)])
                    for r in self.minimal_monomial_exps()]
            return Ideal(self.ring, gens)
        return _colon(self, g)

    def saturate(self, g) -> "Ideal":
        """(self : g^inf) = (self + (1 - T*g)) cap R, one elimination of T
        (Rabinowitsch)."""
        g = self.ring.coerce(g)
        if g.is_zero():
            raise InputError("saturation by the zero polynomial")
        ext, (t,), lift = _aux_cover(self.ring, 1)
        gens = [lift(h) for h in self.effective_generators()]
        gens.append(ext.one() - t * lift(g))
        return _eliminate(gens, ext, 1, self.ring)

    # -- monomial-only helpers -----------------------------------------------

    def monomial_radical(self) -> "Ideal":
        """Radical of a monomial ideal: squarefree supports of the generators."""
        squarefree = [tuple(min(e, 1) for e in r) for r in self.minimal_monomial_exps()]
        return Ideal(self.ring, [self.ring.monomial(r) for r in _sorted_minimal(squarefree)])

    def power(self, h: int) -> "Ideal":
        """Ordinary h-th power (products of h generators); h >= 1."""
        h = as_index(h, "ideal power h", 1)
        return Ideal(self.ring, _power_products(self.generators, h))


def _colon(I: Ideal, g: Polynomial) -> Ideal:
    """(I : g) for a nonzero g of I's ring, as (I cap (g)) / g in the covering
    polynomial ring; in a quotient ring the preimage convention makes the
    cover-level colon the right answer.  Each basis element h of I cap (g) is
    divided by g as the normal form of T*h modulo T*g - 1:
    T*h - q*(T*g - 1) = q, and no term of q is divisible by the lead T*lt(g),
    so the remainder is the quotient q."""
    aux = ext, (t,), lift = _aux_cover(I.ring, 1)
    inter = _intersection(I.effective_generators(), [g], aux, I.ring.cover())
    divisor = [t * lift(g) - ext.one()]
    gens = []
    for h in inter.groebner():
        q = normal_form(t * lift(h), divisor)._moved(I.ring, -1)
        if q is None:
            raise CharpError("internal error: colon generator not divisible")
        gens.append(q)
    return Ideal(I.ring, gens)


def _power_products(gens: Sequence[Polynomial], h: int):
    """Products of every multiset of h generators, in combinations order.

    Products of one-term generators are sums of packed keys and exponents
    (both packings are linear).  The exponent fields, summed without the
    degree field, are checked after every 127 generators: a checked field is
    at most 2^56, so a sum stays within 2^63 and cannot carry unseen.  A
    product overflows exactly where the Polynomial products would."""
    if not gens or not all(g.is_monomial() for g in gens):
        yield from (reduce(mul, combo)
                    for combo in itertools.combinations_with_replacement(gens, h))
        return
    ring = gens[0].ring
    keys, packed, coeffs = zip(*((g.keys[0], g.packed[0], g.coeffs[0]) for g in gens))
    fields = [x - (x & K.DEGREE) for x in packed]
    guard = K.guard_bits(ring.nvars)
    top = K.spread(EXP_LIMIT, ring.nvars) | guard
    for combo in itertools.combinations_with_replacement(range(len(gens)), h):
        e = 0
        for start in range(0, h, 127):
            e += sum(map(fields.__getitem__, combo[start:start + 127]))
            if (top - e) & guard != guard:
                raise ExponentOverflow(f"exponent exceeds {EXP_LIMIT}")
        yield Polynomial(ring, [sum(map(keys.__getitem__, combo))],
                         [sum(map(packed.__getitem__, combo))],
                         [math.prod(map(coeffs.__getitem__, combo)) % ring.p])


def intersect_all(ideals: Iterable[Ideal]) -> Ideal:
    """Left-to-right intersection of a nonempty iterable of ideals, drawing
    each ideal only when it is next in line."""
    it = iter(ideals)
    acc = next(it, None)
    if acc is None:
        raise InputError("intersection of no ideals")
    for J in it:
        acc = acc.intersect(J)
    return acc
