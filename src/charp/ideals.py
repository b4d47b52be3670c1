"""Ideal arithmetic on top of Buchberger's algorithm.

Reduced Groebner bases are unique for a fixed order, so ideal equality is
equality of canonical bases.  In a quotient ring F_p[X]/J an Ideal always
stands for its full preimage: J's generators take part in every basis
computation implicitly, which keeps Frobenius roots and membership uniform
across plain and quotient rings.

Monomial ideals get dedicated fast paths (membership by divisibility,
intersection by lcm, quotient by exponent subtraction); the test suite
cross-checks them against the Buchberger route.

One auxiliary-variable ring serves intersection, colon, saturation and
radical membership: the cover of the ring with a variable T in front,
under elim(1) (``_aux_cover``).  Intersection eliminates T from
T*I + (1 - T)*J, saturation eliminates T from I + (1 - T*g), radical
membership asks whether that saturation is the unit ideal, and the colon
divides by g as a normal form modulo T*g - 1.

The Groebner budget lives here and nowhere else.  Callers enter a scope
with ``using_budget(budget)``; each basis computation reads the active
budget when it starts (pair and degree limits) and each normal form reads
it for its term and degree limits.  Outside any scope the active budget is
DEFAULT_BUDGET.
"""

from __future__ import annotations

import contextvars
import heapq
import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels as K
from .errors import GroebnerBudgetExceeded, InputError
from .orders import elim
from .poly import Polynomial, Ring

pair_count = 0  # pairs processed since the last reset; reported by the CLI


@dataclass(frozen=True)
class GroebnerBudget:
    max_pairs: int = 200_000
    max_poly_terms: int = 100_000
    max_degree: int = 4096

    def __post_init__(self):
        if min(self.max_pairs, self.max_poly_terms, self.max_degree) <= 0:
            raise InputError("budget fields must be positive")


DEFAULT_BUDGET = GroebnerBudget()
_budget = contextvars.ContextVar("charp_groebner_budget", default=DEFAULT_BUDGET)


@contextmanager
def using_budget(budget: GroebnerBudget):
    """Run every Groebner computation in the enclosed block under ``budget``.

    The scope belongs to the current context: a thread started inside it
    sees DEFAULT_BUDGET unless it runs through contextvars.copy_context().run.
    """
    token = _budget.set(budget)
    try:
        yield
    finally:
        _budget.reset(token)


def _check_method(method: str, routes: tuple):
    if method not in routes:
        raise InputError(f"unknown method {method!r}; expected one of {', '.join(routes)}")


def reset_pair_count():
    global pair_count
    pair_count = 0


# ---------------------------------------------------------------------------
# low-level reduction machinery
# ---------------------------------------------------------------------------


def _monic(f: Polynomial) -> Polynomial:
    lc = f.lead_coeff()
    if lc == 1:
        return f
    return f * f.ring.field.inv(lc)


def _pack(polys: Sequence[Polynomial]):
    """Concatenate basis term arrays for the normal-form kernel."""
    if not polys:
        z = np.empty((0, 0), np.int64)
        return z, z, np.empty(0, np.int64), np.zeros(1, np.int64), np.empty(0, np.int64)
    bkeys = np.concatenate([f.keys for f in polys])
    bexps = np.concatenate([f.exps for f in polys])
    bcoeffs = np.concatenate([f.coeffs for f in polys])
    starts = np.zeros(len(polys) + 1, np.int64)
    for i, f in enumerate(polys):
        starts[i + 1] = starts[i] + f.nterms()
    bmaxdeg = np.array([f.total_degree() for f in polys], np.int64)
    return bkeys, bexps, bcoeffs, starts, bmaxdeg


def _nf_packed(f: Polynomial, packed) -> Polynomial:
    if f.is_zero() or packed[3].shape[0] == 1:
        return f
    budget = _budget.get()
    ke, ee, ce, status = K.normal_form(
        f.keys, f.exps, f.coeffs, *packed,
        f.ring.p, budget.max_poly_terms, budget.max_degree)
    if status == 1:
        raise GroebnerBudgetExceeded("max_poly_terms", budget.max_poly_terms)
    if status == 2:
        raise GroebnerBudgetExceeded("max_degree", budget.max_degree)
    return Polynomial(f.ring, ee, ce, ke)


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Complete remainder of f under division by (monic-normalised) basis."""
    reducers = [_monic(g) for g in basis if not g.is_zero()]
    return _nf_packed(f, _pack(reducers))


def _shifted(f: Polynomial, shift: np.ndarray) -> Polynomial:
    shift_k = f.ring.keys_of(shift.reshape(1, -1))[0]
    return Polynomial(f.ring, f.exps + shift, f.coeffs, f.keys + shift_k)


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of two monic polynomials."""
    lf, lg = f.exps[0], g.exps[0]
    lcm = np.maximum(lf, lg)
    a = _shifted(f, lcm - lf)
    b = _shifted(g, lcm - lg)
    p = f.ring.p
    ke, ee, ce = K.axpy(a.keys, a.exps, a.coeffs, b.keys, b.exps, b.coeffs, p - 1, p)
    return Polynomial(f.ring, ee, ce, ke)


def _divides(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(a <= b))


class _Buchberger:
    """One basis computation; deterministic normal strategy with
    Gebauer-Moeller pair pruning and first-match-in-sorted-basis reducers."""

    def __init__(self, ring: Ring):
        self.ring = ring
        self.budget = _budget.get()
        self.G: list[Polynomial] = []
        self.leads: list[np.ndarray] = []
        self.pairs: list[tuple] = []  # heap of (lcm degree, lcm key, i, j)
        self._packed = None

    def _key_tuple(self, exp: np.ndarray) -> tuple:
        return tuple(int(x) for x in self.ring.keys_of(exp.reshape(1, -1))[0])

    def _push_pair(self, i: int, j: int):
        lcm = np.maximum(self.leads[i], self.leads[j])
        heapq.heappush(self.pairs, (int(lcm.sum()), self._key_tuple(lcm), i, j))

    def _scan_order(self) -> list[int]:
        return sorted(range(len(self.G)), key=lambda i: (self._key_tuple(self.leads[i]), i))

    def _repack(self):
        order = self._scan_order()
        self._packed = _pack([self.G[i] for i in order])

    def add(self, h: Polynomial):
        """Install a new monic element, updating the pair set (Gebauer-Moeller)."""
        t = len(self.G)
        lt = h.exps[0]
        lcm_with = [np.maximum(self.leads[i], lt) for i in range(t)]
        keep = []
        for i in range(t):
            li = lcm_with[i]
            drop = False
            for j in range(t):
                if j == i:
                    continue
                lj = lcm_with[j]
                if _divides(lj, li) and not np.array_equal(lj, li):
                    drop = True  # criterion M
                    break
            if not drop:
                keep.append(i)
        seen = []
        final = []
        for i in keep:  # criterion F: one pair per distinct lcm
            li = lcm_with[i]
            if any(np.array_equal(li, s) for s in seen):
                continue
            seen.append(li)
            coprime = np.array_equal(li, self.leads[i] + lt)
            if not coprime:  # criterion B (Buchberger's coprime-lead criterion)
                final.append(i)
        old = []
        while self.pairs:  # prune old pairs now covered through h
            deg, key, i, j = heapq.heappop(self.pairs)
            lij = np.maximum(self.leads[i], self.leads[j])
            if (_divides(lt, lij)
                    and not np.array_equal(lcm_with[i], lij)
                    and not np.array_equal(lcm_with[j], lij)):
                continue
            old.append((deg, key, i, j))
        self.pairs = old
        heapq.heapify(self.pairs)
        self.G.append(h)
        self.leads.append(lt)
        for i in final:
            self._push_pair(i, t)
        self._repack()

    def run(self, gens: Sequence[Polynomial]) -> list[Polynomial]:
        global pair_count
        for g in gens:
            if g.is_zero():
                continue
            h = _nf_packed(g, self._packed) if self._packed else g
            if not h.is_zero():
                self.add(_monic(h))
        processed = 0
        while self.pairs:
            deg, key, i, j = heapq.heappop(self.pairs)
            processed += 1
            pair_count += 1
            if processed > self.budget.max_pairs:
                raise GroebnerBudgetExceeded("max_pairs", self.budget.max_pairs)
            if deg > self.budget.max_degree:
                raise GroebnerBudgetExceeded("max_degree", self.budget.max_degree)
            s = _spoly(self.G[i], self.G[j])
            h = _nf_packed(s, self._packed)
            if not h.is_zero():
                self.add(_monic(h))
        return self._reduce_final()

    def _reduce_final(self) -> list[Polynomial]:
        # minimal generating leads, then tail-reduce for the unique reduced basis
        order = self._scan_order()
        minimal = []
        for i in order:
            li = self.leads[i]
            if any(_divides(self.leads[j], li) for j in minimal if j != i):
                continue
            minimal = [j for j in minimal if not _divides(li, self.leads[j])]
            minimal.append(i)
        chosen = [self.G[i] for i in sorted(minimal, key=lambda i: (self._key_tuple(self.leads[i]), i))]
        reduced = []
        for k, g in enumerate(chosen):
            others = chosen[:k] + chosen[k + 1:]
            reduced.append(_monic(_nf_packed(g, _pack(others))))
        reduced.sort(key=lambda f: self._key_tuple(f.exps[0]))
        return reduced


def groebner_basis(gens: Sequence[Polynomial], ring: Ring) -> tuple:
    """The unique reduced Groebner basis, sorted ascending by lead monomial."""
    engine = _Buchberger(ring)
    return tuple(engine.run(list(gens)))


# ---------------------------------------------------------------------------
# ring extension / variable mapping helpers
# ---------------------------------------------------------------------------


def _fresh_names(taken, count, stem):
    out = []
    n = 0
    while len(out) < count:
        name = f"{stem}{n}"
        if name not in taken:
            out.append(name)
        n += 1
    return out


def _map_poly(f: Polynomial, target: Ring, col_map: Sequence[int]) -> Polynomial:
    """Reinterpret f in target ring, sending source column i to col_map[i]."""
    exps = np.zeros((f.exps.shape[0], target.nvars), np.int64)
    for i, j in enumerate(col_map):
        exps[:, j] = f.exps[:, i]
    ke, ee, ce = K.combine(target.keys_of(exps), exps, f.coeffs.copy(), target.p)
    return Polynomial(target, ee, ce, ke)


def _project(g: Polynomial, k: int, target: Ring) -> Polynomial:
    """g read in target through all but the first k variables of g's ring."""
    exps = g.exps[:, k:]
    ke, ee, ce = K.combine(target.keys_of(exps), exps, g.coeffs, target.p)
    return Polynomial(target, ee, ce, ke)


def _eliminate(gens: Sequence[Polynomial], ext: Ring, k: int, target: Ring) -> "Ideal":
    """The basis elements of gens in ext (an elim(k) ring) that are free of
    ext's first k variables, read in target through ext's remaining ones."""
    return Ideal(target, [_project(g, k, target) for g in groebner_basis(gens, ext)
                          if not g.exps[:, :k].any()])


def _aux_cover(ring: Ring):
    """The cover of ring with one auxiliary variable T in front, under
    elim(1): returns that ring, T, and the map of ring's polynomials into it."""
    cover = ring.cover()
    (aux,) = _fresh_names(set(ring.vars), 1, "t_")
    ext = Ring(ring.p, (aux,) + cover.vars, elim(1))
    col = list(range(1, ext.nvars))
    return ext, ext.var(aux), lambda f: _map_poly(f, ext, col)


def _intersection(a: Sequence[Polynomial], b: Sequence[Polynomial], aux, target: Ring) -> "Ideal":
    """(a) cap (b) in target: eliminate T from T*(a) + (1 - T)*(b)."""
    ext, t, lift = aux
    one_minus_t = ext.one() - t
    gens = [t * lift(g) for g in a] + [one_minus_t * lift(g) for g in b]
    return _eliminate(gens, ext, 1, target)


# ---------------------------------------------------------------------------
# the Ideal type
# ---------------------------------------------------------------------------


class Ideal:
    """Immutable ideal with a cached reduced Groebner basis."""

    __slots__ = ("ring", "generators", "_gb_cache", "_packed", "_min_exps")

    def __init__(self, ring: Ring, gens: Sequence):
        self.ring = ring
        coerced = (ring.coerce(g) for g in gens)
        self.generators = tuple(dict.fromkeys(g for g in coerced if not g.is_zero()))
        self._gb_cache = None
        self._packed = None  # packed basis under ring.order, for membership
        self._min_exps = None  # minimal monomial generators, read-only

    # -- basics ---------------------------------------------------------------

    def effective_generators(self) -> tuple:
        """User generators plus the ring's quotient generators (preimage view)."""
        return self.generators + self.ring.quotient

    def groebner(self) -> tuple:
        """The reduced Groebner basis under the ring's order, computed once."""
        if self._gb_cache is None:
            self._gb_cache = groebner_basis(self.effective_generators(), self.ring)
        return self._gb_cache

    def _packed_gb(self):
        if self._packed is None:
            self._packed = _pack(self.groebner())
        return self._packed

    def is_zero(self) -> bool:
        return len(self.groebner()) == 0

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_one()

    def is_proper(self) -> bool:
        return not self.is_unit()

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
        """Detected from the generators: every one a single term, no quotient."""
        return (not self.ring.is_quotient()
                and all(g.is_monomial() for g in self.generators))

    def minimal_monomial_exps(self) -> np.ndarray:
        """Minimal monomial generating exponents, canonically sorted.

        Computed once per ideal; the array is read-only because every call
        returns the same one.
        """
        if self._min_exps is None:
            if not self.is_monomial():
                raise InputError("not a monomial ideal")
            keep = minimal_rows([g.exps[0] for g in self.generators])
            if keep:
                arr = np.stack(keep)
                arr = arr[np.lexsort(arr.T[::-1])]
            else:
                arr = np.empty((0, self.ring.nvars), np.int64)
            arr.flags.writeable = False
            self._min_exps = arr
        return self._min_exps

    def contains(self, g, method: str = "auto") -> bool:
        """Membership by normal form; monomial ideals use divisibility.

        ``method`` forces a route ("monomial" or "groebner"); the default
        picks the fast path when the generators allow it.
        """
        _check_method(method, ("auto", "monomial", "groebner"))
        g = self.ring.coerce(g)
        if g.is_zero():
            return True
        if method == "monomial" or (method == "auto" and self.is_monomial()):
            if not self.is_monomial():
                raise InputError("monomial membership on a non-monomial ideal")
            return self._contains_monomial(g)
        return _nf_packed(g, self._packed_gb()).is_zero()

    def _contains_monomial(self, g: Polynomial) -> bool:
        mins = self.minimal_monomial_exps()
        if mins.shape[0] == 0:
            return g.is_zero()
        for vec, _ in g.terms():
            if not np.any(np.all(mins <= vec, axis=1)):
                return False
        return True

    def contains_ideal(self, other: "Ideal") -> bool:
        """self contains other, i.e. other is a subset of self."""
        return all(self.contains(g) for g in other.effective_generators())

    # -- ideal operations --------------------------------------------------------

    def intersect(self, other: "Ideal", method: str = "auto") -> "Ideal":
        """self cap other; pairwise lcms when both are monomial, otherwise the
        one-auxiliary-variable elimination construction."""
        _check_method(method, ("auto", "monomial", "elimination"))
        if other.ring != self.ring:
            raise InputError("intersection across rings")
        if method == "monomial" or (method == "auto" and self.is_monomial() and other.is_monomial()):
            a = self.minimal_monomial_exps()
            b = other.minimal_monomial_exps()
            gens = [self.ring.monomial(np.maximum(r, s)) for r in a for s in b]
            return Ideal(self.ring, gens)
        if method == "auto" and self.is_unit():
            return other
        if method == "auto" and other.is_unit():
            return self
        return _intersection(self.effective_generators(), other.effective_generators(),
                             _aux_cover(self.ring), self.ring)

    def quotient(self, g, method: str = "auto") -> "Ideal":
        """(self : g) for a nonzero polynomial g.

        Monomial route: exponent subtraction.  General route: (I cap (g)) / g
        in the covering polynomial ring; in a quotient ring the preimage
        convention makes the cover-level colon the right answer.  Each basis
        element h of I cap (g) is divided by g as the normal form of T*h
        modulo T*g - 1: T*h - q*(T*g - 1) = q, and no term of q is divisible
        by the lead T*lt(g), so the remainder is the quotient q.
        """
        _check_method(method, ("auto", "monomial", "colon"))
        g = self.ring.coerce(g)
        if g.is_zero():
            raise InputError("quotient by the zero polynomial")
        if method == "monomial" or (method == "auto" and self.is_monomial() and g.is_monomial()):
            if not (self.is_monomial() and g.is_monomial()):
                raise InputError("monomial quotient on non-monomial input")
            vec = g.exps[0]
            mins = self.minimal_monomial_exps()
            gens = [self.ring.monomial(np.maximum(r - vec, 0)) for r in mins]
            return Ideal(self.ring, gens)
        aux = ext, t, lift = _aux_cover(self.ring)
        inter = _intersection(self.effective_generators(), [g], aux, self.ring.cover())
        divisor = [t * lift(g) - ext.one()]
        gens = []
        for h in inter.groebner():
            q = normal_form(t * lift(h), divisor)
            if q.exps[:, 0].any():
                raise InputError("internal error: colon generator not divisible")
            gens.append(_project(q, 1, self.ring))
        return Ideal(self.ring, gens)

    def saturate(self, g) -> "Ideal":
        """(self : g^inf) = (self + (1 - T*g)) cap R, one elimination of T
        (Rabinowitsch)."""
        g = self.ring.coerce(g)
        if g.is_zero():
            raise InputError("saturation by the zero polynomial")
        ext, t, lift = _aux_cover(self.ring)
        gens = [lift(h) for h in self.effective_generators()]
        gens.append(ext.one() - t * lift(g))
        return _eliminate(gens, ext, 1, self.ring)

    def eliminate(self, first_k: int) -> "Ideal":
        """Intersection with the subring dropping the first k variables."""
        ring = self.ring
        if ring.is_quotient():
            raise InputError("eliminate expects a polynomial ring")
        if not 0 <= first_k <= ring.nvars:
            raise InputError(f"cannot eliminate {first_k} of {ring.nvars} variables")
        if first_k == 0:
            return self
        if first_k == ring.nvars:
            raise InputError("eliminating every variable leaves no ring")
        ext = Ring(ring.p, ring.vars, elim(first_k))
        small = Ring(ring.p, ring.vars[first_k:], ring.order)
        return _eliminate([g._rebind(ext) for g in self.generators], ext, first_k, small)

    def in_radical(self, g) -> bool:
        """Rabinowitsch test: g in sqrt(I) iff 1 in I + (1 - T*g), that is,
        iff I : g^inf is the unit ideal."""
        g = self.ring.coerce(g)
        return g.is_zero() or self.saturate(g).is_unit()

    # -- monomial-only helpers -----------------------------------------------

    def monomial_radical(self) -> "Ideal":
        """Radical of a monomial ideal: squarefree supports of the generators."""
        mins = self.minimal_monomial_exps()
        gens = [self.ring.monomial(np.minimum(r, 1)) for r in mins]
        squarefree = Ideal(self.ring, gens)
        mins = squarefree.minimal_monomial_exps()
        return Ideal(self.ring, [self.ring.monomial(r) for r in mins])

    def power(self, h: int) -> "Ideal":
        """Ordinary h-th power (products of h generators); h >= 1."""
        if h < 1:
            raise InputError("ideal power wants h >= 1")
        return Ideal(self.ring, _power_products(self.generators, h))


def _power_products(gens: Sequence[Polynomial], h: int):
    """Products of every multiset of h generators, in combinations order."""
    for combo in itertools.combinations_with_replacement(gens, h):
        out = combo[0]
        for g in combo[1:]:
            out = out * g
        yield out


def minimal_rows(rows: Sequence[np.ndarray]) -> list:
    """The exponent rows no other row divides, in input order; of equal
    rows the first stays."""
    return [r for i, r in enumerate(rows)
            if not any(_divides(s, r) and (j < i or not np.array_equal(s, r))
                       for j, s in enumerate(rows) if j != i)]


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
