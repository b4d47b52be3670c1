"""The perfect closure made computable.

Elements of the perfect closure of F_p[X] are written as pairs (n, r)
standing for the unique p^n-th root of the polynomial r; arithmetic lifts
both operands to a common depth with the Frobenius and renormalises to
minimal depth in one root (``frobenius._p_roots``); a constant body, zero
included, has depth 0.  Ideals of the perfect closure are represented
losslessly by their f-sequences: descending chains (a_n) of ideals with
frob_root(a_{n+1}) = a_n, where a_n collects the bodies of the ideal's
members of depth n.  Sequence terms are produced lazily and memoised.
"""

from __future__ import annotations

import functools
import operator
import threading
from typing import Callable, Optional, Sequence

from .errors import InputError
from .frobenius import _p_roots, f_closure, frob_power, frob_root
from .ideals import Ideal, intersect_all
from .orders import FrozenRecord, as_index
from .poly import Polynomial, Ring


class PerfectionElement:
    """(depth, body) = body^(1/p^depth), kept at minimal depth."""

    __slots__ = ("depth", "body")

    def __init__(self, depth: int, body: Polynomial):
        depth = as_index(depth, "element depth", 0)
        if body.ring.is_quotient():
            raise InputError("perfect-closure element arithmetic needs a polynomial ring")
        # a constant, zero included, is its own p^k-th root for every k
        k, roots = _p_roots((body,), depth) if any(body.packed) else (depth, (body,))
        self.depth, self.body = depth - k, roots[0] if k else body

    @property
    def ring(self) -> Ring:
        return self.body.ring

    def lift(self, depth: int) -> Polynomial:
        """The body seen at a (deeper) depth: body^(p^(depth - self.depth))."""
        return self.body.frobenius(as_index(depth, "lift depth", self.depth) - self.depth)

    def _lifted(self, other, op):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        m = max(self.depth, other.depth)
        return PerfectionElement(m, op(self.lift(m), other.lift(m)))

    def __add__(self, other):
        return self._lifted(other, operator.add)

    __radd__ = __add__

    def __mul__(self, other):
        return self._lifted(other, operator.mul)

    __rmul__ = __mul__

    def __neg__(self):
        return PerfectionElement(self.depth, -self.body)

    def __sub__(self, other):
        return self._lifted(other, operator.sub)

    def __rsub__(self, other):
        return self._lifted(other, lambda mine, theirs: theirs - mine)

    def power(self, m: int) -> "PerfectionElement":
        return PerfectionElement(self.depth, self.body.power(as_index(m, "element power", 0)))

    def _coerced(self, other):
        if isinstance(other, PerfectionElement):
            if other.ring != self.ring:
                raise InputError("mixed-ring element arithmetic")
            return other
        if isinstance(other, (int, Polynomial)):
            return PerfectionElement(0, self.body.ring.coerce(other))
        return None

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def __eq__(self, other):
        if not isinstance(other, PerfectionElement):
            return NotImplemented
        return self.depth == other.depth and self.body == other.body

    def __hash__(self):
        return hash((self.depth, self.body))

    def __str__(self):
        if self.depth == 0:
            return str(self.body)
        return f"({self.body})^(1/{self.ring.p ** self.depth})"

    def __repr__(self):
        return f"<{self}>"


class VerifyResult(FrozenRecord):
    __slots__ = ("ok", "failed_at", "reason", "expected", "got")

    def __init__(self, ok: bool, failed_at: Optional[int] = None, reason: str = "",
                 expected: Optional[Ideal] = None, got: Optional[Ideal] = None):
        super().__init__(ok, failed_at, reason, expected, got)


class FSequence:
    """Lazily evaluated, memoised sequence n -> Ideal subject to the
    Frobenius-root law; the data of an ideal of the perfect closure."""

    def __init__(self, ring: Ring, term_fn: Callable[[int], Ideal]):
        self.ring = ring
        self.meta: dict = {}
        self._term_fn = term_fn
        self._memo: dict[int, Ideal] = {}
        self._lock = threading.Lock()

    def term(self, n: int) -> Ideal:
        n = as_index(n, "sequence index", 0)
        with self._lock:
            got = self._memo.get(n)
        if got is not None:
            return got
        value = self._term_fn(n)
        with self._lock:
            return self._memo.setdefault(n, value)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def frobenius_powers(cls, a: Ideal) -> "FSequence":
        """n -> a^[p^n]; an f-sequence whenever those powers are F-closed
        (always in polynomial rings, where the Frobenius is flat)."""
        return cls(a.ring, lambda n: frob_power(a, n))

    @classmethod
    def canonical(cls, b: Ideal, max_e: int = 10, confirm: int = 2) -> "FSequence":
        """n -> F-closure of b^[p^n] (the canonical sequence attached to b)."""
        def fn(n):
            return f_closure(frob_power(b, n), max_e, confirm).closure
        return cls(b.ring, fn)

    @classmethod
    def constant_prime(cls, p: Ideal) -> "FSequence":
        """The constant sequence of a prime ideal (primality is the caller's
        assertion; verify() will reject non-primes that break the root law)."""
        return cls(p.ring, lambda n: p)

    @classmethod
    def finitely_generated(cls, gens: Ideal, k: int = 0) -> "FSequence":
        """The sequence of the ideal generated by the depth-k roots of gens:
        term(k+n) is the F-closure of gens^[p^n], and terms below k are the
        unique downward extension by iterated Frobenius roots."""
        k = as_index(k, "depth k", 0)
        anchor = functools.cache(lambda: f_closure(gens).closure)  # term(k)

        def fn(n):
            if n > k:
                return f_closure(frob_power(gens, n - k)).closure
            return frob_root(anchor(), k - n)

        seq = cls(gens.ring, fn)
        seq.meta = {"k": k}
        return seq

    @classmethod
    def from_table(cls, terms: Sequence[Ideal]) -> "FSequence":
        """Explicit leading terms, mainly for negative controls in tests."""
        if not terms:
            raise InputError("table sequence needs at least one term")
        ring = terms[0].ring
        table = list(terms)

        def fn(n):
            if n < len(table):
                return table[n]
            raise InputError(f"table sequence has no term {n}")

        return cls(ring, fn)

    @classmethod
    def intersection(cls, seqs: Sequence["FSequence"]) -> "FSequence":
        seqs = list(seqs)
        if not seqs:
            raise InputError("intersection of no sequences")
        ring = seqs[0].ring

        def fn(n):
            return intersect_all(s.term(n) for s in seqs)

        return cls(ring, fn)

    # -- verification -----------------------------------------------------------

    def verify(self, depth: int) -> VerifyResult:
        """Check the f-sequence law to the given depth.

        For n = 0..depth-1: frob_root(term(n+1)) must equal term(n).  That
        law implies the descent and term(n)^[p] in term(n+1) (r^p lies in an
        ideal with r), so it is the whole check.  Returns the first failing
        index with the mismatch as a witness.
        """
        depth = as_index(depth, "verification depth", 1)
        for n in range(depth):
            t0 = self.term(n)
            t1 = self.term(n + 1)
            root = frob_root(t1)
            if root != t0:
                return VerifyResult(False, n, "frobenius root mismatch",
                                    expected=t0, got=root)
        return VerifyResult(True)


class PerfectionIdeal:
    """An ideal of the perfect closure, held as its f-sequence."""

    __slots__ = ("seq",)

    def __init__(self, seq: FSequence):
        self.seq = seq

    @classmethod
    def finitely_generated(cls, gens: Ideal, k: int = 0) -> "PerfectionIdeal":
        """The ideal generated by the p^k-th roots of the given generators."""
        return cls(FSequence.finitely_generated(gens, k))

    def term(self, n: int) -> Ideal:
        """The ideal of depth-n member bodies."""
        return self.seq.term(n)

    def member(self, e: PerfectionElement) -> bool:
        """Membership of body^(1/p^depth): body must lie in term(depth).

        Element bodies always live in a polynomial ring; over a quotient
        the body is read as a preimage representative.
        """
        ring = self.seq.ring
        if e.ring != ring.cover() and e.ring != ring:
            raise InputError("element from a different ring")
        body = e.body if e.ring == ring else e.body._rebind(ring)
        return self.term(e.depth).contains(body)
