"""Frobenius powers, Frobenius roots, and F-closure for ideals.

The Frobenius power I^[p^e] is generated by the p^e-th powers of the
generators.  The Frobenius root is the preimage {r : r^p in I}, computed by
p-power elimination: over F_p, r(X)^p = r(X_1^p, ..., X_d^p), so adjoining
fresh variables with relations fresh_i - X_i^p and eliminating the X_i
leaves exactly the root, in plain and quotient rings alike.  Monomial
ideals take the exponent-ceiling shortcut, cross-checked in the tests.  The
e-fold root {r : r^(p^e) in I} is e single roots in a row.

The F-closure of b is the union over n of the n-fold roots of b^[p^n]; the
chain of those ideals ascends, and we stop after a configurable number of
consecutive repeats.  No effective global stabilisation bound is known to
us, so results carry certified=False.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import CharpError, DepthExceeded, InputError, NotContainingQuotient
from .ideals import Ideal, _check_method, _eliminate, _fresh_names, _map_poly
from .orders import elim
from .poly import Ring


def frob_power(I: Ideal, e: int) -> Ideal:
    """I^[p^e]: generator-wise Frobenius (quotient generators re-enter implicitly)."""
    if e < 0:
        raise InputError(f"Frobenius power wants e >= 0, got {e}")
    if e == 0:
        return I
    return Ideal(I.ring, [g.frobenius(e) for g in I.generators])


def frob_root(I: Ideal, e: int = 1, method: str = "auto") -> Ideal:
    """The e-fold root {r : r^(p^e) in I}, taken as e single roots.

    Each single root is a p-power elimination, or the exponent-ceiling
    shortcut when that step's ideal is monomial; ``method`` ("monomial" /
    "elimination") pins the route of every step for cross-checking.
    """
    _check_method(method, ("auto", "monomial", "elimination"))
    if e < 0:
        raise InputError(f"Frobenius root wants e >= 0, got {e}")
    for _ in range(e):
        I = _frob_root_once(I, method)
    return I


def _frob_root_once(I: Ideal, method: str) -> Ideal:
    ring = I.ring
    if ring.is_quotient():
        for g in ring.quotient:
            if not I.contains(g):
                raise NotContainingQuotient(
                    "ideal does not contain the quotient generators")
    if method == "monomial" or (method == "auto" and I.is_monomial()):
        if not I.is_monomial():
            raise InputError("monomial root shortcut on a non-monomial ideal")
        return _frob_root_monomial(I)
    d = ring.nvars
    fresh = _fresh_names(set(ring.vars), d, "r_")
    ext = Ring(ring.p, ring.vars + tuple(fresh), elim(d))
    gens = [_map_poly(g, ext, list(range(d))) for g in I.effective_generators()]
    for i in range(d):
        gens.append(ext.var(fresh[i]) - ext.var(ring.vars[i]).frobenius(1))
    return _eliminate(gens, ext, d, ring)


def _frob_root_monomial(I: Ideal) -> Ideal:
    """Ceiling shortcut: the root of (X^a) is generated by X^ceil(a/p)."""
    p = I.ring.p
    mins = I.minimal_monomial_exps()
    gens = [I.ring.monomial(-(-row // p)) for row in mins]
    return Ideal(I.ring, gens)


@dataclass
class FClosureResult:
    closure: Ideal
    stabilized_at: int
    certified: bool
    steps: list
    witnesses: list = field(default_factory=list)


def f_closure(b: Ideal, max_e: int = 10, confirm: int = 2) -> FClosureResult:
    """Union over n of the n-fold Frobenius root of b^[p^n].

    Iterates I_n = root^n(b^[p^n]), an ascending chain, and stops once
    `confirm` consecutive equalities are seen.  The stop is heuristic
    (certified=False).  Raises DepthExceeded with the partial chain when the
    chain is still moving at max_e.
    """
    if max_e < 1 or confirm < 1:
        raise InputError(f"f_closure wants max_e >= 1 and confirm >= 1, "
                         f"got {max_e} and {confirm}")
    steps = [b]
    current = b
    equal_run = 0
    stabilized_at: Optional[int] = None
    for n in range(1, max_e + 1):
        nxt = frob_root(frob_power(b, n), n)
        if not nxt.contains_ideal(current):
            raise CharpError("F-closure chain failed to ascend")
        steps.append(nxt)
        if nxt == current:
            if equal_run == 0:
                stabilized_at = n - 1
            equal_run += 1
            if equal_run >= confirm:
                return FClosureResult(current, stabilized_at, False, steps,
                                      _closure_witnesses(b, current, stabilized_at))
        else:
            equal_run = 0
            stabilized_at = None
            current = nxt
    raise DepthExceeded(
        f"F-closure chain still moving after {max_e} steps", partial=steps)


def _closure_witnesses(b: Ideal, closure: Ideal, depth: int) -> list:
    """For each closure generator outside b, the least n with g^{p^n} in b^[p^n]."""
    out = []
    for g in closure.groebner():
        if b.contains(g):
            continue
        for n in range(1, max(depth, 1) + 1):
            if frob_power(b, n).contains(g.frobenius(n)):
                out.append({"element": g, "exponent": n})
                break
    return out


def is_f_closed(I: Ideal, max_e: int = 10, confirm: int = 2) -> bool:
    """Whether f_closure(I) = I under the same heuristic stopping rule."""
    return f_closure(I, max_e, confirm).closure == I
