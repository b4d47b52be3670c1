"""Frobenius powers, Frobenius roots, and F-closure for ideals.

The Frobenius power I^[p^e] is generated by the p^e-th powers of the
generators.  The Frobenius root is the preimage {r : r^p in I}, taken by
the first of three routes that applies:

- monomial: a monomial ideal (X^a) has the root (X^ceil(a/p));
- flat: in a polynomial ring whose ideal is generated by p-th powers g_i^p,
  the root is (g_1, ..., g_k), because the Frobenius of a polynomial ring
  over F_p is flat (Kunz 1969, "Characterizations of regular local rings of
  characteristic p", Amer. J. Math. 91), so F^{-1}(J^[p]) = J;
- elimination: over F_p, r(X)^p = r(X_1^p, ..., X_d^p), so writing I in
  the auxiliary variables T_i of ``ideals._aux_cover``, adjoining the
  relations X_i - T_i^p and eliminating the T_i leaves exactly the root,
  in plain and quotient rings alike.  Quotient rings always take this
  route: the preimage carries the quotient generators, and the Frobenius
  need not be flat there (the cusp).

The input picks the route; nothing pins one.  The tests call the route
functions (``_frob_root_monomial``, ``_p_roots``, ``_frob_root_elimination``)
directly and cross-check them against each other.  The e-fold root
{r : r^(p^e) in I} takes one route per step, a flat step roots as many
times at once as every generator allows, and the monomial route stops at
its first fixed point.

The F-closure of b is the union over n of the n-fold roots of b^[p^n]; the
chain of those ideals ascends, and we stop after a configurable number of
consecutive repeats.  In a polynomial ring the Frobenius is flat, so every
term is b again: it is built by flatness from b's generators as the round
trip would leave them, after the overflow test b^[p^n] would run.  Quotient
rings compute the round trip root^n(b^[p^n]).  No effective global
stabilisation bound is known to us, so results carry certified=False.
"""

from __future__ import annotations

from typing import Optional

from .errors import CharpError, DepthExceeded, InputError, NotContainingQuotient
from .ideals import Ideal, _aux_cover, _eliminate, _monomial_ideal
from .orders import FrozenRecord, as_index
from .poly import E_MAX, frobenius_scale


def frob_power(I: Ideal, e: int) -> Ideal:
    """I^[p^e]: generator-wise Frobenius (quotient generators re-enter implicitly)."""
    if as_index(e, "Frobenius power exponent", 0) == 0:
        return I
    return Ideal(I.ring, [g.frobenius(e) for g in I.generators])


def frob_root(I: Ideal, e: int = 1) -> Ideal:
    """The e-fold root {r : r^(p^e) in I}.

    Each step takes the first route that applies to its ideal: the
    exponent-ceiling shortcut when it is monomial, the generator-wise roots
    when the ring is a polynomial ring and every generator is a p-th power
    (flatness of the Frobenius, Kunz), and a p-power elimination otherwise.
    A flat step roots k times at once, for the largest k up to the steps
    left at which every generator is a p^k-th power, so the root of I^[p^e]
    in a polynomial ring is one step and computes no basis, and a monomial
    step that leaves the minimal generators as they were is the last.  In a
    quotient ring every step is an elimination, and the ideal must contain
    the quotient generators (NotContainingQuotient otherwise).
    """
    e = as_index(e, "Frobenius root exponent", 0)  # an int, so the countdown below ends at 0
    while e:
        monomial = I.is_monomial()
        k, roots = (0, None) if monomial or I.ring.is_quotient() else _p_roots(I.generators, e)
        if k:
            I, e = Ideal(I.ring, roots), e - k
        elif monomial:
            I, last, e = _frob_root_monomial(I), I, e - 1
            if e and I.minimal_monomial_exps() == last.minimal_monomial_exps():
                return I  # a fixed point: every later step rebuilds these generators
        else:
            I, e = _frob_root_elimination(I), e - 1
    return I


def _frob_root_elimination(I: Ideal) -> Ideal:
    """The root by eliminating T from I(T) + (X_i - T_i^p), in plain and
    quotient rings alike."""
    ring = I.ring
    for g in ring.quotient:
        if not I.contains(g):
            raise NotContainingQuotient("ideal does not contain the quotient generators")
    d = ring.nvars
    ext, ts, _ = _aux_cover(ring, d)
    gens = [g._moved(ext) for g in I.effective_generators()]
    gens += [ext.var(v) - t.frobenius(1) for v, t in zip(ring.vars, ts)]
    return _eliminate(gens, ext, d, ring)


def _p_roots(gens, e: int) -> tuple:
    """The largest k <= e at which every generator is a p^k-th power, with
    the p^k-th roots; (0, None) when some generator is no p-th power.  Only
    constants are p^E_MAX-th powers, so k starts at min(e, E_MAX)."""
    for k in range(min(e, E_MAX), 0, -1):
        roots = [g.try_p_root(k) for g in gens]
        if all(r is not None for r in roots):
            return k, roots
    return 0, None


def _frob_root_monomial(I: Ideal) -> Ideal:
    """Ceiling shortcut: the root of (X^a) is generated by X^ceil(a/p)."""
    p = I.ring.p
    return _monomial_ideal(I.ring, [tuple(-(-e // p) for e in r)
                                    for r in I.minimal_monomial_exps()])


class FClosureResult(FrozenRecord):
    __slots__ = ("closure", "stabilized_at", "certified", "steps", "witnesses")

    def __init__(self, closure: Ideal, stabilized_at: int, certified: bool, steps: list,
                 witnesses: Optional[list] = None):
        super().__init__(closure, stabilized_at, certified, steps,
                         [] if witnesses is None else witnesses)


def f_closure(b: Ideal, max_e: int = 10, confirm: int = 2) -> FClosureResult:
    """Union over n of the n-fold Frobenius root of b^[p^n].

    Iterates I_n = root^n(b^[p^n]), an ascending chain, and stops once
    `confirm` consecutive equalities are seen.  In a polynomial ring I_n = b
    by flatness (Kunz), which settles the ascent and the equalities: closure b
    at 0, no witnesses.  Each of the `confirm` terms is still built on the
    generators the round trip leaves (for a monomial b its minimal ones),
    raising ExponentOverflow where b^[p^n] would, and its basis read, then
    b's.  A quotient ring computes the round trip.  The stop is heuristic
    (certified=False).  Raises DepthExceeded with the partial chain when the
    chain still moves or is unconfirmed at max_e, and InputError when it
    stands still there but confirm > max_e left no room to confirm it.
    """
    max_e, confirm = as_index(max_e, "max_e", 1), as_index(confirm, "confirm", 1)
    ring, steps, current, equal_run = b.ring, [b], b, 0
    if not ring.is_quotient():
        for n in range(1, min(confirm, max_e) + 1):  # overflow where b^[p^n] would
            frobenius_scale(ring, [x for g in b.generators for x in g.packed], n)
            steps.append(_monomial_ideal(ring, b.minimal_monomial_exps(), minimal=True)
                         if b.is_monomial() else Ideal(ring, b.generators))
            steps[-1].groebner(), b.groebner()  # the reads of the equality test
        if confirm <= max_e:
            return FClosureResult(b, 0, False, steps)
        equal_run = max_e
    else:
        for n in range(1, max_e + 1):
            nxt = frob_root(frob_power(b, n), n)
            if not nxt.contains_ideal(current):
                raise CharpError("F-closure chain failed to ascend")
            steps.append(nxt)
            if nxt == current:
                equal_run += 1
                if equal_run >= confirm:  # the chain first repeated at step n - confirm + 1
                    return FClosureResult(current, n - confirm, False, steps,
                                          _closure_witnesses(b, current, n - confirm))
            else:
                equal_run, current = 0, nxt
    if equal_run and confirm > max_e:  # the chain stands still: only confirm kept it going
        raise InputError(f"confirm {confirm} exceeds max_e {max_e}, so no chain can be confirmed")
    state = "not confirmed within" if equal_run else "still moving after"
    raise DepthExceeded(f"F-closure chain {state} {max_e} steps", partial=steps)


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
