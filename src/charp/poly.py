"""Sparse multivariate polynomials over a prime field.

A Ring fixes the characteristic p, the ordered variable names, the active
monomial order and (optionally) quotient generators J, in which case the
ring denotes F_p[vars]/J and all ideal-level code works with full preimages.
The ring checks that p is a prime below 2**31, so that a product of two
coefficients in [0, p) fits in a signed 64-bit integer.

Polynomials are immutable.  Term data lives in the parallel lists of packed
ints described in _kernels.py, always sorted strictly descending under the
ring's order; every kernel takes and returns them, so no term is converted
between formats.  Exponents are checked against EXP_LIMIT so that
Frobenius powers fail loudly instead of overflowing a packed field.
"""

from __future__ import annotations

import functools
import re
from collections import OrderedDict
from itertools import accumulate
from operator import index, mul
from typing import Iterable, Optional, Sequence

from . import _kernels as K
from .errors import ExponentOverflow, InputError
from .orders import GREVLEX, MonomialOrder, as_index

EXP_LIMIT = 2**56
E_MAX = EXP_LIMIT.bit_length()  # p^E_MAX > EXP_LIMIT: only constants are p^E_MAX-th powers
P_MAX = 2**31

_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def is_prime(n: int) -> bool:
    """Trial division; fine for n < 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _check_exps(rows) -> None:
    if max(map(max, rows), default=0) > EXP_LIMIT:
        raise ExponentOverflow(f"exponent exceeds {EXP_LIMIT}")


@functools.lru_cache(maxsize=None)
def _units(order: MonomialOrder, nvars: int) -> tuple:
    """``K.units`` of the order's key matrix as tuples, once per order and nvars
    (a ring has at most 64 variables, so few keys arise)."""
    return tuple(map(tuple, K.units(order.key_matrix(nvars))))


class Ring:
    """F_p[vars] with a fixed monomial order, optionally modulo quotient generators."""

    __slots__ = ("p", "vars", "order", "_quotient", "reduced_assertion",
                 "_key_units", "_exp_units", "_var_index", "_bases", "__weakref__")

    def __init__(self, p: int, vars: Sequence[str], order: MonomialOrder = GREVLEX,
                 quotient: Sequence["Polynomial"] = (), reduced: Optional[bool] = None):
        if not isinstance(p, int) or not 2 <= p < P_MAX:
            raise InputError(f"characteristic must be an integer in [2, 2^31), got {p!r}")
        if not is_prime(p):
            raise InputError(f"characteristic must be prime, got {p}")
        if not isinstance(order, MonomialOrder):
            raise InputError(f"order must be a MonomialOrder, got {order!r}")
        quotient = tuple(quotient)
        if not all(isinstance(q, Polynomial) for q in quotient):
            raise InputError("quotient generators must be polynomials")
        self.p = p
        if isinstance(vars, str):
            raise InputError(f"variables must be a sequence of names, got the string {vars!r}")
        vars = tuple(vars)
        if not vars:
            raise InputError("a ring needs at least one variable")
        if len(set(vars)) != len(vars):
            raise InputError(f"duplicate variable names in {vars}")
        for v in vars:
            if not isinstance(v, str) or not _VAR_RE.fullmatch(v):
                raise InputError(f"bad variable name {v!r}")
        if len(vars) > 64:
            raise InputError("at most 64 variables are supported")
        self.vars = vars
        self.order = order
        self._key_units, self._exp_units = _units(order, len(vars))
        self._var_index = {v: i for i, v in enumerate(vars)}
        self.reduced_assertion = reduced
        self._bases = OrderedDict()  # reduced bases of this ring's ideals (charp.ideals)
        # term lists, as in _bases: Polynomials would refer back to the ring
        # and leave it, with its bases, to the cycle collector
        self._quotient = tuple((g.keys, g.packed, g.coeffs)
                               for g in (q._rebind(self) for q in quotient) if not g.is_zero())

    # -- basic properties ---------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.vars)

    @property
    def quotient(self) -> tuple:
        """The quotient generators, built from their term lists on each read."""
        return tuple(Polynomial(self, *terms) for terms in self._quotient)

    def is_quotient(self) -> bool:
        return bool(self._quotient)

    def cover(self) -> "Ring":
        """The covering polynomial ring (self if there is no quotient)."""
        if not self._quotient:
            return self
        return Ring(self.p, self.vars, self.order)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Ring):
            return NotImplemented
        return (self.p == other.p and self.vars == other.vars
                and self.order == other.order
                and self._quotient_data() == other._quotient_data())

    def __hash__(self):
        return hash((self.p, self.vars, self.order, self._quotient_data()))

    def _quotient_data(self) -> tuple:
        return tuple((tuple(packed), tuple(coeffs)) for _, packed, coeffs in self._quotient)

    def __repr__(self):
        base = f"F_{self.p}[{', '.join(self.vars)}]"
        if self._quotient:
            base += " / (" + ", ".join(str(g) for g in self.quotient) + ")"
        return base

    # -- construction -------------------------------------------------------

    def key_of(self, vec) -> int:
        """The packed sort key of an exponent vector."""
        return sum(map(mul, vec, self._key_units))

    def pack(self, vec) -> int:
        """The packed exponents of an exponent vector."""
        return sum(map(mul, vec, self._exp_units))

    def unpack(self, e: int) -> tuple:
        """The exponent tuple of packed exponents."""
        return K.unpack(e, len(self.vars))

    def zero(self) -> "Polynomial":
        return Polynomial(self, [], [], [])

    def constant(self, c: int) -> "Polynomial":
        try:
            c = index(c) % self.p
        except TypeError:
            raise InputError(f"coefficient must be an integer, got {c!r}") from None
        if c == 0:
            return self.zero()
        return Polynomial(self, [0], [0], [c])

    def one(self) -> "Polynomial":
        return self.constant(1)

    def var(self, name: str) -> "Polynomial":
        try:
            i = self._var_index[name]
        except KeyError:
            raise InputError(f"unknown variable {name!r} in {self!r}") from None
        return Polynomial(self, [self._key_units[i]], [self._exp_units[i]], [1])

    def monomial(self, exps, coeff: int = 1) -> "Polynomial":
        """Single term with the given exponent vector."""
        try:
            vec, c = list(map(index, exps)), index(coeff) % self.p
        except TypeError:
            raise InputError(f"exponents and coefficient must be integers, "
                             f"got {exps!r} and {coeff!r}") from None
        if len(vec) != self.nvars:
            raise InputError(f"exponent vector must have length {self.nvars}")
        if min(vec) < 0:
            raise InputError("negative exponent")
        if c == 0:
            return self.zero()
        _check_exps([vec])
        return Polynomial(self, [self.key_of(vec)], [self.pack(vec)], [c])

    def from_terms(self, terms: Iterable[tuple]) -> "Polynomial":
        """Build from (exponent-vector, coefficient) pairs; merges duplicates."""
        rows = []
        coeffs = []
        try:
            for vec, c in terms:
                row = list(map(index, vec))
                if len(row) != self.nvars:
                    raise InputError(f"exponent vector must have length {self.nvars}")
                rows.append(row)
                coeffs.append(index(c) % self.p)
        except TypeError:
            raise InputError("exponents and coefficients must be integers") from None
        if not rows:
            return self.zero()
        if min(map(min, rows)) < 0:
            raise InputError("negative exponent")
        _check_exps(rows)
        return Polynomial(self, *K.combine([self.key_of(r) for r in rows],
                                           [self.pack(r) for r in rows], coeffs, self.p))

    def parse(self, text: str) -> "Polynomial":
        if not isinstance(text, str):
            raise InputError(f"polynomial text must be a string, got {text!r}")
        tokens = _tokenize(text)
        if not tokens:
            raise InputError("empty polynomial", "col 1")
        tokens.append((None, None, len(text) + 1))
        result, pos = _parse_sum(self, tokens, 0)
        kind, value, col = tokens[pos]
        if kind is not None:
            raise InputError(f"unexpected token {value!r}", f"col {col}")
        return result

    def coerce(self, x) -> "Polynomial":
        if isinstance(x, Polynomial):
            if x.ring != self:
                raise InputError("polynomial belongs to a different ring")
            return x if x.ring is self else x._rebind(self)
        if isinstance(x, int):
            return self.constant(x)
        if isinstance(x, str):
            return self.parse(x)
        raise InputError(f"cannot coerce {x!r} into {self!r}")


class Polynomial:
    """Immutable sparse polynomial; terms sorted descending under the ring order.

    ``keys``, ``packed`` and ``coeffs`` are the kernel lists; ``exps``
    decodes the exponent tuples.
    """

    __slots__ = ("ring", "keys", "packed", "coeffs")

    def __init__(self, ring: Ring, keys: list, packed: list, coeffs: list):
        self.ring = ring
        self.keys = keys
        self.packed = packed
        self.coeffs = coeffs

    def _rebind(self, ring: Ring) -> "Polynomial":
        """Same term data viewed in a compatible ring (same p and variables)."""
        if ring.p != self.ring.p or ring.vars != self.ring.vars:
            raise InputError("cannot rebind polynomial across different variable sets")
        if ring.order == self.ring.order:
            return Polynomial(ring, self.keys, self.packed, self.coeffs)
        return self._moved(ring)

    def _moved(self, ring: Ring, offset: int = 0) -> Optional["Polynomial"]:
        """This polynomial in ring (same p), variable i read as variable i + offset
        and the other exponents 0; None at the first term with a variable that has
        no image (i < -offset), so an elimination order decodes only such a lead."""
        drop = max(-offset, 0)
        head, tail = (0,) * max(offset, 0), (0,) * (ring.nvars - self.ring.nvars - offset)
        terms = []
        for vec, c in self.terms():
            if any(vec[:drop]):
                return None
            terms.append((head + vec[drop:] + tail, c))
        return ring.from_terms(terms)

    def _check_fields(self, bound: int, what: str) -> None:
        """Raise ExponentOverflow when an exponent exceeds bound.  Every field
        is below 2^63 (a product of polynomials within EXP_LIMIT has fields up
        to 2^57), so top - x keeps each guard bit iff no field of x exceeds bound."""
        guard = K.guard_bits(self.ring.nvars)
        top = K.spread(bound, self.ring.nvars) | K.DEGREE >> 1 | guard  # any degree field
        if any((top - x) & guard != guard for x in self.packed):
            raise ExponentOverflow(f"{what} exceeds {EXP_LIMIT}")

    # -- inspection ----------------------------------------------------------

    @property
    def exps(self) -> tuple:
        """The exponent tuples of the terms, descending."""
        return tuple(map(self.ring.unpack, self.packed))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == [1] and self.packed[0] == 0

    def is_monomial(self) -> bool:
        """Single-term polynomial (any coefficient)."""
        return len(self.coeffs) == 1

    def lead_coeff(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no lead term")
        return self.coeffs[0]

    def terms(self):
        """Iterate (exponent tuple, coefficient) pairs, descending."""
        return zip(map(self.ring.unpack, self.packed), self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise InputError("mixed-ring arithmetic")
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return Polynomial(self.ring, *K.axpy(self.keys, self.packed, self.coeffs, other.keys,
                                             other.packed, other.coeffs, 1, self.ring.p))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return Polynomial(self.ring, *K.axpy(self.keys, self.packed, self.coeffs, other.keys,
                                             other.packed, other.coeffs,
                                             self.ring.p - 1, self.ring.p))

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self.ring.zero() - self

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        out = Polynomial(self.ring, *K.mul(self.keys, self.packed, self.coeffs, other.keys,
                                           other.packed, other.coeffs, self.ring.p))
        out._check_fields(EXP_LIMIT, "exponent")
        return out

    __rmul__ = __mul__

    def power(self, m: int) -> "Polynomial":
        """g**m by binary exponentiation; m >= 0."""
        m = as_index(m, "polynomial power", 0)
        result = self.ring.one()
        base = self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    __pow__ = power

    def frobenius(self, e: int) -> "Polynomial":
        """g**(p**e) by scaling every exponent; coefficients are fixed by Fermat."""
        if as_index(e, "Frobenius exponent", 0) == 0 or self.is_zero():
            return self
        scale = self.ring.p ** (e if e < E_MAX else E_MAX)
        self._check_fields(EXP_LIMIT // scale, f"Frobenius scaling by p^{e}")
        return Polynomial(self.ring, [k * scale for k in self.keys],
                          [x * scale for x in self.packed], self.coeffs)

    def try_p_root(self, e: int = 1) -> Optional["Polynomial"]:
        """The unique p^e-th root, or None when some exponent is not divisible by p^e.

        With y = x // p^e for each packed int x, that holds when y * p^e == x
        and no field of y exceeds (2^63 - 1) // p^e, so no field carries into
        the next; divisibility of x alone is wrong (X*Y^2 over F_3 packs to a
        multiple of 3)."""
        e = as_index(e, "root exponent", 0)
        q, guard = self.ring.p ** (e if e < E_MAX else E_MAX), K.guard_bits(self.ring.nvars)
        bound = (K.DEGREE >> 1) // q
        top = K.spread(bound, self.ring.nvars) | bound | guard
        roots = [x // q for x in self.packed]
        if any(y * q != x or y & guard or (top - y) & guard != guard
               for x, y in zip(self.packed, roots)):
            return None
        return Polynomial(self.ring, [k // q for k in self.keys], roots, self.coeffs)

    def _shifted(self, i: int, c: int) -> "Polynomial":
        """This polynomial with X_i + c put for variable i.  By Lucas's theorem,
        C(e, k) mod p is the product of the binomials of the base-p digits, so a
        term a*X_i^e expands into distinct nonzero terms a*C(e, k)*c^(e-k)*X_i^k,
        and the linear packings move its key and exponents by k - e units of X_i."""
        ring, p = self.ring, self.ring.p
        c = as_index(c, "shift constant") % p
        if not c:
            return self
        key_unit, exp_unit = ring._key_units[i], ring._exp_units[i]
        out = ring.zero()
        for key, x, a in zip(self.keys, self.packed, self.coeffs):
            e = rest = K.exponent(x, i)
            binoms, place = [(0, 1)], 1  # (k, C(e, k) mod p), k descending
            while rest:
                rest, d = divmod(rest, p)
                row = list(accumulate(range(d), lambda b, j: b * (d - j) * pow(j + 1, -1, p) % p,
                                      initial=1))  # C(d, j), symmetric in j and d - j
                binoms = [(k + j * place, b * row[j] % p) for j in range(d, -1, -1)
                          for k, b in binoms]
                place *= p
            out = out + Polynomial(ring, [key + (k - e) * key_unit for k, _ in binoms],
                                   [x + (k - e) * exp_unit for k, _ in binoms],
                                   [a * b * pow(c, e - k, p) % p for k, b in binoms])
        return out

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, int):
                return self == self.ring.constant(other)
            return NotImplemented
        return (self.ring == other.ring and self.packed == other.packed
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring.p, self.ring.vars, tuple(self.packed), tuple(self.coeffs)))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for vec, c in self.terms():
            factors = []
            for v, e in zip(self.ring.vars, vec):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over {self.ring!r}>"


# ---------------------------------------------------------------------------
# text grammar: a sum is terms joined by +/-, optionally led by a sign; a term
# is factors joined by *; a factor is a coefficient, VAR, VAR^k or a
# parenthesised sum.  Coefficients are reduced mod p.
# ---------------------------------------------------------------------------

# every character but whitespace starts a token, so a scan skips only the
# whitespace after the last one
_TOKENS = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()])"
                     r"|(?P<bad>\S))")


def _tokenize(text: str):
    out = []
    for m in _TOKENS.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise InputError(f"unexpected character {m[kind]!r}", f"col {m.start(kind) + 1}")
        out.append((kind, m[kind], m.start(kind) + 1))
    return out


def _parse_sum(ring: Ring, tokens: list, pos: int):
    """Parse the sum starting at tokens[pos]; return it and the position after it.

    ``tokens`` is the ``_tokenize`` list followed by the end sentinel
    ``(None, None, len(text) + 1)``, so a lookahead never runs off the end.

    A term without parentheses is one exponent row and one coefficient; only a
    parenthesised factor multiplies polynomials.  Exponents are checked as each
    factor arrives, exactly where a left-to-right product would overflow, so
    the rows are packed as they are, and only a sum of several terms is merged.
    """
    n, p = ring.nvars, ring.p
    terms = []  # (key, packed exponents, coefficient)
    sign = -1 if tokens[pos][1] == "-" else 1
    pos += tokens[pos][1] in ("+", "-")
    while True:
        row, c, poly, top = [0] * n, sign, None, [0] * n  # top: largest exponents in poly
        while True:
            kind, value, col = tokens[pos]
            pos += 1
            if kind == "int":
                c = c * int(value) % p
            elif kind == "var":
                i = ring._var_index.get(value)
                if i is None:
                    raise InputError(f"unknown variable {value!r}", f"col {col}")
                exp = 1
                if tokens[pos][1] == "^":
                    kind, value, col = tokens[pos + 1]
                    if kind != "int":
                        raise InputError("expected integer exponent after '^'", f"col {col}")
                    pos += 2
                    exp = int(value)
                    if exp > EXP_LIMIT:
                        raise ExponentOverflow(f"exponent {exp} exceeds {EXP_LIMIT}")
                row[i] += exp
                if c and row[i] + top[i] > EXP_LIMIT:
                    raise ExponentOverflow(f"exponent exceeds {EXP_LIMIT}")
            elif value == "(":
                inner, pos = _parse_sum(ring, tokens, pos)
                kind, value, col = tokens[pos]
                if value != ")":
                    raise InputError("expected ')'", f"col {col}")
                pos += 1
                head = ring.monomial(row, c)
                poly = (head if poly is None else poly * head) * inner
                row, c = [0] * n, int(not poly.is_zero())
                top = [max(column) for column in zip(*poly.exps)]
            else:
                raise InputError("expected a coefficient, variable or '('", f"col {col}")
            if tokens[pos][1] != "*":
                break
            pos += 1
        if poly is not None:
            poly = poly * ring.monomial(row, c)
            terms += zip(poly.keys, poly.packed, poly.coeffs)
        elif c:
            terms.append((ring.key_of(row), ring.pack(row), c % p))
        value = tokens[pos][1]
        if value not in ("+", "-"):
            lists = [list(column) for column in zip(*terms)] or [[], [], []]
            return Polynomial(ring, *(K.combine(*lists, p) if len(terms) > 1 else lists)), pos
        sign = -1 if value == "-" else 1
        pos += 1
