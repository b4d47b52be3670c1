"""Monomial orders as integer key matrices.

Every order used here can be realised as a linear map on exponent vectors:
monomial a precedes monomial b (a > b) exactly when the integer row
``a @ M`` is lexicographically greater than ``b @ M``.  The kernels pack
that row into one int whose integer order is the row order (see
_kernels.py), so comparing monomials is comparing ints.

Supported kinds:

* ``grevlex`` -- graded reverse lexicographic (the default);
  key = (total degree, -e_last, ..., -e_first).
* ``lex``     -- plain lexicographic; key = the exponent vector itself.
* ``elim(k)`` -- block order eliminating the first k variables: grevlex on
  the first block dominates, then grevlex on the rest.

All keys determine the exponent vector uniquely, so key equality is
monomial equality.
"""

import operator

from .errors import InputError


def as_index(value, what: str, low=None) -> int:
    """``value`` read through ``operator.index``; InputError if it is no
    integer, or if it lies below ``low`` when a floor is given."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise InputError(f"{what} must be >= {low}, got {value}")
    return value


class FrozenRecord:
    """Two or more fields named by ``__slots__``, fixed at construction, with
    the equality, hash and repr of a frozen dataclass but not its import cost."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = property(operator.attrgetter(*cls.__slots__))  # the field tuple

    def __init__(self, *values, **fields):
        """The fields by position or keyword; a missing, repeated or unknown one raises TypeError."""
        given = len(values) + len(fields)
        fields.update(zip(self.__slots__, values))
        if given != len(self.__slots__) or fields.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(self.__slots__)}")
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self):
        return hash(self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields))
        return f"{type(self).__qualname__}({fields})"


class MonomialOrder(FrozenRecord):
    __slots__ = ("kind", "block")

    def __init__(self, kind: str, block: int = 0):
        if kind not in ("grevlex", "lex", "elim"):
            raise InputError(f"unknown monomial order {kind!r}")
        block = as_index(block, "order block size")
        if kind == "elim" and block < 1:
            raise InputError("elimination order needs a positive block size")
        if kind != "elim" and block != 0:
            raise InputError(f"{kind} order takes no block size, got {block}")
        super().__init__(kind, block)

    def key_matrix(self, nvars: int) -> list:
        """The rows of the integer matrix M, one per variable, with
        a > b iff a@M >lex b@M."""
        if self.kind == "lex":
            return [[int(i == j) for j in range(nvars)] for i in range(nvars)]
        if self.kind == "grevlex":
            return _grevlex_block(nvars, 0, nvars)
        k = self.block
        if k > nvars:
            raise InputError(f"elimination block {k} exceeds variable count {nvars}")
        rows = _grevlex_block(nvars, 0, k)
        if k < nvars:
            rows = [a + b for a, b in zip(rows, _grevlex_block(nvars, k, nvars))]
        return rows

    def __str__(self):
        if self.kind == "elim":
            return f"elim({self.block})"
        return self.kind


def _grevlex_block(nvars, lo, hi):
    """Grevlex key columns for variables in [lo, hi): degree, then -e reversed."""
    return [[int(lo <= i < hi)] + [-int(i == hi - 1 - j) for j in range(hi - lo)]
            for i in range(nvars)]


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elim(k: int) -> MonomialOrder:
    return MonomialOrder("elim", k)


def parse_order(text: str) -> MonomialOrder:
    text = text.strip().lower()
    if text == "grevlex":
        return GREVLEX
    if text == "lex":
        return LEX
    if text.startswith("elim(") and text.endswith(")"):
        inner = text[5:-1]
        try:
            return elim(int(inner))
        except ValueError:
            pass
    raise InputError(f"cannot parse monomial order {text!r}")
