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

from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class MonomialOrder:
    kind: str
    block: int = 0

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "elim"):
            raise InputError(f"unknown monomial order {self.kind!r}")
        if self.kind == "elim" and self.block < 1:
            raise InputError("elimination order needs a positive block size")

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
