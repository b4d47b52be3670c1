"""The prime field F_p with machine-integer arithmetic.

p is capped below 2**31 so that products of two reduced residues fit in a
signed 64-bit integer without multiprecision.
"""

from .errors import InputError

P_MAX = 2**31


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


class PrimeField:
    """F_p for a checked prime 2 <= p < 2**31.  Elements are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < P_MAX:
            raise InputError(f"characteristic must be an integer in [2, 2^31), got {p!r}")
        if not is_prime(p):
            raise InputError(f"characteristic must be prime, got {p}")
        self.p = p

    def reduce(self, a: int) -> int:
        return a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"
