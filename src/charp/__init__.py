"""charp: exact ideal arithmetic in prime characteristic.

Frobenius powers and roots, F-closures, perfect-closure ideals represented
by their term sequences, monomial primary decompositions and linear-growth
certificates, over F_p[X_1..X_d] and reduced quotients.
"""

from .errors import (CertificateFailure, CharpError, DepthExceeded,
                     DistinctLambdaExhausted, ExponentOverflow,
                     GroebnerBudgetExceeded, IdentityFailure, InputError,
                     NonMonomial, NotContainingQuotient)
from .orders import GREVLEX, LEX, MonomialOrder, elim
from .poly import Polynomial, Ring

__all__ = [
    "CertificateFailure", "CharpError", "DepthExceeded",
    "DistinctLambdaExhausted", "ExponentOverflow", "GroebnerBudgetExceeded",
    "IdentityFailure", "InputError", "NonMonomial", "NotContainingQuotient",
    "MonomialOrder", "GREVLEX", "LEX", "elim",
    "Polynomial", "Ring", "Ideal", "GroebnerBudget", "using_budget",
]

from .ideals import GroebnerBudget, Ideal, using_budget  # noqa: E402  (cycle-free, kept last)
