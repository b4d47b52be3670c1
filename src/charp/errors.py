"""Exception types shared across the package."""


class CharpError(Exception):
    """Base class for all errors raised by charp."""


class InputError(CharpError):
    """Malformed user input (spec files, polynomial strings, bad parameters).

    Carries its bare message and an optional location string ("file",
    "section [x] key y, col 12"); the text shows the location after the message.
    """

    def __init__(self, message, location=None):
        self.message, self.location = message, location
        super().__init__(f"{message} (at {location})" if location else message)


class ExponentOverflow(CharpError):
    """An exponent left the checked 64-bit safe range."""


class GroebnerBudgetExceeded(CharpError):
    """A Groebner computation exceeded its pair/term/degree budget."""

    def __init__(self, which, limit):
        self.which = which
        self.limit = limit
        super().__init__(f"budget exceeded: {which} > {limit}")


class NotContainingQuotient(InputError):
    """An ideal in a quotient ring does not contain the quotient generators."""


class DepthExceeded(CharpError):
    """An iterated closure chain did not stabilize within its depth cap.

    ``partial`` holds the chain of ideals computed before giving up.
    """

    def __init__(self, message, partial=None):
        self.partial = partial or []
        super().__init__(message)


class NonMonomial(InputError):
    """An operation restricted to (shifted-)monomial ideals saw something else."""


class CertificateFailure(CharpError):
    """A linear-growth containment check failed at a specific term/component."""

    def __init__(self, n, i, detail=""):
        self.n = n
        self.i = i
        msg = f"growth containment failed at term n={n}, component i={i}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class IdentityFailure(CharpError):
    """A constructed decomposition does not intersect back to its target."""

    def __init__(self, witness, detail=""):
        self.witness = witness
        msg = "decomposition identity failed"
        if detail:
            msg += f": {detail}"
        super().__init__(msg + f" (witness: {witness})")


class DistinctLambdaExhausted(InputError):
    """The prime field is too small to supply enough distinct shift constants."""
