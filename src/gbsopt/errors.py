"""Exception hierarchy shared across the package."""


class GbsOptError(Exception):
    """Base class for all package-specific errors."""


class InvalidStateError(GbsOptError):
    """A Gaussian state (or derived quantity) violates its invariants.

    Raised when a state's covariance blocks P and Q are malformed (wrong
    shape, not finite or not exactly symmetric), when a principal
    submatrix of P or Q that a probability needs is not positive definite
    (a failed Cholesky factorization, or a non-positive closed-form 1 x 1
    or 2 x 2 minor), or when a probability leaves its admissible range by
    more than roundoff.
    """


class CapacityError(GbsOptError):
    """A size exceeds the one mode cap, 20 (``BRUTE_FORCE_CAP``), of every
    2^N table: the click law, the pattern energies, instances and plans."""


class GenerationError(GbsOptError):
    """Random instance generation could not satisfy its postconditions."""


class TrainingFailedError(GbsOptError):
    """Optimization diverged (non-finite cost). Carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = tuple(trace) if trace is not None else ()
