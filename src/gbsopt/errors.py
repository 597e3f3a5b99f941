"""Exception hierarchy shared across the package."""


class GbsOptError(Exception):
    """Base class for all package-specific errors."""


class InvalidStateError(GbsOptError):
    """A Gaussian state (or derived quantity) violates its invariants.

    Raised when covariance matrices are singular or non-positive, when
    an O-submatrix is not Hermitian or I minus it is not positive definite
    on some subset, or when a probability leaves its admissible range by
    more than roundoff.
    """


class CapacityError(GbsOptError):
    """A requested problem size exceeds an enumeration or solver cap."""


class GenerationError(GbsOptError):
    """Random instance generation could not satisfy its postconditions."""


class TrainingFailedError(GbsOptError):
    """Optimization diverged (non-finite cost). Carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = tuple(trace) if trace is not None else ()
