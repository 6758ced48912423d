"""Exception types shared across the package, and the check of a whole-number argument."""

import math


class GpchaosError(Exception):
    """Base of every error the package raises on purpose, for a stated reason."""


class DomainError(GpchaosError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NotDifferentiable(DomainError):
    """A requested derivative of the covariance does not exist at the origin."""


class NoBRepresentation(DomainError):
    """No square-integrable moving-average kernel is available for this covariance."""


class EmbeddingFailure(GpchaosError, RuntimeError):
    """Circulant embedding produced eigenvalues too negative to clip safely."""


class NonFiniteResult(GpchaosError, RuntimeError):
    """A computed report value is NaN or infinite, so no strict JSON exists."""


class QuadratureFailure(GpchaosError, RuntimeError):
    """An adaptive quadrature returned a value its integrand rules out."""


def whole(value, message: str, low=0, high=math.inf) -> int:
    """``value`` as an int, or DomainError(message) unless it is a whole
    number in [low, high]; NaN and the infinities are not whole numbers."""
    try:
        ok = int(value) == value and low <= value <= high
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(message)
    return int(value)
