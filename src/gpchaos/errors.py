"""Exception types shared across the package."""


class GpchaosError(Exception):
    """Base of every error the package raises on purpose, for a stated reason."""


class DomainError(GpchaosError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NotDifferentiable(DomainError):
    """A requested derivative of the covariance does not exist at the origin."""


class NoSpectralDensity(DomainError):
    """No spectral density to evaluate: the spectral measure has atoms, or
    the density has no closed form in the package."""


class NoBRepresentation(DomainError):
    """No square-integrable moving-average kernel is available for this covariance."""


class EmbeddingFailure(GpchaosError, RuntimeError):
    """Circulant embedding produced eigenvalues too negative to clip safely."""


class NonFiniteResult(GpchaosError, RuntimeError):
    """A computed report value is NaN or infinite, so no strict JSON exists."""


class QuadratureFailure(GpchaosError, RuntimeError):
    """An adaptive quadrature returned a value its integrand rules out."""
