"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NotDifferentiable(DomainError):
    """A requested derivative of the covariance does not exist at the origin."""


class NoSpectralDensity(DomainError):
    """The covariance has no spectral density (its spectral measure has atoms)."""


class NoBRepresentation(DomainError):
    """No square-integrable moving-average kernel is available for this covariance."""


class EmbeddingFailure(RuntimeError):
    """Circulant embedding produced eigenvalues too negative to clip safely."""


class NonFiniteResult(RuntimeError):
    """A computed report value is NaN or infinite, so no strict JSON exists."""
