"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NotDifferentiable(DomainError):
    """A requested derivative of the covariance does not exist at the origin."""


class NoSpectralDensity(DomainError):
    """No spectral density to evaluate: the spectral measure has atoms, or
    the density has no closed form in the package."""


class NoBRepresentation(DomainError):
    """No square-integrable moving-average kernel is available for this covariance."""


class EmbeddingFailure(RuntimeError):
    """Circulant embedding produced eigenvalues too negative to clip safely."""


class NonFiniteResult(RuntimeError):
    """A computed report value is NaN or infinite, so no strict JSON exists."""


class QuadratureFailure(RuntimeError):
    """An adaptive quadrature returned a value its integrand rules out."""
