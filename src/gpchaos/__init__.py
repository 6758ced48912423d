"""Chaos-expansion and Monte Carlo tools for time-integrated functionals of
stationary Gaussian processes.

The package is organized around a catalog of covariance kernels
(:mod:`gpchaos.kernels`), sufficient-condition checks on those kernels
(:mod:`gpchaos.conditions`), the 2x2 cross-correlation structure of a process
and its derivative (:mod:`gpchaos.covstruct`), small asymptotic identities
(:mod:`gpchaos.asymptotics`), Wiener-chaos spectra and Sobolev norms
(:mod:`gpchaos.chaos`), and a circulant-embedding path sampler with
Monte Carlo oracles (:mod:`gpchaos.montecarlo`).  ``gpchaos.cli`` exposes all
of it as a command line tool.
"""

__version__ = "0.3.0"

from .errors import (
    DomainError,
    EmbeddingFailure,
    GpchaosError,
    NoBRepresentation,
    NotDifferentiable,
)

__all__ = [
    "GpchaosError",
    "DomainError",
    "NotDifferentiable",
    "NoBRepresentation",
    "EmbeddingFailure",
    "__version__",
]
