"""Spectral heat-kernel laboratory.

Reduction constants for momentum integrals, certified eigenvalue streams for
rectangular boxes, heat-trace regularization with finite-part extraction, a
stochastic-source estimator for regulated traces, box self-interaction
integrals with concavity and positivity checks, and the parallel-plate
pipeline that ties them together.
"""

from . import errors
from .errors import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*errors.__all__, "__version__"]
