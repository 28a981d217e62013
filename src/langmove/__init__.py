"""Langevin movement model: simulation and habitat-selection inference.

A library for continuous-time animal movement whose stationary
distribution is a habitat-selection (RSF) density over spatial
covariates.  It provides gridded covariate handling with exact bilinear
gradients, trajectory simulation via the Euler scheme, track thinning,
and closed-form pseudo-likelihood estimation of the selection
coefficients and speed parameter with confidence intervals.

The package exports the public names of its library modules: each
module's ``__all__`` is the one list of them, and the package's
``__all__`` joins those lists.  The studies, the error types and the
command line stay in ``experiments``, ``errors`` and ``cli``.
"""

from . import covariates, inference, langevin, raster, rsf, seeding
from .covariates import *  # noqa: F403
from .inference import *  # noqa: F403
from .langevin import *  # noqa: F403
from .raster import *  # noqa: F403
from .rsf import *  # noqa: F403
from .seeding import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name for module in (covariates, inference, langevin, raster, rsf, seeding) for name in module.__all__
]
