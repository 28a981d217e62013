"""Langevin movement model: simulation and habitat-selection inference.

A library for continuous-time animal movement whose stationary
distribution is a habitat-selection (RSF) density over spatial
covariates.  It provides gridded covariate handling with exact bilinear
gradients, trajectory simulation via the Euler scheme, track thinning,
and closed-form pseudo-likelihood estimation of the selection
coefficients and speed parameter with confidence intervals.
"""

from .covariates import (
    AnalyticWavelet,
    Covariate,
    RandomFieldSpec,
    RasterCovariate,
    SquaredDistance,
    WaveletParams,
    generate_random_field,
)
from .inference import (
    DesignMatrices,
    FitResult,
    build_design,
    fit,
    pooled_fit,
    pseudo_log_likelihood,
)
from .langevin import (
    SimConfig,
    SimResult,
    Track,
    read_track_csv,
    simulate,
    thin_irregular,
    thin_regular,
    write_track_csv,
)
from .raster import (
    Extent,
    GridGeometry,
    GridRaster,
    interpolate,
    interpolate_gradient,
    read_ascii_grid,
    write_ascii_grid,
)
from .rsf import RsfModel, ud_raster
from .seeding import derive_rng

__version__ = "0.1.0"

__all__ = [
    "AnalyticWavelet",
    "Covariate",
    "DesignMatrices",
    "Extent",
    "FitResult",
    "GridGeometry",
    "GridRaster",
    "RandomFieldSpec",
    "RasterCovariate",
    "RsfModel",
    "SimConfig",
    "SimResult",
    "SquaredDistance",
    "Track",
    "WaveletParams",
    "build_design",
    "derive_rng",
    "fit",
    "generate_random_field",
    "interpolate",
    "interpolate_gradient",
    "pooled_fit",
    "pseudo_log_likelihood",
    "read_ascii_grid",
    "read_track_csv",
    "simulate",
    "thin_irregular",
    "thin_regular",
    "ud_raster",
    "write_ascii_grid",
    "write_track_csv",
]
