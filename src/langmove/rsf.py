"""Habitat-selection model: log-density, its gradient, and gridded density maps.

The space-use density is proportional to ``exp(sum_j beta_j * c_j(p))``
for covariates ``c_j``.  The normalizing constant over the study region
has no closed form; it cancels in the gradient, which is all the
simulation and inference paths need, and is approximated by a midpoint
Riemann sum when a density map is requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covariates import Covariate, rasterize
from .errors import NonFiniteError
from .raster import Extent, GridGeometry, GridRaster

__all__ = ["RsfModel", "ud_raster"]


@dataclass(frozen=True, eq=False)
class RsfModel:
    """Selection coefficients, speed parameter, and the covariates defining them.

    Parameters
    ----------
    covariates : sequence of Covariate
        The ordered covariate set ``c_1 .. c_J``.
    beta : array_like, shape (J,)
        Habitat-selection coefficients; positive means selection for the
        covariate, negative avoidance.
    gamma2 : float
        Speed parameter; scales both drift and diffusion of the movement
        model and must be positive.
    """

    covariates: tuple[Covariate, ...]
    beta: np.ndarray
    gamma2: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        b = np.asarray(self.beta, dtype=float).reshape(-1)
        if len(self.covariates) < 1:
            raise ValueError("need at least one covariate")
        if b.shape != (len(self.covariates),):
            raise ValueError(
                f"beta has {b.size} entries for {len(self.covariates)} covariates"
            )
        if not np.all(np.isfinite(b)):
            raise ValueError("beta must be finite")
        if not (self.gamma2 > 0 and np.isfinite(self.gamma2)):
            raise ValueError(f"gamma2 must be positive, got {self.gamma2}")
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma2", float(self.gamma2))
        # plain-float copy for the per-step hot loops
        object.__setattr__(self, "_beta_scalars", tuple(float(v) for v in b))

    def log_pi_unnormalized(self, p: Sequence[float]) -> float:
        """Log space-use density at ``p``, up to the normalizing constant."""
        return sum(b * c.value(p) for b, c in zip(self._beta_scalars, self.covariates))

    def grad_log_pi(self, p: Sequence[float]) -> tuple[float, float]:
        """Gradient of the log density at ``p`` (normalization-free)."""
        gx = 0.0
        gy = 0.0
        for b, c in zip(self._beta_scalars, self.covariates):
            cx, cy = c.gradient(p)
            gx += b * cx
            gy += b * cy
        return gx, gy

    def grad_log_pi_kernel(self):
        """``kernel(x, y) -> (gx, gy)``: :meth:`grad_log_pi` compiled from the
        covariates' point kernels, on Python floats, summed in the same order."""
        terms = tuple(zip(self._beta_scalars, [c.point_kernel() for c in self.covariates]))

        def kernel(x: float, y: float) -> tuple[float, float]:
            gx = 0.0
            gy = 0.0
            for b, grad in terms:
                cx, cy = grad(x, y)
                gx += b * cx
                gy += b * cy
            return gx, gy

        return kernel

    def domain(self) -> Extent | None:
        """Intersection of the covariates' domains; None if unrestricted."""
        ext: Extent | None = None
        for c in self.covariates:
            if c.extent is not None:
                ext = c.extent if ext is None else ext.intersect(c.extent)
        return ext


def ud_raster(model: RsfModel, geometry: GridGeometry) -> GridRaster:
    """Evaluate the model's space-use density on a grid, normalized to integrate to 1.

    The unnormalized log density ``sum_j beta_j * c_j``, with each covariate
    sampled at the cell centers by :func:`~langmove.covariates.rasterize`,
    is shifted by its maximum before exponentiating (overflow safety), and
    divided by the midpoint-rule integral ``sum * cell_size**2``, so the
    returned raster integrates to 1 over its own extent.

    Raises
    ------
    OutOfDomainError
        If the grid extends beyond a covariate's domain.
    NonFiniteError
        If any log-density value is non-finite.
    """
    log_v = sum(b * rasterize(c, geometry).values for b, c in zip(model.beta, model.covariates))
    if not np.all(np.isfinite(log_v)):
        raise NonFiniteError("log density is non-finite on the requested grid")
    dens = np.exp(log_v - log_v.max())
    dens /= dens.sum() * geometry.cell_size**2
    return GridRaster(geometry, dens)
