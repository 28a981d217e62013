"""Habitat-selection model: log-density, its gradient, and gridded density maps.

The space-use density is proportional to ``exp(sum_j beta_j * c_j(p))``
for covariates ``c_j``; the log density and its gradient take an ``(n, 2)``
array of points and return an ``(n,)`` and an ``(n, 2)`` array, and
:meth:`RsfModel.grad_log_pi_kernel` compiles the gradient at one point for
the simulator, bit for bit the array form's row.  The normalizing constant
over the study region has no closed form; it cancels in the gradient, which
is all the simulation and inference paths need, and is approximated by a
midpoint Riemann sum when a density map is requested.

The gradient is linear in the covariates, so the drift sums rasters that
share one grid into one table of ``sum_j beta_j * values_j`` when the model
is built (:func:`drift_terms`): a step locates its cell once and reads one
table.  The sum rounds differently from summing the rasters' gradients, so
tracks simulated from two or more rasters of one grid move in the last
bits; every other quantity is evaluated covariate by covariate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covariates import Covariate, RasterCovariate
from .errors import NonFiniteError
from .raster import Extent, GridGeometry, GridRaster

__all__ = ["RsfModel", "density_maps", "drift_terms", "ud_raster"]


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
        object.__setattr__(self, "_drift", drift_terms(self._beta_scalars, self.covariates))

    def log_pi_unnormalized(self, xy: np.ndarray) -> np.ndarray:
        """Log space-use density at each row of an ``(n, 2)`` array, up to
        the normalizing constant, as an ``(n,)`` array."""
        return sum(b * c.value(xy) for b, c in zip(self._beta_scalars, self.covariates))

    def grad_log_pi(self, xy: np.ndarray) -> np.ndarray:
        """Gradient of the log density at each row of ``xy`` (normalization-free),
        as an ``(n, 2)`` array, summed over the drift terms (:func:`drift_terms`)."""
        return sum(b * c.gradient(xy) for b, c in self._drift)

    def grad_log_pi_kernel(self):
        """``kernel(x, y) -> (gx, gy)``: :meth:`grad_log_pi` compiled from the
        drift terms' point kernels, each scaled by its ``beta``, on Python
        floats, summed in the same order onto ``0.0``.  A drift of one merged
        raster is that raster's kernel: its coefficient is 1.0 and, its table
        summed onto 0, its gradient is never -0.0, which ``0.0 +`` would turn
        into 0.0."""
        if len(self._drift) == 1 < len(self.covariates):
            return self._drift[0][1].point_kernel()
        kernels = tuple(c.point_kernel(b) for b, c in self._drift)

        def kernel(x: float, y: float) -> tuple[float, float]:
            gx = 0.0
            gy = 0.0
            for grad in kernels:
                cx, cy = grad(x, y)
                gx += cx
                gy += cy
            return gx, gy

        return kernel

    def domain(self) -> Extent | None:
        """Intersection of the covariates' domains; None if unrestricted."""
        ext: Extent | None = None
        for c in self.covariates:
            if c.extent is not None:
                ext = c.extent if ext is None else ext.intersect(c.extent)
        return ext


def drift_terms(
    betas: Sequence[float], covariates: Sequence[Covariate]
) -> tuple[tuple[float, Covariate], ...]:
    """The ``(beta, covariate)`` terms whose gradients sum to the drift.

    Raster covariates whose geometries compare equal become one raster of
    ``sum_j beta_j * values_j`` (summed in covariate order) with ``beta``
    1.0, at the position of the first of them; every other covariate,
    including a raster alone on its grid, keeps its own term.
    """
    groups: dict[GridGeometry, list[int]] = {}
    for j, c in enumerate(covariates):
        if isinstance(c, RasterCovariate):
            groups.setdefault(c.raster.geom, []).append(j)
    terms = []
    for j, (b, c) in enumerate(zip(betas, covariates)):
        group = groups.get(c.raster.geom) if isinstance(c, RasterCovariate) else [j]
        if len(group) == 1:
            terms.append((b, c))
        elif group[0] == j:
            table = sum(betas[k] * covariates[k].raster.values for k in group)
            terms.append((1.0, RasterCovariate(GridRaster(c.raster.geom, table))))
    return tuple(terms)


def density_maps(model: RsfModel, geometry: GridGeometry) -> tuple[GridRaster, GridRaster]:
    """The model's space-use density on a grid, normalized to integrate to 1,
    and its log, from one evaluation of the log density.

    The log density at the cell centers is shifted by its maximum before
    exponentiating (overflow safety), and divided by the midpoint-rule
    integral ``sum * cell_size**2``, so the density integrates to 1 over the
    grid's extent.  The log is the shifted log density minus the log of that
    integral, so it stays finite where the density underflows to 0.

    Raises
    ------
    OutOfDomainError
        If the grid extends beyond a covariate's domain.
    NonFiniteError
        If any log-density value is non-finite.
    """
    log_v = model.log_pi_unnormalized(geometry.centers()).reshape(geometry.n_y, geometry.n_x)
    if not np.all(np.isfinite(log_v)):
        raise NonFiniteError("log density is non-finite on the requested grid")
    shifted = log_v - log_v.max()
    dens = np.exp(shifted)
    mass = dens.sum() * geometry.cell_size**2
    dens /= mass
    return GridRaster(geometry, dens), GridRaster(geometry, shifted - np.log(mass))


def ud_raster(model: RsfModel, geometry: GridGeometry) -> GridRaster:
    """The first raster of :func:`density_maps`: the density, integrating to 1 on the grid."""
    return density_maps(model, geometry)[0]
