"""Covariate sources: analytic fields, gridded fields, random-field generation.

Every covariate exposes ``value(p)`` and ``gradient(p)`` at a point
``p = (x, y)``.  Analytic covariates are defined on all of R^2; gridded
covariates are restricted to their raster's interpolation domain and
report it through ``extent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.signal import convolve2d

from .errors import DegenerateFieldError
from .raster import Extent, GridGeometry, GridRaster, interpolate, interpolate_gradient
from .seeding import derive_rng

__all__ = [
    "Covariate",
    "WaveletParams",
    "AnalyticWavelet",
    "SquaredDistance",
    "RasterCovariate",
    "RandomFieldSpec",
    "generate_random_field",
    "rasterize",
]


class Covariate:
    """A differentiable scalar field on (a subset of) the plane."""

    #: Domain restriction, or None if defined everywhere.
    extent: Extent | None = None

    def value(self, p: Sequence[float]) -> float:
        raise NotImplementedError

    def gradient(self, p: Sequence[float]) -> tuple[float, float]:
        raise NotImplementedError


@dataclass(frozen=True)
class WaveletParams:
    """Parameters of the oscillating-bump analytic covariate.

    ``alpha`` is the amplitude, ``(a1, a2)`` the center offsets,
    ``(omega1, omega2)`` the angular frequencies and ``(sigma1, sigma2)``
    the (positive) diagonal entries of the Gaussian quadratic form.
    """

    alpha: float
    a1: float
    a2: float
    omega1: float
    omega2: float
    sigma1: float
    sigma2: float

    def __post_init__(self):
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValueError("sigma1 and sigma2 must be positive")


class AnalyticWavelet(Covariate):
    """Gaussian-windowed product of two sine factors.

    The field is

        alpha * exp(-sigma1*(z1-a1)^2 - sigma2*(z2-a2)^2)
              * sin(omega1*(z1-a1)) * sin(omega2*(s-a2))

    where the second sine argument ``s`` is ``z1`` by default
    (``second_sine_axis="z1"``).  That default looks like a transcription
    slip for ``z2`` but is kept as the reference form; pass
    ``second_sine_axis="z2"`` for the symmetric variant.  Gradients are
    exact closed forms in both cases.
    """

    def __init__(self, params: WaveletParams, second_sine_axis: str = "z1"):
        if second_sine_axis not in ("z1", "z2"):
            raise ValueError(f"second_sine_axis must be 'z1' or 'z2', got {second_sine_axis!r}")
        self.params = params
        self.second_sine_axis = second_sine_axis

    def _factors(self, x: float, y: float):
        q = self.params
        d1 = x - q.a1
        d2 = y - q.a2
        gauss = math.exp(-q.sigma1 * d1 * d1 - q.sigma2 * d2 * d2)
        s1 = math.sin(q.omega1 * d1)
        arg2 = q.omega2 * ((x if self.second_sine_axis == "z1" else y) - q.a2)
        s2 = math.sin(arg2)
        return d1, d2, gauss, s1, s2, arg2

    def value(self, p: Sequence[float]) -> float:
        x, y = float(p[0]), float(p[1])
        _, _, gauss, s1, s2, _ = self._factors(x, y)
        return self.params.alpha * gauss * s1 * s2

    def gradient(self, p: Sequence[float]) -> tuple[float, float]:
        x, y = float(p[0]), float(p[1])
        q = self.params
        d1, d2, gauss, s1, s2, arg2 = self._factors(x, y)
        c1 = math.cos(q.omega1 * d1)
        c2 = math.cos(arg2)
        # product rule over the Gaussian window and the two sine factors
        gx = -2.0 * q.sigma1 * d1 * s1 * s2 + q.omega1 * c1 * s2
        gy = -2.0 * q.sigma2 * d2 * s1 * s2
        if self.second_sine_axis == "z1":
            gx += s1 * q.omega2 * c2
        else:
            gy += s1 * q.omega2 * c2
        a = self.params.alpha * gauss
        return a * gx, a * gy


class SquaredDistance(Covariate):
    """Squared Euclidean distance to a fixed center; gradient is 2*(p - center)."""

    def __init__(self, center: Sequence[float] = (0.0, 0.0)):
        self.center = (float(center[0]), float(center[1]))

    def value(self, p: Sequence[float]) -> float:
        dx = float(p[0]) - self.center[0]
        dy = float(p[1]) - self.center[1]
        return dx * dx + dy * dy

    def gradient(self, p: Sequence[float]) -> tuple[float, float]:
        return (
            2.0 * (float(p[0]) - self.center[0]),
            2.0 * (float(p[1]) - self.center[1]),
        )


class RasterCovariate(Covariate):
    """Bilinear interpolant of a gridded field, restricted to the grid hull."""

    def __init__(self, raster: GridRaster):
        self.raster = raster
        self.extent = raster.extent

    def value(self, p: Sequence[float]) -> float:
        return interpolate(self.raster, p)

    def gradient(self, p: Sequence[float]) -> tuple[float, float]:
        return interpolate_gradient(self.raster, p)


def rasterize(cov: Covariate, geometry: GridGeometry) -> GridRaster:
    """Sample a covariate at every cell center of ``geometry``."""
    xs = geometry.x_centers().tolist()
    values = [[cov.value((x, y)) for x in xs] for y in geometry.y_centers().tolist()]
    return GridRaster(geometry, values)


@dataclass(frozen=True)
class RandomFieldSpec:
    """Recipe for a smoothed-uniform random covariate field.

    ``rho`` is the radius of the circular moving-average window, in the
    same units as the grid coordinates.  The output is a pure function of
    the spec, including ``seed``.
    """

    x_min: float
    y_min: float
    cell_size: float
    n_x: int
    n_y: int
    rho: float
    seed: int

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        GridGeometry(self.x_min, self.y_min, self.cell_size, self.n_x, self.n_y)

    @property
    def geometry(self) -> GridGeometry:
        return GridGeometry(self.x_min, self.y_min, self.cell_size, self.n_x, self.n_y)


def generate_random_field(spec: RandomFieldSpec) -> GridRaster:
    """Generate a spatially autocorrelated field on [0, 1].

    Each cell gets an independent Uniform(0,1) draw; each cell is then
    replaced by the mean of all cells whose center lies within Euclidean
    distance ``rho`` (inclusive) of its own, with the window truncated at
    the grid boundary and normalized by the number of included cells.
    The smoothed field is finally min-max rescaled so its minimum is
    exactly 0 and its maximum exactly 1.

    Raises
    ------
    DegenerateFieldError
        If the smoothed field is constant, so the rescaling is undefined.
    """
    geom = spec.geometry
    rng = derive_rng(spec.seed)
    raw = rng.random((geom.n_y, geom.n_x))

    r = int(spec.rho / geom.cell_size)
    offsets = np.arange(-r, r + 1)
    di, dj = np.meshgrid(offsets, offsets, indexing="ij")
    kernel = ((di * di + dj * dj) * geom.cell_size**2 <= spec.rho**2).astype(float)

    total = convolve2d(raw, kernel, mode="same", boundary="fill", fillvalue=0.0)
    count = convolve2d(np.ones_like(raw), kernel, mode="same", boundary="fill", fillvalue=0.0)
    smoothed = total / count

    lo = smoothed.min()
    hi = smoothed.max()
    if hi == lo:
        raise DegenerateFieldError("smoothed field is constant; cannot normalize")
    return GridRaster(geom, (smoothed - lo) / (hi - lo))
