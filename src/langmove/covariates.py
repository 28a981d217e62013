"""Covariate sources: analytic fields, gridded fields, random-field generation.

Every covariate exposes ``value(xy)`` and ``gradient(xy)``: at an ``(n, 2)``
array of points they return an ``(n,)`` and an ``(n, 2)`` array, and one
point is a one-row array, so there is one array code path per covariate;
the design matrix and :func:`rasterize` make one call per covariate.
Analytic covariates are defined on all of R^2; gridded covariates are
restricted to their raster's interpolation domain and report it through
``extent`` (a call raises for its first row outside it).

``point_kernel(beta)`` compiles ``beta`` times a covariate's gradient into a
function of two Python floats, for the simulator, which steps one point at
a time.  A kernel equals ``beta`` times the array form's row bit for bit
(the tests check this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.signal import convolve2d

from .errors import DegenerateFieldError
from .raster import (
    Extent,
    GridGeometry,
    GridRaster,
    gradient_kernel,
    interpolate,
    interpolate_gradient,
)
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

    def value(self, xy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, xy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def point_kernel(self, beta: float = 1.0):
        """``kernel(x, y) -> (gx, gy)``: ``beta`` times the gradient at one
        point, on Python floats, bit for bit ``beta`` times the row of
        ``gradient`` at that point."""
        raise NotImplementedError


def _exp_rows(a: np.ndarray) -> np.ndarray:
    """``math.exp`` of each element: ``np.exp`` differs from it in the last
    bit on some inputs."""
    return np.array(list(map(math.exp, a.tolist())))


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

    def _factors(self, xy: np.ndarray):
        """The shared factors at each row of ``xy``.  numpy's float64 sin and
        cos equal the math module's, which the point kernel uses (the tests
        check this)."""
        q = self.params
        d1 = xy[:, 0] - q.a1
        d2 = xy[:, 1] - q.a2
        gauss = _exp_rows(-q.sigma1 * d1 * d1 - q.sigma2 * d2 * d2)
        s1 = np.sin(q.omega1 * d1)
        arg2 = q.omega2 * (xy[:, 0 if self.second_sine_axis == "z1" else 1] - q.a2)
        s2 = np.sin(arg2)
        return d1, d2, gauss, s1, s2, arg2

    def value(self, xy: np.ndarray) -> np.ndarray:
        _, _, gauss, s1, s2, _ = self._factors(xy)
        return self.params.alpha * gauss * s1 * s2

    def gradient(self, xy: np.ndarray) -> np.ndarray:
        q = self.params
        d1, d2, gauss, s1, s2, arg2 = self._factors(xy)
        c1 = np.cos(q.omega1 * d1)
        c2 = np.cos(arg2)
        # product rule over the Gaussian window and the two sine factors
        gx = -2.0 * q.sigma1 * d1 * s1 * s2 + q.omega1 * c1 * s2
        gy = -2.0 * q.sigma2 * d2 * s1 * s2
        if self.second_sine_axis == "z1":
            gx += s1 * q.omega2 * c2
        else:
            gy += s1 * q.omega2 * c2
        a = q.alpha * gauss
        return np.column_stack((a * gx, a * gy))

    def point_kernel(self, beta: float = 1.0):
        q = self.params
        alpha, a1, a2, omega1, omega2, sigma2 = q.alpha, q.a1, q.a2, q.omega1, q.omega2, q.sigma2
        # -s * d is (-s) * d, and -2.0 * s * d is (-2.0 * s) * d: the same roundings
        neg_sigma1, m2_sigma1, m2_sigma2 = -q.sigma1, -2.0 * q.sigma1, -2.0 * q.sigma2
        exp, sin, cos = math.exp, math.sin, math.cos

        # the array form's arithmetic, in its order
        if self.second_sine_axis == "z1":

            def kernel(x: float, y: float) -> tuple[float, float]:
                d1 = x - a1
                d2 = y - a2
                a = alpha * exp(neg_sigma1 * d1 * d1 - sigma2 * d2 * d2)
                w1 = omega1 * d1
                s1 = sin(w1)
                arg2 = omega2 * (x - a2)
                s2 = sin(arg2)
                gx = m2_sigma1 * d1 * s1 * s2 + omega1 * cos(w1) * s2 + s1 * omega2 * cos(arg2)
                gy = m2_sigma2 * d2 * s1 * s2
                return beta * (a * gx), beta * (a * gy)

        else:

            def kernel(x: float, y: float) -> tuple[float, float]:
                d1 = x - a1
                d2 = y - a2
                a = alpha * exp(neg_sigma1 * d1 * d1 - sigma2 * d2 * d2)
                w1 = omega1 * d1
                s1 = sin(w1)
                arg2 = omega2 * d2
                s2 = sin(arg2)
                gx = m2_sigma1 * d1 * s1 * s2 + omega1 * cos(w1) * s2
                gy = m2_sigma2 * d2 * s1 * s2 + s1 * omega2 * cos(arg2)
                return beta * (a * gx), beta * (a * gy)

        return kernel


class SquaredDistance(Covariate):
    """Squared Euclidean distance to a fixed center; gradient is 2*(p - center)."""

    def __init__(self, center: Sequence[float] = (0.0, 0.0)):
        self.center = (float(center[0]), float(center[1]))

    def value(self, xy: np.ndarray) -> np.ndarray:
        dx = xy[:, 0] - self.center[0]
        dy = xy[:, 1] - self.center[1]
        return dx * dx + dy * dy

    def gradient(self, xy: np.ndarray) -> np.ndarray:
        return 2.0 * (xy - self.center)

    def point_kernel(self, beta: float = 1.0):
        cx, cy = self.center

        def kernel(x: float, y: float) -> tuple[float, float]:
            return beta * (2.0 * (x - cx)), beta * (2.0 * (y - cy))

        return kernel


class RasterCovariate(Covariate):
    """Bilinear interpolant of a gridded field, restricted to the grid hull."""

    def __init__(self, raster: GridRaster):
        self.raster = raster
        self.extent = raster.extent

    def value(self, xy: np.ndarray) -> np.ndarray:
        return interpolate(self.raster, xy)

    def gradient(self, xy: np.ndarray) -> np.ndarray:
        return interpolate_gradient(self.raster, xy)

    def point_kernel(self, beta: float = 1.0):
        return gradient_kernel(self.raster, beta)


def rasterize(cov: Covariate, geometry: GridGeometry) -> GridRaster:
    """Sample a covariate at every cell center of ``geometry``, in one array call."""
    values = cov.value(geometry.centers())
    return GridRaster(geometry, values.reshape(geometry.n_y, geometry.n_x))


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


def _window_counts(kernel: np.ndarray, n_y: int, n_x: int) -> np.ndarray:
    """``convolve2d(ones((n_y, n_x)), kernel, mode="same")`` for a disc of
    ones, without the convolution: the grid cells under the disc at each cell.

    Row ``a`` of the disc (offset ``a - r``) spans the columns ``-s_a .. s_a``,
    so it counts, at cell ``(i, j)``, whether row ``i + a - r`` is on the grid
    times the cells of ``j - s_a .. j + s_a`` on it.  The count is the sum of
    these outer products, in integers, which add exactly in any order.
    """
    r = kernel.shape[0] // 2
    span = (np.count_nonzero(kernel, axis=1) - 1) // 2  # -1 for an empty row
    row = np.arange(n_y)[None, :] + np.arange(-r, r + 1)[:, None]
    on_grid = ((row >= 0) & (row < n_y)).astype(np.int64)
    j = np.arange(n_x)[None, :]
    s = span[:, None]
    cols = np.maximum(np.minimum(j + s, n_x - 1) - np.maximum(j - s, 0) + 1, 0)
    return (on_grid.T @ cols).astype(float)


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
    smoothed = total / _window_counts(kernel, geom.n_y, geom.n_x)

    lo = smoothed.min()
    hi = smoothed.max()
    if hi == lo:
        raise DegenerateFieldError("smoothed field is constant; cannot normalize")
    return GridRaster(geom, (smoothed - lo) / (hi - lo))
