"""Covariate sources: analytic fields, gridded fields, random-field generation.

Every covariate exposes ``value(xy)`` and ``gradient(xy)``: at an ``(n, 2)``
array of points they return an ``(n,)`` and an ``(n, 2)`` array, and one
point is a one-row array, so there is one array code path per covariate;
the design matrix and :func:`rasterize` make one call per covariate.
Each reports its domain through ``extent``: the whole plane (``PLANE``) for
analytic covariates, the raster's interpolation domain for gridded ones (a
call raises for its first row outside it).  The covariates are frozen
dataclasses, so a model's covariates cannot change under it.

The simulator steps one point at a time, on Python floats.  For it each
covariate type supplies a source fragment of its gradient (``_fragment``),
which the model joins with the other drift terms' into one generated Euler
stepper, :attr:`~langmove.rsf.RsfModel.euler_steps`, which checks no
domain: the simulator keeps its steps inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFieldError
from .raster import (
    PLANE, Extent, GridGeometry, GridRaster, at_least, interpolate, interpolate_gradient, positive, two_floats
)
from .seeding import derive_rng

__all__ = [
    "Covariate",
    "AnalyticWavelet",
    "SquaredDistance",
    "RasterCovariate",
    "RandomFieldSpec",
    "generate_random_field",
    "rasterize",
]


class Covariate:
    """A differentiable scalar field on (a subset of) the plane."""

    #: The domain: the whole plane unless restricted.
    extent: Extent = PLANE

    def value(self, xy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, xy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _fragment(self) -> tuple[str, str, str, dict]:
        """``(statements, tx, ty, constants)``: statements that read the
        Python floats ``x, y`` (inside ``extent``), then two expressions
        over their locals that give the gradient there, with the array
        form's arithmetic in its order, where an operation whose result is
        its input (a raster's division by a cell of 1.0) may be left out;
        the drift compiler multiplies them by the term's ``beta`` unless it
        is 1.0.  It replaces the ``$`` ending each name of ``constants``
        with the term's tag, so the source depends only on the type and on
        which operations it leaves out; the generated stepper binds them to
        locals once per call, so one the statements assign keeps its value
        to the next step: a raster keeps its cell's bounds and corner
        differences there, a cache that starts empty on each call.  The statements may use
        ``exp``, ``sin`` and ``cos``, and assign no name the stepper uses
        (``x``, ``y``, ``sx``, ``sy``, and its arguments, such as ``xs``, ``ys``, ``i``)."""
        raise NotImplementedError


def _exp_rows(a: np.ndarray) -> np.ndarray:
    """``math.exp`` of each element: ``np.exp`` differs from it in the last
    bit on some inputs."""
    return np.array(list(map(math.exp, a.tolist())))


@dataclass(frozen=True, eq=False)
class AnalyticWavelet(Covariate):
    """Gaussian-windowed product of two sine factors.

    The field, of finite parameters and positive ``sigma = (sigma1, sigma2)``, is

        alpha * exp(-sigma1*(z1-a1)^2 - sigma2*(z2-a2)^2)
              * sin(omega1*(z1-a1)) * sin(omega2*(s-a2))

    where the second sine argument ``s`` is ``z1`` by default
    (``second_sine_axis="z1"``).  That default looks like a transcription
    slip for ``z2`` but is kept as the reference form; pass
    ``second_sine_axis="z2"`` for the symmetric variant.  Gradients are
    exact closed forms in both cases.
    """

    alpha: float
    a: tuple[float, float]
    omega: tuple[float, float]
    sigma: tuple[float, float]
    second_sine_axis: str = "z1"

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        for name in ("a", "omega", "sigma"):
            object.__setattr__(self, name, two_floats(getattr(self, name), name))
        if not (self.sigma[0] > 0 and self.sigma[1] > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.second_sine_axis not in ("z1", "z2"):
            raise ValueError(f"second_sine_axis must be 'z1' or 'z2', got {self.second_sine_axis!r}")

    def _factors(self, xy: np.ndarray):
        """The shared factors at each row of ``xy``.  numpy's float64 sin and
        cos equal the math module's, which the Euler stepper uses (the tests
        check this)."""
        (a1, a2), (omega1, omega2), (sigma1, sigma2) = self.a, self.omega, self.sigma
        d1 = xy[:, 0] - a1
        d2 = xy[:, 1] - a2
        gauss = _exp_rows(-sigma1 * d1 * d1 - sigma2 * d2 * d2)
        s1 = np.sin(omega1 * d1)
        arg2 = omega2 * (xy[:, 0 if self.second_sine_axis == "z1" else 1] - a2)
        s2 = np.sin(arg2)
        return d1, d2, gauss, s1, s2, arg2

    def value(self, xy: np.ndarray) -> np.ndarray:
        _, _, gauss, s1, s2, _ = self._factors(xy)
        return self.alpha * gauss * s1 * s2

    def gradient(self, xy: np.ndarray) -> np.ndarray:
        (omega1, omega2), (sigma1, sigma2) = self.omega, self.sigma
        d1, d2, gauss, s1, s2, arg2 = self._factors(xy)
        c1 = np.cos(omega1 * d1)
        c2 = np.cos(arg2)
        # product rule over the Gaussian window and the two sine factors
        gx = -2.0 * sigma1 * d1 * s1 * s2 + omega1 * c1 * s2
        gy = -2.0 * sigma2 * d2 * s1 * s2
        if self.second_sine_axis == "z1":
            gx += s1 * omega2 * c2
        else:
            gy += s1 * omega2 * c2
        a = self.alpha * gauss
        return np.column_stack((a * gx, a * gy))

    def _fragment(self) -> tuple[str, str, str, dict]:
        (a1, a2), (omega1, omega2), (sigma1, sigma2) = self.a, self.omega, self.sigma
        # -s * d is (-s) * d, and -2.0 * s * d is (-2.0 * s) * d: the same roundings
        constants = {
            "alpha$": self.alpha, "a1$": a1, "a2$": a2, "omega1$": omega1, "omega2$": omega2,
            "sigma2$": sigma2, "neg_sigma1$": -sigma1, "m2_sigma1$": -2.0 * sigma1,
            "m2_sigma2$": -2.0 * sigma2,
        }
        z1 = self.second_sine_axis == "z1"
        # the array form's arithmetic, in its order; the second sine's term
        # goes to the derivative along its axis
        second = " + s1 * omega2$ * cos(arg2)"
        statements = f"""\
d1 = x - a1$
d2 = y - a2$
a = alpha$ * exp(neg_sigma1$ * d1 * d1 - sigma2$ * d2 * d2)
w1 = omega1$ * d1
s1 = sin(w1)
arg2 = omega2$ * {"(x - a2$)" if z1 else "d2"}
s2 = sin(arg2)
gx = m2_sigma1$ * d1 * s1 * s2 + omega1$ * cos(w1) * s2{second if z1 else ""}
gy = m2_sigma2$ * d2 * s1 * s2{"" if z1 else second}
"""
        return statements, "a * gx", "a * gy", constants


@dataclass(frozen=True, eq=False)
class SquaredDistance(Covariate):
    """Squared Euclidean distance to a fixed, finite center; gradient is 2*(p - center)."""

    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "center", two_floats(self.center, "center"))

    def value(self, xy: np.ndarray) -> np.ndarray:
        dx = xy[:, 0] - self.center[0]
        dy = xy[:, 1] - self.center[1]
        return dx * dx + dy * dy

    def gradient(self, xy: np.ndarray) -> np.ndarray:
        return 2.0 * (xy - self.center)

    def _fragment(self) -> tuple[str, str, str, dict]:
        constants = {"cx$": self.center[0], "cy$": self.center[1]}
        return "", "2.0 * (x - cx$)", "2.0 * (y - cy$)", constants


_RASTER_STATEMENTS = """\
u = (x - x_lo$){per_h}
w = (y - y_lo$){per_h}
if not (u_lo$ <= u < u_hi$ and w_lo$ <= w < w_hi$):  # a new cell: its bounds and corner differences
    ix = int(u)
    if ix > ix_last$:  # the right domain edge
        ix = ix_last$
    iy = int(w)
    if iy > iy_last$:  # the top domain edge
        iy = iy_last$
    u_lo$ = float(ix)
    u_hi$ = u_lo$ + 1.0
    w_lo$ = float(iy)
    w_hi$ = w_lo$ + 1.0
    lo = rows$[iy]
    hi = rows$[iy + 1]
    dx0$ = lo[ix + 1] - lo[ix]
    dx1$ = hi[ix + 1] - hi[ix]
    dy0$ = hi[ix] - lo[ix]
    dy1$ = hi[ix + 1] - lo[ix + 1]
u -= u_lo$
w -= w_lo$
gx = ((1.0 - w) * dx0$ + w * dx1$){per_h}
gy = ((1.0 - u) * dy0$ + u * dy1$){per_h}
"""


@dataclass(frozen=True, eq=False)
class RasterCovariate(Covariate):
    """Bilinear interpolant of a gridded field, restricted to the grid hull."""

    raster: GridRaster

    @property
    def extent(self) -> Extent:
        return self.raster.extent

    def value(self, xy: np.ndarray) -> np.ndarray:
        return interpolate(self.raster, xy)

    def gradient(self, xy: np.ndarray) -> np.ndarray:
        return interpolate_gradient(self.raster, xy)

    def _fragment(self) -> tuple[str, str, str, dict]:
        """:func:`~langmove.raster.interpolate_gradient` at one point, on the
        values as nested lists, keeping a cell's bounds in grid units and
        its corner differences until a step leaves it.

        A point at grid coordinates ``(u, w)`` is in the cached cell when
        ``u_lo <= u < u_hi`` and ``w_lo <= w < w_hi``, the bounds
        ``float(ix)`` and ``float(ix) + 1.0`` (and the same for rows).  For
        ``u >= 0`` that is the cell that ``int(u)`` locates, which only a
        point outside the cache computes; a point on the right edge
        ``u == n_x - 1`` fails the test and is clamped to the last column
        again.  ``u - float(ix)`` rounds as ``u - ix`` does.  The cache
        starts empty, ``1.0 <= u < 0.0``, on each stepper call.

        On a grid of cell 1.0 the four divisions by the cell are left out:
        ``v / 1.0`` is ``v`` for every double, so the source differs from
        another cell's, not the result."""
        g = self.raster.geom
        constants = {
            "x_lo$": g.x_min, "y_lo$": g.y_min, "h$": g.cell_size, "ix_last$": g.n_x - 2,
            "iy_last$": g.n_y - 2, "rows$": self.raster.values.tolist(),
            "u_lo$": 1.0, "u_hi$": 0.0, "w_lo$": 1.0, "w_hi$": 0.0,
        }
        per_h = " / h$"
        if g.cell_size == 1.0:
            del constants["h$"]
            per_h = ""
        return _RASTER_STATEMENTS.format(per_h=per_h), "gx", "gy", constants


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
        positive(self.rho, "rho")
        at_least(self.seed, 0, "seed")
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
        If ``rho`` reaches from corner to corner of the grid (the kernel's
        inclusion test, for the two cells farthest apart): every window
        holds every cell, so the smoothed field is constant up to rounding.
    """
    from scipy.signal import convolve2d  # imported here: it is most of the package's import time

    geom = spec.geometry
    if ((geom.n_x - 1) ** 2 + (geom.n_y - 1) ** 2) * geom.cell_size**2 <= spec.rho**2:
        raise DegenerateFieldError(f"every window of rho {spec.rho} covers the whole grid; cannot normalize")
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
    return GridRaster(geom, (smoothed - lo) / (hi - lo))
