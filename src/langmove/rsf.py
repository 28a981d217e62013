"""Habitat-selection model: log-density, its gradient, and gridded density maps.

The space-use density is proportional to ``exp(sum_j beta_j * c_j(p))``
for covariates ``c_j``; the log density and its gradient take an ``(n, 2)``
array of points and return an ``(n,)`` and an ``(n, 2)`` array.  The
model's domain is the intersection of its covariates' extents.  From the
covariates' source fragments, each model generates one function once, on
Python floats: :attr:`RsfModel.euler_steps`, the simulator's Euler loop
over the x and y noise with the gradient inline.  The array gradient and
the stepper sum the drift terms by one rule, the first term starting the
sum and the others added in order, so each step is ``x + half *
grad_log_pi(x) + noise`` bit for bit; the stepper leaves out only the
multiplications by a ``beta`` of 1.0 and the divisions by a raster cell
of 1.0, whose results are their inputs.  The normalizing constant over the
study region has no closed form; it cancels in the gradient, which is all
the simulation and inference paths need, and is approximated by a midpoint
Riemann sum when a density map is requested.

The gradient is linear in the covariates, so the drift sums rasters that
share one grid into one table of ``sum_j beta_j * values_j`` when the model
is built (:func:`drift_terms`): a step locates its cell once and reads one
table.  The sum rounds differently from summing the rasters' gradients, so
tracks simulated from two or more rasters of one grid move in the last
bits; every other quantity is evaluated covariate by covariate.
"""

from __future__ import annotations

import functools
import math
import operator
import textwrap
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covariates import Covariate, RasterCovariate
from .errors import NonFiniteError
from .raster import Extent, GridGeometry, GridRaster, positive

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
        model and must be positive and finite.
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
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma2", float(positive(self.gamma2, "gamma2")))
        object.__setattr__(self, "_drift", drift_terms(b.tolist(), self.covariates))

    def log_pi_unnormalized(self, xy: np.ndarray) -> np.ndarray:
        """Log space-use density at each row of an ``(n, 2)`` array, up to
        the normalizing constant, as an ``(n,)`` array."""
        return sum(b * c.value(xy) for b, c in zip(self.beta, self.covariates))

    def grad_log_pi(self, xy: np.ndarray) -> np.ndarray:
        """Gradient of the log density at each row of ``xy`` (normalization-free),
        as an ``(n, 2)`` array: the drift terms' (:func:`drift_terms`), the
        first starting the sum and the others added in order."""
        return functools.reduce(operator.add, (b * c.gradient(xy) for b, c in self._drift))

    @functools.cached_property
    def euler_steps(self):
        """``steps(x, y, xs, ys, i, half, x_lo, x_hi, y_lo, y_hi) -> (x, y, i)``:
        the Euler loop of :func:`~langmove.langevin.simulate` with the drift
        inline, writing the locations over the noise sequences up to the
        first proposal outside the box (see :func:`_compile_drift`); built on
        first use, once per model."""
        return _compile_drift(self._drift)

    def domain(self) -> Extent:
        """Intersection of the covariates' extents; PLANE if unrestricted, empty if disjoint."""
        return functools.reduce(Extent.intersect, (c.extent for c in self.covariates))


@functools.lru_cache
def _compiled(source: str):
    """The ``make`` function that ``source`` defines, compiled once per
    distinct source."""
    namespace: dict = {}
    exec(compile(source, "<langmove euler_steps>", "exec"), namespace)
    return namespace["make"]


_SOURCE = """\
def make(bound):
    def steps(x, y, xs, ys, i, half, x_lo, x_hi, y_lo, y_hi):
        {constants} = bound
        for i in range(i, len(xs)):
{drift}
            x = x + half * sx + xs[i]
            y = y + half * sy + ys[i]
            if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
                return x, y, i
            xs[i] = x
            ys[i] = y
        return x, y, len(xs)

    return steps
"""


def _compile_drift(terms: Sequence[tuple[float, Covariate]]):
    """``steps(x, y, xs, ys, i, half, x_lo, x_hi, y_lo, y_hi)``: the Euler
    loop on Python floats, generated from the fragments
    (``Covariate._fragment``) of the ``(beta, covariate)`` terms in order,
    with no inner calls.  It sums ``beta`` times each term's gradient as
    :meth:`RsfModel.grad_log_pi` does: each term adds ``beta * (tx)``, the
    gradient computed first, the first term starting the sums ``sx, sy``
    and the others added.  A term whose ``beta`` is 1.0 (every merged
    raster table's) adds ``(tx)``: ``1.0 * g`` is ``g`` for every double,
    so the step is the same bit for bit.

    From index ``i`` of the noise sequences ``xs, ys`` it steps to
    ``(x + half * sx + xs[i], y + half * sy + ys[i])``, writes the location
    into slot ``i``, and returns ``(x, y, i)`` at the first proposal outside
    the box, its slot left as noise, or else the last point and
    ``len(xs)``.  It checks no term's domain, so the caller passes a box
    inside every term's domain and a start point in the box.  It indexes
    whatever writable float sequences it is given: memoryviews of the
    location array's columns in ``simulate``, lists in the tests.

    Each term's constants (and its ``beta`` unless 1.0) are tagged with its
    position and passed as one tuple to a generated ``make``, whose stepper
    unpacks it into locals once per call; so they never enter the source,
    and models of the same covariate types and the same unit constants
    (which terms have a ``beta`` of 1.0 and which rasters a cell of 1.0)
    share one compiled ``make``.
    """
    drift = []
    constants = {"exp": math.exp, "sin": math.sin, "cos": math.cos}
    for j, (beta, cov) in enumerate(terms):
        tag = f"_{j}"
        statements, tx, ty, own = cov._fragment()
        statements, tx, ty = (part.replace("$", tag) for part in (statements, tx, ty))
        op = "=" if j == 0 else "+="
        constants.update({name.replace("$", tag): v for name, v in own.items()})
        times = ""
        if beta != 1.0:
            constants["beta" + tag] = beta
            times = f"beta{tag} * "
        drift += [*statements.splitlines(), f"sx {op} {times}({tx})", f"sy {op} {times}({ty})"]
    source = _SOURCE.format(
        constants=", ".join(constants), drift=textwrap.indent("\n".join(drift), " " * 12)
    )
    return _compiled(source)(tuple(constants.values()))


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
