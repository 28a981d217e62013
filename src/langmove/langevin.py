"""Movement simulation via the Euler scheme, plus track thinning and CSV I/O.

The location process follows the overdamped Langevin dynamics

    dX_t = (gamma2 / 2) * grad log pi(X_t) dt + sqrt(gamma2) dW_t,

whose stationary distribution is the habitat-selection density ``pi``.
Tracks are always generated at a fine time step and then thinned to the
observation schedule of interest; simulating coarsely would confound
discretization error with model behaviour.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NonFiniteError, NonIncreasingTimesError, OutOfDomainError
from .raster import one_int, two_floats
from .rsf import RsfModel
from .seeding import derive_rng

__all__ = [
    "Track",
    "SimConfig",
    "SimResult",
    "simulate",
    "thin_regular",
    "thin_irregular",
    "read_track_csv",
    "write_track_csv",
]


@dataclass(frozen=True, eq=False)
class Track:
    """Time-ordered planar locations.

    ``times`` is strictly increasing; ``xy`` has shape ``(n, 2)`` with one
    row per location.  Instances are immutable.
    """

    times: np.ndarray
    xy: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).reshape(-1)
        xy = np.asarray(self.xy, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"xy must have shape (n, 2), got {xy.shape}")
        if t.shape[0] != xy.shape[0]:
            raise ValueError(f"{t.shape[0]} timestamps for {xy.shape[0]} locations")
        if t.shape[0] < 1:
            raise ValueError("track must contain at least one location")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(xy)):
            raise ValueError("track contains non-finite entries")
        if not np.all(t[1:] > t[:-1]):
            raise NonIncreasingTimesError("timestamps must be strictly increasing")
        t.setflags(write=False)
        xy.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "xy", xy)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def intervals(self) -> np.ndarray:
        """Successive time gaps ``t[i+1] - t[i]``."""
        return np.diff(self.times)

    @functools.cached_property
    def regular_interval(self) -> float | None:
        """The first interval ``dt`` if every interval is within ``1e-9 * dt``
        of it, else None (and None for a single location); worked out once
        per track."""
        if len(self) < 2:
            return None
        intervals = self.intervals
        dt = float(intervals[0])
        # |a - dt| <= 1e-9 dt for every interval a; a - dt rounds monotonically in a
        if intervals.max() - dt <= 1e-9 * dt and dt - intervals.min() <= 1e-9 * dt:
            return dt
        return None


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Inputs of one simulation run: model, start point, step, length, seed."""

    model: RsfModel
    x0: tuple[float, float]
    dt: float
    n_steps: int
    seed: int

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        object.__setattr__(self, "x0", two_floats(self.x0, "x0"))


@dataclass(frozen=True, eq=False)
class SimResult:
    """A simulated track, the indices where the proposal was clamped, and
    the configuration it was simulated from."""

    track: Track
    clamped: tuple[int, ...]
    config: SimConfig

    @property
    def n_clamped(self) -> int:
        return len(self.clamped)


#: Rows turned into Python floats at a time, by simulate and write_track_csv: enough
#: to amortize the conversion, few enough that memory does not grow with the track.
BLOCK_ROWS = 256


def simulate(cfg: SimConfig) -> SimResult:
    """Simulate a track of ``n_steps + 1`` locations at timestamps ``k * dt``.

    Step ``k`` moves ``x`` to ``x + (gamma2 * dt / 2) * grad_log_pi(x) +
    sqrt(gamma2 * dt) * n[k]``, where ``n`` is
    ``derive_rng(cfg.seed).standard_normal((n_steps, 2))``, so the noise
    stream is fully determined by ``cfg.seed``.
    When the model has a restricted domain (gridded covariates) a proposed
    point may fall outside it.  Clamping is the only boundary rule: the
    proposal is projected onto the domain boundary and its step index is
    recorded in ``SimResult.clamped``.

    The steps run on Python floats in the model's Euler stepper
    (:attr:`RsfModel.euler_steps`, generated with the drift inline once per
    model), one call per ``BLOCK_ROWS`` noise rows, which it overwrites with
    the locations; the noise is scaled by ``sqrt(gamma2 * dt)`` in numpy
    first (the same product per element).  At a proposal outside the domain
    the stepper returns; this function clamps it (or raises) into its slot
    and resumes at the next.  So the drift sees only points inside the
    domain, and the stepper skips the rasters' domain checks.  The result
    equals stepping with ``grad_log_pi`` bit for bit.

    Clamped locations do not follow the model; the studies in
    ``experiments`` drop the increments they affect from their fits (the
    ``bad`` masks of :func:`~langmove.inference.build_design`).

    Raises
    ------
    OutOfDomainError
        If the start point lies outside the model's domain (empty if two
        rasters are disjoint).
    NonFiniteError
        If the track diverges (a step too large for the drift), naming the
        first non-finite location, inside a restricted domain or not.
    """
    model = cfg.model
    dom = model.domain()
    x, y = cfg.x0
    if not dom.contains(x, y):
        raise OutOfDomainError(x, y, "start point")
    x_lo, x_hi, y_lo, y_hi = dom.x_lo, dom.x_hi, dom.y_lo, dom.y_hi

    rng = derive_rng(cfg.seed)
    noise = rng.standard_normal((cfg.n_steps, 2))
    noise *= math.sqrt(model.gamma2 * cfg.dt)  # the product each step would round
    half = 0.5 * model.gamma2 * cfg.dt
    steps = model.euler_steps

    pts = np.empty((cfg.n_steps + 1, 2))
    pts[0] = x, y
    cols = pts[1:].T  # the x and y columns of the locations after the start
    clamped: list[int] = []
    for k0 in range(0, cfg.n_steps, BLOCK_ROWS):
        xs, ys = noise[k0 : k0 + BLOCK_ROWS].T.tolist()  # the stepper overwrites them
        x, y, i = steps(x, y, xs, ys, 0, half, x_lo, x_hi, y_lo, y_hi)
        while i < len(xs):  # proposal i left the domain
            k = k0 + i + 1
            if not (math.isfinite(x) and math.isfinite(y)):
                raise NonFiniteError(
                    f"location {k} of the track is non-finite ({x}, {y}): "
                    f"the drift diverges at dt={cfg.dt}"
                )
            x, y = dom.clamp(x, y)
            clamped.append(k)
            xs[i], ys[i] = x, y
            x, y, i = steps(x, y, xs, ys, i + 1, half, x_lo, x_hi, y_lo, y_hi)
        cols[:, k0 : k0 + len(xs)] = xs, ys
    del noise  # the peak stays at two (n, 2) arrays while the timestamps are made
    times = np.arange(cfg.n_steps + 1, dtype=float) * cfg.dt
    return SimResult(Track(times, pts), tuple(clamped), cfg)


def _check_cap(n_points: int | None) -> None:
    if n_points is not None and one_int(n_points, "n_points") < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")


def thin_regular(track: Track, stride: int, n_points: int | None = None) -> np.ndarray:
    """Indices of every ``stride``-th location (0, stride, 2*stride, ...),
    the first ``n_points`` of them if given.

    The thinned track is ``Track(track.times[keep], track.xy[keep])``.
    """
    if one_int(stride, "stride") < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    _check_cap(n_points)
    stop = len(track) if n_points is None else min(len(track), n_points * stride)
    return np.arange(0, stop, stride)


def thin_irregular(
    track: Track, mean_interval: float, seed: int, n_points: int | None = None
) -> np.ndarray:
    """Indices of the locations kept by randomly thinning a regularly sampled
    track to a target mean interval, the first ``n_points`` of them if given.

    Keeps location 0, then draws i.i.d. gaps of ``Geometric(p)`` fine steps
    with ``p = dt / mean_interval`` -- the fine-grid discretization of
    exponential waiting times, with the rate calibrated so the retained
    intervals have mean exactly ``mean_interval`` (and SD/mean
    ``sqrt(1 - p)``, just under 1, consistent with near-exponential gaps).
    The gaps are drawn in one call: ``n - 1`` of them, which cover the
    track since every gap is at least one step, or ``n_points - 1`` if
    that is fewer.  numpy's smaller draw is a prefix of its larger one, so
    the cap keeps a prefix of the uncapped indices.

    Requires a regular input spacing ``dt`` (:attr:`Track.regular_interval`)
    with ``mean_interval >= dt``.
    """
    _check_cap(n_points)
    n = len(track)
    if n < 2:
        return np.zeros(1, dtype=np.int64)
    dt = track.regular_interval
    if dt is None:
        raise ValueError("thin_irregular requires a regularly sampled track")
    if mean_interval < dt:
        raise ValueError(f"mean_interval {mean_interval} is below the track spacing {dt}")
    p = dt / mean_interval
    size = n - 1 if n_points is None else min(n - 1, n_points - 1)
    idx = np.cumsum(np.concatenate([[0], derive_rng(seed).geometric(p, size=size)]))
    return idx[: np.searchsorted(idx, n - 1, side="right")]


def write_track_csv(track: Track, path: str | Path) -> None:
    """Write a track as CSV with header ``t,x,y`` at full float precision (``repr``)."""
    with open(path, "w") as fh:
        fh.write("t,x,y\n")
        for k in range(0, len(track), BLOCK_ROWS):
            block = slice(k, k + BLOCK_ROWS)
            rows = zip(track.times[block].tolist(), *track.xy[block].T.tolist())
            fh.write("".join([f"{t!r},{x!r},{y!r}\n" for t, x, y in rows]))


def read_track_csv(path: str | Path) -> Track:
    """Read a ``t,x,y`` CSV written by :func:`write_track_csv`, skipping blank
    lines.  One ``np.loadtxt`` parses the rows, equal to ``float()`` bit for
    bit but rejecting underscores (``1_0``); ``#`` starts no comment.

    Raises
    ------
    ValueError
        On a malformed header, no data rows, or a ragged or non-numeric row
        (naming the file).
    NonIncreasingTimesError
        If timestamps are not strictly increasing.
    """
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if [c.strip() for c in header.split(",")] != ["t", "x", "y"]:
            raise ValueError(f"{path}: expected header 't,x,y', got {header!r}")
        rows = [line for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    try:
        t, x, y = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, unpack=True)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return Track(t.copy(), np.column_stack((x, y)))
