"""Movement simulation via the Euler scheme, plus track thinning and CSV I/O.

The location process follows the overdamped Langevin dynamics

    dX_t = (gamma2 / 2) * grad log pi(X_t) dt + sqrt(gamma2) dW_t,

whose stationary distribution is the habitat-selection density ``pi``.
Tracks are always generated at a fine time step and then thinned to the
observation schedule of interest; simulating coarsely would confound
discretization error with model behaviour.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NonFiniteError, NonIncreasingTimesError, OutOfDomainError
from .raster import Extent
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

    def __getitem__(self, idx: slice) -> "Track":
        if not isinstance(idx, slice):
            raise TypeError("tracks only support slicing")
        return Track(self.times[idx], self.xy[idx])

    @property
    def intervals(self) -> np.ndarray:
        """Successive time gaps ``t[i+1] - t[i]``."""
        return np.diff(self.times)


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
        x0 = (float(self.x0[0]), float(self.x0[1]))
        if not (math.isfinite(x0[0]) and math.isfinite(x0[1])):
            raise ValueError(f"x0 must be finite, got {x0}")
        object.__setattr__(self, "x0", x0)


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

    The drift is compiled once per call (:meth:`RsfModel.grad_log_pi_kernel`)
    and the steps run on Python floats, ``BLOCK_ROWS`` noise rows at a
    time.  The noise is scaled by ``sqrt(gamma2 * dt)`` in numpy first (the
    same product per element), and each block's locations go into the track
    from one flat list of floats; the result equals stepping with
    ``grad_log_pi`` bit for bit.

    Clamped locations do not follow the model; the studies in
    ``experiments`` drop the increments they affect from their fits (the
    ``bad`` masks of :func:`~langmove.inference.build_design`).

    Raises
    ------
    OutOfDomainError
        If the start point lies outside the model's domain.
    NonFiniteError
        If the track diverges (a step too large for the drift), naming the
        first non-finite location, inside a restricted domain or not.
    """
    model = cfg.model
    dom = model.domain()
    if dom is None:
        # every finite point is inside, so only an infinite or NaN proposal leaves it
        dom = Extent(-sys.float_info.max, sys.float_info.max, -sys.float_info.max, sys.float_info.max)
    x, y = cfg.x0
    if not dom.contains(x, y):
        raise OutOfDomainError(x, y, "start point")
    x_lo, x_hi, y_lo, y_hi = dom.x_lo, dom.x_hi, dom.y_lo, dom.y_hi

    rng = derive_rng(cfg.seed)
    noise = rng.standard_normal((cfg.n_steps, 2))
    noise *= math.sqrt(model.gamma2 * cfg.dt)  # the product each step would round
    half = 0.5 * model.gamma2 * cfg.dt
    grad = model.grad_log_pi_kernel()

    pts = np.empty((cfg.n_steps + 1, 2))
    pts[0] = x, y
    flat = pts.reshape(-1)
    clamped: list[int] = []
    for k0 in range(0, cfg.n_steps, BLOCK_ROWS):
        block: list[float] = []  # x, y, x, y, ... of the block's locations
        push = block.append
        for nx, ny in zip(*noise[k0 : k0 + BLOCK_ROWS].T.tolist()):
            gx, gy = grad(x, y)
            x = x + half * gx + nx
            y = y + half * gy + ny
            if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
                k = k0 + len(block) // 2 + 1
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise NonFiniteError(
                        f"location {k} of the track is non-finite ({x}, {y}): "
                        f"the drift diverges at dt={cfg.dt}"
                    )
                x, y = dom.clamp(x, y)
                clamped.append(k)
            push(x)
            push(y)
        flat[2 * k0 + 2 : 2 * k0 + 2 + len(block)] = block
    del noise  # the peak stays at two (n, 2) arrays while the timestamps are made
    times = np.arange(cfg.n_steps + 1, dtype=float) * cfg.dt
    return SimResult(Track(times, pts), tuple(clamped), cfg)


def _check_cap(n_points: int | None) -> None:
    if n_points is not None and n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")


def thin_regular(track: Track, stride: int, n_points: int | None = None) -> np.ndarray:
    """Indices of every ``stride``-th location (0, stride, 2*stride, ...),
    the first ``n_points`` of them if given.

    The thinned track is ``Track(track.times[keep], track.xy[keep])``.
    """
    if stride < 1:
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
    The gaps are drawn in chunks, each the expected count of gaps in the
    steps left plus a margin, until their running sum reaches the end of
    the track or ``n_points - 1`` gaps are drawn.  The chunks are a prefix
    of one draw of all ``n - 1`` gaps (every gap is at least one step, so
    that draw covers the track), and they keep the same points; so the cap
    keeps a prefix of the uncapped indices.

    Requires a regular input spacing ``dt`` (every interval within
    ``1e-9 * dt`` of the first) with ``mean_interval >= dt``.
    """
    _check_cap(n_points)
    n = len(track)
    if n < 2:
        return np.zeros(1, dtype=np.int64)
    dt_all = track.intervals
    dt = float(dt_all[0])
    # |a - dt| <= 1e-9 dt for every interval a; a - dt rounds monotonically in a
    if not (dt_all.max() - dt <= 1e-9 * dt and dt - dt_all.min() <= 1e-9 * dt):
        raise ValueError("thin_irregular requires a regularly sampled track")
    if mean_interval < dt:
        raise ValueError(f"mean_interval {mean_interval} is below the track spacing {dt}")
    p = dt / mean_interval
    rng = derive_rng(seed)
    gaps = [np.zeros(1, dtype=np.int64)]  # location 0
    todo = n - 1 if n_points is None else n_points - 1  # gaps that may still be kept
    end = 0
    while end < n - 1 and todo > 0:
        # the count kept in the steps left is Binomial(steps, p): draw two SDs over its mean
        left = n - 1 - end
        size = min(left, todo, int(left * p + 2.0 * math.sqrt(left * p)) + 1)
        chunk = rng.geometric(p, size=size)
        gaps.append(chunk)
        end += int(chunk.sum())
        todo -= size
    idx = np.cumsum(np.concatenate(gaps))
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
