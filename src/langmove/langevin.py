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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NonIncreasingTimesError, OutOfDomainError
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
        if t.shape[0] > 1 and not np.all(np.diff(t) > 0):
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
        object.__setattr__(self, "x0", (float(self.x0[0]), float(self.x0[1])))


@dataclass(frozen=True, eq=False)
class SimResult:
    """A simulated track plus the indices where the proposal was clamped."""

    track: Track
    clamped: tuple[int, ...]

    @property
    def n_clamped(self) -> int:
        return len(self.clamped)

    @property
    def clamp_times(self) -> np.ndarray:
        """Timestamps of the clamped locations (sorted)."""
        return self.track.times[list(self.clamped)]


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

    Clamped locations do not follow the model; the studies in
    ``experiments`` drop the increments they affect from their fits (the
    ``bad`` masks of :func:`~langmove.inference.build_design`).
    """
    model = cfg.model
    dom = model.domain()
    x, y = cfg.x0
    if dom is not None and not dom.contains(x, y):
        raise OutOfDomainError(x, y, "start point")

    rng = derive_rng(cfg.seed)
    noise = rng.standard_normal((cfg.n_steps, 2))
    half = 0.5 * model.gamma2 * cfg.dt
    sig = math.sqrt(model.gamma2 * cfg.dt)

    pts = np.empty((cfg.n_steps + 1, 2))
    pts[0, 0] = x
    pts[0, 1] = y
    clamped: list[int] = []
    for k in range(cfg.n_steps):
        gx, gy = model.grad_log_pi((x, y))
        x = x + half * gx + sig * noise[k, 0]
        y = y + half * gy + sig * noise[k, 1]
        if dom is not None and not dom.contains(x, y):
            x, y = dom.clamp(x, y)
            clamped.append(k + 1)
        pts[k + 1, 0] = x
        pts[k + 1, 1] = y
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    return SimResult(Track(times, pts), tuple(clamped))


def thin_regular(track: Track, stride: int) -> Track:
    """Keep every ``stride``-th location (indices 0, stride, 2*stride, ...)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return Track(track.times[::stride], track.xy[::stride])


def thin_irregular(track: Track, mean_interval: float, seed: int) -> Track:
    """Randomly thin a regularly sampled track to a target mean interval.

    Keeps location 0, then draws i.i.d. gaps of ``Geometric(p)`` fine steps
    with ``p = dt / mean_interval`` -- the fine-grid discretization of
    exponential waiting times, with the rate calibrated so the retained
    intervals have mean exactly ``mean_interval`` (and SD/mean
    ``sqrt(1 - p)``, just under 1, consistent with near-exponential gaps).
    All ``n - 1`` gaps are drawn in one call; every gap is at least one
    step, so their running sum covers the whole track.

    Requires a regular input spacing ``dt`` with ``mean_interval >= dt``.
    """
    if len(track) < 2:
        return track
    dt_all = track.intervals
    dt = float(dt_all[0])
    if not np.allclose(dt_all, dt, rtol=1e-9, atol=0.0):
        raise ValueError("thin_irregular requires a regularly sampled track")
    if mean_interval < dt:
        raise ValueError(f"mean_interval {mean_interval} is below the track spacing {dt}")
    n = len(track)
    idx = np.cumsum(derive_rng(seed).geometric(dt / mean_interval, size=n - 1))
    keep = np.concatenate([[0], idx[: np.searchsorted(idx, n - 1, side="right")]])
    return Track(track.times[keep], track.xy[keep])


def write_track_csv(track: Track, path: str | Path) -> None:
    """Write a track as CSV with header ``t,x,y`` at full float precision."""
    with open(path, "w") as fh:
        fh.write("t,x,y\n")
        for t, (x, y) in zip(track.times, track.xy):
            fh.write(f"{float(t)!r},{float(x)!r},{float(y)!r}\n")


def read_track_csv(path: str | Path) -> Track:
    """Read a ``t,x,y`` CSV written by :func:`write_track_csv`.

    Raises
    ------
    ValueError
        On a malformed header or row.
    NonIncreasingTimesError
        If timestamps are not strictly increasing.
    """
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if [c.strip() for c in header.split(",")] != ["t", "x", "y"]:
            raise ValueError(f"{path}: expected header 't,x,y', got {header!r}")
        times = []
        xy = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{line_no}: expected 3 columns")
            times.append(float(parts[0]))
            xy.append((float(parts[1]), float(parts[2])))
    if not times:
        raise ValueError(f"{path}: no data rows")
    return Track(np.asarray(times), np.asarray(xy))
