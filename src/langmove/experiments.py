"""Replication studies: benchmark scenarios and the irregular-sampling study.

Three reproducible experiment drivers, shared by the command-line
interface and the acceptance suite:

- :func:`run_scenario1`: analytic-covariate benchmark; independent
  replications fitted with exact gradients and with gradients interpolated
  from the covariates discretized to a coarse grid.
- :func:`run_scenario2`: random-field covariates; one pooled fit per
  sampling interval to expose the coarse-sampling attenuation of the
  habitat coefficients.
- :func:`run_irregular`: regular vs randomly thinned observation schedules
  at matched mean intervals.

Per-replication randomness is derived from ``(seed, stream, index)`` so
results do not depend on scheduling or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .covariates import (
    AnalyticWavelet,
    Covariate,
    RandomFieldSpec,
    RasterCovariate,
    SquaredDistance,
    generate_random_field,
    rasterize,
)
from .errors import LangmoveError
from .inference import FitResult, build_design, check_alpha, fit
from .langevin import SimConfig, SimResult, Track, simulate, thin_irregular, thin_regular
from .raster import GridGeometry, at_least, positive, two_floats
from .rsf import RsfModel
from .seeding import derive_rng, derive_seed

__all__ = [
    "Scenario1Config",
    "Scenario1Result",
    "Scenario2Config",
    "Scenario2Result",
    "IrregularConfig",
    "IrregularResult",
    "scenario1_covariates",
    "scenario1_model",
    "scenario1_discretized_covariates",
    "run_scenario1",
    "scenario2_model",
    "scenario2_tracks",
    "run_scenario2",
    "run_irregular",
]

PARAM_NAMES_S1 = ("beta1", "beta2", "beta3", "gamma2")


def _stride(interval: float, fine_dt: float) -> int:
    """Fine steps per ``interval``, which must be a positive multiple of
    ``fine_dt``, itself positive and finite (the configs check it first)."""
    ratio = interval / fine_dt
    stride = round(ratio) if abs(ratio) < math.inf else 0  # a NaN or infinite ratio is no multiple
    if stride < 1 or abs(stride * fine_dt - interval) > 1e-9 * interval:
        raise ValueError(f"interval {interval} is not a multiple of fine_dt {fine_dt}")
    return stride


def distinct(items: Sequence, what: str) -> Sequence:
    """``items`` itself, once checked to be non-empty and to repeat none:
    each names an output (a file, a table row or a manifest entry)."""
    if not items:
        raise ValueError(f"{what} must not be empty")
    repeated = sorted({str(v) for v in items if items.count(v) > 1})
    if repeated:
        raise ValueError(f"repeated {what}: {', '.join(repeated)}")
    return items


def _thinned(sim: SimResult, keep: np.ndarray) -> Track:
    """The locations of ``sim``'s fine track at the step indices ``keep``."""
    return Track(sim.track.times[keep], sim.track.xy[keep])


def _beta_columns(**stats: np.ndarray) -> dict:
    """Table columns ``beta{j}_{stat}``, coefficient by coefficient, each in
    the order the stats are given."""
    n = len(next(iter(stats.values())))
    return {f"beta{j + 1}_{name}": v[j] for j in range(n) for name, v in stats.items()}


# ---------------------------------------------------------------------------
# scenario 1: analytic covariates, per-replication fits


@dataclass(frozen=True)
class Scenario1Config:
    """Analytic-covariate benchmark configuration.

    Defaults are the desk-scale study: 100 replications of a 300-point
    track observed every 0.5 time units (simulated at ``fine_dt`` and
    thinned), truth ``beta = (-1, 0.5, -0.05)`` and ``gamma2 = 1``.
    ``second_sine_axis`` selects the covariate variant (see
    :class:`~langmove.covariates.AnalyticWavelet`) and is recorded with
    all outputs.  The discretized fitting mode samples the first two
    covariates on a ``grid_n x grid_n`` grid spanning
    ``[-grid_half_width, grid_half_width]^2``.
    """

    replications: int = 100
    n_points: int = 300
    fine_dt: float = 0.01
    thin_interval: float = 0.5
    beta: tuple[float, float, float] = (-1.0, 0.5, -0.05)
    gamma2: float = 1.0
    x0: tuple[float, float] = (0.0, 0.0)
    seed: int = 0
    second_sine_axis: str = "z1"
    grid_n: int = 8
    grid_half_width: float = 10.0
    alpha: float = 0.05

    def __post_init__(self):
        at_least(self.replications, 1, "replications")
        at_least(self.n_points, 2, "n_points")
        at_least(self.grid_n, 2, "grid_n")
        positive(self.fine_dt, "fine_dt")
        _stride(self.thin_interval, self.fine_dt)
        check_alpha(self.alpha)
        positive(self.grid_half_width, "grid_half_width")
        # the model and a SimConfig check second_sine_axis, beta, gamma2, seed and x0 by their own rules
        SimConfig(scenario1_model(self), self.x0, self.fine_dt, self.n_fine_steps, self.seed)

    @property
    def n_fine_steps(self) -> int:
        """Euler steps per replication's fine track."""
        return (self.n_points - 1) * _stride(self.thin_interval, self.fine_dt)


def scenario1_covariates(second_sine_axis: str = "z1") -> list[Covariate]:
    """The benchmark covariate set: two localized wavelets and the
    squared distance to the origin (a weak centering force)."""
    shared = {"alpha": 6.0, "sigma": (0.4, 0.4), "second_sine_axis": second_sine_axis}
    return [
        AnalyticWavelet(a=(0.0, 0.0), omega=(0.6, 0.2), **shared),
        AnalyticWavelet(a=(-2.0, math.pi / 2.0), omega=(0.1, 0.5), **shared),
        SquaredDistance(center=(0.0, 0.0)),
    ]


def scenario1_model(cfg: Scenario1Config) -> RsfModel:
    return RsfModel(scenario1_covariates(cfg.second_sine_axis), cfg.beta, cfg.gamma2)


def scenario1_discretized_covariates(cfg: Scenario1Config) -> list[Covariate]:
    """Covariate set for the discretized fitting mode.

    The two wavelets are sampled on the coarse grid and interpolated; the
    squared-distance covariate keeps its exact gradient, as it would in a
    real analysis.
    """
    covs = scenario1_covariates(cfg.second_sine_axis)
    hw = cfg.grid_half_width
    geom = GridGeometry(-hw, -hw, 2.0 * hw / (cfg.grid_n - 1), cfg.grid_n, cfg.grid_n)
    return [
        RasterCovariate(rasterize(covs[0], geom)),
        RasterCovariate(rasterize(covs[1], geom)),
        covs[2],
    ]


@dataclass
class Scenario1Result:
    """Per-replication estimates in both fitting modes.

    ``analytic`` and ``discretized`` are ``(replications, 4)`` arrays of
    ``(beta1, beta2, beta3, gamma2)``, NaN where a replication failed;
    failures are listed as ``(replication, mode, message)``.  ``tracks``
    holds each replication's thinned track, as fitted.
    """

    config: Scenario1Config
    analytic: np.ndarray
    discretized: np.ndarray
    failures: list[tuple[int, str, str]] = field(default_factory=list)
    n_clamped: int = 0
    tracks: list[Track] = field(default_factory=list)

    def to_rows(self) -> list[dict]:
        """Long-format rows with keys ``replication``, ``mode``,
        ``parameter`` and ``estimate``; failed replications have none."""
        rows = []
        for mode, est in (("analytic", self.analytic), ("discretized", self.discretized)):
            for rep in range(est.shape[0]):
                if np.isnan(est[rep, 0]):
                    continue
                for j, name in enumerate(PARAM_NAMES_S1):
                    row = {"replication": rep, "mode": mode, "parameter": name}
                    rows.append(row | {"estimate": float(est[rep, j])})
        return rows

    def _successes(self, mode: str) -> np.ndarray:
        """The rows of ``mode`` (``"analytic"`` or ``"discretized"``) whose
        replication succeeded; any other mode raises ``ValueError``."""
        if mode not in ("analytic", "discretized"):
            raise ValueError(f"mode must be 'analytic' or 'discretized', got {mode!r}")
        est = getattr(self, mode)
        return est[~np.isnan(est[:, 0])]

    def medians(self, mode: str) -> np.ndarray:
        """Median of each parameter over the successful replications of
        ``mode``; NaN when none succeeded."""
        ok = self._successes(mode)
        if not len(ok):
            return np.full(ok.shape[1], np.nan)
        return np.median(ok, axis=0)

    def sign_correct_fraction(self, mode: str) -> float:
        """Fraction of successful replications whose habitat-coefficient
        estimates all have the true sign; NaN when none succeeded."""
        ok = self._successes(mode)
        if not len(ok):
            return float("nan")
        truth = np.sign(np.asarray(self.config.beta))
        return float(np.mean(np.all(np.sign(ok[:, :3]) == truth, axis=1)))


def run_scenario1(cfg: Scenario1Config) -> Scenario1Result:
    """Simulate and fit all replications of the analytic benchmark.

    Each replication simulates a fine track from the true model (exact
    gradients), thins it to the observation interval, and fits it twice:
    with exact gradients and with the discretized covariates.  The
    discretized fit drops the increments that start outside the coarse
    grid's hull.  Replication failures are recorded, not fatal.
    """
    stride = _stride(cfg.thin_interval, cfg.fine_dt)
    model = scenario1_model(cfg)
    disc_covs = scenario1_discretized_covariates(cfg)
    grid_extent = disc_covs[0].extent

    estimates = {mode: np.full((cfg.replications, 4), np.nan) for mode in ("analytic", "discretized")}
    failures: list[tuple[int, str, str]] = []
    tracks: list[Track] = []
    n_clamped = 0
    for rep in range(cfg.replications):
        sim = simulate(
            SimConfig(model, cfg.x0, cfg.fine_dt, cfg.n_fine_steps, derive_seed(cfg.seed, rep))
        )
        n_clamped += sim.n_clamped
        thinned = _thinned(sim, thin_regular(sim.track, stride))
        tracks.append(thinned)
        off_grid = ~grid_extent.contains_points(thinned.xy)[:-1]
        for mode, covariates, bad in (
            ("analytic", model.covariates, None), ("discretized", disc_covs, [off_grid])
        ):
            try:
                res = fit(build_design([thinned], covariates, bad), alpha=cfg.alpha)
                estimates[mode][rep] = [*res.beta_hat, res.gamma2_hat]
            except LangmoveError as err:
                failures.append((rep, mode, str(err)))
    return Scenario1Result(cfg, estimates["analytic"], estimates["discretized"], failures, n_clamped, tracks)


# ---------------------------------------------------------------------------
# scenario 2: random-field covariates, pooled fits per sampling interval


@dataclass(frozen=True)
class Scenario2Config:
    """Random-field benchmark configuration.

    Two smoothed-uniform covariates (autocorrelation radius ``rho``) on a
    square grid; trajectories simulated at ``fine_dt`` and thinned to each
    interval in ``levels``, keeping the first ``n_points`` locations, then
    fitted by pooling all tracks.  The fine tracks are long enough for the
    coarsest level by construction.

    Start points are uniform over the grid shrunk by ``start_margin`` on
    every side (at most half the grid's span, which leaves the centre):
    spreading tracks widens the sampled covariate range (the driver of
    coefficient precision) while keeping early boundary contact rare.
    Boundary clamps still happen on long tracks; the affected thinned
    increments are dropped from the fits (the ``bad`` masks of
    :func:`~langmove.inference.build_design`) rather than refusing whole
    tracks, which at this scale would discard most of the data for a
    handful of clamped steps.
    """

    n_tracks: int = 50
    n_points: int = 250
    fine_dt: float = 0.01
    levels: tuple[float, ...] = (0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0)
    beta: tuple[float, float] = (2.0, 4.0)
    gamma2: float = 1.0
    rho: float = 10.0
    grid_x_min: float = -50.0
    grid_y_min: float = -50.0
    grid_cell_size: float = 1.0
    grid_n_x: int = 101
    grid_n_y: int = 101
    start_margin: float = 10.0
    seed: int = 0
    alpha: float = 0.05

    def __post_init__(self):
        at_least(self.n_tracks, 1, "n_tracks")
        at_least(self.n_points, 2, "n_points")
        ext = self.field_spec(0).geometry.extent  # the spec checks the seed, rho and the grid
        m = self.start_margin  # scenario2_tracks draws from [x_lo + m, x_hi - m] x [y_lo + m, y_hi - m]
        if not (0 <= m and ext.x_lo + m <= ext.x_hi - m and ext.y_lo + m <= ext.y_hi - m):  # NaN, inf fail
            raise ValueError(f"start_margin must be in [0, half the grid's span], got {m}")
        positive(self.fine_dt, "fine_dt")
        self.strides()
        distinct(self.levels, "levels")
        check_alpha(self.alpha)
        two_floats(self.beta, "beta")  # their model needs the fields, so they keep rules of their own
        positive(self.gamma2, "gamma2")

    def field_spec(self, k: int) -> RandomFieldSpec:
        """The spec of covariate field ``k``, drawn from stream ``(0, k)`` of the seed."""
        return RandomFieldSpec(
            self.grid_x_min, self.grid_y_min, self.grid_cell_size, self.grid_n_x, self.grid_n_y,
            self.rho, derive_seed(self.seed, 0, k),
        )

    def strides(self) -> list[int]:
        return [_stride(level, self.fine_dt) for level in self.levels]

    @property
    def n_fine_steps(self) -> int:
        return (self.n_points - 1) * max(self.strides())


def scenario2_model(cfg: Scenario2Config) -> RsfModel:
    """The true model: ``cfg.beta`` and ``cfg.gamma2`` on the random fields 0
    and 1 (:meth:`Scenario2Config.field_spec`), generated on each call."""
    covariates = [RasterCovariate(generate_random_field(cfg.field_spec(k))) for k in (0, 1)]
    return RsfModel(covariates, cfg.beta, cfg.gamma2)


def scenario2_tracks(cfg: Scenario2Config, model: RsfModel | None = None) -> list[SimResult]:
    """Simulate the fine-resolution tracks (clamp events recorded per track)."""
    if model is None:
        model = scenario2_model(cfg)
    ext = model.domain()
    lo_x, hi_x = ext.x_lo + cfg.start_margin, ext.x_hi - cfg.start_margin
    lo_y, hi_y = ext.y_lo + cfg.start_margin, ext.y_hi - cfg.start_margin
    rng = derive_rng(cfg.seed, 2)
    starts = np.column_stack(
        [rng.uniform(lo_x, hi_x, cfg.n_tracks), rng.uniform(lo_y, hi_y, cfg.n_tracks)]
    )
    return [
        simulate(SimConfig(model, tuple(xy), cfg.fine_dt, cfg.n_fine_steps, derive_seed(cfg.seed, 1, i)))
        for i, xy in enumerate(starts)
    ]


def _study_tracks(
    cfg: Scenario2Config, sims: Sequence[SimResult] | None
) -> tuple[Sequence[SimResult], tuple[Covariate, ...]]:
    """The fine tracks of a study and the covariates to fit them with.

    Without ``sims`` the tracks are simulated from the config's model.
    The fits use the covariates of the one model the sims were simulated
    from, so the fields are not generated again; ``ValueError`` is raised
    if given ``sims`` come from more than one model, or if one was not
    simulated at ``cfg.fine_dt``.
    """
    if sims is None:
        sims = scenario2_tracks(cfg)
    models = {id(sim.config.model) for sim in sims}
    if len(models) != 1:
        raise ValueError(f"the sims must come from one model, not {len(models)}")
    for i, sim in enumerate(sims):
        if sim.config.dt != cfg.fine_dt:
            raise ValueError(
                f"sim {i} was simulated at dt={sim.config.dt:g}, not at fine_dt={cfg.fine_dt:g}"
            )
    return sims, sims[0].config.model.covariates


def _check_kept(schedules: Sequence[np.ndarray], n_points: int, what: str) -> None:
    """Raise ``ValueError`` if a schedule keeps fewer than ``n_points`` indices."""
    for i, keep in enumerate(schedules):
        if len(keep) < n_points:
            raise ValueError(
                f"{what} keeps {len(keep)} of {n_points} points of track {i}: the fine "
                "tracks are too short (scenario2_tracks sizes them for the coarsest level)"
            )


def _clamp_free_fit(
    sims: Sequence[SimResult],
    schedules: Sequence[np.ndarray],
    covariates: Sequence[Covariate],
    alpha: float,
) -> tuple[FitResult, int]:
    """Pooled fit of the sims thinned to the step indices ``schedules``,
    without the increments whose steps ``(keep[i], keep[i+1]]`` hold a clamp
    of their fine simulation, and the count of increments so dropped."""
    bad = [
        np.diff(np.searchsorted(np.asarray(sim.clamped, dtype=np.int64), keep, side="right")) > 0
        for sim, keep in zip(sims, schedules)
    ]
    thinned = [_thinned(sim, keep) for sim, keep in zip(sims, schedules)]
    return fit(build_design(thinned, covariates, bad), alpha=alpha), sum(int(b.sum()) for b in bad)


@dataclass
class Scenario2Result:
    """One pooled fit per sampling interval, plus clamp bookkeeping:
    the clamps of the fine tracks, and per interval the increments dropped
    from the fit because their window holds one."""

    config: Scenario2Config
    fits: dict[float, FitResult]
    n_tracks: int
    n_clamp_events: int
    dropped_increments: dict[float, int]

    def to_rows(self) -> list[dict]:
        rows = []
        for level in self.config.levels:
            res = self.fits[level]
            row = {
                "delta": level,
                "n_tracks": self.n_tracks,
                "n_increments": res.n,
                "gamma2_hat": res.gamma2_hat,
                "gamma2_lo": res.ci_gamma2[0],
                "gamma2_hi": res.ci_gamma2[1],
            }
            ci = res.ci_beta
            rows.append(
                row | _beta_columns(hat=res.beta_hat, se=res.se_beta, lo=ci[:, 0], hi=ci[:, 1])
            )
        return rows


def run_scenario2(
    cfg: Scenario2Config, sims: Sequence[SimResult] | None = None
) -> Scenario2Result:
    """Thin the fine tracks to every level and fit each level by pooling.

    ``sims`` can be supplied to reuse simulations (e.g. between this and
    the irregular study) and the model they came from; otherwise they are
    generated from the config.  ``ValueError`` is raised before any fit if
    the sims do not fit the config (see :func:`_study_tracks`), or if a
    track thinned to a level keeps fewer than ``n_points`` points.
    """
    sims, covariates = _study_tracks(cfg, sims)
    schedules: dict[float, list[np.ndarray]] = {}
    for level, stride in zip(cfg.levels, cfg.strides()):
        schedules[level] = [thin_regular(sim.track, stride, cfg.n_points) for sim in sims]
        _check_kept(schedules[level], cfg.n_points, f"thinning to level {level:g}")
    fits: dict[float, FitResult] = {}
    dropped: dict[float, int] = {}
    for level, keeps in schedules.items():
        fits[level], dropped[level] = _clamp_free_fit(sims, keeps, covariates, cfg.alpha)
    return Scenario2Result(cfg, fits, len(sims), sum(s.n_clamped for s in sims), dropped)


# ---------------------------------------------------------------------------
# irregular-sampling study


@dataclass(frozen=True)
class IrregularConfig:
    """Regular vs random thinning at matched mean intervals.

    Thinning starts from the full fine tracks of the base configuration
    (whose ``levels`` determine the simulated length), so both schemes
    subsample the same data.  Every mean interval must be a multiple of the
    base's ``fine_dt``, so that the regular scheme thins at exactly it.
    """

    base: Scenario2Config = field(default_factory=Scenario2Config)
    mean_intervals: tuple[float, ...] = (0.05, 0.5)

    def __post_init__(self):
        for interval in self.mean_intervals:
            _stride(interval, self.base.fine_dt)
        distinct(self.mean_intervals, "mean_intervals")


@dataclass
class IrregularResult:
    """Pooled fits per interval and scheme, with realized gap statistics and
    clamp bookkeeping: the clamps of the fine tracks, and per interval and
    scheme the increments dropped from the fit because their window holds one."""

    config: IrregularConfig
    regular: dict[float, FitResult]
    irregular: dict[float, FitResult]
    gap_stats: dict[float, tuple[float, float]]
    n_tracks: int
    n_clamp_events: int
    dropped_increments: dict[float, dict[str, int]]

    def to_rows(self) -> list[dict]:
        rows = []
        for interval in self.config.mean_intervals:
            for scheme, fits in (("regular", self.regular), ("irregular", self.irregular)):
                res = fits[interval]
                row = {
                    "mean_interval": interval,
                    "scheme": scheme,
                    "n_tracks": self.n_tracks,
                    "gamma2_hat": res.gamma2_hat,
                }
                if scheme == "irregular":
                    row["gap_mean"], row["gap_sd"] = self.gap_stats[interval]
                else:
                    row["gap_mean"], row["gap_sd"] = interval, 0.0
                rows.append(row | _beta_columns(hat=res.beta_hat, se=res.se_beta))
        return rows


def run_irregular(
    cfg: IrregularConfig, sims: Sequence[SimResult] | None = None
) -> IrregularResult:
    """Compare regular and random thinning on the same fine tracks.

    The regular scheme is :func:`run_scenario2` with the mean intervals as
    levels, on the same sims.  Every thinned track must keep ``n_points``
    points, so that both schemes fit the same number of increments, and
    given ``sims`` must fit the base config (see :func:`_study_tracks`);
    otherwise ``ValueError`` is raised before any fit.
    """
    s2 = cfg.base
    sims, covariates = _study_tracks(s2, sims)
    schedules: dict[float, list[np.ndarray]] = {}
    for k, interval in enumerate(cfg.mean_intervals):
        schedules[interval] = [
            thin_irregular(sim.track, interval, derive_seed(s2.seed, 3, k, i), s2.n_points)
            for i, sim in enumerate(sims)
        ]
        _check_kept(schedules[interval], s2.n_points, f"irregular thinning at mean interval {interval:g}")
    regular = run_scenario2(replace(s2, levels=cfg.mean_intervals), sims)
    irregular: dict[float, FitResult] = {}
    dropped: dict[float, dict[str, int]] = {}
    gap_stats: dict[float, tuple[float, float]] = {}
    for interval, keeps in schedules.items():
        irregular[interval], n_dropped = _clamp_free_fit(sims, keeps, covariates, s2.alpha)
        dropped[interval] = {"regular": regular.dropped_increments[interval], "irregular": n_dropped}
        gaps = np.concatenate([np.diff(sim.track.times[keep]) for sim, keep in zip(sims, keeps)])
        gap_stats[interval] = (float(gaps.mean()), float(gaps.std()))
    return IrregularResult(
        cfg, regular.fits, irregular, gap_stats, len(sims), regular.n_clamp_events, dropped
    )
