"""The benchmark's three workloads: set-up, one timed pass, and output checks.

Every call into langmove goes through a module attribute
(``lm_experiments.run_scenario2``, not an imported name), so the
instrumentation in ``tracer.py`` sees it.  The workloads drive only entry
points the package keeps: the study functions of ``experiments``, ``pooled_fit``,
``pseudo_log_likelihood``, ``simulate``, ``ud_raster`` and track/ASC I/O.

Sizes are parameters so the benchmark's own tests can run them tiny; the
defaults are the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from langmove import covariates as lm_covariates
from langmove import experiments as lm_experiments
from langmove import inference as lm_inference
from langmove import langevin as lm_langevin
from langmove import raster as lm_raster
from langmove import rsf as lm_rsf
from langmove import seeding as lm_seeding

#: Relative tolerance of identities that hold exactly in real arithmetic.
#: Far above rounding error (1e-15 measured) and far below any real defect.
IDENTITY_RTOL = 1e-9

#: A study_raster fit at the finest intervals fails its check when a
#: coefficient is further than this many standard errors from the truth.
#: Euler bias is small against the standard error at these intervals, so a
#: correct program fails it with probability below 1e-5 per coefficient.
BETA_MAX_Z = 5.0
FINEST_LEVELS = (0.01, 0.02)

#: Time between fixes of the analysis workload's input tracks.
FIX_INTERVAL = 0.05


class Ops:
    """Counts operations attempted and failed in one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(label)

    def check(self, ok, label: str) -> None:
        self.record(bool(ok), f"check failed: {label}")


def check_fit_identities(fit, ops: Ops, label: str) -> None:
    """The closed-form relations between a fit's reported quantities.

    ``gamma2_hat = rss / m`` and ``beta_hat = (m - 2) nu_hat / (m gamma2_hat)``
    with ``m = 2n - J``: the unbiasedness correction of the estimator.
    """
    m = 2 * fit.n - fit.J
    ok = math.isclose(fit.gamma2_hat, fit.residual_norm**2 / m, rel_tol=IDENTITY_RTOL)
    expect = (m - 2) * np.asarray(fit.nu_hat) / (m * fit.gamma2_hat)
    scale = np.max(np.abs(expect))
    ok = ok and bool(np.all(np.abs(np.asarray(fit.beta_hat) - expect) <= IDENTITY_RTOL * scale))
    ops.check(ok, f"{label}: bias-correction identity")


@dataclass
class PassOutput:
    """A pass's outputs for its checks; ``counts`` must repeat exactly across passes."""

    counts: dict
    data: object = None


class StudyRaster:
    """Random-field study: tracks through raster gradients into pooled fits.

    ``scenario2_tracks`` with the committed ``configs/scenario2.json``
    settings except the track count, then ``run_scenario2`` (7 levels) and
    ``run_irregular`` (mean intervals 0.05 and 0.5) on the same tracks.
    """

    name = "study_raster"

    def __init__(self, seed: int, n_tracks: int = 8, n_points: int = 250):
        self.cfg = lm_experiments.Scenario2Config(n_tracks=n_tracks, n_points=n_points, seed=seed)
        self.irregular = lm_experiments.IrregularConfig(base=self.cfg, mean_intervals=(0.05, 0.5))
        self.model = None

    def sizes(self) -> dict:
        return {
            "n_tracks": self.cfg.n_tracks,
            "n_points": self.cfg.n_points,
            "fine_steps_per_track": self.cfg.n_fine_steps,
            "levels": list(self.cfg.levels),
            "mean_intervals": list(self.irregular.mean_intervals),
            "grid": [self.cfg.grid_n_x, self.cfg.grid_n_y],
        }

    def setup(self, work_dir: Path) -> None:
        self.model = lm_experiments.scenario2_model(self.cfg)

    def run_pass(self) -> PassOutput:
        sims = lm_experiments.scenario2_tracks(self.cfg, self.model)
        s2 = lm_experiments.run_scenario2(self.cfg, sims)
        irr = lm_experiments.run_irregular(self.irregular, sims)
        return PassOutput({"clamp_events": s2.n_clamp_events, "irregular_tracks": irr.n_tracks}, s2)

    def file_ops(self) -> int:
        return 0

    def check(self, out: PassOutput, ops: Ops) -> None:
        for level in FINEST_LEVELS:
            fit = out.data.fits[level]
            z = np.abs(fit.beta_hat - np.asarray(self.cfg.beta)) / fit.se_beta
            ops.check(np.all(z <= BETA_MAX_Z), f"beta_hat at level {level}: z = {z.tolist()}")


class StudyAnalytic:
    """Analytic-wavelet study: many small fits, exact and 8x8-discretized.

    ``run_scenario1`` with the committed ``configs/scenario1.json`` settings
    except the replication count.
    """

    name = "study_analytic"

    def __init__(self, seed: int, replications: int = 20, n_points: int = 300):
        self.cfg = lm_experiments.Scenario1Config(
            replications=replications, n_points=n_points, seed=seed
        )

    def sizes(self) -> dict:
        stride = round(self.cfg.thin_interval / self.cfg.fine_dt)
        return {
            "replications": self.cfg.replications,
            "n_points": self.cfg.n_points,
            "fine_steps_per_track": (self.cfg.n_points - 1) * stride,
            "grid_n": self.cfg.grid_n,
        }

    def setup(self, work_dir: Path) -> None:
        # The study reads no input: run_scenario1 builds its model and
        # discretized covariates itself.  Set-up builds them once up front,
        # as a user checks a study configuration before starting it, so
        # setup_s here is the cost of building the study's model; the pass
        # does not use what set-up builds.
        lm_experiments.scenario1_model(self.cfg)
        lm_experiments.scenario1_discretized_covariates(self.cfg)

    def run_pass(self) -> PassOutput:
        s1 = lm_experiments.run_scenario1(self.cfg)
        return PassOutput({"clamp_events": s1.n_clamped, "failures": len(s1.failures)}, s1)

    def file_ops(self) -> int:
        return 0

    def check(self, out: PassOutput, ops: Ops) -> None:
        s1 = out.data
        ok = np.all(np.isfinite(s1.analytic)) and np.all(np.isfinite(s1.discretized))
        ops.check(ok, "every replication has finite estimates in both modes")


class Analysis:
    """The real-data path: files in, fit, likelihood, density map, files out.

    Set-up writes two random-field ASC rasters and track CSVs.  A pass reads
    them, fits the pooled model, evaluates every track's pseudo-likelihood
    under the fitted model, maps its density, writes the map, and simulates
    and writes one long track from it.
    """

    name = "analysis"

    def __init__(
        self,
        seed: int,
        n_tracks: int = 4,
        n_fixes: int = 8000,
        ud_n: int = 141,
        sim_steps: int = 30_000,
    ):
        self.seed = seed
        self.n_tracks = n_tracks
        self.n_fixes = n_fixes
        self.ud_geom = lm_raster.GridGeometry(-50.0, -50.0, 100.0 / (ud_n - 1), ud_n, ud_n)
        self.sim_steps = sim_steps
        self.beta = (2.0, 4.0)

    def sizes(self) -> dict:
        return {
            "rasters": [101, 101],
            "n_tracks": self.n_tracks,
            "fixes_per_track": self.n_fixes,
            "interval": FIX_INTERVAL,
            "ud_grid": [self.ud_geom.n_x, self.ud_geom.n_y],
            "sim_steps": self.sim_steps,
        }

    def setup(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.asc_paths = [work_dir / f"cov{k}.asc" for k in range(2)]
        self.csv_paths = [work_dir / f"track{i:02d}.csv" for i in range(self.n_tracks)]
        fields = []
        for k, path in enumerate(self.asc_paths):
            spec = lm_covariates.RandomFieldSpec(
                -50.0, -50.0, 1.0, 101, 101, rho=10.0, seed=lm_seeding.derive_seed(self.seed, 0, k)
            )
            fields.append(lm_covariates.generate_random_field(spec))
            lm_raster.write_ascii_grid(fields[-1], path)
        model = lm_rsf.RsfModel([lm_covariates.RasterCovariate(f) for f in fields], self.beta, 1.0)
        starts = lm_seeding.derive_rng(self.seed, 2).uniform(-40.0, 40.0, (self.n_tracks, 2))
        for i, path in enumerate(self.csv_paths):
            cfg = lm_langevin.SimConfig(
                model, tuple(starts[i]), FIX_INTERVAL, self.n_fixes - 1,
                lm_seeding.derive_seed(self.seed, 1, i),
            )
            lm_langevin.write_track_csv(lm_langevin.simulate(cfg).track, path)

    def run_pass(self) -> PassOutput:
        rasters = [lm_raster.read_ascii_grid(p) for p in self.asc_paths]
        tracks = [lm_langevin.read_track_csv(p) for p in self.csv_paths]
        covs = [lm_covariates.RasterCovariate(r) for r in rasters]
        fit = lm_inference.pooled_fit(tracks, covs)
        model = lm_rsf.RsfModel(covs, fit.nu_hat / fit.gamma2_hat, fit.gamma2_hat)
        plls = [lm_inference.pseudo_log_likelihood(t, model) for t in tracks]
        ud = lm_rsf.ud_raster(model, self.ud_geom)
        lm_raster.write_ascii_grid(ud, self.work_dir / "ud.asc")
        sim_cfg = lm_langevin.SimConfig(
            model, tuple(tracks[0].xy[0]), 0.01, self.sim_steps,
            lm_seeding.derive_seed(self.seed, 4),
        )
        sim = lm_langevin.simulate(sim_cfg)
        lm_langevin.write_track_csv(sim.track, self.work_dir / "simulated.csv")
        return PassOutput({"pll": plls}, (fit, tracks, plls, ud))

    def file_ops(self) -> int:
        """File reads and writes of one pass, plus its density map."""
        return len(self.asc_paths) + len(self.csv_paths) + 2 + 1

    def check(self, out: PassOutput, ops: Ops) -> None:
        fit, tracks, plls, ud = out.data
        # Summed pseudo-log-likelihood at the least-squares solution equals
        # -n log(2 pi g2) - sum log(delta_i) - rss / (2 g2).
        g2 = fit.gamma2_hat
        log_deltas = sum(float(np.sum(np.log(t.intervals))) for t in tracks)
        expect = -fit.n * math.log(2.0 * math.pi * g2) - log_deltas - fit.residual_norm**2 / (2.0 * g2)
        ops.check(
            math.isclose(sum(plls), expect, rel_tol=IDENTITY_RTOL),
            f"pll-RSS identity: {sum(plls)!r} vs {expect!r}",
        )
        mass = float(ud.values.sum()) * ud.cell_size**2
        ops.check(math.isclose(mass, 1.0, rel_tol=IDENTITY_RTOL), f"UD integrates to {mass!r}")


WORKLOADS = {cls.name: cls for cls in (StudyRaster, StudyAnalytic, Analysis)}


def make(name: str, seed: int, **sizes):
    """Build the named workload for ``seed``; ``sizes`` shrink it for tests."""
    return WORKLOADS[name](seed, **sizes)

