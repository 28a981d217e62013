"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Every threshold is pinned here, at the criterion's stated
scale, under the committed master seed (0).  Where a study cannot resolve a
threshold at that scale, the clause widens it only by an uncertainty the
run itself measures, and prints that margin beside the measured value:

- criterion 2: the Monte Carlo SE of each median, from the spread of the
  replications;
- criterion 3: the fits' own standard errors and confidence intervals;
- criterion 4: the spread of the irregular-minus-regular gap over
  ``IRREGULAR_STREAMS`` thinning streams derived from the master seed, and
  the sampling SE of the realized gap moments.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from langmove import (
    DesignMatrices,
    GridGeometry,
    GridRaster,
    RasterCovariate,
    RsfModel,
    SimConfig,
    SquaredDistance,
    Track,
    build_design,
    fit,
    generate_random_field,
    interpolate,
    RandomFieldSpec,
    read_ascii_grid,
    simulate,
    thin_irregular,
    thin_regular,
    ud_raster,
    write_ascii_grid,
    write_track_csv,
)
from langmove.cli import main as cli_main
from langmove.covariates import AnalyticWavelet
from langmove.experiments import (
    IrregularConfig,
    Scenario1Config,
    Scenario2Config,
    run_irregular,
    run_scenario1,
    run_scenario2,
    scenario1_covariates,
    scenario1_discretized_covariates,
    scenario1_model,
    scenario2_model,
    scenario2_tracks,
)
from langmove.seeding import derive_rng, derive_seed

MASTER_SEED = 0
# criterion 2: covariate grid sizes of the paired grid-convergence refit
GRID_SIZES = (8, 32, 128)
# criterion 4: thinning streams per mean interval; stream 0 is run_irregular's
IRREGULAR_STREAMS = 10


def report(criterion: str, clauses: list[tuple[str, bool, str]]) -> None:
    ok = all(passed for _, passed, _ in clauses)
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}")
    for name, passed, detail in clauses:
        print(f"  {'ok  ' if passed else 'FAIL'} {name}: {detail}")
    assert ok, f"{criterion} failed: " + "; ".join(n for n, p, _ in clauses if not p)


class TestCriterion1EstimatorExactness:
    """Direct draws from the linear model: unbiasedness, covariance formula,
    and chi-square interval coverage at their exact sampling distribution."""

    def test_criterion_1(self):
        start = time.perf_counter()
        n, J = 500, 2
        gamma2 = 1.0
        beta = np.array([2.0, 4.0])
        nu = gamma2 * beta
        reps = 2000

        rng = derive_rng(MASTER_SEED, 10)
        deltas = rng.uniform(0.5, 1.5, size=n)
        d = rng.normal(size=(2 * n, J))
        t_delta = np.concatenate([np.sqrt(deltas), np.sqrt(deltas)])
        x = d * t_delta[:, None]
        mean_part = x @ nu

        m = 2 * n - J
        upsilon = np.linalg.inv(x.T @ x)
        cov_true = 2.0 * np.outer(beta, beta) / (m - 4) + (upsilon / gamma2) * (
            1.0 + 2.0 / (m - 4)
        )

        betas = np.empty((reps, J))
        covered = 0
        for r in range(reps):
            y = mean_part + math.sqrt(gamma2) * rng.standard_normal(2 * n)
            res = fit(DesignMatrices(y=y, d=d, t_delta=t_delta, n=n, J=J))
            betas[r] = res.beta_hat
            lo, hi = res.ci_gamma2
            covered += lo <= gamma2 <= hi

        mean_err = betas.mean(axis=0) - beta
        mc_se = betas.std(axis=0, ddof=1) / math.sqrt(reps)
        cov_emp = np.cov(betas.T)
        cov_rel = np.abs(cov_emp - cov_true) / np.abs(cov_true)
        coverage = covered / reps
        elapsed = time.perf_counter() - start

        report(
            "criterion 1: estimator exactness on linear-model data",
            [
                (
                    "mean within 3 MC SE",
                    bool(np.all(np.abs(mean_err) <= 3 * mc_se)),
                    f"err={mean_err.round(5).tolist()} 3se={(3 * mc_se).round(5).tolist()}",
                ),
                (
                    "covariance formula within 10% per entry",
                    bool(cov_rel.max() <= 0.10),
                    f"max rel dev={cov_rel.max():.4f}",
                ),
                (
                    "gamma2 CI coverage 0.95 +/- 0.02",
                    0.93 <= coverage <= 0.97,
                    f"coverage={coverage:.4f}",
                ),
                ("runtime < 1 min", elapsed < 60.0, f"{elapsed:.1f} s"),
            ],
        )


def refit_on_grids(result) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Habitat-coefficient estimates of scenario 1's thinned tracks, fitted
    with exact gradients and with the wavelets discretized at each of
    ``GRID_SIZES``.

    The tracks are the ones ``run_scenario1`` fitted.  Every fit drops the
    same increments, those that start outside the grids (all grids span the
    same square), so the estimates differ only by gradient interpolation.
    """
    cfg = result.config
    model = scenario1_model(cfg)
    disc = {g: scenario1_discretized_covariates(replace(cfg, grid_n=g)) for g in GRID_SIZES}
    extent = disc[GRID_SIZES[0]][0].extent
    exact = np.empty((cfg.replications, 3))
    grid = {g: np.empty((cfg.replications, 3)) for g in GRID_SIZES}
    for rep, track in enumerate(result.tracks):
        bad = [~extent.contains_points(track.xy)[:-1]]
        exact[rep] = fit(build_design([track], model.covariates, bad), alpha=cfg.alpha).beta_hat
        for g in GRID_SIZES:
            grid[g][rep] = fit(build_design([track], disc[g], bad), alpha=cfg.alpha).beta_hat
    return exact, grid


class TestCriterion2Scenario1:
    """Analytic-covariate study at 100 replications: median accuracy in
    exact-gradient mode, and convergence of the coarse-grid mode to it as
    the covariate grid is refined."""

    def test_criterion_2(self):
        start = time.perf_counter()
        cfg = Scenario1Config(seed=MASTER_SEED)
        result = run_scenario1(cfg)
        elapsed = time.perf_counter() - start

        truth = np.array([-1.0, 0.5, -0.05, 1.0])
        est = result.analytic[~np.isnan(result.analytic[:, 0])]
        med = result.medians("analytic")
        err = np.abs(med - truth)
        # Monte Carlo SE of a sample median: sqrt(pi/2) * SD / sqrt(reps)
        mcse = math.sqrt(math.pi / 2) * est.std(axis=0, ddof=1) / math.sqrt(len(est))
        band = np.maximum(0.15 * np.abs(truth), 3 * mcse)

        exact, grid = refit_on_grids(result)
        # paired median |discretized - exact| of beta1 and beta2 per grid size
        gap = {g: np.median(np.abs(grid[g][:, :2] - exact[:, :2]), axis=0) for g in GRID_SIZES}
        shrink = np.array([gap[a] / gap[b] for a, b in zip(GRID_SIZES, GRID_SIZES[1:])])
        sign_disc = result.sign_correct_fraction("discretized")
        sign_exact = float(np.mean(np.all(np.sign(exact) == np.sign(truth[:3]), axis=1)))

        report(
            "criterion 2: scenario 1 (100 reps, 300 pts, thin 0.5, "
            f"second_sine_axis={cfg.second_sine_axis})",
            [
                (
                    "analytic medians within max(15%, 3 MC SE) of (-1, 0.5, -0.05, 1)",
                    bool(np.all(err <= band)),
                    f"medians={med.round(4).tolist()} |err|={err.round(4).tolist()} "
                    f"band={band.round(4).tolist()} mcse={mcse.round(4).tolist()}",
                ),
                (
                    f"{cfg.grid_n}x{cfg.grid_n} refit reproduces run_scenario1's discretized estimates",
                    np.array_equal(grid[cfg.grid_n], result.discretized[:, :3]),
                    f"{cfg.replications} reps (failures={len(result.failures)})",
                ),
                (
                    "discretized-exact gap of beta1, beta2 shrinks >= 3x per 4x grid refinement",
                    bool(np.all(shrink >= 3.0)),
                    "median |gap| "
                    + " ".join(f"{g}x{g}:{gap[g].round(3).tolist()}" for g in GRID_SIZES)
                    + f" ratios={shrink.round(2).tolist()}; sign-correct fraction "
                    f"{cfg.grid_n}x{cfg.grid_n}={sign_disc:.2f} exact={sign_exact:.2f}",
                ),
                ("runtime < 10 min", elapsed < 600.0, f"{elapsed:.1f} s"),
            ],
        )


class TestCriterion3Scenario2:
    """Random-field study at 50 tracks: speed-parameter accuracy and
    coarse-sampling attenuation across thinning levels, judged against the
    fits' own standard errors."""

    def test_criterion_3(self):
        start = time.perf_counter()
        cfg = Scenario2Config(n_tracks=50, seed=MASTER_SEED)
        result = run_scenario2(cfg)
        elapsed = time.perf_counter() - start

        truth = np.array(cfg.beta)
        fits = result.fits
        b = {lvl: fits[lvl].beta_hat for lvl in cfg.levels}
        se = {lvl: fits[lvl].se_beta for lvl in cfg.levels}
        g2 = np.array([fits[lvl].gamma2_hat for lvl in cfg.levels])
        # gamma2_hat ~ gamma2 * chi2(m) / m with m = 2n - J
        g2_z = np.array(
            [(v - 1.0) / (v * math.sqrt(2.0 / (2 * fits[lvl].n - fits[lvl].J)))
             for lvl, v in zip(cfg.levels, g2)]
        )

        chain = [0.05, 0.1, 0.25, 0.5, 1.0]
        steps = list(zip(chain, chain[1:]))
        rise = np.array([b[hi] - b[lo] for lo, hi in steps])
        rise_margin = np.array([2.0 * np.hypot(se[lo], se[hi]) for lo, hi in steps])
        i_w, j_w = np.unravel_index(np.argmax(rise - rise_margin), rise.shape)  # tightest step
        z_coarse = (b[1.0] - truth) / se[1.0]
        ci_hi = {lvl: fits[lvl].ci_beta[:, 1] for lvl in cfg.levels}
        lvl_lo = min(cfg.levels, key=lambda lvl: ci_hi[lvl].min())
        fine = [lvl for lvl in cfg.levels if lvl <= 0.1]
        z_fine = np.array([(b[lvl] - truth) / se[lvl] for lvl in fine])

        curve1 = [round(float(b[lvl][0]), 2) for lvl in chain]
        curve2 = [round(float(b[lvl][1]), 2) for lvl in chain]
        report(
            "criterion 3: scenario 2 attenuation curve (50 tracks x 250 pts)",
            [
                (
                    "gamma2 within 5% of 1 at all levels",
                    bool(np.all(np.abs(g2 - 1.0) <= 0.05)),
                    f"range=[{g2.min():.4f}, {g2.max():.4f}] max |z|={np.abs(g2_z).max():.2f}",
                ),
                (
                    "beta1, beta2 non-increasing over 0.05..1 up to 2 combined SE per step",
                    bool(np.all(rise <= rise_margin)),
                    f"beta1={curve1} beta2={curve2}; tightest step b{j_w + 1} "
                    f"{steps[i_w][0]:g}->{steps[i_w][1]:g}: {rise[i_w, j_w]:+.2f} "
                    f"vs 2 SE={rise_margin[i_w, j_w]:.2f}",
                ),
                (
                    "below truth at delta=1",
                    bool(b[1.0][0] < 2.0 and b[1.0][1] < 4.0),
                    f"beta(1.0)=({b[1.0][0]:.2f}, {b[1.0][1]:.2f}) vs (2, 4) "
                    f"z={z_coarse.round(1).tolist()}",
                ),
                (
                    "no level's CI wholly on the wrong side of zero",
                    all(bool(np.all(ci_hi[lvl] > 0.0)) for lvl in cfg.levels),
                    f"lowest CI upper bound={ci_hi[lvl_lo].min():.2f} at delta={lvl_lo:g} "
                    f"(min estimate={min(min(v) for v in b.values()):.2f})",
                ),
                (
                    "truth within 3 SE at delta <= 0.1",
                    bool(np.all(np.abs(z_fine) <= 3.0)),
                    " ".join(
                        f"{lvl:g}:z={z.round(2).tolist()}" for lvl, z in zip(fine, z_fine)
                    ),
                ),
                ("runtime < 15 min", elapsed < 900.0, f"{elapsed:.1f} s"),
            ],
        )


def clamped_increments(track: Track, clamp_times: np.ndarray) -> np.ndarray:
    """Increments of ``track`` whose window ``(t_i, t_{i+1}]`` holds a clamp."""
    return np.diff(np.searchsorted(clamp_times, track.times, side="right")) > 0


def irregular_vs_regular(
    cfg: Scenario2Config,
    sims: list,
    covariates: list,
    mean_interval: float,
    seeds: list[int],
) -> tuple:
    """Pooled fits of one irregular thinning stream and of its regular match.

    The Euler fit weights increment ``i`` by its interval, so an irregular
    schedule attenuates like a regular one at the Delta-weighted interval
    ``sum(D^2) / sum(D)``, not at its mean.  The regular match thins at that
    interval (rounded to fine steps) over each track's irregular time
    window.  Returns ``(irregular_fit, regular_fit, gaps)``.
    """
    def track_at(sim, keep):
        return Track(sim.track.times[keep], sim.track.xy[keep])

    thinned = [
        track_at(sim, thin_irregular(sim.track, mean_interval, seed, cfg.n_points))
        for sim, seed in zip(sims, seeds)
    ]
    gaps = np.concatenate([t.intervals for t in thinned])
    stride = round(float(gaps @ gaps / gaps.sum()) / cfg.fine_dt)
    regular = []
    for sim, irr in zip(sims, thinned):
        keep = thin_regular(sim.track, stride)
        keep = keep[: int(np.searchsorted(sim.track.times[keep], irr.times[-1], side="right"))]
        regular.append(track_at(sim, keep))

    def clamp_free_fit(tracks):
        bad = [
            clamped_increments(t, sim.track.times[list(sim.clamped)])
            for t, sim in zip(tracks, sims)
        ]
        return fit(build_design(tracks, covariates, bad), alpha=cfg.alpha)

    return clamp_free_fit(thinned), clamp_free_fit(regular), gaps


def cv_se(x: np.ndarray) -> float:
    """Delta-method standard error of the sample coefficient of variation."""
    m = x.mean()
    c = x - m
    v, mu3, mu4 = np.mean(c**2), np.mean(c**3), np.mean(c**4)
    cv = math.sqrt(v) / m
    return cv * math.sqrt(((mu4 - v * v) / (4 * v * v) - mu3 / (v * m) + v / (m * m)) / len(x))


class TestCriterion4IrregularSampling:
    """Regular vs random thinning at the scale of the reference comparison
    table (200 tracks): standard errors at matched mean intervals, point
    estimates at matched Delta-weighted intervals over
    ``IRREGULAR_STREAMS`` thinning streams, and the realized gap law."""

    def test_criterion_4(self):
        start = time.perf_counter()
        cfg = Scenario2Config(n_tracks=200, seed=MASTER_SEED)
        sims = scenario2_tracks(cfg)
        icfg = IrregularConfig(base=cfg, mean_intervals=(0.05, 0.5))
        result = run_irregular(icfg, sims)
        covariates = scenario2_model(cfg).covariates

        est_ok = se_ok = gap_ok = stream0_ok = True
        details_est = []
        details_se = []
        details_gap = []
        for k, interval in enumerate(icfg.mean_intervals):
            reg = result.regular[interval]
            irr = result.irregular[interval]
            d_se = np.abs(reg.se_beta - irr.se_beta) / reg.se_beta
            se_ok &= bool(np.all(d_se <= 0.15))
            details_se += [f"b{j + 1}@{interval:g}:{d_se[j]:.4f}" for j in (0, 1)]

            diffs = []
            for s in range(IRREGULAR_STREAMS):
                # stream 0 is run_irregular's (3, k, i); the others extend its key
                extra = () if s == 0 else (s,)
                seeds = [derive_seed(cfg.seed, 3, k, i, *extra) for i in range(len(sims))]
                irr_s, reg_s, gaps = irregular_vs_regular(cfg, sims, covariates, interval, seeds)
                diffs.append(irr_s.beta_hat - reg_s.beta_hat)
                if s == 0:
                    stream0_ok &= np.array_equal(irr_s.beta_hat, irr.beta_hat) and (
                        (float(gaps.mean()), float(gaps.std())) == result.gap_stats[interval]
                    )
                    gap_mean, gap_sd = result.gap_stats[interval]
                    z_mean = (gap_mean - interval) / (gap_sd / math.sqrt(len(gaps)))
                    cv_expected = math.sqrt(1.0 - cfg.fine_dt / interval)
                    z_cv = (gap_sd / gap_mean - cv_expected) / cv_se(gaps)
                    gap_ok &= abs(z_mean) <= 3.0 and abs(z_cv) <= 3.0
                    details_gap.append(
                        f"@{interval:g}: mean={gap_mean:.4f} (z={z_mean:+.2f}) "
                        f"sd/mean={gap_sd / gap_mean:.3f} vs {cv_expected:.3f} (z={z_cv:+.2f})"
                    )
            diffs = np.array(diffs)
            mean = diffs.mean(axis=0)
            sem = diffs.std(axis=0, ddof=1) / math.sqrt(IRREGULAR_STREAMS)
            est_ok &= bool(np.all(np.abs(mean) <= 0.5))
            details_est += [
                f"b{j + 1}@{interval:g}:{mean[j]:+.3f} (SE {sem[j]:.3f}, "
                f"{(0.5 - abs(mean[j])) / sem[j]:.1f} SE inside)"
                for j in (0, 1)
            ]
        elapsed = time.perf_counter() - start

        report(
            "criterion 4: irregular-sampling robustness (200 tracks)",
            [
                (
                    "irregular minus regular at the Delta-weighted interval within 0.5 absolute "
                    f"(mean of {IRREGULAR_STREAMS} thinning streams)",
                    est_ok,
                    " ".join(details_est),
                ),
                ("SEs within 15% at matched mean intervals", se_ok, " ".join(details_se)),
                (
                    "realized gaps: mean and SD/mean = sqrt(1 - p) within 3 SE",
                    gap_ok,
                    "; ".join(details_gap),
                ),
                (
                    "thinning stream 0 reproduces run_irregular",
                    stream0_ok,
                    "irregular beta_hat and gap statistics",
                ),
                ("runtime < 15 min", elapsed < 900.0, f"{elapsed:.1f} s"),
            ],
        )


class TestCriterion5StationarityOracle:
    """A single quadratic well: the movement model's long-run distribution
    matches the Gaussian the density formula predicts."""

    def test_criterion_5(self):
        start = time.perf_counter()
        beta = -0.5
        center = (0.0, 0.0)
        model = RsfModel([SquaredDistance(center)], [beta], gamma2=1.0)
        res = simulate(SimConfig(model, center, 0.01, 1_000_000, seed=MASTER_SEED))
        xy = res.track.xy
        var = xy.var(axis=0)
        mean_dist = math.hypot(xy[:, 0].mean() - center[0], xy[:, 1].mean() - center[1])
        elapsed = time.perf_counter() - start

        report(
            "criterion 5: stationarity oracle (quadratic well -> N(0, I))",
            [
                (
                    "per-coordinate variance in [0.9, 1.1]",
                    bool(np.all((0.9 <= var) & (var <= 1.1))),
                    f"var={var.round(4).tolist()}",
                ),
                (
                    "empirical mean within 0.05 of center",
                    mean_dist <= 0.05,
                    f"|mean - center|={mean_dist:.4f}",
                ),
                ("runtime < 1 min", elapsed < 60.0, f"{elapsed:.1f} s"),
            ],
        )


class TestCriterion6NumericalProperties:
    """Cross-cutting numerical checks at tight tolerances."""

    def test_criterion_6(self, tmp_path):
        clauses = []
        rng = derive_rng(MASTER_SEED, 20)

        # gradient vs finite differences for every provider and grad log pi
        wavelets = [AnalyticWavelet(**p, second_sine_axis=axis) for axis in ("z1", "z2") for p in (
            dict(alpha=6, a=(0, 0), omega=(0.6, 0.2), sigma=(0.4, 0.4)),
            dict(alpha=6, a=(-2, math.pi / 2), omega=(0.1, 0.5), sigma=(0.4, 0.4)),
        )]
        raster_cov = RasterCovariate(GridRaster(GridGeometry(-6, -6, 1.5, 9, 9), rng.normal(size=(9, 9))))
        providers = [*wavelets, SquaredDistance((0.3, -0.7)), raster_cov]
        model = RsfModel(scenario1_covariates(), [-1.0, 0.5, -0.05])

        def fd_ok(value, gradient, p, h=1e-6):
            gx, gy = gradient(np.array([p]))[0]
            x, y = p
            steps = np.array([(x + h, y), (x - h, y), (x, y + h), (x, y - h)])
            right, left, up, down = value(steps)
            fx = (right - left) / (2 * h)
            fy = (up - down) / (2 * h)
            ref = max(abs(fx), abs(fy), 1e-8)
            return abs(gx - fx) / ref < 1e-4 and abs(gy - fy) / ref < 1e-4

        grad_ok = True
        for cov in providers:
            for _ in range(25):
                p = tuple(rng.uniform(-4.3, 4.3, size=2))
                if cov is raster_cov:
                    u = (p[0] + 6) / 1.5
                    w = (p[1] + 6) / 1.5
                    if min(u % 1, 1 - u % 1, w % 1, 1 - w % 1) < 1e-3:
                        continue
                grad_ok &= fd_ok(cov.value, cov.gradient, p)
        for _ in range(25):
            p = tuple(rng.uniform(-4.0, 4.0, size=2))
            grad_ok &= fd_ok(model.log_pi_unnormalized, model.grad_log_pi, p)
        clauses.append(("gradients match finite differences (rel < 1e-4)", bool(grad_ok), "all providers + grad log pi"))

        # density map normalization
        geom = GridGeometry(-7.75, -7.75, 0.5, 32, 32)
        ud = ud_raster(model, geom)
        norm_err = abs(ud.values.sum() * geom.cell_size**2 - 1.0)
        clauses.append(("density map integrates to 1 (1e-12)", norm_err <= 1e-12, f"err={norm_err:.2e}"))

        # bilinear interpolation vs direct four-corner formula
        r = GridRaster(GridGeometry(-1, 2, 0.5, 5, 5), rng.normal(size=(5, 5)))
        bil_ok = True
        for _ in range(50):
            x = rng.uniform(-1, 1)
            y = rng.uniform(2, 4)
            u = (x + 1) / 0.5
            w = (y - 2) / 0.5
            ix = min(int(u), 3)
            iy = min(int(w), 3)
            uu, ww = u - ix, w - iy
            v = r.values
            ref = (
                (1 - uu) * (1 - ww) * v[iy, ix]
                + uu * (1 - ww) * v[iy, ix + 1]
                + (1 - uu) * ww * v[iy + 1, ix]
                + uu * ww * v[iy + 1, ix + 1]
            )
            bil_ok &= abs(interpolate(r, np.array([(x, y)]))[0] - ref) <= 1e-12 * max(1.0, abs(ref))
        clauses.append(("bilinear matches direct formula", bool(bil_ok), "50 random points"))

        # ASCII grid round-trip
        path = tmp_path / "r.asc"
        write_ascii_grid(r, path)
        back = read_ascii_grid(path)
        rt_ok = back.geom == r.geom and np.allclose(back.values, r.values, rtol=1e-12)
        clauses.append(("ASCII grid round-trip", bool(rt_ok), "geometry exact, values to 1e-12"))

        # determinism of every seeded pipeline
        det = []
        sq = SquaredDistance((0, 0))
        sim_cfg = SimConfig(RsfModel([sq], [-0.3]), (0, 0), 0.02, 500, seed=7)
        det.append(np.array_equal(simulate(sim_cfg).track.xy, simulate(sim_cfg).track.xy))
        spec = RandomFieldSpec(0, 0, 1.0, 31, 31, 4.0, seed=8)
        det.append(np.array_equal(generate_random_field(spec).values, generate_random_field(spec).values))
        fine = Track(np.arange(3000) * 0.01, np.zeros((3000, 2)))
        keeps = thin_irregular(fine, 0.05, seed=9), thin_irregular(fine, 0.05, seed=9)
        det.append(np.array_equal(*keeps))
        tiny1 = Scenario1Config(replications=2, n_points=40, thin_interval=0.1, seed=5)
        det.append(
            np.array_equal(run_scenario1(tiny1).analytic, run_scenario1(tiny1).analytic, equal_nan=True)
        )
        tiny2 = Scenario2Config(
            n_tracks=2, n_points=30, levels=(0.05, 0.1), grid_n_x=41, grid_n_y=41,
            grid_x_min=-20, grid_y_min=-20, rho=4.0, seed=6,
        )
        det.append(
            np.array_equal(
                run_scenario2(tiny2).fits[0.1].beta_hat, run_scenario2(tiny2).fits[0.1].beta_hat
            )
        )
        clauses.append(("seeded pipelines deterministic", all(det), f"{len(det)} pipelines"))

        # bias-correction identity
        model5 = RsfModel([sq], [-0.4])
        track = simulate(SimConfig(model5, (0.2, 0.1), 0.05, 300, seed=21)).track
        res = fit(build_design([track], [sq]))
        m = 2 * res.n - res.J
        ident = np.abs(res.beta_hat * res.gamma2_hat * m / (m - 2) - res.nu_hat)
        ident_rel = float((ident / np.abs(res.nu_hat)).max())
        clauses.append(("bias-correction identity (rel < 1e-12)", ident_rel < 1e-12, f"rel={ident_rel:.2e}"))

        report("criterion 6: numerical property suites", clauses)


class TestCriterion7FitSurfaceShape:
    """Pooled multi-track fit against four gridded covariates produces the
    four-estimate, four-interval output shape of a coastal-tracking table."""

    def test_criterion_7(self, tmp_path):
        rng = derive_rng(MASTER_SEED, 30)
        geom = GridGeometry(-30, -30, 3.0, 21, 21)
        specs = []
        covs = []
        for j in range(4):
            raster = GridRaster(geom, rng.normal(size=(21, 21)))
            write_ascii_grid(raster, tmp_path / f"c{j}.asc")
            specs.append({"type": "raster", "path": f"c{j}.asc"})
            covs.append(RasterCovariate(raster))
        model = RsfModel(covs, [0.3, -0.3, 0.1, 0.05], gamma2=1.5)
        names = []
        for k in range(3):
            sim = simulate(SimConfig(model, (0.0, 0.0), 0.02, 800, seed=40 + k))
            assert sim.n_clamped == 0
            name = tmp_path / f"track{k}.csv"
            write_track_csv(sim.track, name)
            names.append(str(name))
        cov_file = tmp_path / "covs.json"
        cov_file.write_text(json.dumps({"covariates": specs}))
        out = tmp_path / "fit"
        code = cli_main(
            ["fit", "--tracks", *names, "--covariates", str(cov_file), "--out", str(out)]
        )
        doc = json.loads((out / "fit.json").read_text())
        shape_ok = (
            code == 0
            and doc["J"] == 4
            and len(doc["beta_hat"]) == 4
            and len(doc["ci_beta"]) == 4
            and all(len(ci) == 2 and ci[0] < ci[1] for ci in doc["ci_beta"])
            and doc["ci_gamma2"][0] < doc["gamma2_hat"] < doc["ci_gamma2"][1]
        )
        report(
            "criterion 7: pooled multi-track fit output shape (4 estimates + 4 CIs)",
            [
                ("CLI fit on 3 pooled tracks, J=4", shape_ok, f"beta_hat={np.round(doc['beta_hat'], 3).tolist()}"),
            ],
        )
