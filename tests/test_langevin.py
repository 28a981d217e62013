"""Simulation, thinning, domain handling, and track I/O."""

import math

import numpy as np
import pytest

from langmove import (
    Extent,
    GridGeometry,
    GridRaster,
    RasterCovariate,
    RsfModel,
    SimConfig,
    SquaredDistance,
    Track,
    build_design,
    read_track_csv,
    simulate,
    thin_irregular,
    thin_regular,
    write_track_csv,
)
from langmove.errors import InsufficientDataError, NonIncreasingTimesError, OutOfDomainError
from langmove.seeding import derive_rng


def flat_model(gamma2=1.0):
    """A model with zero drift everywhere."""
    return RsfModel([SquaredDistance((0, 0))], [0.0], gamma2=gamma2)


def plane_model(gx, gy, gamma2=1.0, half=50.0):
    """A model whose log-density gradient is the constant (gx, gy)."""
    geom = GridGeometry(-half, -half, half, 3, 3)
    xs = geom.x_centers()
    vals = gx * xs[None, :] + gy * geom.y_centers()[:, None]
    return RsfModel([RasterCovariate(GridRaster(geom, vals))], [1.0], gamma2=gamma2)


def first_step(model, x0, dt, seed=0):
    """The first simulated location, and the noise pair that drove it."""
    res = simulate(SimConfig(model, x0, dt, 1, seed=seed))
    return tuple(res.track.xy[1]), derive_rng(seed).standard_normal((1, 2))[0]


class TestEulerStep:
    """The Euler transition, observed through :func:`simulate`."""

    def test_direct_arithmetic(self):
        # the first step is x0 + half * g + sig * n to the last bit, with n
        # the first row of the seed's (n_steps, 2) standard-normal draw
        m = plane_model(2.0, -4.0, gamma2=1.3)
        x0, dt, n_steps, seed = (0.7, -1.1), 0.01, 50, 17
        res = simulate(SimConfig(m, x0, dt, n_steps, seed=seed))
        n = derive_rng(seed).standard_normal((n_steps, 2))
        gx, gy = m.grad_log_pi(x0)
        half = 0.5 * m.gamma2 * dt
        sig = math.sqrt(m.gamma2 * dt)
        assert res.track.xy[1, 0] == x0[0] + half * gx + sig * n[0, 0]
        assert res.track.xy[1, 1] == x0[1] + half * gy + sig * n[0, 1]
        assert (gx, gy) == pytest.approx((2.0, -4.0), rel=1e-12)

    def test_zero_drift_is_running_sum_of_noise(self):
        # without drift every location is the start plus the running sum of
        # sqrt(gamma2 * dt) * n, added in step order
        gamma2, dt, n_steps, seed = 1.7, 0.04, 500, 9
        res = simulate(SimConfig(flat_model(gamma2), (1.3, -2.2), dt, n_steps, seed=seed))
        steps = math.sqrt(gamma2 * dt) * derive_rng(seed).standard_normal((n_steps, 2))
        expected = np.cumsum(np.vstack([[1.3, -2.2], steps]), axis=0)
        np.testing.assert_array_equal(res.track.xy, expected)

    def test_drift_exactly_linear_in_dt_and_gamma2(self):
        # from the origin the first step is drift + sqrt(gamma2 * dt) * n;
        # power-of-two rescalings of dt and gamma2 rescale the drift term
        # exactly in floating point
        g = np.array([0.7, -0.3])
        base = 0.5 * 0.5 * 0.5 * g  # gamma2 = dt = 0.5
        for gamma2, dt, factor in ((0.5, 0.5, 1), (0.5, 1.0, 2), (2.0, 0.5, 4), (0.5, 0.25, 0.5)):
            step, n = first_step(plane_model(*g, gamma2=gamma2), (0.0, 0.0), dt)
            assert step == tuple(factor * base + math.sqrt(gamma2 * dt) * n)

    def test_noise_scale(self):
        # with zero drift the first step is sqrt(gamma2 * dt) = 1 times the
        # noise pair, exactly
        step, n = first_step(flat_model(gamma2=4.0), (0.0, 0.0), 0.25, seed=3)
        assert step == tuple(n)

    def test_increment_variance_monte_carlo(self):
        # zero drift: increments have variance gamma2 * dt per coordinate
        gamma2, dt = 1.7, 0.04
        res = simulate(SimConfig(flat_model(gamma2), (0.0, 0.0), dt, 100_000, seed=10))
        incr = np.diff(res.track.xy, axis=0)
        for k in (0, 1):
            assert incr[:, k].var() == pytest.approx(gamma2 * dt, rel=0.05)


class TestSimulate:
    def test_deterministic(self):
        cfg = SimConfig(flat_model(), (0.0, 0.0), 0.01, 200, seed=3)
        a = simulate(cfg)
        b = simulate(cfg)
        np.testing.assert_array_equal(a.track.xy, b.track.xy)
        np.testing.assert_array_equal(a.track.times, b.track.times)

    def test_length_and_timestamps(self):
        n = 137
        dt = 0.03
        res = simulate(SimConfig(flat_model(), (1.0, 2.0), dt, n, seed=4))
        assert len(res.track) == n + 1
        np.testing.assert_array_equal(res.track.times, np.arange(n + 1) * dt)
        assert tuple(res.track.xy[0]) == (1.0, 2.0)

    def test_seed_changes_track(self):
        a = simulate(SimConfig(flat_model(), (0.0, 0.0), 0.01, 50, seed=1))
        b = simulate(SimConfig(flat_model(), (0.0, 0.0), 0.01, 50, seed=2))
        assert not np.array_equal(a.track.xy, b.track.xy)

    def test_containment_under_centering_force(self):
        # the squared-distance covariate keeps long tracks bounded
        from langmove.experiments import Scenario1Config, scenario1_model

        model = scenario1_model(Scenario1Config())
        maxima = []
        for seed in range(10):
            res = simulate(SimConfig(model, (0.0, 0.0), 0.01, 5000, seed=seed))
            maxima.append(np.hypot(res.track.xy[:, 0], res.track.xy[:, 1]).max())
        assert max(maxima) < 20.0
        assert min(maxima) > 1.0

    def test_msd_scales_with_gamma2(self):
        # same density, speeds 1 and 100: squared displacement over the
        # first time unit scales by ~100
        msd = {}
        for g2 in (1.0, 100.0):
            model = RsfModel([SquaredDistance((0, 0))], [-0.0005], gamma2=g2)
            disp = []
            for seed in range(300):
                res = simulate(SimConfig(model, (0.0, 0.0), 0.01, 100, seed=seed))
                d = res.track.xy[-1] - res.track.xy[0]
                disp.append(d @ d)
            msd[g2] = np.mean(disp)
        ratio = msd[100.0] / msd[1.0]
        assert 80.0 < ratio < 120.0

    def test_stationary_variance_single_well(self):
        # pi = N(center, -1/(2 beta) I); empirical variance within 10%
        beta = -0.5
        model = RsfModel([SquaredDistance((0, 0))], [beta])
        res = simulate(SimConfig(model, (0.0, 0.0), 0.01, 200_000, seed=11))
        target = -1.0 / (2.0 * beta)
        xy = res.track.xy
        assert xy[:, 0].var() == pytest.approx(target, rel=0.10)
        assert xy[:, 1].var() == pytest.approx(target, rel=0.10)


class TestDomainEscape:
    def small_domain_model(self):
        geom = GridGeometry(-1, -1, 1.0, 3, 3)
        return RsfModel([RasterCovariate(GridRaster(geom, np.zeros((3, 3))))], [1.0], gamma2=25.0)

    def test_clamp_policy_counts_and_projects(self):
        res = simulate(SimConfig(self.small_domain_model(), (0.0, 0.0), 0.5, 100, seed=0))
        assert res.n_clamped > 0
        ext = self.small_domain_model().domain()
        for x, y in res.track.xy:
            assert ext.contains(x, y)
        for idx in res.clamped:
            x, y = res.track.xy[idx]
            assert x in (ext.x_lo, ext.x_hi) or y in (ext.y_lo, ext.y_hi)
        np.testing.assert_array_equal(res.clamp_times, res.track.times[list(res.clamped)])

    def test_start_point_must_be_inside(self):
        with pytest.raises(OutOfDomainError):
            simulate(SimConfig(self.small_domain_model(), (5.0, 0.0), 0.1, 10, seed=0))


class TestThinRegular:
    def test_stride_one_is_identity(self):
        res = simulate(SimConfig(flat_model(), (0.0, 0.0), 0.01, 60, seed=5))
        out = thin_regular(res.track, 1)
        np.testing.assert_array_equal(out.times, res.track.times)
        np.testing.assert_array_equal(out.xy, res.track.xy)

    def test_point_count_and_spacing(self):
        track = Track(np.arange(3001) * 0.01, np.zeros((3001, 2)))
        out = thin_regular(track, 50)
        assert len(out) == 61
        np.testing.assert_allclose(out.intervals, 0.5)

    def test_composition(self):
        track = Track(np.arange(1201) * 0.01, np.random.default_rng(6).normal(size=(1201, 2)))
        a = thin_regular(thin_regular(track, 4), 3)
        b = thin_regular(track, 12)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.xy, b.xy)

    def test_stride_validation(self):
        track = Track([0.0, 1.0], [[0, 0], [1, 1]])
        with pytest.raises(ValueError):
            thin_regular(track, 0)


class TestThinIrregular:
    def fine_track(self, n, dt=0.01):
        return Track(np.arange(n) * dt, np.zeros((n, 2)))

    def test_mean_interval_equal_dt_keeps_everything(self):
        track = self.fine_track(500)
        out = thin_irregular(track, 0.01, seed=7)
        assert len(out) == len(track)

    def test_gap_statistics(self):
        # target mean 0.05 from a 0.01-resolution track; near-exponential gaps
        track = self.fine_track(60_000)
        out = thin_irregular(track, 0.05, seed=8)
        gaps = out.intervals
        assert len(gaps) > 10_000
        assert 0.045 <= gaps.mean() <= 0.055
        assert 0.8 <= gaps.std() / gaps.mean() <= 1.1

    def test_deterministic(self):
        track = self.fine_track(2000)
        a = thin_irregular(track, 0.07, seed=9)
        b = thin_irregular(track, 0.07, seed=9)
        np.testing.assert_array_equal(a.times, b.times)

    def test_keeps_first_point_and_subset(self):
        rng = np.random.default_rng(10)
        track = Track(np.arange(1000) * 0.5, rng.normal(size=(1000, 2)))
        out = thin_irregular(track, 2.5, seed=11)
        assert out.times[0] == track.times[0]
        assert set(out.times).issubset(set(track.times))

    def test_requires_regular_spacing(self):
        track = Track([0.0, 1.0, 3.0], np.zeros((3, 2)))
        with pytest.raises(ValueError):
            thin_irregular(track, 2.0, seed=0)

    def test_mean_interval_below_spacing_rejected(self):
        with pytest.raises(ValueError):
            thin_irregular(self.fine_track(100), 0.005, seed=0)

    @pytest.mark.parametrize("mean_interval", [0.01, 0.02, 0.05, 0.5])
    def test_matches_one_draw_per_kept_point(self, mean_interval):
        # p = 1, p above 1/3, p below 1/3: the reference draws one gap at a
        # time until it passes the end of the track
        track = self.fine_track(3000)
        rng = derive_rng(12)
        keep, idx = [0], 0
        while True:
            idx += int(rng.geometric(0.01 / mean_interval))
            if idx > len(track) - 1:
                break
            keep.append(idx)
        out = thin_irregular(track, mean_interval, seed=12)
        np.testing.assert_array_equal(out.times, track.times[keep])
        np.testing.assert_array_equal(out.xy, track.xy[keep])


def domain_mask(xy, extent):
    """Reference: increment i is bad when location i is outside ``extent``."""
    return [not extent.contains(x, y) for x, y in xy[:-1]]


def clamp_mask(times, clamp_times):
    """Reference: increment i is bad when a clamp falls in ``(t_i, t_{i+1}]``."""
    return [any(a < c <= b for c in clamp_times) for a, b in zip(times, times[1:])]


ESCAPES = np.array([[0, 0], [1, 0], [9, 9], [2, 0], [3, 0], [9, -9], [4, 0]], dtype=float)


def inside(n):
    """``n`` locations inside the domain of ``COVARIATES``."""
    return np.random.default_rng(n).uniform(-4, 4, (n, 2))


# a random raster on [-5, 5]^2 and an analytic covariate
COVARIATES = [
    RasterCovariate(
        GridRaster(GridGeometry(-5, -5, 0.5, 21, 21), derive_rng(9).normal(size=(21, 21)))
    ),
    SquaredDistance((0.5, -0.5)),
]
# a second track, fitted beside each case: increments 1 and 4 are flagged,
# which leaves the runs of locations [0, 1] and [2, 3, 4]
OTHER = Track([0.0, 0.3, 0.7, 1.6, 2.0, 2.2], inside(6))
OTHER_BAD = [False, True, False, False, True]
OTHER_RUNS = [[0, 1], [2, 3, 4]]


def design_of_runs(tracks, runs, covariates):
    """Reference ``(y, d, t_delta)`` built one increment at a time from the
    runs of locations ``runs[k]`` of each track ``k``."""
    rows = [(t, i) for t, track_runs in zip(tracks, runs) for run in track_runs for i in run[:-1]]
    n = len(rows)
    y, d, t_delta = np.empty(2 * n), np.empty((2 * n, len(covariates))), np.empty(2 * n)
    for r, (track, i) in enumerate(rows):
        s = math.sqrt(track.times[i + 1] - track.times[i])
        t_delta[r] = t_delta[n + r] = s
        y[r] = (track.xy[i + 1, 0] - track.xy[i, 0]) / s
        y[n + r] = (track.xy[i + 1, 1] - track.xy[i, 1]) / s
        for j, cov in enumerate(covariates):
            gx, gy = cov.gradient(track.xy[i])
            d[r, j], d[n + r, j] = 0.5 * gx, 0.5 * gy
    return y, d, t_delta


class TestSplitAt:
    """Dropping the increments flagged in ``build_design``'s ``bad`` masks
    cuts a track at them: the design holds the increments of the runs
    between the flags and no others."""

    @pytest.mark.parametrize(
        "xy, bad, expected",
        [
            # runs [0,1] (+ escaped point 2 as tail), [3,4] (+5); [6] has no increment
            (ESCAPES, domain_mask(ESCAPES, Extent(-5, 5, -5, 5)), [[0, 1, 2], [3, 4, 5]]),
            # clamp at t=3.5 kills increment (3,4]; clamp at t=7 kills (6,7]
            (
                inside(10),
                clamp_mask(np.arange(10.0), [3.5, 7.0]),
                [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]],
            ),
            (inside(5), clamp_mask(np.arange(5.0), []), [[0, 1, 2, 3, 4]]),
            (inside(4), [True, True, True], []),
            (inside(2), [False], [[0, 1]]),
            (inside(2), [True], []),
        ],
        ids=["domain-tail", "clamp-windows", "no-events", "all-bad", "n2-good", "n2-bad"],
    )
    def test_split_at(self, xy, bad, expected):
        # beside a second track, the design equals bit for bit the one built
        # increment by increment from the expected runs of both tracks
        track = Track(np.arange(float(len(xy))), xy)
        masks = [np.array(bad), np.array(OTHER_BAD)]
        des = build_design([track, OTHER], COVARIATES, masks)
        y, d, t_delta = design_of_runs([track, OTHER], [expected, OTHER_RUNS], COVARIATES)
        assert des.n == len(y) // 2
        for got, want in ((des.y, y), (des.d, d), (des.t_delta, t_delta)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if not expected:
            with pytest.raises(InsufficientDataError):
                build_design([track], COVARIATES, masks[:1])

    def test_mask_length_checked(self):
        track = Track(np.arange(3.0), np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"track 1: need one flag per increment \(2\)"):
            build_design([OTHER, track], COVARIATES, [np.array(OTHER_BAD), np.array([False])])


class TestTrackType:
    def test_validation(self):
        with pytest.raises(NonIncreasingTimesError):
            Track([0.0, 1.0, 1.0], np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Track([0.0, 1.0], np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Track([0.0], [[np.nan, 0.0]])
        with pytest.raises(ValueError):
            Track([], np.zeros((0, 2)))

    def test_slicing(self):
        track = Track(np.arange(10.0), np.arange(20.0).reshape(10, 2))
        head = track[:4]
        assert len(head) == 4
        np.testing.assert_array_equal(head.xy, track.xy[:4])
        with pytest.raises(TypeError):
            track[3]

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        track = Track(np.cumsum(rng.uniform(0.1, 2.0, size=40)), rng.normal(size=(40, 2)))
        path = tmp_path / "track.csv"
        write_track_csv(track, path)
        back = read_track_csv(path)
        np.testing.assert_array_equal(back.times, track.times)
        np.testing.assert_array_equal(back.xy, track.xy)
        assert path.read_text().splitlines()[0] == "t,x,y"

    def test_csv_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,y\n0,0,0\n")
        with pytest.raises(ValueError):
            read_track_csv(path)
        path.write_text("t,x,y\n0,0\n")
        with pytest.raises(ValueError):
            read_track_csv(path)
        path.write_text("t,x,y\n1.0,0,0\n0.5,0,0\n")
        with pytest.raises(NonIncreasingTimesError):
            read_track_csv(path)
