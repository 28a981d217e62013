"""Simulation, thinning, domain handling, and track I/O."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langmove import (
    AnalyticWavelet,
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
from langmove.errors import (
    InsufficientDataError,
    NonFiniteError,
    NonIncreasingTimesError,
    OutOfDomainError,
)
from langmove import langevin
from langmove.experiments import Scenario2Config, scenario2_model
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
        gx, gy = m.grad_log_pi(np.array([x0]))[0]
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

    @pytest.mark.parametrize("cell", [1.0, 2.0])
    def test_dyadic_plane_is_the_constant_drift_recursion(self, cell):
        # v = 0.25 x - 0.5 y on an integer grid: every neighbour difference is
        # exact, so the bilinear gradient is (0.25, -0.5) to the last bit
        # everywhere, and the track is Brownian motion with that drift
        n = int(128 / cell) + 1
        geom = GridGeometry(-64.0, -64.0, cell, n, n)
        values = 0.25 * geom.x_centers()[None, :] - 0.5 * geom.y_centers()[:, None]
        model = RsfModel([RasterCovariate(GridRaster(geom, values))], [1.0], gamma2=1.5)
        grads = model.grad_log_pi(np.random.default_rng(15).uniform(-64.0, 64.0, size=(200_000, 2)))
        assert np.unique(grads, axis=0).tolist() == [[0.25, -0.5]]
        cfg = SimConfig(model, (0.5, -1.0), 0.02, 3000, seed=16)
        res = simulate(cfg)
        half = 0.5 * model.gamma2 * cfg.dt
        noise = math.sqrt(model.gamma2 * cfg.dt) * derive_rng(cfg.seed).standard_normal((cfg.n_steps, 2))
        x, y = cfg.x0
        expected = [(x, y)]
        for nx, ny in noise.tolist():
            x, y = x + half * 0.25 + nx, y + half * -0.5 + ny
            expected.append((x, y))
        assert res.n_clamped == 0
        assert res.track.xy.tobytes() == np.array(expected).tobytes()

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

    @pytest.mark.parametrize(
        "dt, n_steps, message",
        [
            (0.0, 10, "dt must be positive, got 0.0"),
            (-0.01, 10, "dt must be positive, got -0.01"),
            (math.nan, 10, "dt must be positive, got nan"),
            (math.inf, 10, "dt must be positive, got inf"),
            (0.01, 0, "n_steps must be >= 1, got 0"),
        ],
    )
    def test_config_validation(self, dt, n_steps, message):
        with pytest.raises(ValueError, match=message):
            SimConfig(flat_model(), (0.0, 0.0), dt, n_steps, seed=0)

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

    def test_start_point_must_be_inside(self):
        with pytest.raises(OutOfDomainError):
            simulate(SimConfig(self.small_domain_model(), (5.0, 0.0), 0.1, 10, seed=0))

    def test_disjoint_rasters_leave_no_domain(self):
        # rasters on [-1, 1]^2 and [2, 4] x [-1, 1]: no start point is inside both
        covs = [
            RasterCovariate(GridRaster(GridGeometry(x_min, -1, 1.0, 3, 3), np.zeros((3, 3))))
            for x_min in (-1, 2)
        ]
        model = RsfModel(covs, [1.0, 1.0])
        for x0 in ((0.0, 0.0), (3.0, 0.0)):
            with pytest.raises(OutOfDomainError, match=r"\(start point\)"):
                simulate(SimConfig(model, x0, 0.1, 10, seed=0))
        track = Track([0.0, 1.0], [[0.0, 0.0], [0.5, 0.0]])
        with pytest.raises(OutOfDomainError, match=r"\(track 0: track location 0\)"):
            build_design([track], covs)


def euler_loop(model, x0, half, noise, dom):
    """The Euler loop one step at a time through ``grad_log_pi``: from ``x0``,
    each step adds ``half`` times the gradient and a row of the scaled
    ``noise``, and ``Extent.clamp`` puts a proposal outside the extent
    ``dom`` (``PLANE``: no domain) back into it.  The locations, ``x0``
    first, up to the first non-finite one, which is not clamped (``simulate``
    raises there), and the clamp indices."""
    x, y = x0
    pts = [(x, y)]
    clamped = []
    for k, (nx, ny) in enumerate(noise):
        gx, gy = model.grad_log_pi(np.array([(x, y)]))[0]
        x = x + half * gx + nx
        y = y + half * gy + ny
        if not (math.isfinite(x) and math.isfinite(y)):
            pts.append((x, y))
            break
        if not dom.contains(x, y):
            x, y = dom.clamp(x, y)
            clamped.append(k + 1)
        pts.append((x, y))
    return np.array(pts), tuple(clamped)


def reference_steps(cfg):
    """:func:`euler_loop` for ``cfg``: its model's domain, and its seeded
    noise scaled by ``sqrt(gamma2 * dt)`` as ``simulate`` scales it."""
    model = cfg.model
    noise = derive_rng(cfg.seed).standard_normal((cfg.n_steps, 2)) * math.sqrt(model.gamma2 * cfg.dt)
    return euler_loop(model, cfg.x0, 0.5 * model.gamma2 * cfg.dt, noise, model.domain())


def two_raster_model():
    rng = np.random.default_rng(12)
    geom = GridGeometry(-2.0, -2.0, 0.5, 9, 9)
    covs = [RasterCovariate(GridRaster(geom, rng.normal(size=(9, 9)))) for _ in range(2)]
    return RsfModel(covs, [1.5, -0.8], gamma2=4.0)


def analytic_model():
    params = dict(alpha=6, a=(-2, math.pi / 2), omega=(0.1, 0.5), sigma=(0.4, 0.4))
    covs = [
        AnalyticWavelet(**params, second_sine_axis="z1"),
        AnalyticWavelet(**params, second_sine_axis="z2"),
        SquaredDistance((0.5, -0.3)),
    ]
    return RsfModel(covs, [-1.0, 0.7, -0.05], gamma2=1.3)


def one_raster_model():
    """One raster with beta != 1: the compiled drift with a single term."""
    rng = np.random.default_rng(13)
    geom = GridGeometry(-2.0, -2.0, 0.5, 9, 9)
    return RsfModel([RasterCovariate(GridRaster(geom, rng.normal(size=(9, 9))))], [-1.7], gamma2=4.0)


def overlapping_rasters_model():
    """Rasters on two partly overlapping grids, [-2, 2]^2 and [-1.25, 2.75] x
    [-2.75, 1.25], with a wavelet between them: the domain [-1.25, 2] x
    [-2, 1.25] is a strict intersection, with two sides from each grid."""
    rng = np.random.default_rng(14)
    grids = [GridGeometry(-2.0, -2.0, 0.5, 9, 9), GridGeometry(-1.25, -2.75, 0.5, 9, 9)]
    wavelet = AnalyticWavelet(
        alpha=6, a=(-2, math.pi / 2), omega=(0.1, 0.5), sigma=(0.4, 0.4), second_sine_axis="z2"
    )
    first, second = (RasterCovariate(GridRaster(g, rng.normal(size=(9, 9)))) for g in grids)
    return RsfModel([first, wavelet, second], [1.5, 0.4, -0.8], gamma2=4.0)


class TestCompiledStep:
    """``simulate`` (compiled drift, float steps in blocks) equals the loop
    one step at a time, byte for byte, on every side of a block edge."""

    @pytest.mark.parametrize("n_steps", [1, 255, 256, 257, 1000])
    @pytest.mark.parametrize(
        "make_model, dt",
        [
            (two_raster_model, 0.25),
            (one_raster_model, 0.25),
            (analytic_model, 0.05),
            (overlapping_rasters_model, 0.1),
        ],
    )
    def test_matches_reference_loop(self, make_model, dt, n_steps):
        cfg = SimConfig(make_model(), (0.3, -0.4), dt, n_steps, seed=n_steps)
        res = simulate(cfg)
        xy, clamped = reference_steps(cfg)
        assert res.track.xy.tobytes() == xy.tobytes()
        assert res.clamped == clamped
        if make_model is two_raster_model and n_steps == 1000:
            # clamps throughout, the last step of each block included
            assert res.n_clamped >= 100 and {256, 512, 768} <= set(res.clamped)
        if make_model is overlapping_rasters_model and n_steps == 1000:
            # the stepper has no raster guard: clamps onto each side of the
            # intersection, and at the last two steps of each block and the first of the next
            assert {255, 256, 257, 511, 512, 513, 767, 768, 769} <= set(res.clamped)
            dom, at = cfg.model.domain(), res.track.xy[list(res.clamped)]
            for side, axis in ((dom.x_lo, 0), (dom.x_hi, 0), (dom.y_lo, 1), (dom.y_hi, 1)):
                assert np.any(at[:, axis] == side)

    def test_clamp_indices_at_every_step(self):
        # a noise scale of 1000 on a 2 x 2 domain: every proposal leaves it,
        # so each step index, on both sides of the block edges, is a clamp
        geom = GridGeometry(-1.0, -1.0, 1.0, 3, 3)
        model = RsfModel([RasterCovariate(GridRaster(geom, np.zeros((3, 3))))], [1.0], gamma2=1e6)
        cfg = SimConfig(model, (0.0, 0.0), 1.0, 600, seed=3)
        res = simulate(cfg)
        xy, clamped = reference_steps(cfg)
        assert res.clamped == clamped == tuple(range(1, 601))
        assert res.track.xy.tobytes() == xy.tobytes()

    @pytest.mark.parametrize("k", [255, 256, 257])
    def test_non_finite_location_at_a_block_edge(self, k):
        # at gamma2 = dt = 1 the well's step doubles x (unit noise is below
        # its last bit), so 1.5 * 2**(1024 - k) is 1.5 * 2**1023 after k - 1
        # steps, still finite, and overflows at step k
        model = RsfModel([SquaredDistance()], [1.0])
        cfg = SimConfig(model, (1.5 * 2.0 ** (1024 - k), 0.0), 1.0, 300, seed=0)
        with np.errstate(over="ignore"):  # the gradient overflows at step k - 1
            xy, _ = reference_steps(cfg)
        assert len(xy) == k + 1 and not np.isfinite(xy[k]).all()
        with pytest.raises(NonFiniteError, match=rf"location {k} of the track is non-finite \(inf, "):
            simulate(cfg)

    def test_memory_does_not_grow_with_the_track(self):
        # the peak beyond the noise and location arrays is the same at 10x
        # the steps: no whole-track list of floats
        model = analytic_model()
        simulate(SimConfig(model, (0.0, 0.0), 0.01, 10, seed=1))
        extra = []
        for n in (2_490, 24_900):
            tracemalloc.start()
            try:
                simulate(SimConfig(model, (0.0, 0.0), 0.01, n, seed=1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - 16 * n - 16 * (n + 1))
        assert extra[1] <= 1.1 * extra[0], extra


class TestDivergence:
    def test_non_finite_start_rejected(self):
        for x0 in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)):
            with pytest.raises(ValueError, match="x0 must be finite"):
                SimConfig(flat_model(), x0, 0.01, 10, seed=0)

    @pytest.mark.parametrize("x0", [(0, 0, 7), (0,), (0, "x"), (0, None)])
    def test_start_must_hold_two_numbers(self, x0):
        # three entries were cut to two, silently
        with pytest.raises(ValueError, match="^x0 must hold two numbers, got"):
            SimConfig(flat_model(), x0, 0.01, 10, seed=0)

    @pytest.mark.parametrize("beta", [[5.0], [-5.0], [5.0, 1.0]])
    def test_diverging_track_names_first_non_finite_location(self, beta):
        # the quadratic well's chain multiplies x by 1 + gamma2 * beta * dt
        # = 3.5 (or -1.5) per step, so at dt = 0.5 it overflows; a wavelet's
        # kernel then meets an infinite location
        wavelet = AnalyticWavelet(alpha=6, a=(0, 0), omega=(0.6, 0.2), sigma=(0.4, 0.4))
        covs = [SquaredDistance(), wavelet][: len(beta)]
        cfg = SimConfig(RsfModel(covs, beta), (0.1, 0.0), 0.5, 3000, seed=0)
        with np.errstate(over="ignore"):  # the wavelet's exponent overflows first
            xy, _ = reference_steps(cfg)
        k = len(xy) - 1
        assert k < cfg.n_steps and not np.isfinite(xy[k]).all()
        with pytest.raises(NonFiniteError, match=rf"location {k} of the track is non-finite"):
            simulate(cfg)

    def test_infinite_step_in_a_raster_domain_raises(self):
        # columns of alternating +-1e308 give a gradient of +-2e308, which
        # overflows: the first step is infinite, and not a clamp to the boundary
        geom = GridGeometry(0.0, 0.0, 1.0, 4, 4)
        values = np.tile([1e308, -1e308, 1e308, -1e308], (4, 1))
        model = RsfModel([RasterCovariate(GridRaster(geom, values))], [1.0])
        with pytest.raises(NonFiniteError, match=r"location 1 of the track is non-finite \(inf, "):
            simulate(SimConfig(model, (1.5, 1.5), 0.01, 50, seed=0))


def thinned(track, keep):
    return Track(track.times[keep], track.xy[keep])


class TestThinRegular:
    def test_stride_one_is_identity(self):
        res = simulate(SimConfig(flat_model(), (0.0, 0.0), 0.01, 60, seed=5))
        out = thinned(res.track, thin_regular(res.track, 1))
        np.testing.assert_array_equal(out.times, res.track.times)
        np.testing.assert_array_equal(out.xy, res.track.xy)

    def test_point_count_and_spacing(self):
        track = Track(np.arange(3001) * 0.01, np.zeros((3001, 2)))
        out = thinned(track, thin_regular(track, 50))
        assert len(out) == 61
        np.testing.assert_allclose(out.intervals, 0.5)

    def test_composition(self):
        track = Track(np.arange(1201) * 0.01, np.random.default_rng(6).normal(size=(1201, 2)))
        keep4 = thin_regular(track, 4)
        a = keep4[thin_regular(thinned(track, keep4), 3)]
        np.testing.assert_array_equal(a, thin_regular(track, 12))

    def test_stride_validation(self):
        track = Track([0.0, 1.0], [[0, 0], [1, 1]])
        with pytest.raises(ValueError):
            thin_regular(track, 0)
        with pytest.raises(ValueError, match="n_points must be >= 1"):
            thin_regular(track, 1, n_points=0)

    @pytest.mark.parametrize("stride", [2.5, 2.0, "2", True, None])
    def test_stride_must_be_an_integer(self, stride):
        # a fractional stride used to return float "indices"
        track = Track(np.arange(10) * 0.01, np.zeros((10, 2)))
        with pytest.raises(ValueError, match=r"^stride must be an integer, got "):
            thin_regular(track, stride)

    @pytest.mark.parametrize("n_points", [2.5, 3.0, True])
    def test_cap_must_be_an_integer(self, n_points):
        # thin_regular(track, 2, 2.5) returned [0., 2., 4.]; thin_irregular
        # failed in numpy with an untyped TypeError
        track = Track(np.arange(10) * 0.01, np.zeros((10, 2)))
        with pytest.raises(ValueError, match=r"^n_points must be an integer, got "):
            thin_regular(track, 2, n_points)
        with pytest.raises(ValueError, match=r"^n_points must be an integer, got "):
            thin_irregular(track, 0.02, 1, n_points)

    def test_numpy_integer_stride_accepted(self):
        track = Track(np.arange(10) * 0.01, np.zeros((10, 2)))
        np.testing.assert_array_equal(thin_regular(track, np.int64(4)), [0, 4, 8])

    def test_indices_are_the_capped_arange(self):
        for n in (1, 2, 99, 100, 101, 1000):
            track = Track(np.arange(n) * 0.01, np.zeros((n, 2)))
            for stride in (1, 3, 100):
                for cap in (None, 1, 7, 10, 34, 250, 5000):
                    keep = thin_regular(track, stride, cap)
                    assert keep.dtype.kind == "i"
                    np.testing.assert_array_equal(keep, np.arange(0, n, stride)[:cap])


class TestThinIrregular:
    def fine_track(self, n, dt=0.01):
        return Track(np.arange(n) * dt, np.zeros((n, 2)))

    def test_mean_interval_equal_dt_keeps_everything(self):
        track = self.fine_track(500)
        np.testing.assert_array_equal(thin_irregular(track, 0.01, seed=7), np.arange(500))

    def test_gap_statistics(self):
        # target mean 0.05 from a 0.01-resolution track; near-exponential gaps
        track = self.fine_track(60_000)
        out = thinned(track, thin_irregular(track, 0.05, seed=8))
        gaps = out.intervals
        assert len(gaps) > 10_000
        assert 0.045 <= gaps.mean() <= 0.055
        assert 0.8 <= gaps.std() / gaps.mean() <= 1.1

    def test_deterministic(self):
        track = self.fine_track(2000)
        a = thin_irregular(track, 0.07, seed=9)
        b = thin_irregular(track, 0.07, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_keeps_first_point_and_subset(self):
        rng = np.random.default_rng(10)
        track = Track(np.arange(1000) * 0.5, rng.normal(size=(1000, 2)))
        keep = thin_irregular(track, 2.5, seed=11)
        assert keep[0] == 0 and keep.dtype.kind == "i"
        assert np.all(np.diff(keep) > 0) and keep[-1] <= len(track) - 1

    def test_requires_regular_spacing(self):
        track = Track([0.0, 1.0, 3.0], np.zeros((3, 2)))
        with pytest.raises(ValueError):
            thin_irregular(track, 2.0, seed=0)

    def test_regularity_band_is_1e_9_of_the_first_interval(self):
        # one interval just inside and one just outside dt * (1 +- 1e-9): the
        # band of the earlier np.allclose(intervals, dt, rtol=1e-9, atol=0)
        dt = 0.01
        for sign in (1.0, -1.0):
            for factor, accepted in ((0.999, True), (1.001, False)):
                times = np.arange(100) * dt
                times[60:] += sign * factor * 1e-9 * dt
                track = Track(times, np.zeros((100, 2)))
                assert np.allclose(track.intervals, dt, rtol=1e-9, atol=0.0) == accepted
                if accepted:
                    assert thin_irregular(track, 0.05, seed=1)[0] == 0
                else:
                    with pytest.raises(ValueError, match="regularly sampled"):
                        thin_irregular(track, 0.05, seed=1)

    def test_mean_interval_below_spacing_rejected(self):
        with pytest.raises(ValueError):
            thin_irregular(self.fine_track(100), 0.005, seed=0)
        with pytest.raises(ValueError, match="n_points must be >= 1"):
            thin_irregular(self.fine_track(100), 0.05, seed=0, n_points=0)

    def test_regularity_worked_out_once_per_track(self, monkeypatch):
        reads = []
        monkeypatch.setattr(Track, "intervals", property(lambda t: reads.append(1) or np.diff(t.times)))
        track = self.fine_track(2000)
        draws = [thin_irregular(track, 0.05, seed) for seed in range(3)]
        assert len(reads) == 1 and track.regular_interval == 0.01
        assert not np.array_equal(draws[0], draws[1])
        assert Track([0.0], [[0.0, 0.0]]).regular_interval is None  # no interval to be regular
        irregular = Track([0.0, 1.0, 3.0], np.zeros((3, 2)))
        for _ in range(2):  # the cached answer still raises
            with pytest.raises(ValueError, match="regularly sampled"):
                thin_irregular(irregular, 2.0, seed=0)

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
        np.testing.assert_array_equal(thin_irregular(track, mean_interval, seed=12), keep)

    @pytest.mark.parametrize("mean_interval", [0.01, 0.02, 0.05, 0.5])
    def test_matches_one_draw_of_all_gaps(self, mean_interval):
        # an independent reference: one draw of all n - 1 gaps, with and
        # without the cap, whose kept prefix the chunked draw must reproduce
        for n in (1, 2, 3000):
            track = self.fine_track(n)
            idx = np.cumsum(derive_rng(13).geometric(0.01 / mean_interval, size=n - 1))
            keep = np.concatenate([[0], idx[idx <= n - 1]])
            for cap in (None, 1, 2, 40, 250, 3000):
                got = thin_irregular(track, mean_interval, 13, cap)
                np.testing.assert_array_equal(got, keep[:cap])

    def test_one_draw_of_all_gaps_reaches_the_end_of_the_track(self, monkeypatch):
        # each call makes one draw, of all n - 1 gaps or of n_points - 1 if
        # fewer, and keeps the points of that draw up to the end of the track
        class CountingRng:
            def __init__(self, rng):
                self.rng, self.sizes = rng, []

            def geometric(self, p, size):
                self.sizes.append(size)
                return self.rng.geometric(p, size=size)

        rngs = []

        def counting_rng(seed):
            rngs.append(CountingRng(derive_rng(seed)))
            return rngs[-1]

        monkeypatch.setattr(langevin, "derive_rng", counting_rng)
        track = self.fine_track(3000)
        for seed in range(50):
            idx = np.cumsum(derive_rng(seed).geometric(0.02, size=len(track) - 1))
            keep = np.concatenate([[0], idx[idx <= len(track) - 1]])
            np.testing.assert_array_equal(thin_irregular(track, 0.5, seed=seed), keep)
            for cap in (1, 40, 5000):
                np.testing.assert_array_equal(thin_irregular(track, 0.5, seed, cap), keep[:cap])
        assert [rng.sizes for rng in rngs] == [[2999], [0], [39], [2999]] * 50

    def test_the_cap_stops_the_draw(self, monkeypatch):
        # at most n_points - 1 gaps are drawn, however long the track
        drawn = []

        class CountingRng:
            def __init__(self, rng):
                self.rng = rng

            def geometric(self, p, size):
                drawn.append(size)
                return self.rng.geometric(p, size=size)

        monkeypatch.setattr(langevin, "derive_rng", lambda seed: CountingRng(derive_rng(seed)))
        keep = thin_irregular(self.fine_track(100_000), 0.05, seed=3, n_points=250)
        assert len(keep) == 250 and sum(drawn) == 249


class TestClampMask:
    """The studies' clamp masks on integer step indices against the masks on
    the clamps' times, on a simulation that clamps hundreds of times."""

    def test_index_mask_equals_time_mask(self):
        model = scenario2_model(
            Scenario2Config(grid_n_x=21, grid_n_y=21, grid_x_min=-10, grid_y_min=-10, rho=3.0)
        )
        sim = simulate(SimConfig(model, (0.0, 0.0), 0.01, 30_000, seed=4))
        assert sim.n_clamped >= 100
        clamp_times = sim.track.times[list(sim.clamped)]
        for keep in (
            thin_regular(sim.track, 1),
            thin_regular(sim.track, 7, 1000),
            thin_irregular(sim.track, 0.05, 5),
            thin_irregular(sim.track, 0.5, 6, 250),
        ):
            times = sim.track.times[keep]
            by_index = np.diff(np.searchsorted(np.asarray(sim.clamped), keep, side="right")) > 0
            by_time = np.diff(np.searchsorted(clamp_times, times, side="right")) > 0
            assert by_index.any() and not by_index.all()
            np.testing.assert_array_equal(by_index, by_time)
            np.testing.assert_array_equal(by_index, clamped_windows(times, clamp_times))


def clamped_windows(times, clamp_times):
    """Vectorized :func:`clamp_mask`: window ``(t_i, t_{i+1}]`` holds a clamp."""
    t = np.asarray(times)
    c = np.asarray(clamp_times)[:, None]
    return ((t[:-1] < c) & (c <= t[1:])).any(axis=0)


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
            gx, gy = cov.gradient(track.xy[i : i + 1])[0]
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
        with pytest.raises(ValueError, match=r"xy must have shape \(n, 2\), got \(1, 3\)"):
            Track([0.0], [[0.0, 0.0, 0.0]])

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


def reference_write_track_csv(track, path):
    """The earlier one-row-at-a-time writer, kept as the reference for the bytes."""
    with open(path, "w") as fh:
        fh.write("t,x,y\n")
        for t, (x, y) in zip(track.times, track.xy):
            fh.write(f"{float(t)!r},{float(x)!r},{float(y)!r}\n")


def reference_read_track_csv(path):
    """The earlier one-row-at-a-time reader, kept as the reference for what is accepted."""
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


# where repr changes notation (1e-4 / 1e-5, 1e16), the smallest subnormal,
# signed zero, integral floats and negatives
SPECIAL_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-300, 2.2250738585072014e-308, 1e-4, 9.999999999999999e-05,
    1e-5, 0.0001234, 1e15, 9999999999999998.0, 1e16, 1.2345e16, -1e16, 3.0, -7.0, 1e300,
    -0.1, 0.30000000000000004, 1.7976931348623157e308,
]


def special_track():
    values = np.array(SPECIAL_VALUES)
    times = np.unique(values)  # strictly increasing; -0.0 and 0.0 are one time
    xy = np.column_stack((values, -values[::-1]))[: len(times)]
    return Track(times, xy)


class TestTrackCsv:
    """The block writer and the one-``loadtxt`` reader against the earlier
    per-row ones: the same bytes out, the same values and errors in."""

    def test_special_values_write_the_reference_bytes(self, tmp_path):
        track = special_track()
        write_track_csv(track, tmp_path / "new.csv")
        reference_write_track_csv(track, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back = read_track_csv(tmp_path / "new.csv")
        assert back.times.tobytes() == track.times.tobytes()
        assert back.xy.tobytes() == track.xy.tobytes()

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_block_edges_write_the_reference_bytes(self, tmp_path, n):
        rng = np.random.default_rng(n)
        scale = 10.0 ** rng.integers(-8, 18, size=(n, 2))
        track = Track(np.cumsum(rng.uniform(1e-3, 2.0, n)), rng.normal(size=(n, 2)) * scale)
        write_track_csv(track, tmp_path / "new.csv")
        reference_write_track_csv(track, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
        st.data(),
    )
    def test_round_trip_is_bit_identical(self, tmp_path_factory, times, data):
        times = np.unique(times)
        coords = st.floats(allow_nan=False, allow_infinity=False)
        xy = data.draw(st.lists(st.tuples(coords, coords), min_size=len(times), max_size=len(times)))
        track = Track(times, np.array(xy, dtype=float).reshape(-1, 2))
        path = tmp_path_factory.mktemp("csv") / "track.csv"
        write_track_csv(track, path)
        back = read_track_csv(path)
        assert back.times.tobytes() == track.times.tobytes()
        assert back.xy.tobytes() == track.xy.tobytes()
        assert back.xy.flags.c_contiguous and back.times.flags.c_contiguous

    @pytest.mark.parametrize(
        "body",
        [
            "0,1,2\n\n1,3,4\n",
            "0,1,2\n   \n\t\n1,3,4\n\n",
            "0.5,-1e-5,2\n",
            " 0 , 1e16 ,-0.0 \n1,5e-324,3\n",
            "0,1,2",
        ],
        ids=["blank", "whitespace-only", "one-row", "padded", "no-final-newline"],
    )
    def test_accepts_what_the_reference_accepts(self, tmp_path, body):
        path = tmp_path / "track.csv"
        path.write_text("t,x,y\n" + body)
        back, ref = read_track_csv(path), reference_read_track_csv(path)
        assert back.times.tobytes() == ref.times.tobytes()
        assert back.xy.tobytes() == ref.xy.tobytes()

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "track.csv"
        path.write_bytes(b"t,x,y\r\n0,1,2\r\n\r\n1,3.5,-4\r\n")
        back, ref = read_track_csv(path), reference_read_track_csv(path)
        assert back.xy.tolist() == ref.xy.tolist() == [[1.0, 2.0], [3.5, -4.0]]
        assert back.times.tolist() == ref.times.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("body", ["", "\n", "  \n\n"], ids=["empty", "blank", "whitespace"])
    def test_header_only_raises_without_warning(self, tmp_path, body):
        path = tmp_path / "track.csv"
        path.write_text("t,x,y\n" + body)
        with pytest.raises(ValueError, match="no data rows"):
            reference_read_track_csv(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no data rows"):
                read_track_csv(path)
        assert caught == []

    @pytest.mark.parametrize(
        "body",
        ["0,1,2\n1,2\n", "0,1\n1,2\n", "0,1,2,3\n", "0,1,2,\n", "0,1,abc\n", "0,,2\n",
         "# a comment\n0,1,2\n", "0,1,2 # note\n"],
        ids=["ragged", "two-columns", "four-columns", "trailing-comma", "non-numeric", "empty-field",
             "hash-line", "hash-after-value"],
    )
    def test_rejects_what_the_reference_rejects_naming_the_file(self, tmp_path, body):
        path = tmp_path / "track.csv"
        path.write_text("t,x,y\n" + body)
        with pytest.raises(ValueError):
            reference_read_track_csv(path)
        with pytest.raises(ValueError, match="track.csv"):
            read_track_csv(path)

    def test_underscores_rejected_unlike_float(self, tmp_path):
        # the one documented difference from the earlier float()-per-value reader
        path = tmp_path / "track.csv"
        path.write_text("t,x,y\n1_0,1,2\n")
        assert reference_read_track_csv(path).times.tolist() == [10.0]
        with pytest.raises(ValueError, match="track.csv"):
            read_track_csv(path)

    def test_writer_memory_does_not_grow_with_the_track(self, tmp_path):
        # the track's arrays exist before tracing starts, so the peak is the
        # writer's own: a block of rows, not a whole-track list of floats
        rng = np.random.default_rng(3)
        tracks = [Track(np.arange(n) * 0.01, rng.normal(size=(n, 2))) for n in (3_000, 30_000)]
        write_track_csv(tracks[0], tmp_path / "warm.csv")
        peaks = []
        for track in tracks:
            tracemalloc.start()
            try:
                write_track_csv(track, tmp_path / f"track_{len(track)}.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks
