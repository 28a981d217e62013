"""Design assembly, closed-form estimation, and likelihood cross-checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, norm

from langmove import (
    DesignMatrices,
    GridGeometry,
    GridRaster,
    RandomFieldSpec,
    RasterCovariate,
    RsfModel,
    SimConfig,
    SquaredDistance,
    Track,
    build_design,
    fit,
    generate_random_field,
    pooled_fit,
    pseudo_log_likelihood,
    simulate,
    thin_irregular,
    thin_regular,
)
from langmove.errors import (
    DegenerateFitError,
    InsufficientDataError,
    NonFiniteError,
    OutOfDomainError,
    SingularDesignError,
)
from langmove.experiments import Scenario2Config, scenario1_covariates, scenario2_tracks
from langmove.inference import GROUP_ROWS


def plane_covariate(gx, gy, half=100.0):
    geom = GridGeometry(-half, -half, half, 3, 3)
    vals = gx * geom.x_centers()[None, :] + gy * geom.y_centers()[:, None]
    return RasterCovariate(GridRaster(geom, vals))


def synthetic_design(rng, n=200, J=2, nu=(1.0, -2.0), gamma2=1.0, noise=True):
    """Draw (Y, D, deltas) directly from the linear model."""
    deltas = rng.uniform(0.5, 1.5, size=n)
    d = rng.normal(size=(2 * n, J))
    t_delta = np.concatenate([np.sqrt(deltas), np.sqrt(deltas)])
    y = (d * t_delta[:, None]) @ np.asarray(nu)
    if noise:
        y = y + math.sqrt(gamma2) * rng.standard_normal(2 * n)
    return DesignMatrices(y=y, d=d, t_delta=t_delta, n=n, J=J)


class TestBuildDesign:
    def test_normalized_increments(self):
        track = Track([0.0, 4.0], [[0.0, 0.0], [2.0, -2.0]])
        des = build_design([track], [SquaredDistance((0, 0))])
        np.testing.assert_allclose(des.y, [1.0, -1.0])
        np.testing.assert_allclose(des.t_delta, [2.0, 2.0])
        assert des.n == 1 and des.J == 1

    def test_constant_covariate_gives_zero_columns(self):
        geom = GridGeometry(-10, -10, 10.0, 3, 3)
        const = RasterCovariate(GridRaster(geom, np.full((3, 3), 5.0)))
        track = Track(np.arange(4.0), np.random.default_rng(0).uniform(-5, 5, size=(4, 2)))
        des = build_design([track], [const])
        np.testing.assert_array_equal(des.d, np.zeros((6, 1)))

    def test_halved_gradient_blocks(self):
        # squared distance: D rows are (x, y) at each location (half of 2p)
        rng = np.random.default_rng(1)
        xy = rng.uniform(-3, 3, size=(5, 2))
        track = Track(np.arange(5.0), xy)
        des = build_design([track], [SquaredDistance((0, 0))])
        np.testing.assert_allclose(des.d[:4, 0], xy[:4, 0])
        np.testing.assert_allclose(des.d[4:, 0], xy[:4, 1])

    def test_block_alignment(self):
        # row i (x block) and row n+i (y block) use the same location
        cov = plane_covariate(2.0, -6.0)
        track = Track(np.arange(3.0), np.random.default_rng(2).uniform(-1, 1, (3, 2)))
        des = build_design([track], [cov])
        np.testing.assert_allclose(des.d[:2, 0], 1.0)  # (1/2) * 2
        np.testing.assert_allclose(des.d[2:, 0], -3.0)  # (1/2) * -6

    def test_final_point_may_leave_domain(self):
        cov = plane_covariate(1.0, 0.0, half=2.0)
        track = Track([0.0, 1.0, 2.0], [[0, 0], [1, 1], [50, 50]])
        build_design([track], [cov])  # ok: gradient never evaluated at the end

    def test_out_of_domain_reports_index(self):
        cov = plane_covariate(1.0, 0.0, half=2.0)
        track = Track([0.0, 1.0, 2.0], [[0, 0], [50, 50], [0, 1]])
        with pytest.raises(OutOfDomainError) as err:
            build_design([track], [cov])
        assert "(track 0: track location 1)" in str(err.value)

    def test_flagged_start_may_leave_domain(self):
        # domains are checked at the kept starts only
        cov = plane_covariate(1.0, 0.0, half=2.0)
        track = Track([0.0, 1.0, 2.0, 3.0], [[0, 0], [50, 50], [0, 1], [1, 1]])
        des = build_design([track], [cov], [np.array([False, True, False])])
        assert des.n == 2
        np.testing.assert_array_equal(des.y, [50.0, 1.0, 50.0, 0.0])

    def test_one_mask_per_track(self):
        track = Track(np.arange(3.0), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="one mask per track"):
            build_design([track, track], [SquaredDistance((0, 0))], [np.zeros(2, bool)])

    def test_second_covariate_leaving_first_reports_its_location(self):
        # location 1 is outside only the second covariate's domain, location
        # 2 outside both: the first bad location over all covariates is 1
        wide = plane_covariate(1.0, 0.0, half=10.0)
        narrow = plane_covariate(0.0, 1.0, half=2.0)
        track = Track(np.arange(4.0), [[0, 0], [5, 5], [50, 50], [0, 0]])
        for covs in ([wide, narrow], [narrow, wide]):
            with pytest.raises(OutOfDomainError) as err:
                build_design([track], covs)
            assert "location 1" in str(err.value)
            assert (err.value.x, err.value.y) == (5.0, 5.0)

    def test_matches_per_increment_loop(self):
        # the design from one array call per covariate equals, bit for bit,
        # the per-increment, per-covariate loop it replaces
        covs = [
            RasterCovariate(
                generate_random_field(RandomFieldSpec(-20, -20, 0.5, 81, 81, rho=2.0, seed=5))
            ),
            *scenario1_covariates("z1")[:2],
            *scenario1_covariates("z2")[:2],
            SquaredDistance((1.5, -0.5)),
        ]
        rng = np.random.default_rng(6)
        times = np.cumsum(rng.uniform(0.05, 1.0, size=400))
        xy = np.cumsum(rng.normal(scale=0.25, size=(400, 2)), axis=0)
        xy[-1] = (99.0, 99.0)  # the final location may leave every domain
        track = Track(times, xy)

        des = build_design([track], covs)
        n = len(track) - 1
        d = np.empty((2 * n, len(covs)))
        for i in range(n):
            for j, cov in enumerate(covs):
                gx, gy = cov.gradient(track.xy[i : i + 1])[0]
                d[i, j] = 0.5 * gx
                d[n + i, j] = 0.5 * gy
        assert np.abs(xy[:-1]).max() < 20
        assert np.array_equal(des.d, d)
        assert des.d.tobytes() == d.tobytes()

    def test_too_short_track(self):
        with pytest.raises(ValueError):
            build_design([Track([0.0], [[0.0, 0.0]])], [SquaredDistance((0, 0))])

    def test_no_covariate_rejected(self):
        with pytest.raises(ValueError, match="need at least one covariate"):
            build_design([Track([0.0, 1.0], np.zeros((2, 2)))], [])


class TestFit:
    def test_exact_recovery_on_noise_free_data(self):
        rng = np.random.default_rng(3)
        nu = np.array([1.5, -0.7])
        des = synthetic_design(rng, n=50, nu=nu, noise=False)
        with pytest.raises(DegenerateFitError) as err:
            fit(des)
        np.testing.assert_allclose(err.value.nu_hat, nu, rtol=1e-10)

    def test_monte_carlo_unbiasedness(self):
        # direct draws from the linear model: the corrected coefficients are
        # exactly unbiased (checked to 3 Monte Carlo standard errors)
        rng = np.random.default_rng(4)
        beta = np.array([2.0, 4.0])
        des0 = synthetic_design(rng, n=150, nu=beta, gamma2=1.0)  # nu = beta at gamma2 = 1
        x = des0.d * des0.t_delta[:, None]
        mean_part = x @ beta
        ests = []
        for _ in range(300):
            y = mean_part + rng.standard_normal(2 * des0.n)
            res = fit(DesignMatrices(y=y, d=des0.d, t_delta=des0.t_delta, n=des0.n, J=2))
            ests.append(res.beta_hat)
        ests = np.asarray(ests)
        err = ests.mean(axis=0) - beta
        mc_se = ests.std(axis=0) / math.sqrt(len(ests))
        assert np.all(np.abs(err) <= 3 * mc_se)

    def test_bias_correction_identity(self):
        rng = np.random.default_rng(5)
        des = synthetic_design(rng, n=80)
        res = fit(des)
        m = 2 * des.n - des.J
        lhs = res.beta_hat * res.gamma2_hat * m / (m - 2)
        np.testing.assert_allclose(lhs, res.nu_hat, rtol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        des = synthetic_design(rng, n=60)
        perm = rng.permutation(des.n)
        rows = np.concatenate([perm, des.n + perm])
        des_p = DesignMatrices(
            y=des.y[rows], d=des.d[rows], t_delta=des.t_delta[rows], n=des.n, J=des.J
        )
        a = fit(des)
        b = fit(des_p)
        np.testing.assert_allclose(a.nu_hat, b.nu_hat, rtol=1e-10)
        assert a.gamma2_hat == pytest.approx(b.gamma2_hat, rel=1e-10)

    def test_covariance_shape_and_symmetry(self):
        rng = np.random.default_rng(7)
        res = fit(synthetic_design(rng, n=100))
        assert res.beta_cov.shape == (2, 2)
        np.testing.assert_allclose(res.beta_cov, res.beta_cov.T)
        assert np.all(np.diag(res.beta_cov) >= 0)

    def test_intervals_are_ordered_and_scale_with_alpha(self):
        rng = np.random.default_rng(8)
        des = synthetic_design(rng, n=100)
        narrow = fit(des, alpha=0.32)
        wide = fit(des, alpha=0.01)
        assert np.all(narrow.ci_beta[:, 0] < narrow.ci_beta[:, 1])
        assert narrow.ci_gamma2[0] < narrow.gamma2_hat < narrow.ci_gamma2[1]
        assert np.all(wide.ci_beta[:, 0] < narrow.ci_beta[:, 0])
        assert np.all(wide.ci_beta[:, 1] > narrow.ci_beta[:, 1])

    @pytest.mark.parametrize("n, J", [(3, 1), (29, 1), (300, 2), (2000, 1), (25000, 2)])
    def test_intervals_use_the_scipy_stats_quantiles(self, n, J):
        # fit takes its quantiles from scipy.special: bit for bit norm.ppf
        # and chi2.ppf, at 2n - J = 5, 57, 598, 3999 and 49998
        des = synthetic_design(np.random.default_rng(n), n=n, J=J, nu=(1.0, -2.0)[:J])
        m = 2 * n - J
        for alpha in (0.01, 0.05, 0.1, 0.2):
            res = fit(des, alpha=alpha)
            z = norm.ppf(alpha / 2.0)
            se = np.sqrt(np.diag(res.beta_cov))
            ci_beta = np.column_stack([res.beta_hat + z * se, res.beta_hat - z * se])
            ci_gamma2 = (
                float(res.gamma2_hat * m / chi2.ppf(1.0 - alpha / 2.0, m)),
                float(res.gamma2_hat * m / chi2.ppf(alpha / 2.0, m)),
            )
            assert res.ci_beta.tobytes() == ci_beta.tobytes()
            assert np.array(res.ci_gamma2).tobytes() == np.array(ci_gamma2).tobytes()

    def test_singular_design_detected(self):
        rng = np.random.default_rng(9)
        des = synthetic_design(rng, n=40, J=2)
        d = des.d.copy()
        d[:, 1] = 2 * d[:, 0]
        with pytest.raises(SingularDesignError) as err:
            fit(DesignMatrices(y=des.y, d=d, t_delta=des.t_delta, n=des.n, J=2))
        assert err.value.condition_number > 1e12 or math.isinf(err.value.condition_number)

    def test_insufficient_data_for_intervals(self):
        rng = np.random.default_rng(10)
        des = synthetic_design(rng, n=2, J=1, nu=(1.0,))  # 2n - J - 4 = -1
        with pytest.raises(InsufficientDataError):
            fit(des)
        # one increment, two coefficients: not even the estimates are determined
        with pytest.raises(InsufficientDataError, match="2n - J = 0 <= 0"):
            fit(synthetic_design(rng, n=1, J=2))

    def test_alpha_validation(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            fit(synthetic_design(rng), alpha=0.9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 40))
    def test_fit_invariant_under_block_permutation(self, seed, n):
        rng = np.random.default_rng(seed)
        des = synthetic_design(rng, n=n, J=1, nu=(0.8,))
        perm = rng.permutation(n)
        rows = np.concatenate([perm, n + perm])
        des_p = DesignMatrices(
            y=des.y[rows], d=des.d[rows], t_delta=des.t_delta[rows], n=n, J=1
        )
        np.testing.assert_allclose(fit(des).nu_hat, fit(des_p).nu_hat, rtol=1e-9)


class TestPooling:
    def tracks(self):
        rng = np.random.default_rng(12)
        model = RsfModel([SquaredDistance((0, 0))], [-0.4])
        t1 = simulate(SimConfig(model, (0.5, 0.0), 0.05, 120, seed=13)).track
        t2 = simulate(SimConfig(model, (-0.5, 0.5), 0.05, 90, seed=14)).track
        return t1, t2

    def test_single_track_matches_fit(self):
        t1, _ = self.tracks()
        cov = [SquaredDistance((0, 0))]
        a = fit(build_design([t1], cov))
        b = pooled_fit([t1], cov)
        np.testing.assert_allclose(a.beta_hat, b.beta_hat)
        assert a.gamma2_hat == b.gamma2_hat

    def test_duplicated_track_same_estimates_smaller_intervals(self):
        t1, _ = self.tracks()
        cov = [SquaredDistance((0, 0))]
        one = pooled_fit([t1], cov)
        two = pooled_fit([t1, t1], cov)
        np.testing.assert_allclose(one.nu_hat, two.nu_hat, rtol=1e-10)
        assert two.ci_beta[0, 1] - two.ci_beta[0, 0] < one.ci_beta[0, 1] - one.ci_beta[0, 0]

    def test_no_phantom_increment_between_tracks(self):
        t1, t2 = self.tracks()
        cov = [SquaredDistance((0, 0))]
        pooled = pooled_fit([t1, t2], cov)

        # independent oracle: stack the per-track normal equations
        d1, d2 = build_design([t1], cov), build_design([t2], cov)
        x = np.vstack([d1.d * d1.t_delta[:, None], d2.d * d2.t_delta[:, None]])
        y = np.concatenate([d1.y, d2.y])
        nu_ref = np.linalg.lstsq(x, y, rcond=None)[0]
        np.testing.assert_allclose(pooled.nu_hat, nu_ref, rtol=1e-10)

        # a single concatenated track would add a bridging increment and
        # shift the estimate
        bridged = Track(
            np.concatenate([t1.times, t2.times + t1.times[-1] + 0.05]),
            np.vstack([t1.xy, t2.xy]),
        )
        res_bridged = fit(build_design([bridged], cov))
        assert abs(res_bridged.nu_hat[0] - pooled.nu_hat[0]) > 1e-12
        assert pooled.n == d1.n + d2.n == res_bridged.n - 1

    def test_rows_are_all_x_then_all_y(self):
        # the pooled blocks are the per-track x blocks, then the y blocks
        t1, t2 = self.tracks()
        cov = [SquaredDistance((0, 0)), plane_covariate(1.0, -2.0)]
        d1, d2 = build_design([t1], cov), build_design([t2], cov)
        both = build_design([t1, t2], cov)
        assert both.n == d1.n + d2.n
        for name in ("y", "d", "t_delta"):
            a, b = getattr(d1, name), getattr(d2, name)
            stacked = np.concatenate([a[: d1.n], b[: d2.n], a[d1.n :], b[d2.n :]])
            assert getattr(both, name).tobytes() == stacked.tobytes()

    def test_rerun_byte_identical(self):
        t1, t2 = self.tracks()
        cov = [SquaredDistance((0, 0)), plane_covariate(1.0, -2.0)]
        a, b = pooled_fit([t1, t2], cov), pooled_fit([t1, t2], cov)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        for name in ("nu_hat", "beta_hat", "upsilon", "beta_cov", "ci_beta"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_empty_input(self):
        with pytest.raises(InsufficientDataError):
            build_design([], [SquaredDistance((0, 0))])
        t1, t2 = self.tracks()
        every = [np.ones(len(t) - 1, bool) for t in (t1, t2)]
        with pytest.raises(InsufficientDataError):
            build_design([t1, t2], [SquaredDistance((0, 0))], every)

    def test_out_of_domain_names_track_and_location_once(self):
        cov = plane_covariate(1.0, 0.0, half=2.0)
        good = Track([0.0, 1.0], [[0, 0], [1, 1]])
        bad = Track([0.0, 1.0, 2.0, 3.0], [[0, 0], [1, 1], [9, 9], [0, 0]])
        with pytest.raises(OutOfDomainError) as err:
            build_design([good, bad], [cov])
        assert str(err.value) == (
            "point (9.0, 9.0) is outside the interpolation domain (track 1: track location 2)"
        )

    def test_non_finite_gradient_names_track_and_location(self):
        # neighbouring columns of +-1e308 differ by +-inf: the gradient is
        # finite for x in [0, 2) and infinite beyond
        geom = GridGeometry(0.0, 0.0, 1.0, 5, 5)
        cov = RasterCovariate(GridRaster(geom, np.tile([1.0, 2.0, 1e308, -1e308, 1e308], (5, 1))))
        good = Track([0.0, 1.0], [[0.5, 0.5], [1.0, 1.0]])
        bad = Track([0.0, 1.0, 2.0, 3.0], [[0.5, 0.5], [1.5, 1.5], [2.5, 2.5], [3.5, 0.5]])
        with np.errstate(over="ignore", invalid="ignore"):  # numpy flags its own overflow
            with pytest.raises(NonFiniteError, match=r"gradient at track 1: track location 2$"):
                pooled_fit([good, bad], [cov])
            with pytest.raises(NonFiniteError, match=r"gradient at track 0: track location 2$"):
                pseudo_log_likelihood(bad, RsfModel([cov], [1.0]))


class CountingCovariate:
    """A covariate that counts its gradient calls and the rows they take."""

    def __init__(self, cov):
        self.cov, self.extent, self.calls = cov, cov.extent, []

    def gradient(self, xy):
        self.calls.append(len(xy))
        return self.cov.gradient(xy)


def walk(rng, n, half=9.0):
    """A track of ``n`` locations inside ``[-half, half]^2`` at irregular times."""
    times = np.cumsum(rng.uniform(0.01, 0.2, n))
    return Track(times, rng.uniform(-half, half, (n, 2)))


def stacked_per_track(tracks, covariates, bad):
    """Reference ``(y, d, t_delta)``: the per-track designs ``build_design([t])``
    laid out as all x blocks, then all y blocks."""
    blocks = [build_design([t], covariates, [b]) for t, b in zip(tracks, bad) if not np.all(b)]
    stacked = []
    for name in ("y", "d", "t_delta"):
        x_blocks = [getattr(b, name)[: b.n] for b in blocks]
        y_blocks = [getattr(b, name)[b.n :] for b in blocks]
        stacked.append(np.concatenate(x_blocks + y_blocks))
    return stacked


class TestGroupedDesign:
    """The kept starts of all the tracks are cut into ``GROUP_ROWS``-row
    chunks, one gradient call per covariate each, after one domain check;
    the design is that of the tracks one at a time, byte for byte."""

    def covariates(self):
        geom = GridGeometry(-10, -10, 0.5, 41, 41)
        raster = RasterCovariate(GridRaster(geom, np.random.default_rng(30).normal(size=(41, 41))))
        return [CountingCovariate(raster), CountingCovariate(SquaredDistance((1.0, -2.0)))]

    @pytest.mark.parametrize(
        "kept_rows, calls",
        [
            # short and long tracks, 5,713 rows: the first cut is inside the long track
            ([40, 300, GROUP_ROWS + 900, 7, 250, 0, 120], [GROUP_ROWS, 1617]),
            # two cuts inside one track
            ([3, 2 * GROUP_ROWS + 5, 10], [GROUP_ROWS, GROUP_ROWS, 18]),
            # a cut that falls exactly on a track boundary
            ([GROUP_ROWS // 2, GROUP_ROWS // 2, 1], [GROUP_ROWS, 1]),
            ([GROUP_ROWS - 1, 1, 1], [GROUP_ROWS, 1]),
            ([GROUP_ROWS, GROUP_ROWS + 1, 3], [GROUP_ROWS, GROUP_ROWS, 4]),
            # fewer rows than the constant: one call
            ([5, 0, 7], [12]),
        ],
        ids=["mixed", "inside-a-track", "two-halves", "one-short", "at-and-over", "one-call"],
    )
    def test_matches_the_per_track_designs(self, kept_rows, calls):
        rng = np.random.default_rng(len(kept_rows) + kept_rows[0])
        tracks, bad = [], []
        for rows in kept_rows:
            # about half as many flagged increments as kept ones; a track
            # that keeps none has three, all flagged
            n_flagged = rows // 2 if rows else 3
            flags = np.zeros(rows + n_flagged, dtype=bool)
            flags[rng.choice(len(flags), n_flagged, replace=False)] = True
            tracks.append(walk(rng, len(flags) + 1))
            bad.append(flags)
        covs = self.covariates()
        des = build_design(tracks, covs, bad)
        for cov in covs:
            assert cov.calls == calls and max(cov.calls) <= GROUP_ROWS
        ref = stacked_per_track(tracks, covs, bad)
        assert des.n == sum(kept_rows)
        for got, want in zip((des.y, des.d, des.t_delta), ref):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "track, location",
        [(1, 5), (2, 3), (3, GROUP_ROWS - 2), (5, 4)],
        ids=["second-of-a-pooled-group", "third-of-a-pooled-group", "long-track", "later-group"],
    )
    def test_out_of_domain_names_track_and_location(self, track, location):
        # the first chunk pools tracks 0-2 and the start of 3, the second
        # the end of 3 (with location GROUP_ROWS - 2) and the start of 4,
        # the third the end of 4 and track 5; the first three increments of
        # every track are flagged, and a flagged start outside the domain
        # is ignored
        rng = np.random.default_rng(31)
        lengths = [30, 20, 40, GROUP_ROWS + 10, GROUP_ROWS - 60, 25]
        tracks = [walk(rng, n) for n in lengths]
        bad = [np.arange(n - 1) < 3 for n in lengths]
        xy = [t.xy.copy() for t in tracks]
        xy[0][1] = xy[4][0] = (50.0, 0.0)  # flagged starts
        xy[track][location] = (0.0, -30.0)
        xy[track][location + 1] = (40.0, 40.0)  # a second bad start: the first is named
        tracks = [Track(t.times, p) for t, p in zip(tracks, xy)]
        covs = self.covariates()
        with pytest.raises(OutOfDomainError) as err:
            build_design(tracks, covs, bad)
        assert str(err.value) == (
            f"point (0.0, -30.0) is outside the interpolation domain "
            f"(track {track}: track location {location})"
        )
        assert all(cov.calls == [] for cov in covs)  # no gradient was taken

    def test_out_of_domain_comes_before_a_non_finite_gradient(self):
        # the gradient is infinite for x in [2, 5) (as in TestBuildDesign);
        # track 0 starts there in the first chunk, track 1 leaves the domain
        # in the second
        geom = GridGeometry(0.0, 0.0, 1.0, 5, 5)
        cov = CountingCovariate(
            RasterCovariate(GridRaster(geom, np.tile([1.0, 2.0, 1e308, -1e308, 1e308], (5, 1))))
        )
        n = GROUP_ROWS + 2
        track0 = Track(np.arange(n), np.tile([2.5, 0.5], (n, 1)))
        track1 = Track([0.0, 1.0, 2.0], [[0.5, 0.5], [9.0, 9.0], [0.5, 0.5]])
        with pytest.raises(OutOfDomainError, match=r"\(track 1: track location 1\)$"):
            build_design([track0, track1], [cov])
        assert cov.calls == []


class TestMetamorphic:
    """Exact rescalings of the data rescale the estimates exactly: powers of
    two scale every rounding step of the design and of the QR solve, so the
    estimates move bit for bit.  Eight short tracks share one pooled group."""

    def data(self):
        cfg = Scenario2Config(
            n_tracks=8, n_points=200, levels=(0.1,), grid_n_x=41, grid_n_y=41,
            grid_x_min=-20, grid_y_min=-20, rho=4.0, start_margin=4.0, seed=7,
        )
        sims = scenario2_tracks(cfg)
        keeps = [thin_regular(sim.track, 10, cfg.n_points) for sim in sims]
        tracks = [Track(sim.track.times[k], sim.track.xy[k]) for sim, k in zip(sims, keeps)]
        bad = [
            np.diff(np.searchsorted(np.asarray(sim.clamped), k, side="right")) > 0
            for sim, k in zip(sims, keeps)
        ]
        assert sum(int(b.sum()) for b in bad) > 0  # the clamp masks drop increments
        covs = sims[0].config.model.covariates
        return tracks, bad, covs

    @pytest.mark.parametrize("factor", [4.0, 0.25])
    def test_time_scaling(self, factor):
        tracks, bad, covs = self.data()
        base = fit(build_design(tracks, covs, bad))
        scaled_tracks = [Track(t.times * factor, t.xy) for t in tracks]
        scaled = fit(build_design(scaled_tracks, covs, bad))
        assert np.array_equal(scaled.beta_hat, base.beta_hat)
        assert scaled.gamma2_hat == base.gamma2_hat / factor

    @pytest.mark.parametrize("factor", [2.0, 0.5])
    def test_covariate_scaling(self, factor):
        tracks, bad, covs = self.data()
        base = fit(build_design(tracks, covs, bad))
        scaled_covs = [
            RasterCovariate(GridRaster(c.raster.geom, factor * c.raster.values)) for c in covs
        ]
        scaled = fit(build_design(tracks, scaled_covs, bad))
        assert np.array_equal(scaled.beta_hat, base.beta_hat / factor)
        assert scaled.gamma2_hat == base.gamma2_hat


class TestPlaneOracle:
    """On the dyadic plane ``v = 0.25 x - 0.5 y`` the bilinear gradient is
    (0.25, -0.5) to the last bit everywhere, edges included: the design of
    simulated, thinned and clamp-masked tracks is that constant."""

    @pytest.mark.parametrize("schedule", ["regular", "irregular"])
    def test_design_is_the_constant_halved_slopes(self, schedule):
        geom = GridGeometry(-6.0, -6.0, 1.0, 13, 13)
        values = 0.25 * geom.x_centers()[None, :] - 0.5 * geom.y_centers()[:, None]
        cov = RasterCovariate(GridRaster(geom, values))
        model = RsfModel([cov], [1.0], gamma2=1.5)
        sims = [simulate(SimConfig(model, (0.5, -1.0), 0.02, 2000, seed)) for seed in range(6)]
        points = 40
        if schedule == "regular":
            keeps = [thin_regular(s.track, 20, points) for s in sims]
        else:
            keeps = [thin_irregular(s.track, 0.4, s.config.seed, points) for s in sims]
        assert all(len(keep) == points for keep in keeps)
        bad = [
            np.diff(np.searchsorted(np.asarray(s.clamped, dtype=np.int64), keep, side="right")) > 0
            for s, keep in zip(sims, keeps)
        ]
        dropped = sum(int(b.sum()) for b in bad)
        tracks = [Track(s.track.times[k], s.track.xy[k]) for s, k in zip(sims, keeps)]
        des = build_design(tracks, [cov], bad)
        assert 0 < dropped and des.n + dropped == len(sims) * (points - 1)
        assert des.d[: des.n].tobytes() == np.full((des.n, 1), 0.125).tobytes()
        assert des.d[des.n :].tobytes() == np.full((des.n, 1), -0.25).tobytes()


class TestPseudoLogLikelihood:
    def test_brownian_reduction(self):
        # beta = 0, gamma2 = 1: sum of -log(2 pi dt) - ||dx||^2 / (2 dt)
        rng = np.random.default_rng(15)
        times = np.cumsum(rng.uniform(0.2, 1.0, size=30))
        xy = rng.normal(size=(30, 2))
        track = Track(times, xy)
        model = RsfModel([SquaredDistance((0, 0))], [0.0])
        expected = 0.0
        for i in range(29):
            dt = times[i + 1] - times[i]
            d = xy[i + 1] - xy[i]
            expected += -math.log(2 * math.pi * dt) - (d @ d) / (2 * dt)
        assert pseudo_log_likelihood(track, model) == pytest.approx(expected, rel=1e-12)

    def test_density_at_the_mode(self):
        # unit interval, unit speed, drift (0.5, 0): log density at the mean
        model = RsfModel([plane_covariate(1.0, 0.0)], [1.0])
        track = Track([0.0, 1.0], [[0.0, 0.0], [0.5, 0.0]])
        assert pseudo_log_likelihood(track, model) == pytest.approx(
            -math.log(2 * math.pi), rel=1e-14
        )

    def test_closed_form_estimates_maximize(self):
        # the fit's (nu, gamma2_ML) beats 100 random perturbations
        model = RsfModel([SquaredDistance((0, 0))], [-0.4], gamma2=1.3)
        track = simulate(SimConfig(model, (0.0, 0.0), 0.05, 400, seed=16)).track
        cov = [SquaredDistance((0, 0))]
        res = fit(build_design([track], cov))
        m = 2 * res.n - res.J
        gamma2_ml = res.gamma2_hat * m / (2 * res.n)
        best = pseudo_log_likelihood(
            track, RsfModel(cov, res.nu_hat / gamma2_ml, gamma2=gamma2_ml)
        )
        rng = np.random.default_rng(17)
        for _ in range(100):
            beta_p = res.nu_hat / gamma2_ml + rng.normal(scale=0.05)
            g2_p = gamma2_ml * math.exp(rng.normal(scale=0.05))
            ll = pseudo_log_likelihood(track, RsfModel(cov, beta_p, gamma2=g2_p))
            assert ll <= best + 1e-9

    def test_gradient_vanishes_at_closed_form_optimum(self):
        # numerical derivatives of the pseudo-log-likelihood are ~0 at the
        # uncorrected maximum-likelihood point (nu_hat / gamma2_ML, gamma2_ML)
        model = RsfModel([SquaredDistance((0, 0))], [-0.5], gamma2=0.8)
        track = simulate(SimConfig(model, (0.0, 0.0), 0.1, 80, seed=18)).track
        cov = [SquaredDistance((0, 0))]
        res = fit(build_design([track], cov))
        gamma2_ml = res.gamma2_hat * (2 * res.n - res.J) / (2 * res.n)
        beta_star = res.nu_hat / gamma2_ml

        def ll(beta, g2):
            return pseudo_log_likelihood(track, RsfModel(cov, [beta], gamma2=g2))

        h = 1e-6
        center = ll(beta_star[0], gamma2_ml)
        d_beta = (ll(beta_star[0] + h, gamma2_ml) - ll(beta_star[0] - h, gamma2_ml)) / (2 * h)
        d_g2 = (ll(beta_star[0], gamma2_ml + h) - ll(beta_star[0], gamma2_ml - h)) / (2 * h)
        assert abs(d_beta) < 1e-3 * abs(center)
        assert abs(d_g2) < 1e-3 * abs(center)

    @pytest.mark.parametrize("kind", ["raster", "analytic"])
    def test_matches_per_transition_sum(self, kind):
        # reference: one Gaussian transition log-density at a time
        if kind == "raster":
            rng = np.random.default_rng(19)
            geom = GridGeometry(-20, -20, 2.0, 21, 21)
            covs = [RasterCovariate(GridRaster(geom, rng.normal(size=(21, 21)))) for _ in range(2)]
            model = RsfModel(covs, [0.8, -0.5], gamma2=1.7)
        else:
            model = RsfModel(scenario1_covariates(), [-1.0, 0.5, -0.05], gamma2=0.6)
        fine = simulate(SimConfig(model, (0.0, 0.0), 0.01, 3000, seed=20)).track
        keep = thin_irregular(fine, 0.1, seed=21)
        track = Track(fine.times[keep], fine.xy[keep])
        g2 = model.gamma2
        expected = 0.0
        for i, dt in enumerate(track.intervals):
            gx, gy = model.grad_log_pi(track.xy[i : i + 1])[0]
            s2 = g2 * dt
            dx = track.xy[i + 1, 0] - (track.xy[i, 0] + 0.5 * s2 * gx)
            dy = track.xy[i + 1, 1] - (track.xy[i, 1] + 0.5 * s2 * gy)
            expected += -math.log(2.0 * math.pi * s2) - (dx * dx + dy * dy) / (2.0 * s2)
        assert pseudo_log_likelihood(track, model) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_out_of_domain_reports_index(self):
        cov = plane_covariate(1.0, 0.0, half=2.0)
        model = RsfModel([cov], [1.0])
        track = Track([0.0, 1.0, 2.0], [[0, 0], [50, 50], [0, 1]])
        with pytest.raises(OutOfDomainError) as err:
            pseudo_log_likelihood(track, model)
        assert "location 1" in str(err.value)


class TestFitResultSerialization:
    def test_document_fields(self):
        rng = np.random.default_rng(18)
        res = fit(synthetic_design(rng, n=100))
        doc = res.to_dict()
        assert set(doc) == {
            "nu_hat",
            "gamma2_hat",
            "beta_hat",
            "beta_cov",
            "ci_beta",
            "ci_gamma2",
            "n",
            "J",
            "alpha",
            "condition_number",
        }
        parsed = json.loads(json.dumps(doc))
        assert parsed["n"] == 100 and parsed["J"] == 2
        assert len(parsed["beta_hat"]) == 2
        assert len(parsed["ci_beta"]) == 2 and len(parsed["ci_beta"][0]) == 2

    def test_table_lists_all_coefficients(self):
        rng = np.random.default_rng(19)
        res = fit(synthetic_design(rng, n=100))
        table = res.format_table()
        assert "beta_1" in table and "beta_2" in table and "gamma2_hat" in table
