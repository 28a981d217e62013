"""Log-density, gradient, and gridded density maps."""

import numpy as np
import pytest

from langmove import (
    GridGeometry,
    GridRaster,
    RasterCovariate,
    RsfModel,
    SquaredDistance,
    ud_raster,
)
from langmove.covariates import Covariate
from langmove.errors import NonFiniteError
from langmove.experiments import scenario1_covariates, scenario1_model, Scenario1Config


class TestLogPi:
    def test_zero_coefficients(self):
        m = RsfModel([SquaredDistance((0, 0))], [0.0])
        assert m.log_pi_unnormalized((3.7, -1.2)) == 0.0
        assert m.grad_log_pi((3.7, -1.2)) == (0.0, 0.0)

    def test_single_covariate_arithmetic(self):
        m = RsfModel([SquaredDistance((0, 0))], [-0.05])
        assert m.log_pi_unnormalized((2.0, 0.0)) == pytest.approx(-0.2, rel=1e-14)

    def test_node_values_from_rasters(self):
        # log pi at a cell center is the beta-weighted sum of stored values
        rng = np.random.default_rng(0)
        geom = GridGeometry(-3, -3, 1.0, 7, 7)
        r1 = GridRaster(geom, rng.random((7, 7)))
        r2 = GridRaster(geom, rng.random((7, 7)))
        m = RsfModel([RasterCovariate(r1), RasterCovariate(r2)], [2.0, 4.0])
        for iy, ix in [(0, 0), (3, 2), (6, 6)]:
            p = (geom.x_min + ix, geom.y_min + iy)
            expected = 2.0 * r1.values[iy, ix] + 4.0 * r2.values[iy, ix]
            assert m.log_pi_unnormalized(p) == pytest.approx(expected, rel=1e-14)


class TestGradLogPi:
    def test_matches_finite_differences(self):
        m = scenario1_model(Scenario1Config())
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(25):
            x, y = rng.uniform(-4, 4, size=2)
            gx, gy = m.grad_log_pi((x, y))
            fx = (m.log_pi_unnormalized((x + h, y)) - m.log_pi_unnormalized((x - h, y))) / (2 * h)
            fy = (m.log_pi_unnormalized((x, y + h)) - m.log_pi_unnormalized((x, y - h))) / (2 * h)
            assert gx == pytest.approx(fx, rel=1e-4, abs=1e-8)
            assert gy == pytest.approx(fy, rel=1e-4, abs=1e-8)

    def test_linear_in_beta(self):
        covs = scenario1_covariates()
        m1 = RsfModel(covs, [-1.0, 0.5, -0.05])
        m2 = RsfModel(covs, [-2.0, 1.0, -0.1])
        p = (0.8, -1.1)
        g1 = m1.grad_log_pi(p)
        g2 = m2.grad_log_pi(p)
        assert g2[0] == pytest.approx(2 * g1[0], rel=1e-14)
        assert g2[1] == pytest.approx(2 * g1[1], rel=1e-14)

    def test_invariant_to_constant_covariate(self):
        # appending a constant-valued provider with nonzero weight shifts
        # log pi but leaves its gradient untouched
        geom = GridGeometry(-10, -10, 5.0, 5, 5)
        const = RasterCovariate(GridRaster(geom, np.full((5, 5), 2.5)))
        base = RsfModel([SquaredDistance((1, 0))], [-0.3])
        shifted = RsfModel([SquaredDistance((1, 0)), const], [-0.3, 4.0])
        for p in [(0.0, 0.0), (2.0, -3.0), (-4.0, 4.0)]:
            assert shifted.grad_log_pi(p) == pytest.approx(base.grad_log_pi(p), abs=1e-12)
            assert shifted.log_pi_unnormalized(p) == pytest.approx(
                base.log_pi_unnormalized(p) + 10.0, rel=1e-12
            )


class TestUdRaster:
    def test_uniform_density_when_beta_zero(self):
        geom = GridGeometry(0.5, 0.5, 1.0, 10, 10)
        ud = ud_raster(RsfModel([SquaredDistance((0, 0))], [0.0]), geom)
        np.testing.assert_allclose(ud.values, 1.0 / 100.0, rtol=1e-14)

    def test_integrates_to_one(self):
        geom = GridGeometry(-6, -6, 0.25, 49, 49)
        ud = ud_raster(scenario1_model(Scenario1Config()), geom)
        assert ud.values.sum() * geom.cell_size**2 == pytest.approx(1.0, abs=1e-12)
        assert np.all(ud.values > 0)

    def test_large_log_values_do_not_overflow(self):
        # max-shift keeps exponentials finite even for extreme coefficients
        geom = GridGeometry(-2, -2, 0.5, 9, 9)
        ud = ud_raster(RsfModel([SquaredDistance((0, 0))], [300.0]), geom)
        assert np.all(np.isfinite(ud.values))
        assert ud.values.sum() * geom.cell_size**2 == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_mode_at_center(self):
        # J=1 squared distance with beta < 0 is an isotropic Gaussian
        geom = GridGeometry(-5.1, -5.1, 0.6, 18, 18)
        center = (0.33, -0.71)
        ud = ud_raster(RsfModel([SquaredDistance(center)], [-0.5]), geom)
        iy, ix = np.unravel_index(np.argmax(ud.values), ud.values.shape)
        xs = geom.x_centers()
        ys = geom.y_centers()
        d = (xs[ix] - center[0]) ** 2 + (ys[iy] - center[1]) ** 2
        dist_all = (xs[None, :] - center[0]) ** 2 + (ys[:, None] - center[1]) ** 2
        assert d == dist_all.min()

    def test_refinement_self_consistency(self):
        # halving the cell size changes each coarse-cell-averaged density by < 1%
        model = scenario1_model(Scenario1Config())
        n, h = 40, 0.4
        lo = -(n / 2) * h + h / 2
        coarse = ud_raster(model, GridGeometry(lo, lo, h, n, n))
        fine_geom = GridGeometry(lo - h / 4, lo - h / 4, h / 2, 2 * n, 2 * n)
        fine = ud_raster(model, fine_geom)
        averaged = fine.values.reshape(n, 2, n, 2).mean(axis=(1, 3))
        rel = np.abs(averaged - coarse.values) / coarse.values
        assert rel.max() < 0.01

    def test_nonfinite_log_density_rejected(self):
        class ExplodingCovariate(Covariate):
            def value(self, p):
                return np.full(len(p), np.inf)

            def gradient(self, p):
                return (0.0, 0.0)

        geom = GridGeometry(0, 0, 1.0, 3, 3)
        with pytest.raises(NonFiniteError):
            ud_raster(RsfModel([ExplodingCovariate()], [1.0]), geom)


class TestValidation:
    def test_gamma2_must_be_positive(self):
        with pytest.raises(ValueError):
            RsfModel([SquaredDistance((0, 0))], [1.0], gamma2=0.0)
        with pytest.raises(ValueError):
            RsfModel([SquaredDistance((0, 0))], [1.0], gamma2=-1.0)

    def test_beta_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            RsfModel([SquaredDistance((0, 0))], [1.0, 2.0])
        with pytest.raises(ValueError):
            RsfModel([SquaredDistance((0, 0))], [np.inf])
        with pytest.raises(ValueError):
            RsfModel([], [])

    def test_domain_intersection(self):
        g1 = GridGeometry(0, 0, 1.0, 11, 11)
        g2 = GridGeometry(5, 5, 1.0, 11, 11)
        m = RsfModel(
            [
                RasterCovariate(GridRaster(g1, np.zeros((11, 11)))),
                RasterCovariate(GridRaster(g2, np.zeros((11, 11)))),
                SquaredDistance((0, 0)),
            ],
            [1.0, 1.0, 1.0],
        )
        dom = m.domain()
        assert (dom.x_lo, dom.x_hi, dom.y_lo, dom.y_hi) == (5.0, 10.0, 5.0, 10.0)
        assert RsfModel([SquaredDistance((0, 0))], [1.0]).domain() is None
