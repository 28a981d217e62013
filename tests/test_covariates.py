"""Covariate providers and random-field generation."""

import math

import numpy as np
import pytest

from langmove import (
    AnalyticWavelet,
    GridGeometry,
    GridRaster,
    RandomFieldSpec,
    RasterCovariate,
    RsfModel,
    SquaredDistance,
    WaveletParams,
    generate_random_field,
)
from langmove.covariates import rasterize
from langmove.errors import DegenerateFieldError, OutOfDomainError
from langmove.seeding import derive_rng

TABLE_PARAMS_1 = WaveletParams(alpha=6, a1=0, a2=0, omega1=0.6, omega2=0.2, sigma1=0.4, sigma2=0.4)
TABLE_PARAMS_2 = WaveletParams(
    alpha=6, a1=-2, a2=math.pi / 2, omega1=0.1, omega2=0.5, sigma1=0.4, sigma2=0.4
)


def finite_difference_gradient(cov, p, h=1e-6):
    x, y = p
    fx = (cov.value((x + h, y)) - cov.value((x - h, y))) / (2 * h)
    fy = (cov.value((x, y + h)) - cov.value((x, y - h))) / (2 * h)
    return fx, fy


class TestWavelet:
    def test_zero_on_first_sine_axis(self):
        w = AnalyticWavelet(TABLE_PARAMS_2)
        # z1 = a1 makes the first sine factor vanish
        assert w.value((-2.0, 3.3)) == 0.0

    def test_reference_value(self):
        # 6 * exp(-0.4) * sin(0.6) * sin(0.2), evaluated independently
        w = AnalyticWavelet(TABLE_PARAMS_1)
        assert w.value((1.0, 0.0)) == pytest.approx(0.45116752325614478, rel=1e-14)

    def test_z2_dependence_is_gaussian_only(self):
        # in the default form both sines take z1, so two points differing
        # only in z2 have a value ratio equal to their Gaussian-factor ratio
        w = AnalyticWavelet(TABLE_PARAMS_2)
        q = TABLE_PARAMS_2
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-4, 4)
            y1, y2 = rng.uniform(-4, 4, size=2)
            g1 = math.exp(-q.sigma2 * (y1 - q.a2) ** 2)
            g2 = math.exp(-q.sigma2 * (y2 - q.a2) ** 2)
            v1 = w.value((x, y1))
            v2 = w.value((x, y2))
            assert v1 * g2 == pytest.approx(v2 * g1, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("axis", ["z1", "z2"])
    def test_gradient_matches_finite_differences(self, axis):
        rng = np.random.default_rng(1)
        for params in (TABLE_PARAMS_1, TABLE_PARAMS_2):
            w = AnalyticWavelet(params, axis)
            for _ in range(25):
                p = tuple(rng.uniform(-4, 4, size=2))
                gx, gy = w.gradient(p)
                fx, fy = finite_difference_gradient(w, p)
                assert gx == pytest.approx(fx, rel=1e-6, abs=1e-9)
                assert gy == pytest.approx(fy, rel=1e-6, abs=1e-9)

    def test_gradient_zero_where_both_sines_vanish(self):
        # with a1 == a2, both sine factors vanish at the Gaussian center
        params = WaveletParams(alpha=3, a1=1.5, a2=1.5, omega1=0.7, omega2=0.3, sigma1=0.2, sigma2=0.5)
        w = AnalyticWavelet(params)
        gx, gy = w.gradient((1.5, 1.5))
        assert gy == 0.0

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            AnalyticWavelet(TABLE_PARAMS_1, "z3")
        with pytest.raises(ValueError):
            WaveletParams(alpha=1, a1=0, a2=0, omega1=1, omega2=1, sigma1=0.0, sigma2=1)


class TestSquaredDistance:
    def test_value_and_gradient(self):
        c = SquaredDistance((0.0, 0.0))
        assert c.value((3.0, 4.0)) == 25.0
        assert c.gradient((3.0, 4.0)) == (6.0, 8.0)
        assert c.gradient((0.0, 0.0)) == (0.0, 0.0)

    def test_offset_center(self):
        c = SquaredDistance((1.0, -2.0))
        p = (4.0, 2.0)
        assert c.value(p) == 9.0 + 16.0
        assert c.gradient(p) == (2 * 3.0, 2 * 4.0)


class TestDispatch:
    def test_value_and_gradient_squared_distance(self):
        # the model's log density and its gradient dispatch to the covariate
        model = RsfModel([SquaredDistance((0, 0))], [1.0])
        assert model.log_pi_unnormalized((3, 4)) == 25.0
        assert model.grad_log_pi((3, 4)) == (6.0, 8.0)

    def test_raster_variant_reproduces_nodes(self):
        rng = np.random.default_rng(2)
        geom = GridGeometry(-1, -1, 0.5, 4, 4)
        raster = GridRaster(geom, rng.normal(size=(4, 4)))
        cov = RasterCovariate(raster)
        assert cov.value((-0.5, 0.0)) == pytest.approx(raster.values[2, 1], abs=1e-15)
        with pytest.raises(OutOfDomainError):
            cov.value((10.0, 0.0))

    def test_wavelet_variant_delegates(self):
        w = AnalyticWavelet(TABLE_PARAMS_1)
        model = RsfModel([w], [1.0])
        p = (0.7, -0.3)
        assert model.log_pi_unnormalized(p) == w.value(p)
        assert model.grad_log_pi(p) == w.gradient(p)

    def test_raster_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        geom = GridGeometry(0, 0, 1.0, 6, 6)
        cov = RasterCovariate(GridRaster(geom, rng.normal(size=(6, 6))))
        for _ in range(25):
            # stay off cell edges, where the interpolant's gradient jumps
            p = tuple(rng.uniform(0.1, 4.9, size=2))
            if min(p[0] % 1, 1 - p[0] % 1, p[1] % 1, 1 - p[1] % 1) < 1e-3:
                continue
            gx, gy = cov.gradient(p)
            fx, fy = finite_difference_gradient(cov, p)
            assert gx == pytest.approx(fx, rel=1e-4, abs=1e-8)
            assert gy == pytest.approx(fy, rel=1e-4, abs=1e-8)

    def test_rasterize_samples_cell_centers(self):
        w = AnalyticWavelet(TABLE_PARAMS_1)
        geom = GridGeometry(-2, -2, 1.0, 5, 5)
        raster = rasterize(w, geom)
        assert raster.values[2, 2] == w.value((0.0, 0.0))
        assert raster.values[0, 4] == w.value((2.0, -2.0))


class TestRandomField:
    def test_singleton_kernel_is_normalized_raw_field(self):
        spec = RandomFieldSpec(x_min=0, y_min=0, cell_size=1.0, n_x=12, n_y=9, rho=0.5, seed=4)
        out = generate_random_field(spec)
        raw = derive_rng(4).random((9, 12))
        expected = (raw - raw.min()) / (raw.max() - raw.min())
        np.testing.assert_array_equal(out.values, expected)

    def test_deterministic(self):
        spec = RandomFieldSpec(x_min=-5, y_min=-5, cell_size=1.0, n_x=21, n_y=21, rho=3.0, seed=5)
        a = generate_random_field(spec)
        b = generate_random_field(spec)
        np.testing.assert_array_equal(a.values, b.values)

    def test_paper_scale_field_statistics(self):
        # 101x101, unit cells, rho = 10: normalized range and strong
        # short-range autocorrelation
        spec = RandomFieldSpec(x_min=-50, y_min=-50, cell_size=1.0, n_x=101, n_y=101, rho=10.0, seed=6)
        out = generate_random_field(spec)
        assert out.values.min() == 0.0
        assert out.values.max() == 1.0
        lag1 = np.corrcoef(out.values[:, :-1].ravel(), out.values[:, 1:].ravel())[0, 1]
        assert lag1 > 0.9

    def test_smoothing_reduces_variance(self):
        base = dict(x_min=0, y_min=0, cell_size=1.0, n_x=41, n_y=41, seed=7)
        rough = generate_random_field(RandomFieldSpec(rho=0.5, **base))
        smooth = generate_random_field(RandomFieldSpec(rho=8.0, **base))
        assert smooth.values.std() < rough.values.std()

    def test_degenerate_field_rejected(self):
        # a window covering the whole grid averages every cell identically
        spec = RandomFieldSpec(x_min=0, y_min=0, cell_size=1.0, n_x=2, n_y=2, rho=10.0, seed=8)
        with pytest.raises(DegenerateFieldError):
            generate_random_field(spec)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            RandomFieldSpec(x_min=0, y_min=0, cell_size=1.0, n_x=5, n_y=5, rho=0.0, seed=0)
