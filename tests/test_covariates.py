"""Covariate providers and random-field generation."""

import math
import os
from dataclasses import FrozenInstanceError
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import convolve2d

import langmove
from langmove import (
    AnalyticWavelet,
    GridGeometry,
    GridRaster,
    interpolate,
    interpolate_gradient,
    RandomFieldSpec,
    RasterCovariate,
    RsfModel,
    SquaredDistance,
    generate_random_field,
)
from langmove.covariates import _window_counts, rasterize
from langmove.errors import DegenerateFieldError, OutOfDomainError
from langmove.seeding import derive_rng
from test_rsf import stepper_probe, unit_step

TABLE_PARAMS_1 = dict(alpha=6, a=(0, 0), omega=(0.6, 0.2), sigma=(0.4, 0.4))
TABLE_PARAMS_2 = dict(alpha=6, a=(-2, math.pi / 2), omega=(0.1, 0.5), sigma=(0.4, 0.4))


def finite_difference_gradient(cov, p, h=1e-6):
    x, y = p
    fx = (cov.value(np.array([(x + h, y)])) - cov.value(np.array([(x - h, y)]))) / (2 * h)
    fy = (cov.value(np.array([(x, y + h)])) - cov.value(np.array([(x, y - h)]))) / (2 * h)
    return fx[0], fy[0]


class TestWavelet:
    def test_zero_on_first_sine_axis(self):
        w = AnalyticWavelet(**TABLE_PARAMS_2)
        # z1 = a1 makes the first sine factor vanish
        assert w.value(np.array([(-2.0, 3.3)])).tolist() == [0.0]

    def test_reference_value(self):
        # 6 * exp(-0.4) * sin(0.6) * sin(0.2), evaluated independently
        w = AnalyticWavelet(**TABLE_PARAMS_1)
        assert w.value(np.array([(1.0, 0.0)])) == pytest.approx([0.45116752325614478], rel=1e-14)

    def test_z2_dependence_is_gaussian_only(self):
        # in the default form both sines take z1, so two points differing
        # only in z2 have a value ratio equal to their Gaussian-factor ratio
        w = AnalyticWavelet(**TABLE_PARAMS_2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-4, 4)
            y1, y2 = rng.uniform(-4, 4, size=2)
            g1 = math.exp(-w.sigma[1] * (y1 - w.a[1]) ** 2)
            g2 = math.exp(-w.sigma[1] * (y2 - w.a[1]) ** 2)
            v1, v2 = w.value(np.array([(x, y1), (x, y2)]))
            assert v1 * g2 == pytest.approx(v2 * g1, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("axis", ["z1", "z2"])
    def test_gradient_matches_finite_differences(self, axis):
        rng = np.random.default_rng(1)
        for params in (TABLE_PARAMS_1, TABLE_PARAMS_2):
            w = AnalyticWavelet(**params, second_sine_axis=axis)
            for _ in range(25):
                p = tuple(rng.uniform(-4, 4, size=2))
                gx, gy = w.gradient(np.array([p]))[0]
                fx, fy = finite_difference_gradient(w, p)
                assert gx == pytest.approx(fx, rel=1e-6, abs=1e-9)
                assert gy == pytest.approx(fy, rel=1e-6, abs=1e-9)

    def test_gradient_zero_where_both_sines_vanish(self):
        # with a1 == a2, both sine factors vanish at the Gaussian center
        w = AnalyticWavelet(alpha=3, a=(1.5, 1.5), omega=(0.7, 0.3), sigma=(0.2, 0.5))
        gx, gy = w.gradient(np.array([(1.5, 1.5)]))[0]
        assert gy == 0.0

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            AnalyticWavelet(**TABLE_PARAMS_1, second_sine_axis="z3")
        with pytest.raises(ValueError):
            AnalyticWavelet(alpha=1, a=(0, 0), omega=(1, 1), sigma=(0.0, 1))

    @pytest.mark.parametrize("field", ["alpha", "a1", "a2", "omega1", "omega2", "sigma1", "sigma2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_parameters_must_be_finite(self, field, bad):
        # each of the seven numbers, named by the field that holds it
        n = dict(alpha=1, a1=0, a2=0, omega1=1, omega2=1, sigma1=1, sigma2=1) | {field: bad}
        with pytest.raises(ValueError, match=f"^{field.rstrip('12')} must be finite"):
            AnalyticWavelet(
                n["alpha"], (n["a1"], n["a2"]), (n["omega1"], n["omega2"]), (n["sigma1"], n["sigma2"])
            )

    @pytest.mark.parametrize("field", ["a", "omega", "sigma"])
    @pytest.mark.parametrize("bad", [(0, 0, 1), (0,), (0, "x"), 5])
    def test_pairs_must_hold_two_numbers(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must hold two numbers, got"):
            AnalyticWavelet(**TABLE_PARAMS_1 | {field: bad})


class TestSquaredDistance:
    def test_value_and_gradient(self):
        c = SquaredDistance((0.0, 0.0))
        assert c.value(np.array([(3.0, 4.0)])).tolist() == [25.0]
        assert c.gradient(np.array([(3.0, 4.0), (0.0, 0.0)])).tolist() == [[6.0, 8.0], [0.0, 0.0]]

    def test_offset_center(self):
        c = SquaredDistance((1.0, -2.0))
        p = np.array([(4.0, 2.0)])
        assert c.value(p).tolist() == [9.0 + 16.0]
        assert c.gradient(p).tolist() == [[2 * 3.0, 2 * 4.0]]

    @pytest.mark.parametrize("center", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_center_must_be_finite(self, center):
        with pytest.raises(ValueError, match="center must be finite"):
            SquaredDistance(center)

    @pytest.mark.parametrize("center", [(1, 2, 99), (1,), (0, "x"), (0, None), 5, np.array(5.0)])
    def test_center_must_hold_two_numbers(self, center):
        # three entries were cut to two, silently
        with pytest.raises(ValueError, match="^center must hold two numbers, got"):
            SquaredDistance(center)


def test_covariates_are_frozen():
    # a model compiles its drift from its covariates once: none may change under it
    center, wavelet = SquaredDistance(), AnalyticWavelet(**TABLE_PARAMS_1)
    raster = GridRaster(GridGeometry(0, 0, 1.0, 9, 9), np.zeros((9, 9)))
    other = GridRaster(GridGeometry(5, 5, 0.5, 9, 9), np.ones((9, 9)))
    field = RasterCovariate(raster)
    with pytest.raises(FrozenInstanceError):
        center.center = (5.0, 5.0)
    with pytest.raises(FrozenInstanceError):
        wavelet.second_sine_axis = "z2"
    with pytest.raises(FrozenInstanceError):
        field.raster = other
    # the domain is the raster's, read from it
    assert field.extent == raster.extent
    # equality and hashing stay by identity
    assert center != SquaredDistance() and wavelet != AnalyticWavelet(**TABLE_PARAMS_1)
    assert field != RasterCovariate(raster)
    assert len({center, SquaredDistance()}) == 2


class TestDispatch:
    def test_value_and_gradient_squared_distance(self):
        # the model's log density and its gradient dispatch to the covariate
        model = RsfModel([SquaredDistance((0, 0))], [1.0])
        assert model.log_pi_unnormalized(np.array([(3, 4)])).tolist() == [25.0]
        assert model.grad_log_pi(np.array([(3, 4)])).tolist() == [[6.0, 8.0]]

    def test_raster_variant_reproduces_nodes(self):
        rng = np.random.default_rng(2)
        geom = GridGeometry(-1, -1, 0.5, 4, 4)
        raster = GridRaster(geom, rng.normal(size=(4, 4)))
        cov = RasterCovariate(raster)
        assert cov.value(np.array([(-0.5, 0.0)])) == pytest.approx([raster.values[2, 1]], abs=1e-15)
        with pytest.raises(OutOfDomainError):
            cov.value(np.array([(10.0, 0.0)]))

    def test_wavelet_variant_delegates(self):
        w = AnalyticWavelet(**TABLE_PARAMS_1)
        model = RsfModel([w], [1.0])
        p = np.array([(0.7, -0.3)])
        assert model.log_pi_unnormalized(p).tobytes() == w.value(p).tobytes()
        assert model.grad_log_pi(p).tobytes() == w.gradient(p).tobytes()

    def test_raster_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        geom = GridGeometry(0, 0, 1.0, 6, 6)
        cov = RasterCovariate(GridRaster(geom, rng.normal(size=(6, 6))))
        for _ in range(25):
            # stay off cell edges, where the interpolant's gradient jumps
            p = tuple(rng.uniform(0.1, 4.9, size=2))
            if min(p[0] % 1, 1 - p[0] % 1, p[1] % 1, 1 - p[1] % 1) < 1e-3:
                continue
            gx, gy = cov.gradient(np.array([p]))[0]
            fx, fy = finite_difference_gradient(cov, p)
            assert gx == pytest.approx(fx, rel=1e-4, abs=1e-8)
            assert gy == pytest.approx(fy, rel=1e-4, abs=1e-8)

    def test_rasterize_samples_cell_centers(self):
        w = AnalyticWavelet(**TABLE_PARAMS_1)
        geom = GridGeometry(-2, -2, 1.0, 5, 5)
        raster = rasterize(w, geom)
        xy = np.array([(0.0, 0.0), (2.0, -2.0)])
        assert [raster.values[2, 2], raster.values[0, 4]] == w.value(xy).tolist()


def assert_same_bits(actual, expected):
    actual = np.ascontiguousarray(actual, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def one_row_calls(f, xy):
    """Reference: ``f`` called at each row of ``xy`` as a one-row array."""
    return np.concatenate([f(xy[i : i + 1]) for i in range(len(xy))])


@st.composite
def raster_and_points(draw):
    """A random raster and points on it: anywhere inside, on cell centers,
    on interior cell edges, and on the top and right domain edges."""
    n_x, n_y = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    h = draw(st.sampled_from([0.3, 0.5, 1.0, 2.5]))
    x_min, y_min = (draw(st.floats(-50, 50)) for _ in range(2))
    geom = GridGeometry(x_min, y_min, h, n_x, n_y)
    seed = draw(st.integers(0, 2**32 - 1))
    raster = GridRaster(geom, np.random.default_rng(seed).normal(size=(n_y, n_x)))

    def coordinate(lo, hi, centers):
        return st.one_of(
            st.floats(lo, hi),
            st.sampled_from(centers.tolist()),  # centers, interior edges
            st.just(hi),  # top or right domain edge
        )

    rows = draw(
        st.lists(
            st.tuples(
                coordinate(geom.x_min, geom.x_max, geom.x_centers()),
                coordinate(geom.y_min, geom.y_max, geom.y_centers()),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return raster, np.array(rows, dtype=float)


wavelet_params = st.fixed_dictionaries(
    {
        "alpha": st.floats(-10, 10),
        "a": st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
        "omega": st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        "sigma": st.tuples(st.floats(0.01, 2), st.floats(0.01, 2)),
    }
)
analytic_points = st.lists(
    st.tuples(st.floats(-12, 12), st.floats(-12, 12)), min_size=1, max_size=40
).map(lambda rows: np.array(rows, dtype=float))


def assert_stepper_steps_by(gradient, cov, xy):
    """One step of the simulator's stepper for ``cov`` alone, with beta 1.0,
    from each row of ``xy`` is ``xy + 1.0 * gradient + 0.0``, bit for bit."""
    assert_same_bits(stepper_probe(RsfModel([cov], [1.0]), xy), xy + 1.0 * gradient + 0.0)


class TestPointKernels:
    """The simulator's compiled gradient (its agreement with each
    covariate's array form is checked in :class:`TestArrayCalls`)."""

    def test_model_kernel_is_grad_log_pi(self):
        rng = np.random.default_rng(4)
        geom = GridGeometry(-6, -6, 1.5, 9, 9)
        covs = [
            RasterCovariate(GridRaster(geom, rng.normal(size=(9, 9)))),
            AnalyticWavelet(**TABLE_PARAMS_2, second_sine_axis="z2"),
            SquaredDistance((0.3, -0.2)),
        ]
        model = RsfModel(covs, [0.8, -1.3, -0.05])
        xy = rng.uniform(-6, 6, size=(50, 2))
        assert_same_bits(stepper_probe(model, xy), unit_step(model, xy))


class TestArrayCalls:
    """An (n, 2) array call equals, row by row and bit for bit, the calls
    with one row and, for gradients, a step of the simulator's stepper.  The
    raster points cover cell centers, interior edges and the top and right
    domain edges; the wavelets both sine axes."""

    @settings(max_examples=200, deadline=None)
    @given(raster_and_points())
    def test_raster(self, case):
        raster, xy = case
        cov = RasterCovariate(raster)
        for f in (lambda p: interpolate(raster, p), cov.value):
            assert_same_bits(f(xy), one_row_calls(f, xy))
        for f in (lambda p: interpolate_gradient(raster, p), cov.gradient):
            assert_stepper_steps_by(f(xy), cov, xy)
            assert_same_bits(f(xy), one_row_calls(f, xy))

    @settings(max_examples=200, deadline=None)
    @given(wavelet_params, st.sampled_from(["z1", "z2"]), analytic_points)
    def test_wavelet(self, params, axis, xy):
        w = AnalyticWavelet(**params, second_sine_axis=axis)
        assert_same_bits(w.value(xy), one_row_calls(w.value, xy))
        assert_stepper_steps_by(w.gradient(xy), w, xy)
        assert_same_bits(w.gradient(xy), one_row_calls(w.gradient, xy))

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), analytic_points)
    def test_squared_distance(self, center, xy):
        c = SquaredDistance(center)
        assert_same_bits(c.value(xy), one_row_calls(c.value, xy))
        assert_stepper_steps_by(c.gradient(xy), c, xy)
        assert_same_bits(c.gradient(xy), one_row_calls(c.gradient, xy))

    def test_shapes(self):
        xy = np.zeros((3, 2))
        for cov in (AnalyticWavelet(**TABLE_PARAMS_1), SquaredDistance((1.0, 2.0))):
            assert cov.value(xy).shape == (3,)
            assert cov.gradient(xy).shape == (3, 2)

    def test_out_of_domain_raises_for_the_first_bad_row(self):
        geom = GridGeometry(0, 0, 1.0, 4, 4)
        cov = RasterCovariate(GridRaster(geom, np.ones((4, 4))))
        xy = np.array([[1.0, 1.0], [3.0, 3.0], [3.5, 1.0], [2.0, 2.0], [-1.0, 0.0]])
        for f in (cov.value, cov.gradient):
            with pytest.raises(OutOfDomainError) as err:
                f(xy)
            assert (err.value.x, err.value.y) == (3.5, 1.0)

    def test_rasterize_matches_one_point_calls(self):
        geom = GridGeometry(-3.3, -1.7, 0.7, 9, 6)
        for cov in (AnalyticWavelet(**TABLE_PARAMS_2, second_sine_axis=axis) for axis in ("z1", "z2")):
            expected = [[cov.value(np.array([(x, y)]))[0] for x in geom.x_centers().tolist()]
                        for y in geom.y_centers().tolist()]
            assert_same_bits(rasterize(cov, geom).values, expected)


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

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rho_must_be_positive_and_finite(self, rho):
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            RandomFieldSpec(x_min=0, y_min=0, cell_size=1.0, n_x=10, n_y=10, rho=rho, seed=1)

    @pytest.mark.parametrize(
        "seed, message", [(-1, "seed must be >= 0, got -1"), (2.5, "seed must be an integer, got 2.5")]
    )
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RandomFieldSpec(x_min=0, y_min=0, cell_size=1.0, n_x=10, n_y=10, rho=2.0, seed=seed)

    def test_degenerate_field_rejected(self):
        # a window covering the whole grid averages every cell identically
        spec = RandomFieldSpec(x_min=0, y_min=0, cell_size=1.0, n_x=2, n_y=2, rho=10.0, seed=8)
        with pytest.raises(DegenerateFieldError):
            generate_random_field(spec)

    @pytest.mark.parametrize(
        "cell_size, n_x, n_y, rho",
        [
            (1.0, 101, 101, 10.0),  # the scenario-2 fields
            (1.0, 7, 5, 3.0),
            (1.0, 9, 6, 30.0),  # a disc wider than the grid
            (1.0, 4, 4, 0.5),  # rho < cell_size: the disc is one cell
            (0.1, 13, 20, 0.3),
            (0.7, 2, 2, 2.5),
            (0.1, 30, 12, 0.5),  # rho / cell_size rounds up: the disc's end rows are empty
        ],
    )
    def test_window_counts_equal_a_convolution_of_ones(self, cell_size, n_x, n_y, rho):
        r = int(rho / cell_size)
        di, dj = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
        kernel = ((di * di + dj * dj) * cell_size**2 <= rho**2).astype(float)
        expected = convolve2d(np.ones((n_y, n_x)), kernel, mode="same", boundary="fill", fillvalue=0.0)
        assert _window_counts(kernel, n_y, n_x).tobytes() == expected.tobytes()

    def test_import_leaves_scipy_signal_out(self):
        # scipy.signal is most of the import time, and only the field
        # generator needs it
        src = str(Path(langmove.__file__).resolve().parent.parent)
        env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import langmove, langmove.cli, sys; print('scipy.signal' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
        assert out.stdout == "False\n"

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            RandomFieldSpec(x_min=0, y_min=0, cell_size=1.0, n_x=5, n_y=5, rho=0.0, seed=0)
