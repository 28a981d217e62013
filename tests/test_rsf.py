"""Log-density, gradient, and gridded density maps."""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from langmove import (
    AnalyticWavelet,
    Extent,
    GridGeometry,
    GridRaster,
    RasterCovariate,
    RsfModel,
    SquaredDistance,
    ud_raster,
)
from langmove.covariates import Covariate, rasterize
from langmove.langevin import SimConfig, simulate
from langmove.raster import PLANE
from langmove.rsf import _compiled, density_maps, drift_terms
from langmove.errors import NonFiniteError
from langmove.experiments import scenario1_covariates, scenario1_model, Scenario1Config
from test_langevin import euler_loop, reference_steps


def random_rasters(geom, k, seed):
    rng = np.random.default_rng(seed)
    return [RasterCovariate(GridRaster(geom, rng.normal(size=(geom.n_y, geom.n_x)))) for _ in range(k)]


def mixed_model():
    """A raster, both wavelet forms and a squared distance: four drift terms."""
    (raster,) = random_rasters(GridGeometry(-6.0, -6.0, 1.5, 9, 9), 1, seed=9)
    params = dict(alpha=6, a=(-2, 1.5), omega=(0.1, 0.5), sigma=(0.4, 0.4))
    wavelets = [AnalyticWavelet(**params, second_sine_axis=axis) for axis in ("z1", "z2")]
    covs = [raster, *wavelets, SquaredDistance((0.5, 0.0))]
    return RsfModel(covs, [0.8, -1.3, 0.6, -0.05])


def merged_model():
    """Two rasters of one grid: one merged drift term."""
    return RsfModel(random_rasters(GridGeometry(-6.0, -6.0, 1.5, 9, 9), 2, seed=10), [2.0, -3.0])


def well_model():
    """One squared distance with beta < 0: at its center the term is -0.0."""
    return RsfModel([SquaredDistance((0.5, 0.0))], [-0.05])


def narrow_wavelet_model():
    """One wavelet with beta 1.0 whose window underflows to 0.0 beyond about
    5 from its center: there its gradient is -0.0 where the sines are negative."""
    return RsfModel([AnalyticWavelet(alpha=6, a=(0, 0), omega=(0.6, 0.2), sigma=(30, 30))], [1.0])


def stepper_probe(model, xy):
    """One step of the model's stepper from each row of ``xy``, at ``half``
    1.0 and zero noise: the proposal, which it returns inside its box or out."""
    steps = model.euler_steps
    return np.array([steps(x, y, [0.0], [0.0], 0, 1.0, -1.0, 1.0, -1.0, 1.0)[:2] for x, y in xy.tolist()])


def unit_step(model, xy):
    """The same step in numpy, with ``simulate``'s arithmetic."""
    return xy + 1.0 * model.grad_log_pi(xy) + 0.0


def grid_points(seed):
    """Points across [-6, 6]^2: random ones, cell centers and edges, the domain
    corners, and the squared distance's center (a zero gradient)."""
    rng = np.random.default_rng(seed)
    nodes = np.linspace(-6.0, 6.0, 9)
    lattice = np.stack(np.meshgrid(nodes, nodes), axis=-1).reshape(-1, 2)
    return np.vstack([rng.uniform(-6, 6, size=(200, 2)), lattice, [(0.5, 0.0), (0.5, 6.0)]])


class TestLogPi:
    def test_zero_coefficients(self):
        m = RsfModel([SquaredDistance((0, 0))], [0.0])
        p = np.array([(3.7, -1.2)])
        assert m.log_pi_unnormalized(p).tolist() == [0.0]
        assert m.grad_log_pi(p).tolist() == [[0.0, 0.0]]

    def test_single_covariate_arithmetic(self):
        m = RsfModel([SquaredDistance((0, 0))], [-0.05])
        assert m.log_pi_unnormalized(np.array([(2.0, 0.0)])) == pytest.approx([-0.2], rel=1e-14)

    def test_node_values_from_rasters(self):
        # log pi at a cell center is the beta-weighted sum of stored values
        rng = np.random.default_rng(0)
        geom = GridGeometry(-3, -3, 1.0, 7, 7)
        r1 = GridRaster(geom, rng.random((7, 7)))
        r2 = GridRaster(geom, rng.random((7, 7)))
        m = RsfModel([RasterCovariate(r1), RasterCovariate(r2)], [2.0, 4.0])
        for iy, ix in [(0, 0), (3, 2), (6, 6)]:
            p = np.array([(geom.x_min + ix, geom.y_min + iy)])
            expected = 2.0 * r1.values[iy, ix] + 4.0 * r2.values[iy, ix]
            assert m.log_pi_unnormalized(p) == pytest.approx([expected], rel=1e-14)


class TestGradLogPi:
    def test_matches_finite_differences(self):
        m = scenario1_model(Scenario1Config())
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(25):
            x, y = rng.uniform(-4, 4, size=2)
            gx, gy = m.grad_log_pi(np.array([(x, y)]))[0]
            right, left, up, down = m.log_pi_unnormalized(
                np.array([(x + h, y), (x - h, y), (x, y + h), (x, y - h)])
            )
            fx = (right - left) / (2 * h)
            fy = (up - down) / (2 * h)
            assert gx == pytest.approx(fx, rel=1e-4, abs=1e-8)
            assert gy == pytest.approx(fy, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize(
        "make_model", [mixed_model, merged_model, well_model, narrow_wavelet_model]
    )
    def test_rows_are_the_kernel_bit_for_bit(self, make_model):
        # compared as bytes: every bit a track can see
        model = make_model()
        xy = grid_points(11)
        assert stepper_probe(model, xy).tobytes() == unit_step(model, xy).tobytes()

    def test_negative_zero_at_the_well_center(self):
        # the sum starts from the first term, where 0.0 + -0.0 would be 0.0
        got = well_model().grad_log_pi(np.array([(0.5, 0.0)]))
        assert got.tobytes() == np.array([[-0.0, -0.0]]).tobytes()

    def test_linear_in_beta(self):
        covs = scenario1_covariates()
        m1 = RsfModel(covs, [-1.0, 0.5, -0.05])
        m2 = RsfModel(covs, [-2.0, 1.0, -0.1])
        p = np.array([(0.8, -1.1)])
        g1 = m1.grad_log_pi(p)[0]
        g2 = m2.grad_log_pi(p)[0]
        assert g2[0] == pytest.approx(2 * g1[0], rel=1e-14)
        assert g2[1] == pytest.approx(2 * g1[1], rel=1e-14)

    def test_invariant_to_constant_covariate(self):
        # appending a constant-valued provider with nonzero weight shifts
        # log pi but leaves its gradient untouched
        geom = GridGeometry(-10, -10, 5.0, 5, 5)
        const = RasterCovariate(GridRaster(geom, np.full((5, 5), 2.5)))
        base = RsfModel([SquaredDistance((1, 0))], [-0.3])
        shifted = RsfModel([SquaredDistance((1, 0)), const], [-0.3, 4.0])
        p = np.array([(0.0, 0.0), (2.0, -3.0), (-4.0, 4.0)])
        np.testing.assert_allclose(shifted.grad_log_pi(p), base.grad_log_pi(p), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            shifted.log_pi_unnormalized(p), base.log_pi_unnormalized(p) + 10.0, rtol=1e-12
        )


GRID_A = GridGeometry(-6.0, -6.0, 1.5, 9, 9)
GRID_B = GridGeometry(-5.0, -5.5, 0.5, 21, 23)
KINDS = ("z1", "z2", "well", "raster_a", "raster_b")


def drawn_covariate(kind, rng):
    """A covariate of ``kind`` (a wavelet of either sine axis, a squared
    distance, or a raster on grid A or B) with parameters drawn from ``rng``."""
    if kind in ("z1", "z2"):
        a1, a2, omega1, omega2 = rng.uniform(-3, 3, size=4)
        sigma1, sigma2 = rng.uniform(0.05, 1.0, size=2)
        return AnalyticWavelet(
            alpha=rng.uniform(-8, 8),
            a=(a1, a2),
            omega=(omega1, omega2),
            sigma=(sigma1, sigma2),
            second_sine_axis=kind,
        )
    if kind == "well":
        return SquaredDistance(rng.uniform(-3, 3, size=2))
    (raster,) = random_rasters(GRID_A if kind == "raster_a" else GRID_B, 1, seed=rng)
    return raster


class TestGeneratedKernel:
    """The drift is one Euler stepper generated from the terms' fragments."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
    @example(["raster_a", "z1", "raster_a", "well"], 1)  # a merged table among other terms
    @example(["raster_b", "raster_b"], 2)  # a merged table alone
    @example(["z2", "well", "z2", "well"], 3)  # repeated types, each with its own constants
    def test_kernel_is_grad_log_pi_as_bytes(self, kinds, seed):
        rng = np.random.default_rng(seed)
        covs = [drawn_covariate(kind, rng) for kind in kinds]
        model = RsfModel(covs, rng.normal(size=len(covs)))
        # inside both grids: random points, the nodes the grids share, the
        # corners of grid B, and the wells' centers (a zero gradient)
        nodes = np.arange(-4.5, 4.6, 1.5)
        xy = np.vstack(
            [
                rng.uniform(-5, 5, size=(100, 2)),
                np.stack(np.meshgrid(nodes, nodes), axis=-1).reshape(-1, 2),
                [(-5.0, -5.0), (5.0, 5.0), (-5.0, 5.0), (5.0, -5.0)],
                [c.center for c in covs if isinstance(c, SquaredDistance)] or np.empty((0, 2)),
            ]
        )
        assert stepper_probe(model, xy).tobytes() == unit_step(model, xy).tobytes()
        # a track across a block edge: a raster's cell is kept from step to
        # step (the probes above each start afresh)
        cfg = SimConfig(model, (0.0, 0.0), 0.01, 300, seed)
        assert simulate(cfg).track.xy.tobytes() == reference_steps(cfg)[0].tobytes()

    def test_kernel_is_built_once_per_model(self, monkeypatch):
        built = []
        for cls in (RasterCovariate, AnalyticWavelet, SquaredDistance):
            fragment = cls._fragment
            monkeypatch.setattr(cls, "_fragment", lambda cov, f=fragment: built.append(type(cov)) or f(cov))
        model = mixed_model()
        assert model.euler_steps is model.euler_steps
        for seed in (1, 2, 3):
            simulate(SimConfig(model, (0.0, 0.0), 0.01, 20, seed))
        # each of the four drift terms' fragments, once, in term order
        assert built == [RasterCovariate, AnalyticWavelet, AnalyticWavelet, SquaredDistance]

    def test_same_types_compile_once(self):
        mixed_model().euler_steps
        misses = _compiled.cache_info().misses
        # the types of mixed_model in its order, with other constants and betas
        rng = np.random.default_rng(11)
        covs = [drawn_covariate(kind, rng) for kind in ("raster_b", "z1", "z2", "well")]
        model = RsfModel(covs, [-0.4, 2.0, 0.7, -0.3])
        steps = model.euler_steps
        assert _compiled.cache_info().misses == misses
        xy = rng.uniform(-5, 5, size=(50, 2))
        expected = unit_step(model, xy)
        assert stepper_probe(model, xy).tobytes() == expected.tobytes()
        assert not np.array_equal(unit_step(mixed_model(), xy), expected)
        # the stepper steps on this model's drift along a path too, writing
        # the locations over the noise
        pairs = rng.normal(scale=0.01, size=(50, 2)).tolist()
        reference = list(map(tuple, euler_loop(model, (0.0, 0.0), 0.01, pairs, PLANE)[0][1:].tolist()))
        xs, ys = (list(c) for c in zip(*pairs))
        assert steps(0.0, 0.0, xs, ys, 0, 0.01, -5.0, 5.0, -5.0, 5.0) == (*reference[-1], 50)
        assert list(zip(xs, ys)) == reference

    def test_stepper_stops_at_the_first_proposal_outside_and_resumes(self):
        model = mixed_model()
        steps = model.euler_steps
        noise = list(map(tuple, np.random.default_rng(12).normal(scale=0.2, size=(60, 2)).tolist()))
        free = list(map(tuple, euler_loop(model, (0.0, 0.0), 0.01, noise, PLANE)[0][1:].tolist()))
        # the box of the first i locations, with i the first later location to
        # extend it: proposal i is the first outside
        i = next(k for k in range(20, 60) if free[k][0] > max(p[0] for p in free[:k]))
        xs_free, ys_free = zip(*free[:i])
        box = (min(xs_free), max(xs_free), min(ys_free), max(ys_free))
        xs, ys = (list(c) for c in zip(*noise))
        assert steps(0.0, 0.0, xs, ys, 0, 0.01, *box) == (*free[i], i)
        assert list(zip(xs[:i], ys[:i])) == free[:i]
        assert list(zip(xs[i:], ys[i:])) == noise[i:]
        # clamped as simulate does, then resumed from i + 1 to the end; the
        # reference counts its start as location 0
        ext = Extent(*box)
        pts, clamped = euler_loop(model, (0.0, 0.0), 0.01, noise, ext)
        reference = list(map(tuple, pts[1:].tolist()))
        (x, y), j = free[i], i
        stops = []
        while j < len(xs):
            stops.append(j + 1)
            x, y = ext.clamp(x, y)
            xs[j], ys[j] = x, y
            x, y, j = steps(x, y, xs, ys, j + 1, 0.01, *box)
        assert stops == list(clamped) and clamped[0] == i + 1
        assert list(zip(xs, ys)) == reference and (x, y) == reference[-1]

    def test_stepper_signature(self):
        params = inspect.signature(mixed_model().euler_steps).parameters
        assert list(params) == ["x", "y", "xs", "ys", "i", "half", "x_lo", "x_hi", "y_lo", "y_hi"]
        assert all(p.default is inspect.Parameter.empty for p in params.values())

    @pytest.mark.parametrize("geom", [GRID_A, GRID_B])
    def test_kernel_on_cell_and_domain_edges(self, geom):
        # truncation puts an interior edge in the cell above or right of it,
        # and the top and right domain edges in the last cell
        rng = np.random.default_rng(13)
        (raster,) = random_rasters(geom, 1, seed=rng)
        wavelet = drawn_covariate("z1", rng)
        lo, hi = (geom.x_min, geom.y_min), (geom.x_max, geom.y_max)
        xe, ye = geom.x_centers()[1:-1], geom.y_centers()[1:-1]
        xy = np.vstack(
            [
                np.column_stack([xe, rng.uniform(lo[1], hi[1], len(xe))]),  # interior vertical edges
                np.column_stack([rng.uniform(lo[0], hi[0], len(ye)), ye]),  # interior horizontal edges
                np.column_stack([np.full(20, hi[0]), rng.uniform(lo[1], hi[1], 20)]),  # right edge
                np.column_stack([rng.uniform(lo[0], hi[0], 20), np.full(20, hi[1])]),  # top edge
                [hi, (hi[0], lo[1]), (lo[0], hi[1])],
            ]
        )
        for covs, beta in (([raster], [-1.3]), ([raster, wavelet], [0.7, 2.1])):
            model = RsfModel(covs, beta)
            assert stepper_probe(model, xy).tobytes() == unit_step(model, xy).tobytes()

    def test_warm_cell_cache_on_cell_and_domain_edges(self, monkeypatch):
        # one stepper call along a path of cell bounds: a step on the cached
        # cell's right or top edge enters the next cell, one on its left or
        # bottom edge keeps it, and one on the right or top domain edge is
        # located again in the last cell.  Every coordinate is in [32, 64),
        # so the noise is an exact difference and each step lands on its
        # target exactly.
        geom = GridGeometry(32.0, 40.0, 0.5, 8, 8)
        (raster,) = random_rasters(geom, 1, seed=15)
        steps = RsfModel([raster], [1.0]).euler_steps
        box, half = (geom.x_min, geom.x_max, geom.y_min, geom.y_max), 0.01
        path = [  # in grid units (u, w), with the cell the drift reads there
            (2.5, 3.5),  # inside cell (2, 3)
            (2.25, 3.75),  # inside it
            (3.0, 3.5),  # its right edge: cell (3, 3)
            (3.0, 3.25),  # the left edge of cell (3, 3)
            (2.5, 3.5),  # back in cell (2, 3)
            (2.5, 4.0),  # its top edge: cell (2, 4)
            (2.75, 4.0),  # the bottom edge of cell (2, 4)
            (6.5, 6.5),  # the last cell, (6, 6)
            (7.0, 6.5),  # x == x_hi
            (6.5, 7.0),  # y == y_hi
            (7.0, 7.0),  # both
            (6.75, 6.75),
        ]
        targets = [(geom.x_min + u * geom.cell_size, geom.y_min + w * geom.cell_size) for u, w in path]

        def cold(x, y, nx, ny):
            """One step from a fresh stepper call: an empty cache."""
            return steps(x, y, [nx], [ny], 0, half, *box)[:2]

        noise = []
        for (x, y), (tx, ty) in zip(targets, targets[1:]):
            ax, ay = cold(x, y, 0.0, 0.0)  # x + half * sx
            noise.append((tx - ax, ty - ay))
        xs, ys = (list(c) for c in zip(*noise))
        located = []
        with monkeypatch.context() as m:
            m.setitem(steps.__globals__, "int", lambda v: located.append(v) or int(v))
            assert steps(*targets[0], xs, ys, 0, half, *box) == (*targets[-1], len(xs))
        assert list(zip(xs, ys)) == targets[1:]
        for (x, y), (nx, ny), location in zip(targets, noise, targets[1:]):
            assert cold(x, y, nx, ny) == location
        # the cell is located on entering it and on the domain edge, and only then
        assert located == [c for k in (0, 2, 4, 5, 7, 8, 9, 10) for c in path[k]]

    def test_kernel_where_neighbour_differences_overflow(self):
        # +-1e308 neighbours differ by +-inf along x, y or both: the stepper
        # is built and run without a warning (warnings are errors here) and
        # gives the array form's inf and nan bytes; numpy flags its own overflow
        geom = GridGeometry(0.0, 0.0, 1.0, 5, 5)
        values = np.array([[1e308, -1e308, 1.0, 2.0, 1e308]] * 2 + [[-1e308, 1e308, -3.0, 1e308, 0.5]] * 3)
        model = RsfModel([RasterCovariate(GridRaster(geom, values))], [0.5])
        rng = np.random.default_rng(14)
        nodes = np.arange(5.0)
        xy = np.vstack(
            [rng.uniform(0.0, 4.0, size=(200, 2)), np.stack(np.meshgrid(nodes, nodes), axis=-1).reshape(-1, 2)]
        )
        expected = stepper_probe(model, xy)
        with np.errstate(over="ignore", invalid="ignore"):
            got = unit_step(model, xy)
        assert np.isinf(expected).any() and np.isnan(expected).any() and np.isfinite(expected).any()
        assert got.tobytes() == expected.tobytes()


class TestMergedDrift:
    """Rasters on one grid enter the drift as one table of ``sum_j beta_j v_j``."""

    def test_merged_gradient_within_the_rounding_bound(self):
        geom = GridGeometry(-3.0, -2.0, 0.7, 12, 9)
        covs = random_rasters(geom, 3, seed=5)
        beta = [2.0, -4.0, 0.3]
        model = RsfModel(covs, beta)
        assert len(drift_terms(beta, covs)) == 1
        # Both paths are exact in real arithmetic, so they differ only by
        # their roundings, each at most u = 2**-53 times the value rounded;
        # both locate the cell and its offsets with the same arithmetic.
        # With J rasters and M = sum_j |beta_j| max|v_j|, every corner value,
        # partial sum and difference of two corners is at most 2M in size.
        # - The merged table rounds J products and J - 1 sums per corner:
        #   (2J - 1) u M per corner, which the gradient's weights (summing to
        #   2 / h) carry to 2 (2J - 1) u M / h.
        # - The bilinear gradient formula rounds 1 - w, two differences, two
        #   products and a sum (each at most 2M, so 2 u M each) and the
        #   division by h (2 u M / h): 14 u M / h, in each path.
        # - The reference scales each raster's gradient by beta_j and sums
        #   J terms (the first onto 0.0 exactly): 2 u M / h + 2 (J - 1) u M / h.
        # So the paths differ by at most (4J - 2 + 14 + 14 + 2J) u M / h, to
        # first order in u.
        J = len(covs)
        M = sum(abs(b) * np.abs(c.raster.values).max() for b, c in zip(beta, covs))
        tol = (6 * J + 26) * 2.0**-53 * M / geom.cell_size
        rng = np.random.default_rng(6)
        ext = geom.extent
        pts = rng.uniform((ext.x_lo, ext.y_lo), (ext.x_hi, ext.y_hi), size=(500, 2))
        expected = sum(b * c.gradient(pts) for b, c in zip(beta, covs))
        merged = model.grad_log_pi(pts)
        assert np.abs(merged - expected).max() <= tol
        assert np.abs(merged - expected).max() > 0.0  # the sums do round differently

    def test_different_geometries_stay_separate(self):
        g1 = GridGeometry(0.0, 0.0, 1.0, 6, 6)
        g2 = GridGeometry(0.0, 0.0, 1.0, 6, 7)
        covs = random_rasters(g1, 1, seed=1) + random_rasters(g2, 1, seed=2)
        terms = drift_terms([1.5, -0.5], covs)
        assert list(terms) == [(1.5, covs[0]), (-0.5, covs[1])]

    def test_raster_wavelet_raster_merges_the_two_rasters(self):
        geom = GridGeometry(-4.0, -4.0, 1.0, 9, 9)
        r1, r2 = random_rasters(geom, 2, seed=3)
        wavelet = AnalyticWavelet(alpha=6, a=(0, 0), omega=(0.6, 0.2), sigma=(0.4, 0.4))
        model = RsfModel([r1, wavelet, r2], [0.8, -1.3, 2.5])
        (b0, merged), (b1, wav) = drift_terms(model.beta, model.covariates)
        assert (b0, b1, wav) == (1.0, -1.3, wavelet)
        assert merged.raster.geom == geom
        assert merged.raster.values.tobytes() == (0.8 * r1.raster.values + 2.5 * r2.raster.values).tobytes()
        xy = np.random.default_rng(7).uniform(-4, 4, size=(50, 2))
        assert stepper_probe(model, xy).tobytes() == unit_step(model, xy).tobytes()

    def test_single_raster_is_beta_times_its_gradient(self):
        (cov,) = random_rasters(GridGeometry(-1.0, -1.0, 0.5, 7, 7), 1, seed=4)
        model = RsfModel([cov], [-2.7])
        xy = np.random.default_rng(8).uniform(-1, 2, size=(50, 2))
        expected = -2.7 * cov.gradient(xy)
        assert np.array_equal(model.grad_log_pi(xy), expected)
        assert stepper_probe(model, xy).tobytes() == (xy + 1.0 * expected + 0.0).tobytes()


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

    def test_equals_the_sum_of_rasterized_covariates(self):
        # the density from the model's log density at the cell centers is,
        # bit for bit, the one from summing beta_j times each covariate's raster
        geom = GridGeometry(-6.0, -6.0, 0.5, 25, 25)
        for model in (mixed_model(), merged_model()):
            log_v = sum(b * rasterize(c, geom).values for b, c in zip(model.beta, model.covariates))
            dens = np.exp(log_v - log_v.max())
            dens /= dens.sum() * geom.cell_size**2
            assert ud_raster(model, geom).values.tobytes() == dens.tobytes()

    @pytest.mark.parametrize("beta", [-0.5, -40.0], ids=["gentle", "underflowing"])
    def test_density_maps_evaluate_the_log_density_once(self, monkeypatch, beta):
        # the density is ud_raster's and the log the earlier two-pass formula,
        # bit for bit, from one evaluation of the log density
        model = RsfModel([SquaredDistance((0.3, -0.2))], [beta])
        geom = GridGeometry(-6.0, -6.0, 0.5, 25, 25)
        log_v = model.log_pi_unnormalized(geom.centers()).reshape(25, 25)
        shifted = log_v - log_v.max()
        expected_log = shifted - np.log(np.exp(shifted).sum() * geom.cell_size**2)
        calls = []
        evaluate = RsfModel.log_pi_unnormalized
        monkeypatch.setattr(RsfModel, "log_pi_unnormalized", lambda m, xy: calls.append(1) or evaluate(m, xy))
        dens, log_dens = density_maps(model, geom)
        assert len(calls) == 1
        assert dens.values.tobytes() == ud_raster(model, geom).values.tobytes()
        assert log_dens.values.tobytes() == expected_log.tobytes()
        assert np.all(np.isfinite(log_dens.values))
        if beta == -40.0:
            assert dens.values.min() == 0.0

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
        assert RsfModel([SquaredDistance((0, 0))], [1.0]).domain() == PLANE
        # disjoint grids: an empty extent, which holds none of their corners
        g3 = GridGeometry(20, 0, 1.0, 11, 11)
        empty = g1.extent.intersect(g3.extent)
        corners = [(x, y) for g in (g1, g3) for x in (g.x_min, g.x_max) for y in (g.y_min, g.y_max)]
        assert not any(empty.contains(x, y) for x, y in corners)
        assert not empty.contains_points(np.array(corners)).any()
