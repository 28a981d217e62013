"""Gridded-field storage, interpolation, gradients, and ASCII I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langmove import (
    Extent,
    GridGeometry,
    GridRaster,
    interpolate,
    interpolate_gradient,
    read_ascii_grid,
    write_ascii_grid,
)
from langmove.errors import GridParseError, NoDataError, NonFiniteError, OutOfDomainError


def random_raster(rng, n_x=5, n_y=5, x_min=-1.0, y_min=2.0, cell=0.5):
    return GridRaster(GridGeometry(x_min, y_min, cell, n_x, n_y), rng.normal(size=(n_y, n_x)))


def bilinear_reference(raster, x, y):
    """Direct evaluation of the four-corner formula, independent of the
    library's cell-location code path."""
    g = raster.geom
    u = (x - g.x_min) / g.cell_size
    w = (y - g.y_min) / g.cell_size
    ix = min(int(np.floor(u)), g.n_x - 2)
    iy = min(int(np.floor(w)), g.n_y - 2)
    u -= ix
    w -= iy
    v = raster.values
    return (
        (1 - u) * (1 - w) * v[iy, ix]
        + u * (1 - w) * v[iy, ix + 1]
        + (1 - u) * w * v[iy + 1, ix]
        + u * w * v[iy + 1, ix + 1]
    )


class TestInterpolate:
    def test_exact_at_cell_centers(self):
        rng = np.random.default_rng(1)
        r = random_raster(rng)
        g = r.geom
        for iy in range(g.n_y):
            for ix in range(g.n_x):
                p = (g.x_min + ix * g.cell_size, g.y_min + iy * g.cell_size)
                assert interpolate(r, p) == pytest.approx(r.values[iy, ix], abs=1e-14)

    def test_cell_midpoint_is_corner_mean(self):
        r = GridRaster(GridGeometry(0, 0, 1, 2, 2), [[0.0, 0.0], [0.0, 4.0]])
        assert interpolate(r, (0.5, 0.5)) == 1.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        r = random_raster(rng)
        for _ in range(50):
            x = rng.uniform(r.geom.x_min, r.geom.x_max)
            y = rng.uniform(r.geom.y_min, r.geom.y_max)
            assert interpolate(r, (x, y)) == pytest.approx(bilinear_reference(r, x, y), rel=1e-12)

    def test_continuous_across_cell_edges(self):
        rng = np.random.default_rng(3)
        r = random_raster(rng)
        eps = 1e-13
        for edge_ix in (1, 2, 3):
            x_edge = r.geom.x_min + edge_ix * r.cell_size
            for y in rng.uniform(r.geom.y_min, r.geom.y_max, size=5):
                left = interpolate(r, (x_edge - eps, y))
                right = interpolate(r, (x_edge + eps, y))
                assert left == pytest.approx(right, rel=1e-10, abs=1e-10)

    def test_out_of_domain(self):
        rng = np.random.default_rng(4)
        r = random_raster(rng)
        x_min, y_min, x_max, y_max = r.geom.x_min, r.geom.y_min, r.geom.x_max, r.geom.y_max
        for p in [
            (x_min - 1e-9, y_min),
            (x_max + 1e-9, y_min),
            (x_min, y_min - 1e-9),
            (x_min, y_max + 1e-9),
            (float("nan"), y_min),
        ]:
            with pytest.raises(OutOfDomainError):
                interpolate(r, p)
        # the four extreme corners are inside
        for p in [(x_min, y_min), (x_max, y_max), (x_min, y_max), (x_max, y_min)]:
            interpolate(r, p)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=9, max_size=9
        ),
        u=st.floats(min_value=0, max_value=1),
        w=st.floats(min_value=0, max_value=1),
    )
    def test_value_within_corner_hull(self, values, u, w):
        r = GridRaster(GridGeometry(0, 0, 1, 3, 3), np.reshape(values, (3, 3)))
        v = interpolate(r, (2 * u, 2 * w))
        assert r.values.min() - 1e-9 <= v <= r.values.max() + 1e-9


class TestGradient:
    def test_constant_field(self):
        r = GridRaster(GridGeometry(0, 0, 1, 4, 4), np.full((4, 4), 3.7))
        assert interpolate_gradient(r, (1.3, 2.2)) == (0.0, 0.0)

    def test_linear_plane(self):
        geom = GridGeometry(0, 0, 0.5, 6, 5)
        vals = np.array([[i * geom.cell_size for i in range(6)]] * 5)
        r = GridRaster(geom, vals)
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = (rng.uniform(0, 2.5), rng.uniform(0, 2))
            gx, gy = interpolate_gradient(r, p)
            assert gx == pytest.approx(1.0, abs=1e-12)
            assert gy == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        r = random_raster(rng, n_x=7, n_y=6)
        h = 1e-6 * r.cell_size
        checked = 0
        while checked < 25:
            x = rng.uniform(r.geom.x_min, r.geom.x_max)
            y = rng.uniform(r.geom.y_min, r.geom.y_max)
            # keep away from edges where the gradient jumps
            u = (x - r.geom.x_min) / r.cell_size
            w = (y - r.geom.y_min) / r.cell_size
            if min(u % 1, 1 - u % 1) < 1e-3 or min(w % 1, 1 - w % 1) < 1e-3:
                continue
            gx, gy = interpolate_gradient(r, (x, y))
            fx = (interpolate(r, (x + h, y)) - interpolate(r, (x - h, y))) / (2 * h)
            fy = (interpolate(r, (x, y + h)) - interpolate(r, (x, y - h))) / (2 * h)
            assert gx == pytest.approx(fx, rel=1e-4, abs=1e-8)
            assert gy == pytest.approx(fy, rel=1e-4, abs=1e-8)
            checked += 1


class TestAsciiGrid:
    def test_corner_to_center_shift(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
            "3 4\n1 2\n"
        )
        r = read_ascii_grid(path)
        assert r.geom.x_min == 0.5
        assert r.geom.y_min == 0.5

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        r = random_raster(rng, n_x=10, n_y=10, x_min=3.0, y_min=-2.0, cell=0.25)
        path = tmp_path / "g.asc"
        write_ascii_grid(r, path)
        back = read_ascii_grid(path)
        assert back.geom == r.geom
        np.testing.assert_allclose(back.values, r.values, rtol=1e-12)

    def test_hand_written_fixture_row_flip(self, tmp_path):
        # top file row is the highest y
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 3\nnrows 3\nxllcorner 10\nyllcorner 20\ncellsize 2\nNODATA_value -9999\n"
            "7 8 9\n4 5 6\n1 2 3\n"
        )
        r = read_ascii_grid(path)
        np.testing.assert_array_equal(r.values, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        # value 9 sits at the top-right center (10+2*2.5=15, 20+2*2.5=25) -> (15, 25)
        assert interpolate(r, (15.0, 25.0)) == 9.0

    def test_scientific_notation_accepted(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            "1.5e-3 2E4\n-1e0 0.25\n"
        )
        r = read_ascii_grid(path)
        np.testing.assert_allclose(r.values, [[-1.0, 0.25], [1.5e-3, 2e4]])

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text("ncols 2\nnrows 2\nxllcorner 0 0\n")
        with pytest.raises(GridParseError) as err:
            read_ascii_grid(path)
        assert err.value.line_no == 3

        path.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 oops\n")
        with pytest.raises(GridParseError) as err:
            read_ascii_grid(path)
        assert err.value.line_no == 7

        path.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n")
        with pytest.raises(GridParseError):
            read_ascii_grid(path)

        path.write_text("ncols 2\nnrows 2\nyllcorner 0\ncellsize 1\n1 2\n3 4\n")
        with pytest.raises(GridParseError) as err:
            read_ascii_grid(path)
        assert "xllcorner" in str(err.value)

    def test_nodata_rejected(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
            "1 -9999\n3 4\n"
        )
        with pytest.raises(NoDataError):
            read_ascii_grid(path)

    def test_write_rejects_sentinel_values(self, tmp_path):
        r = GridRaster(GridGeometry(0, 0, 1, 2, 2), [[1.0, -9999.0], [0.0, 0.0]])
        with pytest.raises(NoDataError):
            write_ascii_grid(r, tmp_path / "g.asc")


class TestValidation:
    def test_geometry_invariants(self):
        with pytest.raises(ValueError):
            GridGeometry(0, 0, 0.0, 3, 3)
        with pytest.raises(ValueError):
            GridGeometry(0, 0, -1.0, 3, 3)
        with pytest.raises(ValueError):
            GridGeometry(0, 0, 1.0, 1, 3)

    def test_values_must_be_finite(self):
        with pytest.raises(NonFiniteError):
            GridRaster(GridGeometry(0, 0, 1, 2, 2), [[1.0, np.nan], [0.0, 0.0]])

    def test_values_shape_checked(self):
        with pytest.raises(ValueError):
            GridRaster(GridGeometry(0, 0, 1, 3, 2), np.zeros((3, 2)))

    def test_raster_values_read_only(self):
        r = GridRaster(GridGeometry(0, 0, 1, 2, 2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            r.values[0, 0] = 1.0


class TestExtent:
    def test_contains_points_matches_contains(self):
        ext = Extent(-1.0, 2.0, 0.5, 3.0)
        rng = np.random.default_rng(7)
        xy = rng.uniform(-2.0, 4.0, size=(500, 2))
        # boundary points are inside
        xy[:4] = [[-1.0, 0.5], [2.0, 3.0], [-1.0, 3.0], [2.0 + 1e-12, 1.0]]
        expected = [ext.contains(x, y) for x, y in xy]
        assert ext.contains_points(xy).tolist() == expected
        assert expected[:4] == [True, True, True, False]
