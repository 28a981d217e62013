"""Gridded-field storage, interpolation, gradients, and ASCII I/O."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langmove import (
    Extent,
    GridGeometry,
    GridRaster,
    RandomFieldSpec,
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
                assert interpolate(r, np.array([p]))[0] == pytest.approx(r.values[iy, ix], abs=1e-14)

    def test_cell_midpoint_is_corner_mean(self):
        r = GridRaster(GridGeometry(0, 0, 1, 2, 2), [[0.0, 0.0], [0.0, 4.0]])
        assert interpolate(r, np.array([(0.5, 0.5)])).tolist() == [1.0]

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        r = random_raster(rng)
        for _ in range(50):
            x = rng.uniform(r.geom.x_min, r.geom.x_max)
            y = rng.uniform(r.geom.y_min, r.geom.y_max)
            (v,) = interpolate(r, np.array([(x, y)]))
            assert v == pytest.approx(bilinear_reference(r, x, y), rel=1e-12)

    def test_continuous_across_cell_edges(self):
        rng = np.random.default_rng(3)
        r = random_raster(rng)
        eps = 1e-13
        for edge_ix in (1, 2, 3):
            x_edge = r.geom.x_min + edge_ix * r.cell_size
            for y in rng.uniform(r.geom.y_min, r.geom.y_max, size=5):
                left, right = interpolate(r, np.array([(x_edge - eps, y), (x_edge + eps, y)]))
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
                interpolate(r, np.array([p]))
        # the four extreme corners are inside
        interpolate(r, np.array([(x_min, y_min), (x_max, y_max), (x_min, y_max), (x_max, y_min)]))

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
        (v,) = interpolate(r, np.array([(2 * u, 2 * w)]))
        assert r.values.min() - 1e-9 <= v <= r.values.max() + 1e-9


class TestGradient:
    def test_constant_field(self):
        r = GridRaster(GridGeometry(0, 0, 1, 4, 4), np.full((4, 4), 3.7))
        assert interpolate_gradient(r, np.array([(1.3, 2.2)])).tolist() == [[0.0, 0.0]]

    def test_linear_plane(self):
        geom = GridGeometry(0, 0, 0.5, 6, 5)
        vals = np.array([[i * geom.cell_size for i in range(6)]] * 5)
        r = GridRaster(geom, vals)
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = (rng.uniform(0, 2.5), rng.uniform(0, 2))
            gx, gy = interpolate_gradient(r, np.array([p]))[0]
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
            gx, gy = interpolate_gradient(r, np.array([(x, y)]))[0]
            steps = np.array([(x + h, y), (x - h, y), (x, y + h), (x, y - h)])
            right, left, up, down = interpolate(r, steps)
            fx = (right - left) / (2 * h)
            fy = (up - down) / (2 * h)
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
        assert interpolate(r, np.array([(15.0, 25.0)])).tolist() == [9.0]

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
        with pytest.raises(GridParseError) as err:
            read_ascii_grid(path)
        assert err.value.line_no == 6

        path.write_text("ncols 2\nnrows 2\nyllcorner 0\ncellsize 1\n1 2\n3 4\n")
        with pytest.raises(GridParseError) as err:
            read_ascii_grid(path)
        assert "xllcorner" in str(err.value)

        header = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        for text, line_no, message in [
            (header.replace("ncols 2", "ncols 2.5") + "1 2\n3 4\n", 1, "ncols must be an integer >= 2"),
            (header.replace("ncols 2", "ncols -2") + "1 2\n3 4\n", 1, "ncols must be an integer >= 2"),
            (header.replace("nrows 2", "nrows -2") + "1 2\n3 4\n", 2, "nrows must be an integer >= 2"),
            (header.replace("ncols 2", "ncols nan") + "1 2\n3 4\n", 1, "ncols must be an integer >= 2"),
            (header.replace("ncols 2", "ncols inf") + "1 2\n3 4\n", 1, "ncols must be an integer >= 2"),
            (header.replace("ncols 2", "ncols two") + "1 2\n3 4\n", 1, "bad header value 'two'"),
            # a key after the data must not change the grid read so far
            (header + "1 2\n3 4\ncellsize 2\n", 8, "'cellsize 2' after the data"),
            # the values of a short row must not be taken from the next one
            (header + "1 2 3\n4\n", 6, "expected 2 values in the row, found 3"),
            (header + "1 2\n3\n", 7, "expected 2 values in the row, found 1"),
            (header + "1 2\n", 6, "expected 2 rows, found 1"),
            (header, 5, "no data rows"),
            # blank lines are skipped, and counted
            ("\n" + header + "\n1 2\n\n3 oops\n", 10, "bad value in row"),
            # a line is a header line only if its first word is a header key
            (header + "foo 7\n1 2\n3 4\n", 6, "bad value in row: 'foo 7'"),
            (
                header.replace("cellsize 1\n", "foo 7\ncellsize 1\n") + "1 2\n3 4\n",
                5,
                "missing header key 'cellsize'",
            ),
        ]:
            path.write_text(text)
            with pytest.raises(GridParseError, match=message) as err:
                read_ascii_grid(path)
            assert err.value.line_no == line_no, text

        # nan and inf open a row, not a header line: the row is non-finite
        for rows in ("nan 3\n1 2\n", "1 2\ninf 3\n", "NaN 3\n1 2\n"):
            path.write_text(header + rows)
            with pytest.raises(NonFiniteError):
                read_ascii_grid(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            # the grid's geometry rejected these after the whole file was read,
            # naming no file line, and a corner or cell that is not finite
            # as the derived grid origin
            ("ncols 1", "ncols must be an integer >= 2, got '1'"),
            ("nrows 1", "nrows must be an integer >= 2, got '1'"),
            ("cellsize 0", "cellsize must be positive and finite, got '0'"),
            ("cellsize -1", "cellsize must be positive and finite, got '-1'"),
            ("cellsize inf", "cellsize must be positive and finite, got 'inf'"),
            ("cellsize nan", "cellsize must be positive and finite, got 'nan'"),
            ("xllcorner nan", "xllcorner must be finite, got 'nan'"),
            ("yllcorner -inf", "yllcorner must be finite, got '-inf'"),
        ],
    )
    def test_header_values_the_geometry_rejects(self, tmp_path, line, message):
        lines = ["ncols 2", "nrows 2", "xllcorner 0", "yllcorner 0", "cellsize 1"]
        key = line.split()[0]
        line_no = next(i for i, text in enumerate(lines, start=1) if text.startswith(key))
        lines[line_no - 1] = line
        path = tmp_path / "g.asc"
        path.write_text("\n".join(lines) + "\n1 2\n3 4\n")
        with pytest.raises(GridParseError, match=f"^line {line_no}: {message}$") as err:
            read_ascii_grid(path)
        assert err.value.line_no == line_no

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


def reference_write_ascii_grid(raster, path):
    """The earlier one-value-at-a-time writer, kept as the reference for the bytes."""
    g = raster.geom
    with open(path, "w") as fh:
        fh.write(f"ncols {g.n_x}\n")
        fh.write(f"nrows {g.n_y}\n")
        fh.write(f"xllcorner {g.x_min - g.cell_size / 2.0!r}\n")
        fh.write(f"yllcorner {g.y_min - g.cell_size / 2.0!r}\n")
        fh.write(f"cellsize {g.cell_size!r}\n")
        fh.write(f"NODATA_value {-9999.0!r}\n")
        for iy in range(g.n_y - 1, -1, -1):
            fh.write(" ".join(f"{v:.14e}" for v in raster.values[iy]))
            fh.write("\n")


# signed zero, the smallest subnormal, values where notation switches in
# other formats (1e-4 / 1e-5, 1e16), integral floats and negatives
SPECIAL_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e-4, 9.999999999999999e-05, 1e-5, 1e15,
    9999999999999998.0, 1e16, -1e16, 3.0, -7.0, 1e300, -0.1, 0.30000000000000004, 2.5,
]


class TestAsciiGridBytes:
    """The row-format writer against the earlier per-value one, and values
    read back equal to ``float()`` of the written text."""

    @pytest.mark.parametrize("n_x, n_y", [(2, 9), (9, 2), (6, 3)])
    def test_special_values_write_the_reference_bytes(self, tmp_path, n_x, n_y):
        values = np.resize(np.array(SPECIAL_VALUES), n_x * n_y).reshape(n_y, n_x)
        r = GridRaster(GridGeometry(-3.25, 1e16, 0.1, n_x, n_y), values)
        write_ascii_grid(r, tmp_path / "new.asc")
        reference_write_ascii_grid(r, tmp_path / "ref.asc")
        assert (tmp_path / "new.asc").read_bytes() == (tmp_path / "ref.asc").read_bytes()

    def test_random_raster_writes_the_reference_bytes(self, tmp_path):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(31, 47)) * 10.0 ** rng.integers(-310, 300, size=(31, 47))
        r = GridRaster(GridGeometry(0.5, -7.0, 0.25, 47, 31), values)
        write_ascii_grid(r, tmp_path / "new.asc")
        reference_write_ascii_grid(r, tmp_path / "ref.asc")
        assert (tmp_path / "new.asc").read_bytes() == (tmp_path / "ref.asc").read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != -9999.0),
            min_size=6,
            max_size=6,
        )
    )
    def test_read_back_equals_float_of_the_text(self, tmp_path_factory, cells):
        r = GridRaster(GridGeometry(0.0, 0.0, 1.0, 3, 2), np.array(cells).reshape(2, 3))
        path = tmp_path_factory.mktemp("asc") / "g.asc"
        if not all(math.isfinite(float(f"{v:.14e}")) for v in cells):
            # a cell above 1.797693134862315e308 in magnitude rounds to
            # 1.79769313486232e+308 at 15 digits, which reads as infinity
            with pytest.raises(NonFiniteError, match="reads back as infinity"):
                write_ascii_grid(r, path)
            return
        write_ascii_grid(r, path)
        rows = path.read_text().splitlines()[6:]
        expected = np.array([[float(tok) for tok in row.split()] for row in rows[::-1]])
        back = read_ascii_grid(path)
        assert back.values.tobytes() == expected.tobytes()
        assert back.geom == r.geom


    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_largest_writable_magnitude(self, tmp_path, sign):
        # 1.797693134862315e308 is written as 1.79769313486231e+308; the next
        # float up, and the largest float, as 1.79769313486232e+308 (infinity)
        ok = sign * 1.797693134862315e308
        for bad in (sign * 1.7976931348623151e308, sign * sys.float_info.max):
            values = np.array([[1.0, 2.0, 3.0], [ok, bad, bad]])
            r = GridRaster(GridGeometry(0.0, 0.0, 1.0, 3, 2), values)
            with pytest.raises(NonFiniteError, match=re.escape(f"cell values[1, 1] = {bad!r} ")):
                write_ascii_grid(r, tmp_path / "g.asc")
        r = GridRaster(GridGeometry(0.0, 0.0, 1.0, 3, 2), [[1.0, 2.0, 3.0], [ok, 0.0, -ok]])
        write_ascii_grid(r, tmp_path / "g.asc")
        back = read_ascii_grid(tmp_path / "g.asc").values
        assert back[1].tolist() == [sign * 1.79769313486231e308, 0.0, -sign * 1.79769313486231e308]


class TestValidation:
    def test_geometry_invariants(self):
        for cell_size in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^cell_size must be positive and finite, got {cell_size}$"):
                GridGeometry(0, 0, cell_size, 3, 3)
        with pytest.raises(ValueError, match="^n_x must be >= 2, got 1$"):
            GridGeometry(0, 0, 1.0, 1, 3)
        for origin in [(math.nan, 0), (0, math.inf)]:
            with pytest.raises(ValueError, match="grid origin must be finite"):
                GridGeometry(*origin, 1.0, 3, 3)

    @pytest.mark.parametrize(
        "n_x, n_y, name",
        [(9.7, 3, "n_x"), ("9", 3, "n_x"), (3, 3.0, "n_y"), (True, 3, "n_x"), (3, None, "n_y")],
    )
    def test_counts_must_be_integers(self, n_x, n_y, name):
        # a float count used to be truncated: 9.7 columns built 9
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            GridGeometry(0, 0, 1, n_x, n_y)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            RandomFieldSpec(0, 0, 1, n_x, n_y, 2, 1)

    def test_numpy_integer_counts_accepted(self):
        geom = GridGeometry(0, 0, 1, np.int64(4), np.int32(3))
        assert (geom.n_x, geom.n_y) == (4, 3) and type(geom.n_x) is int

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
