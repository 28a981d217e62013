"""Gridded spatial fields: storage, ESRI ASCII I/O, bilinear interpolation.

Values live at cell *centers*; the lower-left center is ``(x_min, y_min)``
and cells are square with side ``cell_size``.  The interpolation domain is
the convex hull of the centers, an :class:`Extent`,

    [x_min, x_min + (n_x - 1) * cell_size] x [y_min, y_min + (n_y - 1) * cell_size];

``PLANE`` is the extent of a field defined everywhere, and disjoint
extents intersect to an empty one.

Within each cell the interpolant is bilinear through the four surrounding
center values, so it is exact at the centers, continuous across cell edges,
and has a closed-form gradient that is affine in each coordinate inside a
cell.  The gradient is discontinuous across cell edges; a point lying
exactly on an interior edge is assigned to the cell above/right of it.

:func:`interpolate` and :func:`interpolate_gradient` take an ``(n, 2)``
array of points and return an ``(n,)`` or ``(n, 2)`` array; one point is a
one-row array.  The Euler stepper's gradient is a source fragment of
:class:`~langmove.covariates.RasterCovariate` that runs the array form's
arithmetic in the same order, so the two agree bit for bit; it checks no
domain, since the simulator keeps its steps inside.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GridParseError, NoDataError, NonFiniteError, OutOfDomainError

__all__ = [
    "Extent",
    "PLANE",
    "GridGeometry",
    "GridRaster",
    "interpolate",
    "interpolate_gradient",
    "read_ascii_grid",
    "write_ascii_grid",
]

#: Sentinel written to the NODATA_value header field.  Values equal to it are
#: rejected on both read and write (missing data is unsupported).
NODATA_SENTINEL = -9999.0

#: The largest magnitude :func:`write_ascii_grid` writes: its ``%.14e`` text,
#: 1.79769313486231e+308, reads back finite, while every larger float's
#: rounds up (the rounding is monotone) to 1.79769313486232e+308, which
#: reads back as infinity.
ASC_MAX = 1.797693134862315e308


@dataclass(frozen=True)
class Extent:
    """Axis-aligned rectangle ``[x_lo, x_hi] x [y_lo, y_hi]``."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def contains(self, x: float, y: float) -> bool:
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi

    def contains_points(self, xy: np.ndarray) -> np.ndarray:
        """:meth:`contains` for each row of an ``(n, 2)`` array of points."""
        x, y = xy[:, 0], xy[:, 1]
        return (self.x_lo <= x) & (x <= self.x_hi) & (self.y_lo <= y) & (y <= self.y_hi)

    def clamp(self, x: float, y: float) -> tuple[float, float]:
        """Project a point onto the rectangle."""
        return (
            min(max(x, self.x_lo), self.x_hi),
            min(max(y, self.y_lo), self.y_hi),
        )

    def intersect(self, other: "Extent") -> "Extent":
        """The common rectangle, empty (``x_lo > x_hi`` or ``y_lo > y_hi``) if none."""
        return Extent(
            max(self.x_lo, other.x_lo),
            min(self.x_hi, other.x_hi),
            max(self.y_lo, other.y_lo),
            min(self.y_hi, other.y_hi),
        )


def two_floats(value, name: str) -> tuple[float, float]:
    """The two finite numbers that ``value``, a point or a pair of settings,
    holds, as floats; anything else raises ``ValueError`` naming ``name``."""
    pair = value.tolist() if isinstance(value, np.ndarray) else value
    x, y = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (None, None)
    reals = (int, float, np.integer, np.floating)
    if not (isinstance(x, reals) and isinstance(y, reals)):
        raise ValueError(f"{name} must hold two numbers, got {value!r}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(x), float(y)


def at_least(value, k: int, name: str) -> int:
    """``value``, an integer (a numpy one included, a ``bool`` not) of at
    least ``k``, as an ``int``; anything else raises ``ValueError`` naming ``name``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < k:
        raise ValueError(f"{name} must be >= {k}, got {value}")
    return int(value)


def positive(value, name: str):
    """``value`` itself, once checked to be positive and finite (NaN is
    neither); anything else raises ``ValueError`` naming ``name``."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


#: The domain of a field defined everywhere: every finite point, no infinite or NaN one.
PLANE = Extent(-sys.float_info.max, sys.float_info.max, -sys.float_info.max, sys.float_info.max)


@dataclass(frozen=True)
class GridGeometry:
    """Geometry of a regular grid of square cells.

    Parameters
    ----------
    x_min, y_min : float
        Coordinates of the lower-left cell center.
    cell_size : float
        Side length of each (square) cell; must be positive and finite.
    n_x, n_y : int
        Cell counts along x and y; at least 2 each so that bilinear
        interpolation has a full 2x2 node set.
    """

    x_min: float
    y_min: float
    cell_size: float
    n_x: int
    n_y: int

    def __post_init__(self):
        x_min, y_min = two_floats((self.x_min, self.y_min), "grid origin")
        object.__setattr__(self, "x_min", x_min)
        object.__setattr__(self, "y_min", y_min)
        object.__setattr__(self, "cell_size", positive(float(self.cell_size), "cell_size"))
        object.__setattr__(self, "n_x", at_least(self.n_x, 2, "n_x"))
        object.__setattr__(self, "n_y", at_least(self.n_y, 2, "n_y"))

    @property
    def x_max(self) -> float:
        return self.x_min + (self.n_x - 1) * self.cell_size

    @property
    def y_max(self) -> float:
        return self.y_min + (self.n_y - 1) * self.cell_size

    @property
    def extent(self) -> Extent:
        """Interpolation domain (convex hull of cell centers)."""
        return Extent(self.x_min, self.x_max, self.y_min, self.y_max)

    def x_centers(self) -> np.ndarray:
        return self.x_min + self.cell_size * np.arange(self.n_x)

    def y_centers(self) -> np.ndarray:
        return self.y_min + self.cell_size * np.arange(self.n_y)

    def centers(self) -> np.ndarray:
        """Every cell center as an ``(n_y * n_x, 2)`` array, row by row from
        the lowest y, so a per-center result reshapes to ``(n_y, n_x)``."""
        x, y = np.meshgrid(self.x_centers(), self.y_centers())
        return np.column_stack((x.ravel(), y.ravel()))


@dataclass(frozen=True, eq=False)
class GridRaster:
    """A grid geometry plus an ``(n_y, n_x)`` array of finite cell values.

    ``values[iy, ix]`` is the value at center
    ``(x_min + ix * cell_size, y_min + iy * cell_size)``.
    Instances are immutable; all query operations are pure.
    """

    geom: GridGeometry
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.geom.n_y, self.geom.n_x):
            raise ValueError(
                f"values shape {v.shape} does not match geometry "
                f"({self.geom.n_y}, {self.geom.n_x})"
            )
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("raster contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def cell_size(self) -> float:
        return self.geom.cell_size

    @property
    def extent(self) -> Extent:
        return self.geom.extent


def _corners(raster: GridRaster, xy: np.ndarray):
    """Find the enclosing cell of each row of ``xy`` and gather its corners.

    Returns six ``(n,)`` arrays ``(u, w, v00, v10, v01, v11)``: the local
    offsets in [0, 1] and the values at the cell's lower-left, lower-right,
    upper-left and upper-right nodes.  Interior edge points go to the cell
    above/right (truncation); the top and right domain edges fall back to
    the last cell.  The first row outside the domain raises.
    """
    geom = raster.geom
    outside = ~geom.extent.contains_points(xy)
    if outside.any():
        i = int(np.argmax(outside))
        raise OutOfDomainError(float(xy[i, 0]), float(xy[i, 1]))
    u = (xy[:, 0] - geom.x_min) / geom.cell_size
    w = (xy[:, 1] - geom.y_min) / geom.cell_size
    ix = np.minimum(u.astype(np.intp), geom.n_x - 2)
    iy = np.minimum(w.astype(np.intp), geom.n_y - 2)
    v = raster.values
    return u - ix, w - iy, v[iy, ix], v[iy, ix + 1], v[iy + 1, ix], v[iy + 1, ix + 1]


def interpolate(raster: GridRaster, xy: np.ndarray) -> np.ndarray:
    """Bilinear interpolant of the raster at each row of ``xy``, an ``(n, 2)``
    array of points, as an ``(n,)`` array.

    Exact at cell centers and continuous across cell edges.

    Raises
    ------
    OutOfDomainError
        If a row of ``xy`` (the first such) lies outside the hull of cell
        centers.
    """
    u, w, v00, v10, v01, v11 = _corners(raster, xy)
    return (
        (1.0 - u) * (1.0 - w) * v00
        + u * (1.0 - w) * v10
        + (1.0 - u) * w * v01
        + u * w * v11
    )


def interpolate_gradient(raster: GridRaster, xy: np.ndarray) -> np.ndarray:
    """Exact gradient ``(d/dx, d/dy)`` of the bilinear interpolant at each
    row of ``xy``, as an ``(n, 2)`` array.

    The interpolant is bilinear per cell, so its gradient is affine in each
    coordinate within the cell.  On a cell edge the cell above/right is used.

    Raises
    ------
    OutOfDomainError
        If a row of ``xy`` (the first such) lies outside the hull of cell
        centers.
    """
    u, w, v00, v10, v01, v11 = _corners(raster, xy)
    h = raster.geom.cell_size
    gx = ((1.0 - w) * (v10 - v00) + w * (v11 - v01)) / h
    gy = ((1.0 - u) * (v01 - v00) + u * (v11 - v10)) / h
    return np.column_stack((gx, gy))


#: Each required header key, with the rule of the GridGeometry setting it gives, and its wording.
_HEADER_RULES = {
    **dict.fromkeys(("ncols", "nrows"), (lambda v: v >= 2 and v.is_integer(), "an integer >= 2")),
    **dict.fromkeys(("xllcorner", "yllcorner"), (math.isfinite, "finite")),
    "cellsize": (lambda v: 0 < v < math.inf, "positive and finite"),
}


def read_ascii_grid(path: str | Path) -> GridRaster:
    """Read an ESRI ASCII grid (.asc) file.

    The header must provide ``ncols``, ``nrows``, ``xllcorner``, ``yllcorner``
    and ``cellsize`` (``NODATA_value`` is optional), before any data;
    ``ncols`` and ``nrows`` are integers of at least 2, the corners finite
    and ``cellsize`` positive and finite, and a line that does not
    open with one of these keys is a row.  The body holds ``nrows`` lines of
    ``ncols`` whitespace-separated values with the top line at the highest y.
    Corner coordinates refer to the lower-left cell *corner* and are shifted
    by ``cellsize / 2`` to this module's cell-center convention.

    Raises
    ------
    GridParseError
        On malformed header or body (carries the offending line number).
    NoDataError
        If any value equals the file's NODATA_value.
    """
    header: dict[str, float] = {}
    data: list[float] = []
    with open(path, "r") as fh:
        for line_no, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            key = tokens[0].lower()
            if key in _HEADER_RULES or key == "nodata_value":
                if data:
                    raise GridParseError(line_no, f"header line {line.rstrip()!r} after the data")
                if len(tokens) != 2:
                    raise GridParseError(line_no, f"bad header line {line.rstrip()!r}")
                try:
                    header[key] = float(tokens[1])
                except ValueError:
                    raise GridParseError(line_no, f"bad header value {tokens[1]!r}") from None
                holds, rule = _HEADER_RULES.get(key, (None, None))
                if holds and not holds(header[key]):
                    raise GridParseError(line_no, f"{key} must be {rule}, got {tokens[1]!r}")
            else:
                if not data:
                    for key in _HEADER_RULES:
                        if key not in header:
                            raise GridParseError(line_no, f"missing header key {key!r}")
                    n_x = int(header["ncols"])
                if len(tokens) != n_x:
                    raise GridParseError(line_no, f"expected {n_x} values in the row, found {len(tokens)}")
                try:
                    data.extend(map(float, tokens))
                except ValueError:
                    raise GridParseError(line_no, f"bad value in row: {line.rstrip()!r}") from None
    if not data:
        raise GridParseError(len(header), "no data rows")
    n_y = int(header["nrows"])
    if len(data) != n_x * n_y:
        raise GridParseError(line_no, f"expected {n_y} rows, found {len(data) // n_x}")
    cell_size = header["cellsize"]
    arr = np.asarray(data, dtype=float).reshape(n_y, n_x)
    # file rows run top to bottom; flip so row 0 is the lowest y
    arr = arr[::-1].copy()
    nodata = header.get("nodata_value")
    if nodata is not None and np.any(arr == nodata):
        raise NoDataError(f"grid contains NODATA cells (NODATA_value={nodata})")
    geom = GridGeometry(
        x_min=header["xllcorner"] + cell_size / 2.0,
        y_min=header["yllcorner"] + cell_size / 2.0,
        cell_size=cell_size,
        n_x=n_x,
        n_y=n_y,
    )
    return GridRaster(geom, arr)


def write_ascii_grid(raster: GridRaster, path: str | Path) -> None:
    """Write a raster as an ESRI ASCII grid (.asc) file.

    Values are written with ``%.14e`` (15 significant digits), top row
    first; cell-center origin is converted to the format's lower-left
    corner convention.

    Raises
    ------
    NoDataError
        If any value equals the NODATA sentinel (would be unreadable).
    NonFiniteError
        If a value is larger in magnitude than ``ASC_MAX`` (its text would
        read back as infinity), naming the first such cell.
    """
    if np.any(raster.values == NODATA_SENTINEL):
        raise NoDataError(
            f"raster contains the NODATA sentinel value {NODATA_SENTINEL}"
        )
    too_large = np.abs(raster.values) > ASC_MAX
    if too_large.any():
        iy, ix = np.argwhere(too_large)[0].tolist()
        v = float(raster.values[iy, ix])
        raise NonFiniteError(
            f"cell values[{iy}, {ix}] = {v!r} would be written as {v:.14e}, "
            f"which reads back as infinity"
        )
    g = raster.geom
    with open(path, "w") as fh:
        fh.write(f"ncols {g.n_x}\n")
        fh.write(f"nrows {g.n_y}\n")
        fh.write(f"xllcorner {g.x_min - g.cell_size / 2.0!r}\n")
        fh.write(f"yllcorner {g.y_min - g.cell_size / 2.0!r}\n")
        fh.write(f"cellsize {g.cell_size!r}\n")
        fh.write(f"NODATA_value {NODATA_SENTINEL!r}\n")
        row_format = " ".join(["%.14e"] * g.n_x) + "\n"
        for row in raster.values[::-1]:
            fh.write(row_format % tuple(row.tolist()))
