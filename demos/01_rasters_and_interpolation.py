"""Gridded fields: building rasters, querying them, and file round-trips.

A raster stores values at cell centers; queries between centers use
bilinear interpolation, which also has an exact closed-form gradient.
This script builds a small field, pokes at it, and round-trips it through
the ESRI ASCII format.
"""

from pathlib import Path

import numpy as np

from langmove import (
    GridGeometry,
    GridRaster,
    interpolate,
    interpolate_gradient,
    read_ascii_grid,
    write_ascii_grid,
)

demo_dir = Path(__file__).parent
out_dir = demo_dir / "output"
out_dir.mkdir(exist_ok=True)

# a 6x6 grid of a smooth bump, lower-left center at (0, 0), unit cells
geom = GridGeometry(x_min=0.0, y_min=0.0, cell_size=1.0, n_x=6, n_y=6)
xs = geom.x_centers()
ys = geom.y_centers()
values = np.exp(-0.3 * ((xs[None, :] - 2.5) ** 2 + (ys[:, None] - 2.5) ** 2))
bump = GridRaster(geom, values)

# queries take an (n, 2) array of points, one row per point, and answer
# for every row; one point is a one-row array
print("stored value at center (2, 3):", bump.values[3, 2])
print("interpolated at the same point:", interpolate(bump, np.array([(2.0, 3.0)]))[0])
print("interpolated between centers, (2.5, 2.5):", interpolate(bump, np.array([(2.5, 2.5)]))[0])

# the gradient points toward the bump's peak
pts = np.array([(1.0, 1.0), (4.0, 4.0), (2.5, 1.2)])
for p, (gx, gy) in zip(pts.tolist(), interpolate_gradient(bump, pts)):
    print(f"gradient at {tuple(p)}: ({gx:+.4f}, {gy:+.4f})")
print("values at the three points, one call:", np.round(interpolate(bump, pts), 4))

# save and reload: geometry and values survive the text format
path = out_dir / "bump.asc"
write_ascii_grid(bump, path)
back = read_ascii_grid(path)
print("round-trip geometry match:", back.geom == bump.geom)
print("round-trip max value error:", np.abs(back.values - bump.values).max())
print("wrote", path.relative_to(demo_dir))
