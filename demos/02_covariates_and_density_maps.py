"""Covariates and the habitat-selection density.

The space-use density is exp(sum_j beta_j c_j) normalized over the study
region.  Covariates can be analytic (wavelet bumps, squared distance to a
point) or gridded fields; positive coefficients mean selection, negative
mean avoidance.  The density's log-gradient, which drives the movement
model, never needs the normalizing constant.
"""

from pathlib import Path

import numpy as np

from langmove import (
    AnalyticWavelet,
    RandomFieldSpec,
    RasterCovariate,
    RsfModel,
    SquaredDistance,
    generate_random_field,
    ud_raster,
    write_ascii_grid,
)

demo_dir = Path(__file__).parent
out_dir = demo_dir / "output"
out_dir.mkdir(exist_ok=True)

# an oscillating bump, a centering force, and a smoothed random field
wavelet = AnalyticWavelet(alpha=6, a=(0, 0), omega=(0.6, 0.2), sigma=(0.4, 0.4))
home = SquaredDistance((0.0, 0.0))
field = generate_random_field(
    RandomFieldSpec(x_min=-8, y_min=-8, cell_size=0.5, n_x=33, n_y=33, rho=2.0, seed=7)
)
print("random field range:", field.values.min(), "to", field.values.max())

model = RsfModel(
    covariates=[wavelet, home, RasterCovariate(field)],
    beta=[-1.0, -0.05, 2.0],
    gamma2=1.0,
)

# the model takes an (n, 2) array of points; here one point, as a one-row array
p = (1.0, -0.5)
xy = np.array([p])
print("log density (unnormalized) at", p, "=", model.log_pi_unnormalized(xy)[0])
print("log-density gradient at", p, "=", tuple(model.grad_log_pi(xy)[0].tolist()))

# rasterize the normalized density over the field's grid
ud = ud_raster(model, field.geom)
cell_area = field.geom.cell_size ** 2
print("density integrates to:", ud.values.sum() * cell_area)
iy, ix = np.unravel_index(ud.values.argmax(), ud.values.shape)
print(
    "most-used cell center:",
    (float(field.geom.x_centers()[ix]), float(field.geom.y_centers()[iy])),
)

density_path, field_path = out_dir / "density.asc", out_dir / "field.asc"
write_ascii_grid(ud, density_path)
write_ascii_grid(field, field_path)
print("wrote", density_path.relative_to(demo_dir), "and", field_path.relative_to(demo_dir))
