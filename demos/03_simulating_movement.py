"""Simulating movement and thinning it to observation schedules.

Trajectories follow overdamped Langevin dynamics whose stationary
distribution is the habitat density: drift along the log-density gradient,
isotropic diffusion, one speed parameter scaling both.  Two animals with
different speeds share the same long-run space use but explore it at very
different rates.  Fine simulated tracks are thinned, regularly or at
random, to emulate real observation schedules: thinning picks the indices
of the fine steps to keep, and the observed track is the fine track at
those indices.
"""

from pathlib import Path

import numpy as np

from langmove import (
    RsfModel,
    SimConfig,
    SquaredDistance,
    Track,
    simulate,
    thin_irregular,
    thin_regular,
    write_track_csv,
)

demo_dir = Path(__file__).parent
out_dir = demo_dir / "output"
out_dir.mkdir(exist_ok=True)

# same quadratic-well density, speeds 1 and 100: identical long-run spread,
# wildly different short-term movement rate
step_msd = {}
for gamma2 in (1.0, 100.0):
    model = RsfModel([SquaredDistance((0, 0))], [-0.05], gamma2=gamma2)
    res = simulate(SimConfig(model, x0=(0.0, 0.0), dt=0.01, n_steps=60_000, seed=42))
    xy = res.track.xy
    step_msd[gamma2] = float((np.diff(xy, axis=0) ** 2).sum(axis=1).mean())
    print(
        f"gamma2={gamma2:>5}: mean squared step = {step_msd[gamma2]:.4f}, "
        f"long-run per-coordinate variance = {xy[:, 0].var():.2f} "
        f"(stationary prediction {1 / (2 * 0.05):.1f})"
    )
print(f"movement-rate ratio: {step_msd[100.0] / step_msd[1.0]:.1f}x for a 100x speed parameter")

# thin a fine track to a half-unit schedule, and to random gap lengths
model = RsfModel([SquaredDistance((0, 0))], [-0.05], gamma2=1.0)
fine = simulate(SimConfig(model, (0.0, 0.0), 0.01, 20_000, seed=7)).track
keep_regular = thin_regular(fine, 50)
keep_irregular = thin_irregular(fine, mean_interval=0.5, seed=8)
regular = Track(fine.times[keep_regular], fine.xy[keep_regular])
irregular = Track(fine.times[keep_irregular], fine.xy[keep_irregular])
print(f"fine track: {len(fine)} points at spacing {fine.intervals[0]:.2f}")
print(f"regular thinning: {len(regular)} points at spacing {regular.intervals[0]:.2f}")
print(
    f"random thinning: {len(irregular)} points, gap mean {irregular.intervals.mean():.3f}, "
    f"gap SD {irregular.intervals.std():.3f}"
)

regular_path, irregular_path = out_dir / "track_regular.csv", out_dir / "track_irregular.csv"
write_track_csv(regular, regular_path)
write_track_csv(irregular, irregular_path)
print("wrote", regular_path.relative_to(demo_dir), "and", irregular_path.relative_to(demo_dir))
