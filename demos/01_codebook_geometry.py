"""How the trajectory codebook fills its box, and why the direction mode matters.

The codebook for one layer is the set of points tau(lam * a), lam = 0..U-1,
wrapped into a square box around the layer centroid. With the grid-shear
direction the points tile the box as a sheared sqrt(U) x sqrt(U) lattice;
with the normalized-diagonal direction every x-coordinate lands in a narrow
vertical sliver, so most of the box is far from any point.
"""

import numpy as np

from hypc.codebook import CodebookConfig, DirectionMode, build_codebook, direction_vector
from hypc.codec import ring_error_bounds

SIDE = 0.1
POINTS = 225


def describe(mode: DirectionMode) -> None:
    cfg = CodebookConfig(SIDE, POINTS, 0, mode, centroid=(0.5, 0.5), max_radius=0.0)
    cb = build_codebook(cfg)
    step = direction_vector(POINTS, SIDE, mode)
    rng = np.random.default_rng(0)
    samples = rng.uniform(0.45, 0.55, size=(50_000, 2))
    _, dist = cb.nearest_many(samples)
    x_spread = cb.points[:, 0].max() - cb.points[:, 0].min()
    print(f"\n{mode.name}")
    print(f"  per-step increments      a = ({step[0]:.3e}, {step[1]:.3e})")
    print(f"  x-coordinate spread      {x_spread:.4f}  (box side {SIDE})")
    print(f"  worst distance to a code {dist.max():.6f}")
    print(f"  stated bound (ring 0)    {ring_error_bounds(cfg)[0]:.6f}")
    print(f"  mean distance to a code  {dist.mean():.6f}")


print(f"{POINTS} points in a side-{SIDE} box centered at (0.5, 0.5)")
describe(DirectionMode.GRID_SHEAR)
describe(DirectionMode.PAPER_EQ)

print("\nEach mode's bound is the covering radius of its codebook over the box:")
print("grid-shear's sheared lattice reaches every point of the box within one")
print("cell diagonal; the diagonal construction's points all fit in one lattice")
print("column, so its bound is nearly the box side.")
