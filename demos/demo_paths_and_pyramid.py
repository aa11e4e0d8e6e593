"""Simulate the motion on shared noise and inspect its coefficient pyramid.

One noise grid drives everything: a constant-H path (classical linear
fractional stable motion), a time-varying-H path on the same noise, and the
wavelet coefficient pyramid whose per-level magnitudes already hint at the
scaling law 2^(-jH).

Run:  python demos/demo_paths_and_pyramid.py   (writes demo_pyramid/pyramid.csv here)
"""

import numpy as np

from lmsmlab import (
    MeshFieldInterpolant,
    StableLaw,
    build_pyramid,
    constant_hurst,
    default_wavelet,
    linear_hurst,
    make_noise_grid,
    simulate_lmsm,
)
from lmsmlab.harness import write_pyramid_csv

law = StableLaw(alpha=1.5, scale=1.0)
delta = 2.0**-12
refine = 8  # path sampled 8x finer than the noise cells
grid = make_noise_grid(law, t_min=-8.0, delta=delta, seed=7)
print(f"noise grid: {grid.n_cells:,} cells of width 2^-12 on [-8, 1)")

# one route per path: the field X(t, v) on the delta/refine mesh of [0, 1]
# for v across H's range (one v-node when H is constant), then
# Y(t) = X(t, H(t)) read off that mesh
path_const = simulate_lmsm(MeshFieldInterpolant(grid, constant_hurst(0.8), 16, refine))
path_vary = simulate_lmsm(MeshFieldInterpolant(grid, linear_hurst(0.7, 0.15), 16, refine))

print(f"Y(0) = {path_const.values[0]} (exactly zero by construction)")
print("same noise, two regularity profiles: range of |Y|")
print(f"  H = 0.8 constant : {np.max(np.abs(path_const.values)):.4f}")
print(f"  H = 0.7 + 0.15 t : {np.max(np.abs(path_vary.values)):.4f}")

# I_j = [0, 1] at every level j = 4..8
pyramid = build_pyramid(path_const, default_wavelet(), {j: (0.0, 1.0) for j in range(4, 9)})
print("\nper-level median |d_{j,k}| (ideal decay 2^-jH per level, H = 0.8;")
print("one replicate of a heavy-tailed process jitters around it -- the")
print("averaged scale checks live in the test suite):")
prev = None
for j in (4, 5, 6, 7, 8):
    med_abs = np.median(np.abs(pyramid.level(j)))
    note = f"   ratio to previous: {med_abs/prev:.3f} (2^-0.8 = {2**-0.8:.3f})" if prev else ""
    print(f"  j={j}: {med_abs:.3e}{note}")
    prev = med_abs

fname = write_pyramid_csv(pyramid, "demo_pyramid")
print(f"\npyramid written to {fname} (one j,k,value row per coefficient)")
