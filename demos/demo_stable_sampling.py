"""Heavy-tailed sampling basics: moments that exist, and tails that do not.

Draws symmetric alpha-stable batches, compares empirical fractional moments
with the closed-form constant, and tabulates the tail products
P(|S| > xi) * xi**alpha that stabilize into a band as xi grows.

Run:  python demos/demo_stable_sampling.py
"""

import numpy as np

from lmsmlab import StableLaw, moment_constant, sample_sas, tail_coefficient

law = StableLaw(alpha=1.5, scale=1.0)
vals = sample_sas(law, 2_000_000, seed=42)

print(f"alpha={law.alpha}, scale={law.scale}, n={vals.size:,}")
print(f"median (symmetry): {np.median(vals):+.5f}")
print(f"99.9% quantile:    {np.quantile(np.abs(vals), 0.999):.1f}  (heavy tails!)")

print("\nfractional moments E|S|^gamma vs closed form:")
for gamma in (0.1, 0.25, 0.5, 1.0, 1.4):
    mc = np.mean(np.abs(vals) ** gamma)
    c = moment_constant(gamma, law.alpha)
    print(f"  gamma={gamma:4.2f}:  MC {mc:8.5f}   exact {c:8.5f}   rel {abs(mc-c)/c:.1e}")

print("\nsecond moment would diverge: running E|S|^2 estimates")
for n in (10_000, 100_000, 1_000_000):
    print(f"  n={n:>9,}: {np.mean(vals[:n] ** 2):10.1f}")

print("\ntail products P(|S|>xi) xi^alpha (asymptotically constant):")
for xi, prod in tail_coefficient(law, vals, [2, 4, 8, 16, 32, 64]):
    print(f"  xi={xi:5.0f}: {prod:.4f}")
