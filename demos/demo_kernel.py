"""The analyzing wavelet and its fractional-integration kernel.

Shows the admissibility report of the default quartic wavelet, evaluates
Phi(s, v) across its support and far field, and prints the certified
far-field envelope A with |Phi(s, v)| <= A (-s)^(v-1/alpha-2) for s <= -1/2,
together with L^alpha norms used by the scale identity.

Run:  python demos/demo_kernel.py
"""

import numpy as np

from lmsmlab import PhiKernel, default_wavelet, validate_wavelet

w = default_wavelet()
print("wavelet: psi(t) = t(1-t)(5t^2-5t+1) on [0,1]")
rep = validate_wavelet(w, tol=1e-12)
print(f"admissible: {rep.passed}   moments: {rep.moment0:.2e}, {rep.moment1:.2e}   "
      f"sup|psi| = {rep.sup_norm:.4f}")

alpha = 1.5
kern = PhiKernel(alpha)
print(f"\nPhi(s, v) for alpha={alpha}:")
print("  s:      ", "  ".join(f"{s:9.1f}" for s in (-100.0, -10.0, -2.0, -0.5, 0.0, 0.5, 1.0)))
for v in (0.7, 0.8, 0.9):
    row = [kern.phi(s, v) for s in (-100.0, -10.0, -2.0, -0.5, 0.0, 0.5, 1.0)]
    print(f"  v={v}: ", "  ".join(f"{x:9.2e}" for x in row))

print("\nsupport: Phi(s, v) = 0 exactly for s >= 1")
print("far-field decay ~ |s|^(v - 1/alpha - 2); certified envelope constant:")
for v in (0.7, 0.9):
    c = kern.decay_envelope_constant(0.5, v - 1.0 / alpha)
    print(f"  v={v}: |Phi(s, v)| <= {c:.4e} (-s)^(v-1/a-2) for s <= -1/2")

print("\nL^alpha norms (enter the coefficient scale identity):")
for v in (0.7, 0.75, 0.8, 0.85, 0.9):
    d = kern.norm_detail(v)
    print(f"  v={v}: ||Phi||_La = {d.value:.6e}   (domain [-{d.s_max:.0f}, 1], "
          f"tail bound {d.tail_bound:.1e})")
print("\nnote how small these norms are: the finite-scale constant they feed")
print("into the log2 estimator is exactly why the harness reports a")
print("constant-corrected column next to the raw one.")
