"""Scale-wise estimators of min H, local H(t0) and the stability index.

The estimators read one pyramid level at a time, an array of the
coefficients of the cells of I_j; which cells those are is decided in
``coeffs``, so nothing here knows level geometry.

The raw estimator log2(V_j) / (-j beta) converges to min_{I_j} H but carries
a finite-scale offset [log2 c(beta) + beta log2 ||Phi(., H)||] / (j beta)
from the moment and kernel constants, which dies only like 1/j.  When alpha
is known (every simulation study), that constant is computable by quadrature,
so ``corrected_hmin`` removes it through a clipped fixed-point plug-in.  The
stability-index estimator needs no such correction: the kernel constant
cancels exactly between h_hat and j^-1 log2 D_j, which is also checkable as
an algebraic identity of ``estimate_alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .stable import moment_constant
from .wavelet import PhiKernel

__all__ = [
    "EstimateRecord",
    "DegenerateReplicate",
    "empirical_mean",
    "estimate_hmin",
    "corrected_hmin",
    "hmin_offset",
    "estimate_alpha",
]


class DegenerateReplicate(ValueError):
    """A statistic left the estimator's domain (V_j = 0, D_j = 0, ...)."""


@dataclass
class EstimateRecord:
    """Per-scale outputs of one replicate, with the metadata that produced them."""

    j: int
    v_j: float
    h_hat: float
    d_j: float
    n_j: int
    alpha_hat: float | None = None
    h_hat_corrected: float | None = None
    flags: list = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return bool(self.flags)


def empirical_mean(level: np.ndarray, beta: float) -> float:
    """V_j: mean of |d_{j,k}|**beta over the cells of a pyramid level."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if level.size == 0:
        raise ValueError("empty index set")
    return float(np.mean(np.abs(level) ** beta))


def estimate_hmin(v_j: float, j: int, beta: float) -> float:
    """log2(V_j) / (-j beta); exact inverse of V_j = 2**(-j beta h)."""
    if j < 1:
        raise ValueError("j must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if v_j <= 0.0:
        raise DegenerateReplicate("V_j = 0: degenerate replicate")
    return math.log2(v_j) / (-j * beta)


def hmin_offset(alpha: float, beta: float, kernel: PhiKernel, v: float, j: int) -> float:
    """Finite-scale constant [log2 c(beta) + beta log2 ||Phi(., v)||] / (j beta)."""
    c = moment_constant(beta, alpha)
    return (math.log2(c) + beta * math.log2(kernel.lalpha_norm(v))) / (j * beta)


def corrected_hmin(
    v_j: float,
    j: int,
    beta: float,
    kernel: PhiKernel,
    h_bounds: tuple[float, float],
) -> float:
    """Raw estimate plus the computable constant, via three steps of a clipped
    fixed point.

    The plug-in level for the kernel norm is clipped to the declared
    admissible range, so the correction never uses the unknown H itself.
    """
    raw = estimate_hmin(v_j, j, beta)
    lo, hi = h_bounds
    v_star = min(max(raw, lo), hi)
    out = raw
    for _ in range(3):
        out = raw + hmin_offset(kernel.alpha, beta, kernel, v_star, j)
        v_star = min(max(out, lo), hi)
    return out


def estimate_alpha(h_hat: float, d_j: float, j: int) -> float:
    """alpha_hat = (h_hat + j^-1 log2 D_j)^-1.

    Replacing D_j by 2**(-j c) D_j and h_hat by h_hat + c leaves the output
    unchanged, which is why no kernel-constant correction may be applied to
    the h_hat fed in here.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if d_j <= 0.0:
        raise DegenerateReplicate("D_j <= 0: degenerate replicate")
    den = h_hat + math.log2(d_j) / j
    if den <= 0.0:
        raise DegenerateReplicate("non-positive denominator: pre-asymptotic regime")
    return 1.0 / den
