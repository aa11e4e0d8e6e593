"""Scale-wise estimators of min H, local H(t0) and the stability index.

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

from .coeffs import CoeffPyramid, IntervalSequence
from .stable import moment_constant
from .wavelet import PhiKernel

__all__ = [
    "EstimatorConfig",
    "EstimateRecord",
    "DegenerateReplicate",
    "empirical_mean",
    "estimate_hmin",
    "corrected_hmin",
    "hmin_offset",
    "build_global_intervals",
    "build_local_intervals",
    "estimate_alpha",
]


class DegenerateReplicate(ValueError):
    """A statistic left the estimator's domain (V_j = 0, D_j = 0, ...)."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimation knobs: moment order, interval construction, scale range.

    beta must lie in (0, alpha/4) when alpha is known and in (0, 1/4]
    otherwise; the default 0.25 is the endpoint always allowed for
    alpha in (1, 2).
    """

    beta: float = 0.25
    interval_mode: str = "global"  # "global" | "local"
    interval: tuple[float, float] = (0.0, 1.0)
    t0: float | None = None
    j_range: tuple[int, ...] = tuple(range(4, 11))
    alpha: float | None = None  # set when the stability index is known

    def __post_init__(self):
        if self.interval_mode not in ("global", "local"):
            raise ValueError("interval_mode must be 'global' or 'local'")
        if self.interval_mode == "local" and self.t0 is None:
            raise ValueError("local mode needs t0")
        if self.alpha is None:
            if not 0.0 < self.beta <= 0.25:
                raise ValueError("beta must lie in (0, 1/4] when alpha is unknown")
        else:
            if not 0.0 < self.beta < self.alpha / 4.0:
                raise ValueError(
                    f"beta={self.beta} outside (0, alpha/4) for alpha={self.alpha}"
                )


@dataclass
class EstimateRecord:
    """Per-scale outputs of one replicate, with the metadata that produced them."""

    j: int
    v_j: float
    h_hat: float
    d_j: float
    n_j: int
    interval: tuple[float, float]
    alpha_hat: float | None = None
    h_hat_corrected: float | None = None
    flags: list = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return bool(self.flags)


def empirical_mean(pyramid: CoeffPyramid, j: int, nu, beta: float) -> float:
    """V_j: mean of |d_{j,k}|**beta over the index set nu."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    vals = pyramid.level(j, nu)
    if vals.size == 0:
        raise ValueError("empty index set")
    return float(np.mean(np.abs(vals) ** beta))


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
    iterations: int = 3,
) -> float:
    """Raw estimate plus the computable constant, via a clipped fixed point.

    The plug-in level for the kernel norm is clipped to the declared
    admissible range, so the correction never uses the unknown H itself.
    """
    raw = estimate_hmin(v_j, j, beta)
    lo, hi = h_bounds
    v_star = min(max(raw, lo), hi)
    out = raw
    for _ in range(iterations):
        out = raw + hmin_offset(kernel.alpha, beta, kernel, v_star, j)
        v_star = min(max(out, lo), hi)
    return out


def build_global_intervals(interval: tuple[float, float], j_max: int) -> IntervalSequence:
    """I_j = I at every level; small-j diameter admissibility is simply waived.

    Estimation starts at the first admissible level, which for I with
    |I| <= 2 is the first j with 2**(1 - j/2) <= |I|.
    """
    lo, hi = interval
    if hi <= lo:
        raise ValueError("interval must have non-empty interior")
    if lo < 0.0 or hi > 1.0:
        raise ValueError("interval must lie inside [0, 1]")
    return IntervalSequence(tuple((lo, hi) for _ in range(j_max + 1)))


def build_local_intervals(t0: float, j_max: int) -> IntervalSequence:
    """Shrinking windows centered at t0 with diam 2**(1 - j/2), clipped into [0, 1].

    When the centered window leaves [0, 1] it is slid (not shrunk) back
    inside, so the diameter condition keeps holding and the intersection over
    j is still {t0}.
    """
    if not 0.0 < t0 < 1.0:
        raise ValueError("t0 must lie in (0, 1)")
    out = []
    for j in range(j_max + 1):
        r = 2.0 ** (-j / 2.0)
        lo, hi = t0 - r, t0 + r
        width = 2.0 * r
        if width >= 1.0:
            lo, hi = 0.0, 1.0
        elif lo < 0.0:
            lo, hi = 0.0, width
        elif hi > 1.0:
            lo, hi = 1.0 - width, 1.0
        out.append((lo, hi))
    # enforce nestedness against earlier slid windows
    for j in range(1, len(out)):
        plo, phi_ = out[j - 1]
        lo, hi = out[j]
        lo = max(lo, plo)
        hi = min(hi, phi_)
        out[j] = (lo, hi)
    return IntervalSequence(tuple(out))


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
