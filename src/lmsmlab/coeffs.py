"""Wavelet coefficient pyramids, dyadic index sets and the max statistic.

Coefficients are d_{j,k} = 2^j int Y(t) psi(2^j t - k) dt, integrated by
trapezoid on the mesh t = m * t_step of [0, 1] that a simulated path carries
in its field interpolant; after the change of variables x = 2^j t - k this is
int_0^1 Y((x + k) 2^-j) psi(x) dx, so the 2^j prefactor never appears
explicitly.  Every cell of a level holds the same m + 1 samples, so a level is
one weight vector (``WaveletSpec.cell_weights``) applied tap by tap to strided
views of the samples.  The path and the frozen-Hurst rows of the interpolant
share that one level routine.  A pyramid holds one array per level, built on
exactly the cells inside I_j (the shifts of ``index_set``), so the level array
is what the estimators read.  ``pyramid_to_csv`` writes a pyramid for the
command line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process import HurstFunction, MeshFieldInterpolant, SamplePath
from .wavelet import WaveletSpec

__all__ = [
    "IntervalSequence",
    "CoeffPyramid",
    "index_set",
    "build_pyramid",
    "frozen_level",
    "max_coeff",
    "pyramid_to_csv",
]


@dataclass(frozen=True)
class IntervalSequence:
    """Non-increasing compact intervals I_j in [0, 1], indexed by level j >= 0.

    The admissibility condition diam(I_j) >= 2**(1 - j/2) may legitimately
    fail at small j for intervals inside [0, 1]; nothing checks or skips a
    level for it: ``run_replicate`` estimates at every j of the configured
    ``j_range``.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev = None
        for j, (lo, hi) in enumerate(self.intervals):
            if hi <= lo:
                raise ValueError(f"level {j}: degenerate interval [{lo}, {hi}]")
            if prev is not None and (lo < prev[0] - 1e-12 or hi > prev[1] + 1e-12):
                raise ValueError(f"level {j}: intervals are not nested")
            prev = (lo, hi)

    def __len__(self):
        return len(self.intervals)

    def interval(self, j: int) -> tuple[float, float]:
        if j < len(self.intervals):
            return self.intervals[j]
        return self.intervals[-1]


def index_set(interval: tuple[float, float], j: int) -> range:
    """Shifts k with [k 2^-j, (k+1) 2^-j] inside the interval."""
    lo, hi = interval
    scale = 2.0**j
    return range(int(np.ceil(lo * scale - 1e-9)), int(np.floor(hi * scale + 1e-9)))


@dataclass(frozen=True, eq=False)
class CoeffPyramid:
    """One array per level: ``levels[j][i]`` is d_{j,k} for k = k0[j] + i."""

    levels: dict  # j -> ndarray
    k0: dict  # j -> first shift
    wavelet_id: str
    seed: int

    def level(self, j: int) -> np.ndarray:
        """The coefficients of the cells of level j inside I_j."""
        return self.levels[j]

    def __post_init__(self):
        for j, lev in self.levels.items():
            lo, hi = self.k0[j], self.k0[j] + len(lev)
            if len(lev) and not (lo >= 0 and hi * 2.0**-j <= 1.0 + 1e-12):
                raise ValueError(f"cells ({j}, {lo}..{hi - 1}) leave [0, 1]")


class ResolutionError(ValueError):
    """Mesh too sparse inside a dyadic cell, or too short for a level's cells."""


def _level_coeffs(
    values: np.ndarray, step: float, w: WaveletSpec, j: int, ks: range
) -> np.ndarray:
    """Level-j coefficients for the shifts ks, per row of ``values`` sampled at
    i step, i = 0, 1, ...: the shared cell weights applied tap by tap to
    strided views, so every coefficient is summed in the same order whatever
    the number of rows or shifts."""
    m = round(2.0**-j / step)
    if m < 16 or abs(m * step - 2.0**-j) > 1e-12:
        raise ResolutionError(f"mesh step {step} incompatible with level {j}")
    start = ks.start * m
    n = len(ks)
    if n and (start < 0 or start + n * m >= values.shape[-1]):
        raise ResolutionError(f"samples do not cover cells ({j}, {ks.start}..{ks.stop - 1})")
    out = np.zeros(values.shape[:-1] + (n,))
    stop = start + n * m
    for tap, weight in enumerate(w.cell_weights(m)):
        out += weight * values[..., start + tap : stop + tap : m]
    return out


def build_pyramid(
    path: SamplePath, w: WaveletSpec, j_range, intervals: IntervalSequence
) -> CoeffPyramid:
    """All coefficients with cells inside I_j, for each level j in j_range."""
    index_sets = {j: index_set(intervals.interval(j), j) for j in j_range}
    step = path.field.t_step
    return CoeffPyramid(
        levels={j: _level_coeffs(path.values, step, w, j, ks) for j, ks in index_sets.items()},
        k0={j: ks.start for j, ks in index_sets.items()},
        wavelet_id=w.name,
        seed=path.field.grid.seed,
    )


def frozen_level(
    interp: MeshFieldInterpolant, w: WaveletSpec, j: int, ks: range, H: HurstFunction
) -> np.ndarray:
    """Frozen-Hurst coefficients 2^j int X(t, H(k 2^-j)) psi(2^j t - k) dt, k in ks.

    The level quadrature runs on each v-node row of the interpolant, and the
    rows are combined barycentrically at H(k 2^-j); the combination is linear
    in the node values, so this is the path route's quadrature of X(., H(k 2^-j)).
    """
    h_k = H.frozen(j, ks)
    return interp.combine(h_k, _level_coeffs(interp.values, interp.t_step, w, j, ks))


def max_coeff(level: np.ndarray) -> float:
    """D_j = max |d_{j,k}| over the cells of a pyramid level."""
    return float(np.max(np.abs(level)))


def pyramid_to_csv(pyramid: CoeffPyramid, fname) -> None:
    with open(fname, "w") as fh:
        fh.write(f"# wavelet: {pyramid.wavelet_id}\n")
        fh.write(f"# seed: {pyramid.seed}\n")
        fh.write("j,k,value\n")
        for j in sorted(pyramid.levels):
            for k, v in enumerate(pyramid.levels[j].tolist(), start=pyramid.k0[j]):
                fh.write(f"{j},{k},{v!r}\n")
