"""Level geometry, wavelet coefficient pyramids and the max statistic.

Only this module knows which cells make level j (the shifts of ``index_set``
inside I_j, from ``build_global_intervals`` or ``build_local_intervals``), its
noise step (``noise_step``) and its sampling rule (``samples_per_cell``, which
``ExperimentConfig.validate`` also applies).  Coefficients d_{j,k} =
2^j int Y(t) psi(2^j t - k) dt are trapezoid sums on the path's field mesh
t = m * t_step of [0, 1]; with x = 2^j t - k they are int_0^1 Y((x + k) 2^-j)
psi(x) dx, so the 2^j prefactor never appears.  Every cell of a level holds
the same m + 1 samples, so a level is one weight vector
(``WaveletSpec.cell_weights``) applied tap by tap to strided views of the
samples, for the path and the frozen-Hurst rows alike.  A pyramid holds one
array per level, on exactly the cells of I_j, and carries those cells, so the
level array is what the estimators read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process import SamplePath
from .wavelet import WaveletSpec

__all__ = [
    "IntervalSequence",
    "CoeffPyramid",
    "index_set",
    "build_global_intervals",
    "build_local_intervals",
    "noise_step",
    "samples_per_cell",
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

    def interval(self, j: int) -> tuple[float, float]:
        return self.intervals[j]


def build_global_intervals(interval: tuple[float, float], j_max: int) -> IntervalSequence:
    """I_j = I at every level, admissible or not (see ``IntervalSequence``)."""
    lo, hi = interval
    if hi <= lo:
        raise ValueError("interval must have non-empty interior")
    if lo < 0.0 or hi > 1.0:
        raise ValueError("interval must lie inside [0, 1]")
    return IntervalSequence(tuple((lo, hi) for _ in range(j_max + 1)))


def build_local_intervals(t0: float, j_max: int) -> IntervalSequence:
    """Shrinking windows centered at t0 with diam 2**(1 - j/2), clipped into [0, 1].

    When the centered window leaves [0, 1] it is slid (not shrunk) back
    inside, so the diameter condition keeps holding, the windows stay nested
    and their intersection over j is still {t0}.
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
    return IntervalSequence(tuple(out))


def index_set(interval: tuple[float, float], j: int) -> range:
    """Shifts k with [k 2^-j, (k+1) 2^-j] inside the interval."""
    lo, hi = interval
    scale = 2.0**j
    return range(int(np.ceil(lo * scale - 1e-9)), int(np.floor(hi * scale + 1e-9)))


def noise_step(j: int) -> float:
    return 2.0 ** -(j + 4)  # the noise cell width: 16 noise cells per level-j cell


class ResolutionError(ValueError):
    """Mesh too sparse inside a dyadic cell, or too short for a level's cells."""


def samples_per_cell(step: float, j: int) -> int:
    """Mesh intervals per level-j cell; ResolutionError unless a whole number >= 16."""
    m = round(2.0**-j / step)
    if m < 16 or abs(m * step - 2.0**-j) > 1e-12:
        raise ResolutionError(f"{2.0**-j / step:g} samples per level-{j} cell, "
                              "need a whole number >= 16")
    return m


@dataclass(frozen=True, eq=False)
class CoeffPyramid:
    """One array per level: ``levels[j][i]`` is d_{j,k} for k = cells[j][i]."""

    levels: dict  # j -> ndarray
    cells: dict  # j -> range of shifts
    wavelet_id: str
    seed: int

    def level(self, j: int) -> np.ndarray:
        """The coefficients of the cells of level j inside I_j."""
        return self.levels[j]

    def __post_init__(self):
        for j, ks in self.cells.items():
            if ks and not (ks.start >= 0 and ks.stop * 2.0**-j <= 1.0 + 1e-12):
                raise ValueError(f"cells ({j}, {ks.start}..{ks.stop - 1}) leave [0, 1]")


def _level_coeffs(
    values: np.ndarray, step: float, w: WaveletSpec, j: int, ks: range
) -> np.ndarray:
    """Level-j coefficients for the shifts ks, per row of ``values`` sampled at
    i step, i = 0, 1, ...: the shared cell weights applied tap by tap to
    strided views, so every coefficient is summed in the same order whatever
    the number of rows or shifts."""
    m = samples_per_cell(step, j)
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
    cells = {j: index_set(intervals.interval(j), j) for j in j_range}
    step = path.field.t_step
    return CoeffPyramid(
        levels={j: _level_coeffs(path.values, step, w, j, ks) for j, ks in cells.items()},
        cells=cells,
        wavelet_id=w.name,
        seed=path.field.grid.seed,
    )


def frozen_level(path: SamplePath, w: WaveletSpec, j: int, ks: range) -> np.ndarray:
    """Frozen-Hurst coefficients 2^j int X(t, H(k 2^-j)) psi(2^j t - k) dt, k in ks.

    The level quadrature runs on each v-node row of the interpolant, and the
    rows are combined barycentrically at H(k 2^-j); the combination is linear
    in the node values, so this is the path route's quadrature of X(., H(k 2^-j)).
    """
    field = path.field
    return field.combine(path.H.frozen(j, ks), _level_coeffs(field.values, field.t_step, w, j, ks))


def max_coeff(level: np.ndarray) -> float:
    """D_j = max |d_{j,k}| over the cells of a pyramid level."""
    return float(np.max(np.abs(level)))


def pyramid_to_csv(pyramid: CoeffPyramid, fname) -> None:
    with open(fname, "w") as fh:
        fh.write(f"# wavelet: {pyramid.wavelet_id}\n")
        fh.write(f"# seed: {pyramid.seed}\n")
        fh.write("j,k,value\n")
        for j in sorted(pyramid.levels):
            for k, v in zip(pyramid.cells[j], pyramid.levels[j].tolist()):
                fh.write(f"{j},{k},{v!r}\n")
