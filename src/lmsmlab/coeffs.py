"""Level geometry, wavelet coefficient pyramids and the max statistic.

Only this module knows which cells make level j (the shifts of ``index_set``
inside I_j, from ``build_global_intervals`` or ``build_local_intervals``), its
noise step (``noise_step``) and its sampling rule (``samples_per_cell``, which
``ExperimentConfig.validate`` also applies).  Coefficients d_{j,k} =
2^j int Y(t) psi(2^j t - k) dt are trapezoid sums on the path's field mesh
t = m * t_step of [0, 1]; with x = 2^j t - k they are int_0^1 Y((x + k) 2^-j)
psi(x) dx, so the 2^j prefactor never appears.  Every cell of a level holds
the same m + 1 samples, so a level is one weight vector
(``WaveletSpec.cell_weights``) applied to a windowed view of the samples and
summed tap by tap, for the path and the frozen-Hurst rows alike.  A pyramid
holds one array per level, on exactly the cells of I_j, and carries those
cells, so the level array is what the estimators read.  The frozen-Hurst
levels (``FrozenLevels``) ride the path's own field pass: they apply the
level quadrature to each v-node row as the pass produces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .process import HurstFunction, MeshFieldInterpolant, SamplePath
from .stable import serial_matmul
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
    "FrozenLevels",
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
    i step, i = 0, 1, ...: the shared cell weights times a windowed view of
    each cell's samples, summed tap by tap in tap order by one running sum,
    so every coefficient is summed in the same order whatever the number of
    rows or shifts."""
    m = samples_per_cell(step, j)
    start = ks.start * m
    n = len(ks)
    if not n:
        return np.zeros(values.shape[:-1] + (0,))
    if start < 0 or start + n * m >= values.shape[-1]:
        raise ResolutionError(f"samples do not cover cells ({j}, {ks.start}..{ks.stop - 1})")
    cells = sliding_window_view(values[..., start : start + n * m + 1], m + 1, axis=-1)
    terms = w.cell_weights(m) * cells[..., ::m, :]
    np.add.accumulate(terms, axis=-1, out=terms)
    return terms[..., -1].copy()


def _level_cells(j_range, intervals: IntervalSequence) -> dict:
    """The shifts of each level j in j_range: the cells inside I_j."""
    return {j: index_set(intervals.interval(j), j) for j in j_range}


def build_pyramid(
    path: SamplePath, w: WaveletSpec, j_range, intervals: IntervalSequence
) -> CoeffPyramid:
    """All coefficients with cells inside I_j, for each level j in j_range."""
    cells = _level_cells(j_range, intervals)
    step = path.field.t_step
    return CoeffPyramid(
        levels={j: _level_coeffs(path.values, step, w, j, ks) for j, ks in cells.items()},
        cells=cells,
        wavelet_id=w.name,
        seed=path.field.grid.seed,
    )


class FrozenLevels:
    """Frozen-Hurst coefficients 2^j int X(t, H(k 2^-j)) psi(2^j t - k) dt on
    the cells of a pyramid's levels (``build_pyramid`` with the same j_range
    and intervals), gathered during the path's own field pass.

    Hand it to ``simulate_lmsm(field, H, frozen)``: the level quadrature runs
    on each v-node row as the pass produces it, so only per-node level
    coefficients are kept, 2^j numbers per node and level, and ``level(j)``
    combines them barycentrically at H(k 2^-j).  The combination is linear in
    the node values, so this is the path route's quadrature of
    X(., H(k 2^-j)).  The far part of the rows arrives as power-series
    coefficients in h (see ``process.field_on_mesh``): the level quadrature
    of each power of h, taken once per level from the moments of the cell
    weights, is applied to every node's coefficients on the calling thread
    (``stable.serial_matmul``).
    """

    def __init__(self, field: MeshFieldInterpolant, H: HurstFunction, w: WaveletSpec,
                 j_range, intervals: IntervalSequence):
        self.field, self.H, self.w = field, H, w
        self.cells = _level_cells(j_range, intervals)
        self.node_levels = {j: np.zeros((field.nodes.size, len(ks)))
                            for j, ks in self.cells.items()}

    def far(self, coef: np.ndarray, h: np.ndarray) -> None:
        for j, ks in self.cells.items():
            powers = self._level_powers(h, j, ks, coef.shape[1])
            self.node_levels[j] += serial_matmul(coef, powers)

    def _level_powers(self, h: np.ndarray, j: int, ks: range, n: int) -> np.ndarray:
        # level-j coefficients of h^0 .. h^(n-1) on the shifts ks.  Cell k's
        # samples sit at h = a_k + u, a_k its first sample, u = tap * step,
        # so by the binomial theorem they are sum_p binom(q, p) a_k^(q-p) nu_p
        # with the tap moments nu_p = sum_tap w_tap u^p: no sample is read
        # twice.  The field is 0 at t = 0, so cell 0 drops its first tap.
        m = samples_per_cell(self.field.t_step, j)
        w = self.w.cell_weights(m)
        powers = np.arange(n)[:, None]
        nu = ((np.arange(m + 1) * self.field.t_step) ** powers) @ w
        a = h[ks.start * m : ks.stop * m : m] ** powers
        out = np.empty((n, len(ks)))
        for q in range(n):
            out[q] = ([math.comb(q, p) for p in range(q + 1)] * nu[: q + 1]) @ a[q::-1]
        if ks and ks.start == 0:
            out[:, 0] -= w[0] * a[:, 0]
        return out

    def row(self, i: int, near: np.ndarray) -> None:
        for j, ks in self.cells.items():
            self.node_levels[j][i] += _level_coeffs(near, self.field.t_step, self.w, j, ks)

    def level(self, j: int) -> np.ndarray:
        """The frozen-Hurst coefficients of the cells of level j."""
        return self.field.combine(self.H.frozen(j, self.cells[j]), self.node_levels[j])


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
