"""Level geometry, wavelet coefficient pyramids and the max statistic.

Only this module knows which cells make level j (the shifts of ``index_set``
inside I_j, a fixed I or the ``local_window`` at t0, given as a map {j: I_j}),
its noise step (``noise_step``) and its sampling rule (``samples_per_cell``,
which ``ExperimentConfig.validate`` also applies).  Coefficients d_{j,k} =
2^j int Y(t) psi(2^j t - k) dt are trapezoid sums on the path's field mesh
t = m * t_step of [0, 1]; with x = 2^j t - k they are int_0^1 Y((x + k) 2^-j)
psi(x) dx, so the 2^j prefactor never appears.  Every cell of a level holds
the same m + 1 samples, so a level is one weight vector
(``WaveletSpec.cell_weights``) applied to a windowed view of the samples and
summed tap by tap, for the path and the frozen-Hurst rows alike.  A pyramid
holds one array per level, on exactly the cells of I_j, and carries those
cells, so the level array is what the estimators read.  The frozen-Hurst
levels (``FrozenLevels``) ride the path's own field pass: they apply the
level quadrature to each whole v-node row, near part plus far series, as
the pass produces it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .process import MeshFieldInterpolant, SamplePath, _dyadic_shifts, _NodeRows
from .wavelet import WaveletSpec

__all__ = [
    "CoeffPyramid",
    "local_window",
    "index_set",
    "noise_step",
    "samples_per_cell",
    "build_pyramid",
    "FrozenLevels",
    "max_coeff",
]


def local_window(t0: float, j: int) -> tuple[float, float]:
    """I_j for the local estimator: the window centred at t0 with diam
    2**(1 - j/2), or [0, 1] once that diameter reaches 1.

    When the centred window leaves [0, 1] it is slid (not shrunk) back
    inside, so the diameter condition keeps holding, the windows stay nested
    in j and their intersection over j is still {t0}.
    """
    if not 0.0 < t0 < 1.0:
        raise ValueError("t0 must lie in (0, 1)")
    r = 2.0 ** (-j / 2.0)
    lo, hi = t0 - r, t0 + r
    width = 2.0 * r
    if width >= 1.0:
        return 0.0, 1.0
    if lo < 0.0:
        return 0.0, width
    if hi > 1.0:
        return 1.0 - width, 1.0
    return lo, hi


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
            _dyadic_shifts(j, ks)


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


def _level_cells(intervals: dict) -> dict:
    """The shifts of each level j of the map {j: I_j}: the cells inside I_j."""
    return {j: index_set(I, j) for j, I in intervals.items()}


def build_pyramid(path: SamplePath, w: WaveletSpec, intervals: dict) -> CoeffPyramid:
    """All coefficients with cells inside I_j, for each level j of {j: I_j}."""
    cells = _level_cells(intervals)
    step = path.field.t_step
    return CoeffPyramid(
        levels={j: _level_coeffs(path.values, step, w, j, ks) for j, ks in cells.items()},
        cells=cells,
        wavelet_id=w.name,
        seed=path.field.grid.seed,
    )


class FrozenLevels(_NodeRows):
    """Frozen-Hurst coefficients 2^j int X(t, H(k 2^-j)) psi(2^j t - k) dt on
    the cells of a pyramid's levels (``build_pyramid`` with the same
    intervals), gathered during the path's own field pass.

    H is the field's own (``field.H``).  Hand it to ``simulate_lmsm(field,
    frozen)``: each whole v-node row, its near part plus its far series
    (``process._NodeRows``), goes through the pyramid's own level quadrature
    (``_level_coeffs``) as the pass produces it, so only per-node level
    coefficients are kept, 2^j numbers per node and level, and ``level(j)``
    combines them barycentrically at H(k 2^-j).  The combination is linear
    in the node values, so this is the path route's quadrature of
    X(., H(k 2^-j)).  Raises ResolutionError for a level the field's mesh
    cannot sample (``samples_per_cell``), before any pass runs.
    """

    def __init__(self, field: MeshFieldInterpolant, w: WaveletSpec, intervals: dict):
        super().__init__(field.nodes.size, field.grid, field.refine)
        self.field, self.w = field, w
        self.cells = _level_cells(intervals)
        for j in self.cells:
            samples_per_cell(field.t_step, j)
        self.node_levels = {j: np.zeros((field.nodes.size, len(ks)))
                            for j, ks in self.cells.items()}

    def take(self, i: int, row: np.ndarray) -> None:
        for j, ks in self.cells.items():
            self.node_levels[j][i] = _level_coeffs(row, self.field.t_step, self.w, j, ks)

    def level(self, j: int) -> np.ndarray:
        """The frozen-Hurst coefficients of the cells of level j."""
        return self.field.combine(self.field.H.frozen(j, self.cells[j]), self.node_levels[j])


def max_coeff(level: np.ndarray) -> float:
    """D_j = max |d_{j,k}| over the cells of a pyramid level."""
    return float(np.max(np.abs(level)))
