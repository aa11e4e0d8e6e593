"""Wavelet coefficient pyramids, dyadic index sets and the max statistic.

Coefficients are d_{j,k} = 2^j int Y(t) psi(2^j t - k) dt, integrated by
trapezoid on the path's own uniform sample mesh; after the change of variables
x = 2^j t - k this is int_0^1 Y((x + k) 2^-j) psi(x) dx, so the 2^j prefactor
never appears explicitly.  Every cell of a level holds the same m + 1
samples, so a level is one strided view of the samples times one weight
vector (``WaveletSpec.cell_weights``).  A pyramid holds one array per level;
index sets are ``range`` objects of shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .process import HurstFunction, MeshFieldInterpolant, SamplePath
from .wavelet import WaveletSpec

__all__ = [
    "IntervalSequence",
    "CoeffPyramid",
    "index_set",
    "compute_coeff",
    "build_pyramid",
    "frozen_level",
    "max_coeff",
    "pyramid_to_csv",
    "pyramid_from_csv",
]


@dataclass(frozen=True)
class IntervalSequence:
    """Non-increasing compact intervals I_j in [0, 1], indexed by level j >= 0.

    The admissibility condition diam(I_j) >= 2**(1 - j/2) may legitimately
    fail at small j for intervals inside [0, 1]; estimation then starts at
    ``first_admissible``.
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

    def admissible(self, j: int) -> bool:
        lo, hi = self.interval(j)
        return hi - lo >= 2.0 ** (1.0 - j / 2.0) - 1e-12

    @property
    def first_admissible(self) -> int:
        for j in range(len(self.intervals) + 64):
            if self.admissible(j):
                return j
        raise ValueError("no admissible level found")


def index_set(interval: tuple[float, float], j: int) -> range:
    """Shifts k with [k 2^-j, (k+1) 2^-j] inside the interval."""
    lo, hi = interval
    scale = 2.0**j
    return range(int(np.ceil(lo * scale - 1e-9)), int(np.floor(hi * scale + 1e-9)))


@dataclass(frozen=True, eq=False)
class CoeffPyramid:
    """One array per level: ``levels[j][i]`` is d_{j,k} for k = k0[j] + i.
    Outside this module, read it through ``level`` and ``value``."""

    levels: dict  # j -> ndarray
    k0: dict  # j -> first shift
    source: str  # "path_quadrature" | "direct_kernel"
    wavelet_id: str
    seed: int

    def level(self, j: int, ks=None) -> np.ndarray:
        """The coefficients of level j, or of the shifts ks only."""
        lev = self.levels[j]
        if ks is None:
            return lev
        idx = np.asarray(ks, dtype=int) - self.k0[j]
        if idx.size and (idx.min() < 0 or idx.max() >= lev.size):
            raise ValueError(f"level {j} lacks some of the shifts {ks}")
        return lev[idx]

    def value(self, j: int, k: int) -> float:
        return float(self.level(j, (k,))[0])

    def __post_init__(self):
        for j, lev in self.levels.items():
            lo, hi = self.k0[j], self.k0[j] + len(lev)
            if len(lev) and not (lo >= 0 and hi * 2.0**-j <= 1.0 + 1e-12):
                raise ValueError(f"cells ({j}, {lo}..{hi - 1}) leave [0, 1]")


class ResolutionError(ValueError):
    """Path off a uniform mesh, or too sparse inside a dyadic cell, for quadrature."""


def _level_coeffs(
    values: np.ndarray, t0: float, step: float, w: WaveletSpec, j: int, ks: range
) -> np.ndarray:
    """Level-j coefficients for the shifts ks, per row of ``values`` sampled at
    t0 + i step: one strided view of the cells times the shared cell weights."""
    m = round(2.0**-j / step)
    if m < 16 or abs(m * step - 2.0**-j) > 1e-12:
        raise ResolutionError(f"mesh step {step} incompatible with level {j}")
    start = round((ks.start * 2.0**-j - t0) / step)
    n = len(ks)
    if n and (start < 0 or start + n * m >= values.shape[-1]):
        raise ResolutionError(f"samples do not cover cells ({j}, {ks.start}..{ks.stop - 1})")
    cells = sliding_window_view(values, m + 1, axis=-1)[..., start::m, :][..., :n, :]
    return cells @ w.cell_weights(m)


def _path_level(path: SamplePath, w: WaveletSpec, j: int, ks: range) -> np.ndarray:
    steps = np.diff(path.times)
    step = float(steps[0]) if steps.size else 0.0
    if step <= 0 or not np.allclose(steps, step, rtol=0.0, atol=1e-12):
        raise ResolutionError("coefficient quadrature needs a path on a uniform mesh")
    return _level_coeffs(path.values, path.times[0], step, w, j, ks)


def compute_coeff(path: SamplePath, w: WaveletSpec, j: int, k: int) -> float:
    """Trapezoid quadrature of int_0^1 Y((x + k) 2^-j) psi(x) dx on the path's mesh."""
    return float(_path_level(path, w, j, range(k, k + 1))[0])


def build_pyramid(
    path: SamplePath, w: WaveletSpec, j_range, intervals: IntervalSequence
) -> CoeffPyramid:
    """All coefficients with cells inside I_j, for each level j in j_range."""
    index_sets = {j: index_set(intervals.interval(j), j) for j in j_range}
    return CoeffPyramid(
        levels={j: _path_level(path, w, j, ks) for j, ks in index_sets.items()},
        k0={j: ks.start for j, ks in index_sets.items()},
        source="path_quadrature",
        wavelet_id=w.name,
        seed=int(path.provenance.get("seed", -1)),
    )


def frozen_level(
    interp: MeshFieldInterpolant, w: WaveletSpec, j: int, ks: range, H: HurstFunction
) -> np.ndarray:
    """Frozen-Hurst coefficients 2^j int X(t, H(k 2^-j)) psi(2^j t - k) dt, k in ks.

    The level quadrature runs on each v-node row of the interpolant, and the
    rows are combined barycentrically at H(k 2^-j); the combination is linear
    in the node values, so this is the path route's quadrature of X(., H(k 2^-j)).
    """
    h_k = np.asarray(H(np.asarray(ks) * 2.0**-j), dtype=float)
    return interp.combine(h_k, _level_coeffs(interp.values, 0.0, interp.t_step, w, j, ks))


def max_coeff(pyramid: CoeffPyramid, j: int, interval: tuple[float, float]) -> float:
    """D_j = max |d_{j,k}| over cells of level j inside the interval."""
    ks = index_set(interval, j)
    if not ks:
        raise ValueError(f"no level-{j} dyadic cell fits inside {interval}")
    return float(np.max(np.abs(pyramid.level(j, ks))))


def pyramid_to_csv(pyramid: CoeffPyramid, fname) -> None:
    with open(fname, "w") as fh:
        fh.write(f"# wavelet: {pyramid.wavelet_id}\n")
        fh.write(f"# seed: {pyramid.seed}\n")
        fh.write("j,k,value,source\n")
        for j in sorted(pyramid.levels):
            for k, v in enumerate(pyramid.levels[j].tolist(), start=pyramid.k0[j]):
                fh.write(f"{j},{k},{v!r},{pyramid.source}\n")


def pyramid_from_csv(fname) -> CoeffPyramid:
    """Read ``pyramid_to_csv`` output; each level's shifts must run contiguously."""
    levels: dict = {}
    k0: dict = {}
    source = "path_quadrature"
    wavelet_id = "unknown"
    seed = -1
    with open(fname) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# wavelet:"):
                wavelet_id = line.split(":", 1)[1].strip()
            elif line.startswith("# seed:"):
                seed = int(line.split(":", 1)[1].strip())
            elif line and not line.startswith(("#", "j,")):
                sj, sk, sv, source = line.split(",")
                j, k = int(sj), int(sk)
                vals = levels.setdefault(j, [])
                if k != k0.setdefault(j, k) + len(vals):
                    raise ValueError(f"level {j}: shift {k} breaks the contiguous run")
                vals.append(float(sv))
    return CoeffPyramid(levels={j: np.array(v) for j, v in levels.items()}, k0=k0,
                        source=source, wavelet_id=wavelet_id, seed=seed)
