"""Wavelet coefficient pyramids, dyadic index sets and the max statistic.

Coefficients are d_{j,k} = 2^j int Y(t) psi(2^j t - k) dt, integrated by
trapezoid on the path's own uniform sample mesh; after the change of variables
x = 2^j t - k this is int_0^1 Y((x + k) 2^-j) psi(x) dx, so the 2^j prefactor
never appears explicitly.  Every cell of a level holds the same m + 1
samples, so one weight vector (``WaveletSpec.cell_weights``) serves the level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .process import SamplePath
from .wavelet import WaveletSpec

__all__ = [
    "IntervalSequence",
    "CoeffPyramid",
    "index_set",
    "compute_coeff",
    "build_pyramid",
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


def index_set(interval: tuple[float, float], j: int) -> tuple[list[int], int]:
    """Shifts k with [k 2^-j, (k+1) 2^-j] inside the interval, and their count."""
    lo, hi = interval
    scale = 2.0**j
    k_min = int(np.ceil(lo * scale - 1e-9))
    k_max = int(np.floor(hi * scale + 1e-9)) - 1
    ks = list(range(k_min, k_max + 1))
    return ks, len(ks)


@dataclass(frozen=True, eq=False)
class CoeffPyramid:
    """Map (j, k) -> coefficient, with provenance of how it was computed."""

    levels: dict
    source: str  # "path_quadrature" | "direct_kernel"
    wavelet_id: str
    seed: int
    meta: dict = field(default_factory=dict)

    def level(self, j: int) -> dict:
        return self.levels[j]

    def value(self, j: int, k: int) -> float:
        return self.levels[j][k]

    def __post_init__(self):
        for j, lev in self.levels.items():
            for k in lev:
                if not (0.0 <= k * 2.0**-j and (k + 1) * 2.0**-j <= 1.0 + 1e-12):
                    raise ValueError(f"cell ({j}, {k}) leaves [0, 1]")


class ResolutionError(ValueError):
    """Path off a uniform mesh, or too sparse inside a dyadic cell, for quadrature."""


def _level_coeffs(
    path: SamplePath, w: WaveletSpec, j: int, ks: list[int]
) -> dict[int, float]:
    # all cells at one level share the same in-cell weight vector
    steps = np.diff(path.times)
    step = float(steps[0]) if steps.size else 0.0
    if step <= 0 or not np.allclose(steps, step, rtol=0.0, atol=1e-12):
        raise ResolutionError("coefficient quadrature needs a path on a uniform mesh")
    m = round(2.0**-j / step)
    if m < 16 or abs(m * step - 2.0**-j) > 1e-12:
        raise ResolutionError(f"mesh step {step} incompatible with level {j}")
    wv = w.cell_weights(m)
    t0 = path.times[0]
    out = {}
    for k in ks:
        start = round((k * 2.0**-j - t0) / step)
        if start < 0 or start + m >= path.times.size:
            raise ResolutionError(f"path does not cover cell ({j}, {k})")
        out[k] = float(wv @ path.values[start : start + m + 1])
    return out


def compute_coeff(path: SamplePath, w: WaveletSpec, j: int, k: int) -> float:
    """Trapezoid quadrature of int_0^1 Y((x + k) 2^-j) psi(x) dx on the path's mesh."""
    return _level_coeffs(path, w, j, [k])[k]


def build_pyramid(
    path: SamplePath, w: WaveletSpec, j_range, intervals: IntervalSequence
) -> CoeffPyramid:
    """All coefficients with cells inside I_j, for each level j in j_range."""
    levels = {j: _level_coeffs(path, w, j, index_set(intervals.interval(j), j)[0])
              for j in j_range}
    seed = int(path.provenance.get("seed", -1))
    return CoeffPyramid(
        levels=levels,
        source="path_quadrature",
        wavelet_id=w.name,
        seed=seed,
        meta={"j_range": list(j_range)},
    )


def max_coeff(pyramid: CoeffPyramid, j: int, interval: tuple[float, float]) -> float:
    """D_j = max |d_{j,k}| over cells of level j inside the interval."""
    ks, n = index_set(interval, j)
    if n == 0:
        raise ValueError(f"no level-{j} dyadic cell fits inside {interval}")
    lev = pyramid.level(j)
    missing = [k for k in ks if k not in lev]
    if missing:
        raise ValueError(f"pyramid lacks coefficients {missing[:4]}... at level {j}")
    return float(max(abs(lev[k]) for k in ks))


def pyramid_to_csv(pyramid: CoeffPyramid, fname) -> None:
    with open(fname, "w") as fh:
        fh.write(f"# wavelet: {pyramid.wavelet_id}\n")
        fh.write(f"# seed: {pyramid.seed}\n")
        fh.write("j,k,value,source\n")
        for j in sorted(pyramid.levels):
            lev = pyramid.levels[j]
            for k in sorted(lev):
                fh.write(f"{j},{k},{float(lev[k])!r},{pyramid.source}\n")


def pyramid_from_csv(fname) -> CoeffPyramid:
    levels: dict = {}
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
                levels.setdefault(int(sj), {})[int(sk)] = float(sv)
    return CoeffPyramid(levels=levels, source=source, wavelet_id=wavelet_id, seed=seed)
