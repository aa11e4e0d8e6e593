"""Shared-noise simulation of the stable field, the motion, and direct coefficients.

One replicate means one realized noise grid; every field value, sample path
and wavelet coefficient inside that replicate is a linear functional of the
same increments.  The discretization is the left-endpoint Riemann sum of the
defining stochastic integrals: cell i carries an independent SaS increment of
scale delta**(1/alpha), so discrete integrals inherit the continuous scale
contract ||sum f(s_i) dZ_i||_alpha**alpha = sum |f(s_i)|**alpha * delta.

Mesh-aligned evaluation is accelerated by FFT convolution, which computes the
very same Riemann sums: for fixed v the map t -> sum (t - s_i)_+**kappa dZ_i
is a discrete convolution.  Only the outputs at t in [0, t_top] are read, so
each transform has length n_cells + t_top/delta (rounded up to a fast size)
instead of the full linear-convolution length n_cells + (t_top - t_min)/delta:
every product that wraps around the circular convolution lands before t = 0,
outside the window that is read.  Time-varying Hurst values are then obtained by
barycentric interpolation across a Chebyshev grid of v-nodes; the field is
analytic in v, so a few dozen nodes reach near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len, rfft, irfft

from .stable import StableLaw, _rng, unit_sas
from .wavelet import PhiKernel

__all__ = [
    "HurstFunction",
    "constant_hurst",
    "linear_hurst",
    "sine_hurst",
    "hurst_from_id",
    "NoiseGrid",
    "SamplePath",
    "TruncationError",
    "make_noise_grid",
    "eval_field",
    "field_on_mesh",
    "simulate_lmsm",
    "direct_coeff_weights",
    "simulate_coeff_direct",
]


class TruncationError(ValueError):
    """Raised when the certified noise-domain truncation bound exceeds tolerance."""


# ---------------------------------------------------------------------------
# Hurst functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HurstFunction:
    """Time-varying Hurst functional on [0, 1] with declared regularity.

    ``holder_exponent`` and ``holder_constant`` bound |H(t1) - H(t2)| by
    C |t1 - t2|**rho; the estimator theory additionally wants rho > h_high,
    which is checked where those results are invoked, not here.
    """

    evaluator: object
    h_low: float
    h_high: float
    holder_exponent: float
    holder_constant: float
    name: str = "custom"
    params: tuple = ()

    def __call__(self, t):
        return self.evaluator(t)

    @property
    def is_constant(self) -> bool:
        return self.h_low == self.h_high

    def validate(self, alpha: float, n_grid: int = 2001, seed: int = 7) -> None:
        """Check the declared range and Hölder bound on grids; raise on violation."""
        if not (1.0 / alpha < self.h_low <= self.h_high < 1.0):
            raise ValueError(
                f"range [{self.h_low}, {self.h_high}] not inside (1/alpha, 1)"
            )
        t = np.linspace(0.0, 1.0, n_grid)
        h = np.asarray(self.evaluator(t), dtype=float)
        if h.min() < self.h_low - 1e-12 or h.max() > self.h_high + 1e-12:
            raise ValueError("evaluator leaves the declared [h_low, h_high] range")
        rng = np.random.default_rng(seed)
        t1, t2 = rng.random(4096), rng.random(4096)
        lhs = np.abs(
            np.asarray(self.evaluator(t1), float) - np.asarray(self.evaluator(t2), float)
        )
        rhs = self.holder_constant * np.abs(t1 - t2) ** self.holder_exponent
        if np.any(lhs > rhs + 1e-12):
            raise ValueError("declared Hölder bound violated on random pairs")

    def min_over(self, lo: float, hi: float, n: int = 4097) -> float:
        """min H on [lo, hi] by dense-grid minimization."""
        t = np.linspace(max(lo, 0.0), min(hi, 1.0), n)
        return float(np.min(np.asarray(self.evaluator(t), dtype=float)))


def constant_hurst(value: float) -> HurstFunction:
    return HurstFunction(
        evaluator=lambda t: np.full_like(np.asarray(t, dtype=float), value),
        h_low=value,
        h_high=value,
        holder_exponent=1.0,
        holder_constant=0.0,
        name="constant",
        params=(value,),
    )


def linear_hurst(intercept: float, slope: float) -> HurstFunction:
    lo = min(intercept, intercept + slope)
    hi = max(intercept, intercept + slope)
    return HurstFunction(
        evaluator=lambda t: intercept + slope * np.asarray(t, dtype=float),
        h_low=lo,
        h_high=hi,
        holder_exponent=1.0,
        holder_constant=abs(slope) + 1e-15,
        name="linear",
        params=(intercept, slope),
    )


def sine_hurst(center: float, amplitude: float) -> HurstFunction:
    return HurstFunction(
        evaluator=lambda t: center
        + amplitude * np.sin(2.0 * math.pi * np.asarray(t, dtype=float)),
        h_low=center - abs(amplitude),
        h_high=center + abs(amplitude),
        holder_exponent=1.0,
        holder_constant=2.0 * math.pi * abs(amplitude) + 1e-15,
        name="sine",
        params=(center, amplitude),
    )


def hurst_from_id(name: str, params) -> HurstFunction:
    """Rebuild one of the named Hurst functionals from its (name, params) id."""
    builders = {"constant": constant_hurst, "linear": linear_hurst, "sine": sine_hurst}
    if name not in builders:
        raise ValueError(f"unknown hurst id {name!r}; known: {sorted(builders)}")
    return builders[name](*params)


# ---------------------------------------------------------------------------
# Noise grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NoiseGrid:
    """Realized SaS noise increments on a uniform mesh of [t_min, t_max).

    increments[i] is the noise mass of cell [s_i, s_i + delta),
    s_i = t_min + i*delta, with marginal scale law.scale * delta**(1/alpha).
    """

    t_min: float
    t_max: float
    delta: float
    seed: int
    law: StableLaw
    increments: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_cells(self) -> int:
        return self.increments.size

    def left_endpoints(self) -> np.ndarray:
        return self.t_min + self.delta * np.arange(self.n_cells)

    @property
    def origin_index(self) -> int:
        """Index i0 with s_{i0} = 0; the mesh is anchored so this is exact."""
        return int(round(-self.t_min / self.delta))

    def _noise_rfft(self, n_fft: int) -> np.ndarray:
        key = ("zf", n_fft)
        if key not in self._cache:
            self._cache[key] = rfft(self.increments, n_fft)
        return self._cache[key]


def make_noise_grid(
    law: StableLaw, t_min: float, t_max: float, delta: float, seed: int
) -> NoiseGrid:
    """Draw the grid's increments, deterministically in (law, geometry, seed)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if t_min >= 0:
        raise ValueError("t_min must be negative (noise must cover kernel tails)")
    if t_max <= t_min:
        raise ValueError("t_max must exceed t_min")
    n_float = (t_max - t_min) / delta
    n = int(round(n_float))
    if abs(n_float - n) > 1e-9:
        raise ValueError("(t_max - t_min) / delta must be an integer cell count")
    i0 = -t_min / delta
    if abs(i0 - round(i0)) > 1e-9:
        raise ValueError("t_min must be an integer multiple of delta")
    xi = unit_sas(law.alpha, n, _rng(seed))
    increments = law.scale * delta ** (1.0 / law.alpha) * xi
    increments.setflags(write=False)
    return NoiseGrid(
        t_min=float(t_min),
        t_max=float(t_max),
        delta=float(delta),
        seed=int(seed),
        law=law,
        increments=increments,
    )


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------


def _field_tail_bound(u: float, kappa: float, alpha: float, t_min: float) -> float:
    # |(u-s)^k - (-s)^k| <= k*u*(-s)^(k-1) for s <= t_min < 0, so the omitted
    # alpha-mass is at most k^a u^a T^(a(k-1)+1) / (a(1-k) - 1)
    T = -t_min
    p = alpha * (1.0 - kappa) - 1.0
    return (kappa * max(u, 0.0)) ** alpha * T ** (-p) / p


def _kappa(alpha: float, v: float) -> float:
    kappa = v - 1.0 / alpha
    if not 0.0 < kappa < 1.0 or v >= 1.0:
        raise ValueError(f"v must lie in (1/alpha, 1), got {v}")
    return kappa


def _field_kernel(grid: NoiseGrid, u: float, v: float) -> tuple[np.ndarray, float]:
    """Riemann weights of X(u, v) over the grid, and the certified bound on the
    alpha-mass lost below t_min relative to the kernel's total alpha-mass."""
    alpha = grid.law.alpha
    kappa = _kappa(alpha, v)
    s = grid.left_endpoints()
    w = (u - s).clip(min=0.0) ** kappa - (-s).clip(min=0.0) ** kappa
    mass = float(np.sum(np.abs(w) ** alpha) * grid.delta)
    tail = _field_tail_bound(u, kappa, alpha, grid.t_min)
    return w, tail / (mass + tail) if tail > 0.0 else 0.0


def eval_field(grid: NoiseGrid, u: float, v: float, tail_tol: float = 0.05) -> float:
    """X(u, v) as the left-endpoint Riemann sum over the grid.

    Signals (TruncationError) when the certified bound on the alpha-mass lost
    below t_min exceeds ``tail_tol`` of the kernel's total alpha-mass.
    """
    if u < 0 or u > grid.t_max:
        raise ValueError("u must lie in [0, t_max]")
    w, lost = _field_kernel(grid, u, v)
    if lost > tail_tol:
        raise TruncationError(
            f"noise domain too short: relative tail mass {lost:.3e} > {tail_tol}"
        )
    return 0.0 if u == 0.0 else float(w @ grid.increments)


def _mesh_count(grid: NoiseGrid, t_top: float) -> int:
    k = t_top / grid.delta
    ki = int(round(k))
    if abs(k - ki) > 1e-9:
        raise ValueError("t_top must be an integer multiple of delta")
    return ki


def field_on_mesh(
    grid: NoiseGrid, v: float, t_top: float = 1.0, refine: int = 1
) -> np.ndarray:
    """X(m*delta/refine, v) for m = 0..refine*t_top/delta, via FFT convolution.

    Identical (up to float rounding) to calling eval_field at each mesh time.
    ``refine`` samples the discrete-noise field on a mesh finer than the noise
    cells (one convolution per residue class), which is what keeps trapezoid
    coefficient quadrature accurate at deep levels without touching the noise
    resolution.

    The transforms are circular convolutions of length L = next_fast_len(
    n_cells + K), K = t_top/delta, shorter than the full linear convolution
    (n_cells + i0 + K).  The product dz[i] * g[l] lands on index i + l, or on
    i + l - L when that reaches L; since i + l <= (n_cells - 1) + (i0 + K), a
    wrapped term lands below i0, outside the window [i0, i0 + K] that is read.
    Raises ValueError when t_top lies outside [0, t_max].
    """
    kappa = _kappa(grid.law.alpha, v)
    if refine < 1:
        raise ValueError("refine must be >= 1")
    K = _mesh_count(grid, t_top)
    i0 = grid.origin_index
    dz = grid.increments
    if K < 0 or i0 + K > dz.size:
        raise ValueError("t_top must lie in [0, t_max]")
    q = np.arange(i0 + K + 1, dtype=float)
    # wrap-free length (see docstring); the max matters only for t_max = 0,
    # where the one-point window [i0, i0] must still fit below L
    n_fft = next_fast_len(max(dz.size, i0 + 1) + K)
    zf = grid._noise_rfft(n_fft)
    out = np.empty(K * refine + 1)
    b = None
    for rho in range(refine):
        # g[n] = ((n + rho/refine) * delta)_+^kappa; A at t = (q + rho/refine) delta
        g = ((q + rho / refine) * grid.delta) ** kappa
        if rho == 0:
            g[0] = 0.0
            b = float(g[1 : i0 + 1] @ dz[i0 - 1 :: -1]) if i0 > 0 else 0.0
        spec = rfft(g, n_fft)
        spec *= zf
        conv = irfft(spec, n_fft)
        a = conv[i0 : i0 + K + 1]
        if rho == 0:
            out[::refine] = a - b
        else:
            out[rho::refine] = (a - b)[:K]
    out[0] = 0.0  # the u = 0 kernel vanishes identically
    return out


def _cheb_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    # Chebyshev-Lobatto points, ascending
    k = np.arange(n)
    x = np.cos(math.pi * k / (n - 1))
    return lo + (hi - lo) * 0.5 * (1.0 - x)


def _bary_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


class MeshFieldInterpolant:
    """X(t, v) on the (possibly refined) mesh for all v in [h_low, h_high]."""

    def __init__(self, grid: NoiseGrid, h_low: float, h_high: float,
                 t_top: float = 1.0, n_nodes: int = 48, refine: int = 1):
        self.grid = grid
        self.h_low, self.h_high = h_low, h_high
        self.refine = int(refine)
        self.t_step = grid.delta / self.refine
        pinned = h_high - h_low < 1e-13  # constant H: one node, no interpolation
        self.nodes = np.array([h_low]) if pinned else _cheb_nodes(h_low, h_high, n_nodes)
        self.weights = np.array([1.0]) if pinned else _bary_weights(n_nodes)
        self.values = np.stack([field_on_mesh(grid, v, t_top, self.refine)
                                for v in self.nodes])

    def at(self, v, start: int = 0, stop: int | None = None) -> np.ndarray:
        """X(m*t_step, v) on mesh indices [start, stop), for one v or one v per index."""
        return self.combine(v, self.values[:, start:stop])

    def combine(self, v, vals: np.ndarray) -> np.ndarray:
        """Barycentric combination at v of per-node rows ``vals`` (node axis
        first), e.g. of any linear functional of the node fields.  Raises
        ValueError for v outside [h_low, h_high]: it never extrapolates."""
        v = np.asarray(v, dtype=float)
        if np.any((v < self.h_low - 1e-12) | (v > self.h_high + 1e-12)):
            raise ValueError(f"v outside the interpolant's [{self.h_low}, {self.h_high}]")
        if self.nodes.size == 1:
            return vals[0].copy()
        # node axis first: one coefficient per node for a single v, else a row
        col = (-1,) + (1,) * v.ndim
        diff = v - self.nodes.reshape(col)
        exact = np.isclose(diff, 0.0, atol=1e-15)
        diff = np.where(exact, 1.0, diff)
        coef = self.weights.reshape(col) / diff
        # barycentric sums accumulated node by node
        num, den = coef[0] * vals[0], coef[0]
        for c, row in zip(coef[1:], vals[1:]):
            num += c * row
            den = den + c
        out = num / den
        hit = exact.any(axis=0)
        if np.any(hit):
            node = exact.argmax(axis=0)
            if v.ndim == 0:
                return vals[node].copy()
            out[hit] = vals[node[hit], np.flatnonzero(hit)]
        return out


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Realized path on increasing times in [0, 1] with provenance metadata."""

    times: np.ndarray
    values: np.ndarray
    provenance: dict

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")

    def to_csv(self, fname) -> None:
        with open(fname, "w") as fh:
            for k, v in self.provenance.items():
                fh.write(f"# {k}: {v}\n")
            fh.write("t,Y\n")
            for t, y in zip(self.times, self.values):
                fh.write(f"{float(t)!r},{float(y)!r}\n")


def sample_path_from_csv(fname) -> SamplePath:
    prov = {}
    times, values = [], []
    with open(fname) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                prov[key.strip()] = val.strip()
            elif line and not line.startswith("t,"):
                a, b = line.split(",")
                times.append(float(a))
                values.append(float(b))
    return SamplePath(np.array(times), np.array(values), prov)


def path_truncation_audit(grid: NoiseGrid, u: float, v: float) -> float:
    """Relative alpha-mass of the field kernel lost below t_min, worst case."""
    return _field_kernel(grid, u, v)[1]


def simulate_lmsm(
    grid: NoiseGrid,
    times,
    H: HurstFunction,
    n_nodes: int = 48,
    interpolant: MeshFieldInterpolant | None = None,
    tail_tol: float = 0.25,
    refine: int = 1,
) -> SamplePath:
    """Y(t) = X(t, H(t)) pathwise on the shared grid.

    Mesh-aligned times use the FFT route (with v-interpolation when H varies);
    off-mesh times fall back to direct Riemann sums per point.

    ``tail_tol`` bounds the relative alpha-mass the noise-domain truncation
    may cost raw path values; wavelet coefficients are far less sensitive
    (their kernel decays two orders faster) and recertify their own windows.
    A given ``interpolant`` must be built on ``grid`` and cover H's range;
    otherwise ValueError.
    """
    times = np.asarray(times, dtype=float)
    if times.size and (times.min() < 0.0 or times.max() > 1.0):
        raise ValueError("times must lie in [0, 1]")
    if interpolant is not None and interpolant.grid is not grid:
        raise ValueError("the interpolant was built on another noise grid")
    H.validate(grid.law.alpha)
    h_t = np.asarray(H(times), dtype=float)
    t_step = interpolant.t_step if interpolant is not None else grid.delta / refine
    mesh_idx = times / t_step
    on_mesh = np.allclose(mesh_idx, np.round(mesh_idx), atol=1e-9)
    if times.size:
        worst = path_truncation_audit(grid, float(times.max()), H.h_high)
        if worst > tail_tol:
            raise TruncationError(
                f"noise domain too short for raw path values: "
                f"relative tail mass {worst:.3e} > {tail_tol}"
            )
    if on_mesh and times.size > 8:
        t_top = float(np.ceil(np.round(times.max() / t_step) * t_step / grid.delta - 1e-9)
                      ) * grid.delta
        interp = interpolant or MeshFieldInterpolant(
            grid, H.h_low, H.h_high, t_top=max(t_top, grid.delta),
            n_nodes=n_nodes, refine=refine,
        )
        idx = np.round(mesh_idx).astype(int)
        h_mesh = np.asarray(
            H(np.arange(interp.values.shape[1]) * interp.t_step), dtype=float
        )
        values = interp.at(h_mesh)[idx]
    else:
        values = np.array(
            [eval_field(grid, float(t), float(h), tail_tol=tail_tol)
             for t, h in zip(times, h_t)]
        )
    values = values.copy()
    values[times == 0.0] = 0.0
    provenance = {
        "kind": "lmsm",
        "alpha": grid.law.alpha,
        "scale": grid.law.scale,
        "hurst": f"{H.name}{H.params}",
        "t_min": grid.t_min,
        "delta": grid.delta,
        "seed": grid.seed,
    }
    return SamplePath(times=times, values=values, provenance=provenance)


# ---------------------------------------------------------------------------
# Direct (frozen-Hurst) wavelet coefficients
# ---------------------------------------------------------------------------


def direct_coeff_weights(
    t_min: float,
    delta: float,
    phi: PhiKernel,
    j: int,
    k: int,
    h_value: float,
    tail_tol: float = 1e-6,
) -> tuple[int, np.ndarray]:
    """Riemann weights of the stable-integral representation of d~_{j,k}.

    Returns (i_start, w) so that d~ = w @ increments[i_start:i_start+len(w)]
    for any grid with this geometry.  The window is the smallest one whose
    certified tail alpha-mass is below ``tail_tol`` of the kernel mass.
    """
    alpha = phi.alpha
    norm_a = phi.lalpha_norm(h_value) ** alpha
    s_cut = 4.0
    while phi.tail_alpha_mass(s_cut, h_value) > tail_tol * norm_a:
        s_cut *= 2.0
        if s_cut > 2.0**40:
            raise TruncationError("cannot certify direct-coefficient window")
    # scaled coordinate u = 2^j s - k runs over [-s_cut, 1]
    s_lo = (k - s_cut) * 2.0**-j
    s_hi = (k + 1.0) * 2.0**-j
    if s_lo < t_min:
        raise TruncationError(
            f"grid starts at {t_min} but the certified window needs {s_lo:.3f}"
        )
    i_start = int(math.ceil((s_lo - t_min) / delta - 1e-9))
    i_stop = int(math.floor((s_hi - t_min) / delta + 1e-9))
    i = np.arange(i_start, i_stop)
    u = 2.0**j * (t_min + i * delta) - k
    w = phi.phi(u, h_value) * 2.0 ** (-j * (h_value - 1.0 / alpha))
    return i_start, w


def simulate_coeff_direct(
    grid: NoiseGrid, phi: PhiKernel, j: int, k: int, H: HurstFunction,
    tail_tol: float = 1e-6,
) -> float:
    """d~_{j,k} = 2^{-j(H_k - 1/alpha)} int Phi(2^j s - k, H_k) dZ(s), H_k = H(k 2^-j)."""
    if not (0.0 <= k * 2.0**-j and (k + 1) * 2.0**-j <= 1.0):
        raise ValueError("dyadic cell must lie inside [0, 1]")
    if phi.alpha != grid.law.alpha:
        raise ValueError("kernel and grid alpha differ")
    h_k = float(np.asarray(H(k * 2.0**-j), dtype=float))
    i_start, w = direct_coeff_weights(
        grid.t_min, grid.delta, phi, j, k, h_k, tail_tol=tail_tol
    )
    seg = grid.increments[i_start : i_start + w.size]
    if seg.size != w.size:
        raise TruncationError("grid does not cover the coefficient support window")
    return float(w @ seg)
