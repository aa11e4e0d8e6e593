"""Shared-noise simulation of the stable field, the motion, and direct coefficients.

One replicate means one realized noise grid; every field value, sample path
and wavelet coefficient inside that replicate is a linear functional of the
same increments.  The discretization is the left-endpoint Riemann sum of the
defining stochastic integrals: cell i carries an independent SaS increment of
scale delta**(1/alpha), so discrete integrals inherit the continuous scale
contract ||sum f(s_i) dZ_i||_alpha**alpha = sum |f(s_i)|**alpha * delta.

A path is built one way: ``make_noise_grid``, then a ``MeshFieldInterpolant``
of X(t, v) on the delta/refine mesh of [0, 1] for v across H's range, then
``simulate_lmsm``, which reads Y(t) = X(t, H(t)) off that whole mesh.  The
``SamplePath`` it returns holds that interpolant and H beside the values, so
whatever reads the path also knows its mesh step, its noise and its H.

The path comes from one field pass (``field_on_mesh``) over the interpolant's
v-nodes that streams the node rows: each consumer takes every row as soon as
its inverse transform is done and keeps only what its linear functional needs.
The path keeps its barycentric sums, and the frozen-Hurst levels of
``coeffs.FrozenLevels`` keep 2^j numbers per node and level.  No node row
outlives the pass.  The far part of the rows reaches the consumers as
power-series coefficients, which each consumer applies through its own
functional.

``field_on_mesh`` evaluates X(., v) on the mesh of [0, 1] and splits the noise
at s = -1.  The near cells [-1, 1) go through FFT convolution, which computes
the very same Riemann sums: for fixed v the map t -> sum (t - s_i)_+**kappa
dZ_i is a discrete convolution.  Only the outputs at t in [0, 1] are read, so
each transform has length n_near + 1/delta (rounded up to a fast size) instead
of the full linear-convolution length: every product that wraps around the
circular convolution lands before t = 0, outside the window that is read.  The
far cells s_i < -1 add a function of t that is analytic on a disc of radius 1
around 0, summed as a binomial-moment power series around 1/2 whose ratio is
below 1/3; a certified remainder bound fixes the number of terms (see
``field_on_mesh``).  One pass serves a whole batch of v: the noise is
transformed once, the kernel values share one log t, each v's residue rows are
transformed in blocks of up to four, and the far series of every v comes from
one pass over the far noise, with the batch's largest certified term count.  A
block's kernel half (its kernel values and their transform) needs no noise, so
on a thread budget of two or more, shared with the noise sampler (see
``stable``), it runs one block ahead on a helper thread while the caller
convolves the block before it with the noise; the rows are bitwise the same
on every budget.  Time-varying Hurst values are then obtained by barycentric
interpolation across a Chebyshev grid of v-nodes; the field is analytic in v,
so a few dozen nodes reach near machine precision.  The path's far part is the
series whose coefficients are the barycentric combination of the nodes'
coefficients at H(t), taken one block of 16,384 mesh points at a time.
``eval_field`` is the direct Riemann sum at one point, the reference the mesh
route is tested against.
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from . import stable
from .stable import StableLaw, _rng, serial_matmul, unit_sas
from .wavelet import PhiKernel, _binom_coeffs, _kappa, _poly_eval

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

    def frozen(self, j: int, k) -> np.ndarray:
        """H_k = H(k 2^-j), the level a dyadic cell (j, k) is frozen at, for
        one shift or an array of shifts."""
        return np.asarray(self(np.asarray(k) * 2.0**-j), dtype=float)

    @property
    def is_constant(self) -> bool:
        return self.h_low == self.h_high

    def validate(self, alpha: float) -> None:
        """Check the declared range on 2001 grid points and the Hölder bound on
        4096 random pairs; raise on violation."""
        if not (1.0 / alpha < self.h_low <= self.h_high < 1.0):
            raise ValueError(
                f"range [{self.h_low}, {self.h_high}] not inside (1/alpha, 1)"
            )
        t = np.linspace(0.0, 1.0, 2001)
        h = np.asarray(self.evaluator(t), dtype=float)
        if h.min() < self.h_low - 1e-12 or h.max() > self.h_high + 1e-12:
            raise ValueError("evaluator leaves the declared [h_low, h_high] range")
        rng = np.random.default_rng(7)
        t1, t2 = rng.random(4096), rng.random(4096)
        lhs = np.abs(
            np.asarray(self.evaluator(t1), float) - np.asarray(self.evaluator(t2), float)
        )
        rhs = self.holder_constant * np.abs(t1 - t2) ** self.holder_exponent
        if np.any(lhs > rhs + 1e-12):
            raise ValueError("declared Hölder bound violated on random pairs")

    def min_over(self, lo: float, hi: float) -> float:
        """min H on [lo, hi] by minimization over 4097 grid points."""
        t = np.linspace(max(lo, 0.0), min(hi, 1.0), 4097)
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
    n_params = builders[name].__code__.co_argcount
    if len(params) != n_params:
        raise ValueError(f"hurst_params for {name!r} must hold {n_params} values, "
                         f"got {len(params)}")
    return builders[name](*params)


# ---------------------------------------------------------------------------
# Noise grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NoiseGrid:
    """Realized SaS noise increments on a uniform mesh of [t_min, 1).

    increments[i] is the noise mass of cell [s_i, s_i + delta),
    s_i = t_min + i*delta, with marginal scale law.scale * delta**(1/alpha).
    """

    t_min: float
    delta: float
    seed: int
    law: StableLaw
    increments: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.increments.size

    def left_endpoints(self) -> np.ndarray:
        return self.t_min + self.delta * np.arange(self.n_cells)

    @property
    def origin_index(self) -> int:
        """Index i0 with s_{i0} = 0; the mesh is anchored so this is exact."""
        return int(round(-self.t_min / self.delta))


def noise_cell_count(t_min: float, delta: float) -> int:
    """The number of delta-cells that tile [t_min, 1); ValueError unless they do."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if t_min >= 0:
        raise ValueError("t_min must be negative (noise must cover kernel tails)")
    n_float = (1.0 - t_min) / delta
    n = int(round(n_float))
    if abs(n_float - n) > 1e-9:
        raise ValueError("(1 - t_min) / delta must be an integer cell count")
    i0 = -t_min / delta
    if abs(i0 - round(i0)) > 1e-9:
        raise ValueError("t_min must be an integer multiple of delta")
    return n


def make_noise_grid(law: StableLaw, t_min: float, delta: float, seed: int) -> NoiseGrid:
    """Draw the increments of the cells of [t_min, 1), deterministically in
    (law, geometry, seed)."""
    xi = unit_sas(law.alpha, noise_cell_count(t_min, delta), _rng(seed))
    increments = law.scale * delta ** (1.0 / law.alpha) * xi
    increments.setflags(write=False)
    return NoiseGrid(
        t_min=float(t_min),
        delta=float(delta),
        seed=int(seed),
        law=law,
        increments=increments,
    )


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------


def path_truncation_audit(alpha: float, t_min: float, delta: float, u: float, v: float) -> float:
    """Certified upper bound on the share of the alpha-mass of X(u, v)'s
    kernel that lies below t_min, for noise in delta-cells of [t_min, 1):
    tail / (m + tail).  It reads the geometry only, never the noise.

    ``tail`` bounds the lost mass: |(u-s)^k - (-s)^k| <= k u (-s)^(k-1) for
    s <= t_min < 0, so it is at most (k u)^a T^-p / p, T = -t_min and
    p = a(1 - k) - 1 > 0.  ``m`` bounds the kernel's alpha-mass over the
    grid's cells from below in closed form.  On [0, u) the kernel is
    (u - s)^k, decreasing in s, so its left-endpoint sum is at least its
    integral u^(a k + 1) / (a k + 1).  On [t_min, 0) the mean value theorem
    gives |(u-s)^k - (-s)^k| >= k u (u - s)^(k-1), whose a-th power increases
    in s, so its left-endpoint sum is at least its integral over
    [t_min - delta, -delta].
    """
    kappa = _kappa(alpha, v)
    if u <= 0.0:
        return 0.0
    p = alpha * (1.0 - kappa) - 1.0
    tail = (kappa * u) ** alpha * (-t_min) ** -p / p
    near = u ** (alpha * kappa + 1.0) / (alpha * kappa + 1.0)
    left = (kappa * u) ** alpha * ((u + delta) ** -p - (u - t_min + delta) ** -p) / p
    return tail / (near + left + tail)


def eval_field(grid: NoiseGrid, u: float, v: float, tail_tol: float = 0.05) -> float:
    """X(u, v) as the left-endpoint Riemann sum over the grid.

    Signals (TruncationError) when ``path_truncation_audit`` bounds the
    alpha-mass lost below t_min above ``tail_tol`` of the kernel's total.
    """
    if u < 0 or u > 1.0:
        raise ValueError("u must lie in [0, 1]")
    lost = path_truncation_audit(grid.law.alpha, grid.t_min, grid.delta, u, v)
    if lost > tail_tol:
        raise TruncationError(
            f"noise domain too short: relative tail mass {lost:.3e} > {tail_tol}"
        )
    if u == 0.0:
        return 0.0
    kappa = _kappa(grid.law.alpha, v)
    s = grid.left_endpoints()
    w = (u - s).clip(min=0.0) ** kappa - (-s).clip(min=0.0) ** kappa
    return float(w @ grid.increments)


# field_on_mesh's near/far split: the noise on [-_NEAR_SPAN, 1) goes through
# the FFT, the rest through the far series (the trade-off is in its
# docstring); a whole number, so the split is a cell boundary for every delta
_NEAR_SPAN = 1
# the far series is a power series in h = t - _FAR_CENTER
_FAR_CENTER = 0.5
# points per block wherever a pass over the far cells or the mesh goes block
# by block to bound its temporaries
_CHUNK = 16384
# residue rows per kernel transform in the field pass (see field_on_mesh)
_BLOCK = 4


def _fast_len(n: int) -> int:
    """The smallest 2^k or 3 * 2^k that is >= n: pocketfft's fastest radices.
    The field pass asks for n_near + 1/delta = 3/delta whenever the noise
    reaches s = -1, which is a fast length itself when 1/delta is a power of
    two; any other length grows by less than a factor 1.5."""
    p = 1 << (n - 1).bit_length()  # the smallest power of two >= n
    return 3 * p // 4 if 3 * p >= 4 * n else p


def _far_series_terms(kappa: float, ratio: float) -> int:
    """Fewest terms N whose certified remainder (``_far_remainder``) is at most
    the unit roundoff 2^-53: below the rounding the moment sums carry anyway."""
    n = 1
    while _far_remainder(kappa, ratio, n) > 2.0**-53:
        n += 1
    return n


def _far_remainder(kappa: float, ratio: float, n_terms: int) -> float:
    # |binom(k, n)| <= k/n and |h|/(x_i + c) <= ratio < 1, so the terms past
    # n_terms sum to at most k/(N+1) * ratio^(N+1)/(1 - ratio) times
    # S = sum_far (x_i + c)^k |dZ_i|; coefficient 0 is the same expansion at
    # h = -c (see ``_far_coeffs``), whose truncation adds that bound once more
    return 2.0 * kappa / (n_terms + 1) * ratio ** (n_terms + 1) / (1.0 - ratio)


def _far_coeffs(
    x: np.ndarray, dz: np.ndarray, kappa, c: float, n_terms: int
) -> np.ndarray:
    """Power-series coefficients in h of sum_i [(x_i + c + h)^kappa - x_i^kappa] dZ_i,
    one row per entry of a 1-D ``kappa`` (one 1-D row for a scalar).

    With y = x + c, (y + h)^k = sum_n binom(k, n) h^n y^(k-n), so coefficient
    n >= 1 is binom(k, n) M_n, M_n = sum y_i^(k-n) dZ_i.  Coefficient 0,
    sum [y_i^k - x_i^k] dZ_i, is the rest of the same expansion at h = -c,
    where y_i + h = x_i: minus sum_{n>=1} binom(k, n) (-c)^n M_n, so no power
    of x is taken and the series vanishes at t = 0, as the far part does.
    One chunked pass serves every kappa and shares log y: the moments are
    E @ P with E[k, i] = y_i^k and P[i, n] = dZ_i y_i^-n."""
    kap = np.atleast_1d(np.asarray(kappa, dtype=float))[:, None]
    mom = np.zeros((kap.size, n_terms))
    for lo in range(0, x.size, _CHUNK):
        y = x[lo : lo + _CHUNK] + c
        e = np.exp(kap * np.log(y))
        y_inv = 1.0 / y
        p = np.empty((n_terms, y.size))
        p[0] = dz[lo : lo + _CHUNK] * y_inv
        for n in range(1, n_terms):
            np.multiply(p[n - 1], y_inv, out=p[n])
        mom += e @ p.T
    coef = np.array([_binom_coeffs(k, n_terms) for k in kap[:, 0]])
    coef[:, 1:] *= mom
    coef[:, 0] = -(coef[:, 1:] @ (-c) ** np.arange(1, n_terms + 1))
    return coef if np.ndim(kappa) else coef[0]


def _mesh_size(grid: NoiseGrid, refine: int) -> int:
    """Points of the delta/refine mesh of [0, 1]: refine per cell of [0, 1), plus t = 1."""
    return (grid.n_cells - grid.origin_index) * refine + 1


def field_on_mesh(grid: NoiseGrid, v, refine: int = 1, *consumers):
    """X(m*delta/refine, v) for m = 0..refine/delta: the mesh of [0, 1].

    ``v`` is one Hurst value or a 1-D array of them.  This is the one field
    pass.  With no ``consumers`` it returns the rows, a 1-D row for a scalar v
    and otherwise one row per v in one array.  With consumers it keeps no row
    and returns None: each consumer applies its own linear functional to every
    row as the pass produces it.  A row is its far part plus its near part.
    The far parts come first, as ``consumer.far(coef, h)``: row i's far part
    at mesh point m is the power series sum_n coef[i, n] h[m]^n, h = t - 1/2.
    Then ``consumer.row(i, near)`` hands over row i's near part, in a buffer
    the next row overwrites.  At t = 0 every row is 0: near[0] is 0, and a
    consumer takes the far part there as 0.  The rows are identical (up to
    float rounding) to calling eval_field at each mesh time.  ``refine``
    samples the discrete-noise field on a mesh finer than the noise cells (one
    convolution per residue class), which is what keeps trapezoid coefficient
    quadrature accurate at deep levels without touching the noise resolution.

    The noise is split at s = -1 (``_NEAR_SPAN``).  Near cells [-1, 1) go
    through FFT convolution.  Its circular transforms have length L =
    _fast_len(n_near + K), K = 1/delta, which is 3K, unpadded, when the noise
    reaches s = -1 and K is a power of two.  The near window's origin is i0 =
    min(K, index of s = 0): the product dz[i] * g[l] lands on index i + l, or
    on i + l - L when that reaches L; since i + l <= (n_near - 1) + (i0 + K),
    a wrapped term lands below i0, outside the window [i0, i0 + K] that is
    read.  The noise is transformed once per pass, and the kernel
    values g = t^kappa at the refine residues share one log t.  Each v's
    residue rows go in blocks of min(4, refine) rows (``_BLOCK``), one
    ``numpy.fft`` call per block and stage, each on the thread that makes
    it.  Stage 1 is the kernel half: the block's kernel values, their
    forward transform and, on the node's first block, the kernel's second
    term over the near cells, b = sum_{s_i < 0} (-s_i)^kappa dZ_i.  Stage 2
    multiplies by the noise spectrum, inverts, and copies the block's
    residues into the node's mesh row; after the node's last block it
    subtracts b and hands the row on.  On a thread budget
    (``stable._threads``) of two or more, stage 1 of the next block runs on
    one helper thread, started for the pass, while the caller runs stage 2;
    on a budget of 1 (a worker of ``run_experiment``'s pool) the blocks run
    in turn on the caller.  So a pass holds four transform
    buffers of min(4, refine) rows (kernel values, the next spectrum, the
    current spectrum and the convolution), and every row gets the same
    arithmetic in the same order on every budget: the rows are bitwise
    identical for any budget.  Four rows, because one thread transforms four
    rows per call about as fast per row as eight, and two rows much slower:
    on a 2-core machine a forward and an inverse transform of eight rows of
    3 * 2^16 points took 52 ms as one call each, 57 ms as two 4-row calls
    and 77 ms as four 2-row calls.  Far cells s_i < -1, x_i = -s_i > 1, add
    sum_i [(x_i + t)^kappa - x_i^kappa] dZ_i, a power series in h = t - c,
    c = 1/2, whose ratio |h|/(x_i + c) is at most r = c/(min x_i + c) < 1/3.
    With |binom(kappa, n)| <= kappa/n the remainder after N terms is at most
    2 kappa/(N+1) * r^(N+1)/(1 - r) * sum_far (x_i + c)^kappa |dZ_i| (the
    factor 2 is coefficient 0's own truncation, see ``_far_coeffs``).  N is
    the fewest terms that put this factor below 2^-53 for every v of the
    pass (the largest over the batch), so each row's own bound holds.  The
    split sits at -1 because, of the splits from -2 to -1/4 timed on the
    criterion-8 geometry (2-core machine), it built one node fastest and
    16 nodes within a tenth of the fastest (-1/2, whose shorter transforms
    cost a longer far series).
    """
    vs = np.asarray(v, dtype=float)
    if vs.ndim > 1 or vs.size == 0:
        raise ValueError("v must be a scalar or a non-empty 1-D array")
    kappa = np.array([_kappa(grid.law.alpha, x) for x in vs.reshape(-1)])
    if refine < 1:
        raise ValueError("refine must be >= 1")
    if consumers:
        _field_pass(grid, kappa, refine, consumers)
        return None
    rows = _Rows(kappa.size, _mesh_size(grid, refine))
    _field_pass(grid, kappa, refine, (rows,))
    return rows.out if vs.ndim else rows.out[0]


def _field_pass(grid: NoiseGrid, kappa: np.ndarray, refine: int, consumers) -> None:
    # the pass behind field_on_mesh (see there): far parts, then near rows
    i_origin = grid.origin_index
    K = grid.n_cells - i_origin  # cells of [0, 1): 1/delta >= 1
    i_near = max(i_origin - _NEAR_SPAN * K, 0)  # first near cell, s >= -1
    if i_near > 0:
        _far_part(grid, kappa, refine, i_near, consumers)
    i0 = i_origin - i_near
    dz = grid.increments[i_near:]
    n_fft = _fast_len(dz.size + K)  # wrap-free length (see field_on_mesh)
    zf = rfft(dz, n_fft)
    # row rho: log t at t = (q + rho/refine) delta; log 0 = -inf makes the
    # kernel value at t = 0 exactly 0
    with np.errstate(divide="ignore"):
        log_t = np.log((np.arange(i0 + K + 1) + np.arange(refine)[:, None] / refine)
                       * grid.delta)
    rows = min(_BLOCK, refine)
    g = np.zeros((rows, n_fft))  # the zero tail pads each transform
    # a block is one node i and its residue rows lo..hi-1
    blocks = [(i, lo, min(lo + rows, refine))
              for i in range(kappa.size) for lo in range(0, refine, rows)]

    def kernel_spectrum(block):
        # stage 1, the kernel half: the block's kernel values, the node's b
        # on its first block, and their transform
        i, lo, hi = block
        gk = g[: hi - lo, : log_t.shape[1]]
        np.exp(np.multiply(log_t[lo:hi], kappa[i], out=gk), out=gk)
        b = float(gk[0, 1 : i0 + 1] @ dz[i0 - 1 :: -1]) if lo == 0 and i0 > 0 else 0.0
        return rfft(g[: hi - lo], n_fft, axis=-1), b

    near = np.empty(K * refine + 1)
    mesh = near[:-1].reshape(K, refine)  # mesh index q*refine + rho is mesh[q, rho]
    with _one_ahead(kernel_spectrum, blocks) as spectra:
        for (i, lo, hi), (spec, b_block) in zip(blocks, spectra):
            # stage 2, with the noise: residue rho's row of the mesh is column
            # i0 + q of the convolution's row rho - lo
            spec *= zf
            conv = irfft(spec, n_fft, axis=-1)
            del spec  # on a budget of 1, freed before the next block's spectrum
            mesh[:, lo:hi] = conv[:, i0 : i0 + K].T
            if lo == 0:
                b = b_block
                near[-1] = conv[0, i0 + K]
            del conv
            if hi < refine:
                continue
            near -= b
            near[0] = 0.0  # the u = 0 kernel vanishes identically
            for consumer in consumers:
                consumer.row(i, near)


@contextlib.contextmanager
def _one_ahead(fn, items: list):
    """An iterator over fn(item) for the items in order.  With a thread budget
    (``stable._threads``) of 2 or more and two or more items, fn(items[n + 1])
    runs on one helper thread, started here, while the caller works on
    fn(items[n]); leaving the block, also on an error, waits for the helper
    to end.  Otherwise each fn(item) runs on the caller when the iterator
    reaches it."""
    if stable._threads < 2 or len(items) < 2:
        yield map(fn, items)
        return
    with ThreadPoolExecutor(1) as helper:

        def results():
            ahead = helper.submit(fn, items[0])
            for item in items[1:]:
                # the caller asks for a result once done with the last one,
                # so the last one is let go before the helper starts anew
                out = ahead.result()
                ahead = helper.submit(fn, item)
                yield out
            yield ahead.result()

        yield results()


def _far_part(grid: NoiseGrid, kappa: np.ndarray, refine: int, i_near: int, consumers) -> None:
    # the far cells' series coefficients, handed to every consumer with the
    # mesh's h; a function of its own, so x and h are gone before the transforms
    x = (grid.origin_index - np.arange(i_near, dtype=float)) * grid.delta
    ratio = _FAR_CENTER / (x[-1] + _FAR_CENTER)  # x[-1] = (K + 1) delta, the nearest far cell
    n_terms = max(_far_series_terms(k, ratio) for k in kappa)
    coef = _far_coeffs(x, grid.increments[:i_near], kappa, _FAR_CENTER, n_terms)
    h = np.arange(_mesh_size(grid, refine)) * (grid.delta / refine) - _FAR_CENTER
    for consumer in consumers:
        consumer.far(coef, h)


class _Rows:
    """The field rows themselves: ``field_on_mesh``'s result without consumers."""

    def __init__(self, n_rows: int, size: int):
        self.out = np.zeros((n_rows, size))

    def far(self, coef: np.ndarray, h: np.ndarray) -> None:
        for lo in range(0, h.size, _CHUNK):
            self.out[:, lo : lo + _CHUNK] += _poly_eval(coef.T[:, :, None], h[lo : lo + _CHUNK])
        self.out[:, 0] = 0.0

    def row(self, i: int, near: np.ndarray) -> None:
        self.out[i] += near


def _node_hits(nodes: np.ndarray, v: np.ndarray) -> dict:
    """{node: indices of the 1-D v within 1e-15 of it}, each index under the
    first such node.  ``nodes`` ascend, so a v near a node is next to its
    searchsorted slot: one search over v, then the exact test on the few
    candidates."""
    pos = np.searchsorted(nodes, v)
    gap = np.abs(v - nodes[np.maximum(pos - 1, 0)])
    np.minimum(gap, np.abs(v - nodes[np.minimum(pos, nodes.size - 1)]), out=gap)
    cand = np.flatnonzero(gap <= 1e-15)
    first = (np.abs(v[cand] - nodes[:, None]) <= 1e-15).argmax(axis=0)
    return {int(i): cand[first == i] for i in np.unique(first)}


class _Barycentric:
    """Barycentric sums over node rows fed one at a time: the value at v is
    sum_i c_i X_i / sum_i c_i, c_i = w_i / (v - node_i).

    ``far`` adds the far part of a field pass from its series coefficients:
    node i's far part is sum_n coef[i, n] h^n, so its share of the numerator
    is the series with coefficients sum_i c_i coef[i, n], a matrix product
    per block of v that BLAS runs on the calling thread
    (``stable.serial_matmul``).  ``row`` adds a node's row: a subtraction, a
    division and two accumulations per node.
    Exact node hits, v within 1e-15 of a node, are found once; ``result``
    gives them that node's row (the first such node's), whatever the sums
    hold there.  With one node (a constant H) every value H takes is a
    hit."""

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, v: np.ndarray, shape):
        self.nodes, self.weights = nodes, weights
        self.v = np.broadcast_to(v, shape)
        self.hits = _node_hits(nodes, self.v)
        self.hit_rows = {i: np.zeros(idx.size) for i, idx in self.hits.items()}
        self.num, self.den, self.c = np.zeros(shape), np.zeros(shape), np.empty(shape)

    def far(self, coef: np.ndarray, h: np.ndarray) -> None:
        for lo in range(0, h.size, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            # a hit's infinite c makes nan here, which result() overwrites
            with np.errstate(divide="ignore", invalid="ignore"):
                c = self.weights[:, None] / (self.v[part] - self.nodes[:, None])
                self.num[part] += _poly_eval(serial_matmul(coef.T, c), h[part])
        for i, idx in self.hits.items():
            self.hit_rows[i] += _poly_eval(coef[i][:, None], h[idx])

    def row(self, i: int, near: np.ndarray) -> None:
        c = self.c
        with np.errstate(divide="ignore", invalid="ignore"):  # hits, as in far()
            np.subtract(self.v, self.nodes[i], out=c)
            np.divide(self.weights[i], c, out=c)
            self.den += c
            c *= near
            self.num += c
        if i in self.hits:
            self.hit_rows[i] += near[self.hits[i]]

    def result(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.divide(self.num, self.den, out=self.num)
        for i, idx in self.hits.items():
            out[idx] = self.hit_rows[i]
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
    """Chebyshev interpolation in v of X(m*t_step, v), t_step = delta/refine,
    on the whole mesh of [0, 1], for v in [h_low, h_high].

    It holds its nodes and barycentric weights, never the node rows: ``at``
    runs one field pass over the nodes and folds each row into barycentric
    sums as the pass produces it, so a replicate holds a few mesh-length
    arrays instead of one per node."""

    def __init__(self, grid: NoiseGrid, h_low: float, h_high: float,
                 n_nodes: int = 48, refine: int = 1):
        self.grid = grid
        self.h_low, self.h_high = h_low, h_high
        self.refine = int(refine)
        self.t_step = grid.delta / self.refine
        self.size = _mesh_size(grid, self.refine)
        pinned = h_high - h_low < 1e-13  # constant H: one node, no interpolation
        if not pinned and n_nodes < 2:
            raise ValueError(f"interpolating over [{h_low}, {h_high}] needs n_nodes >= 2")
        self.nodes = np.array([h_low]) if pinned else _cheb_nodes(h_low, h_high, n_nodes)
        self.weights = np.array([1.0]) if pinned else _bary_weights(n_nodes)

    def _inside(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if np.any((v < self.h_low - 1e-12) | (v > self.h_high + 1e-12)):
            raise ValueError(f"v outside the interpolant's [{self.h_low}, {self.h_high}]")
        return v

    def at(self, v, *consumers) -> np.ndarray:
        """X(m*t_step, v) on the whole mesh, for one v or one v per mesh index,
        from one field pass (``field_on_mesh``) whose node rows also go to
        ``consumers``; X(0, v) = 0.  Raises ValueError for v outside
        [h_low, h_high]: it never extrapolates."""
        v = self._inside(v)
        sums = _Barycentric(self.nodes, self.weights, v, (self.size,))
        field_on_mesh(self.grid, self.nodes, self.refine, sums, *consumers)
        out = sums.result()
        out[0] = 0.0  # the u = 0 kernel vanishes identically
        return out

    def combine(self, v, vals: np.ndarray) -> np.ndarray:
        """Barycentric combination at v (one v, or one per entry) of per-node
        1-D rows ``vals`` (node axis first), e.g. of any linear functional of
        the node fields.  Raises ValueError for v outside [h_low, h_high]."""
        v = self._inside(v)
        sums = _Barycentric(self.nodes, self.weights, v, vals.shape[1:])
        for i, row in enumerate(vals):
            sums.row(i, row)
        return sums.result()


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Y(t) = X(t, H(t)) on the mesh t = m * field.t_step of [0, 1], with the
    field interpolant and the Hurst functional that made it.  The values are
    the only mesh-length array a path keeps: the interpolant holds no node
    rows."""

    field: MeshFieldInterpolant
    H: HurstFunction
    values: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size) * self.field.t_step

    def to_csv(self, fname) -> None:
        """One ``t,Y`` row per mesh time, under a header naming the noise and H."""
        grid = self.field.grid
        header = {"kind": "lmsm", "alpha": grid.law.alpha, "scale": grid.law.scale,
                  "hurst": f"{self.H.name}{self.H.params}", "t_min": grid.t_min,
                  "delta": grid.delta, "seed": grid.seed}
        with open(fname, "w") as fh:
            for k, v in header.items():
                fh.write(f"# {k}: {v}\n")
            fh.write("t,Y\n")
            for t, y in zip(self.times, self.values):
                fh.write(f"{float(t)!r},{float(y)!r}\n")


# the relative alpha-mass the noise-domain truncation may cost raw path
# values; wavelet coefficients are far less sensitive (their kernel decays two
# orders faster) and recertify their own windows
_PATH_TAIL_TOL = 0.25


def check_path_domain(alpha: float, t_min: float, delta: float, h_high: float) -> None:
    """Raise TruncationError when the noise domain [t_min, 1) costs raw path
    values more than ``_PATH_TAIL_TOL`` of their alpha-mass, by
    ``path_truncation_audit`` at u = 1 and v = h_high.  No noise enters the
    audit, so a geometry passes for every noise draw or for none."""
    worst = path_truncation_audit(alpha, t_min, delta, 1.0, h_high)
    if worst > _PATH_TAIL_TOL:
        raise TruncationError(
            f"noise domain too short for raw path values: "
            f"relative tail mass {worst:.3e} > {_PATH_TAIL_TOL}"
        )


def check_path_memory(t_min: float, delta: float, refine: int) -> None:
    """Raise ValueError when building one path on the noise of [t_min, 1) at
    mesh step delta/refine would exceed the machine's RAM.

    A path build holds the noise grid, the field pass's four transform
    buffers of min(``_BLOCK``, refine) rows (kernel values, the next spectrum,
    the current spectrum, the convolution; a row spans the near noise
    [-``_NEAR_SPAN``, 1) and [0, 1) again) and a few mesh-length arrays (path,
    barycentric sums, a node row), never a row per v-node."""
    n_cells = noise_cell_count(t_min, delta)
    unit_cells = round(1.0 / delta)  # cells of [0, 1)
    rows = min(_BLOCK, refine)
    transforms = 4 * rows * (_NEAR_SPAN + 2) * unit_cells
    mesh = refine * unit_cells + 1
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * (n_cells + transforms + 8 * mesh) > memory:
        raise ValueError(f"{n_cells} noise cells, {transforms} transform values (kernel "
                         f"values, next spectrum, current spectrum and convolution, {rows} "
                         f"rows each) and 8 x {mesh} mesh values exceed RAM")


def simulate_lmsm(field: MeshFieldInterpolant, H: HurstFunction, *consumers) -> SamplePath:
    """Y(t) = X(t, H(t)) on the interpolant's whole mesh t = m*t_step of [0, 1]:
    ``field.at(H(t))``, with Y(0) = 0 exactly.  Its one field pass also hands
    every node row to ``consumers`` (see ``field_on_mesh``), e.g. a
    ``coeffs.FrozenLevels``, so nothing that reads the node rows needs a
    second pass.

    Raises TruncationError when the noise domain costs the path values more
    than ``_PATH_TAIL_TOL`` of their alpha-mass (``check_path_domain``), and
    ValueError when H leaves the interpolant's [h_low, h_high].
    """
    grid = field.grid
    H.validate(grid.law.alpha)
    check_path_domain(grid.law.alpha, grid.t_min, grid.delta, H.h_high)
    values = field.at(H(np.arange(field.size) * field.t_step), *consumers)
    return SamplePath(field=field, H=H, values=values)


# ---------------------------------------------------------------------------
# Direct (frozen-Hurst) wavelet coefficients
# ---------------------------------------------------------------------------


def direct_coeff_weights(
    delta: float,
    phi: PhiKernel,
    j: int,
    k: int,
    h_value: float,
) -> tuple[int, np.ndarray]:
    """Riemann weights of the stable-integral representation of d~_{j,k}.

    Returns (i_start, w) so that d~ = sum_i w[i] dZ over the cells
    [(i_start + i) delta, (i_start + i + 1) delta): ``i_start`` counts cells
    from s = 0, so the window needs no grid.  The window is the smallest one
    whose certified tail alpha-mass is below 1e-6 of the kernel mass.
    """
    alpha = phi.alpha
    norm_a = phi.lalpha_norm(h_value) ** alpha
    s_cut = 4.0
    while phi.tail_alpha_mass(s_cut, h_value) > 1e-6 * norm_a:
        s_cut *= 2.0
        if s_cut > 2.0**40:
            raise TruncationError("cannot certify direct-coefficient window")
    # scaled coordinate u = 2^j s - k runs over [-s_cut, 1]
    s_lo = (k - s_cut) * 2.0**-j
    s_hi = (k + 1.0) * 2.0**-j
    i_start = int(math.ceil(s_lo / delta - 1e-9))
    i_stop = int(math.floor(s_hi / delta + 1e-9))
    u = 2.0**j * (np.arange(i_start, i_stop) * delta) - k
    w = phi.phi(u, h_value) * 2.0 ** (-j * (h_value - 1.0 / alpha))
    return i_start, w


def simulate_coeff_direct(
    grid: NoiseGrid, phi: PhiKernel, j: int, k: int, H: HurstFunction
) -> float:
    """d~_{j,k} = 2^{-j(H_k - 1/alpha)} int Phi(2^j s - k, H_k) dZ(s), H_k = H(k 2^-j)."""
    if not (0.0 <= k * 2.0**-j and (k + 1) * 2.0**-j <= 1.0):
        raise ValueError("dyadic cell must lie inside [0, 1]")
    if phi.alpha != grid.law.alpha:
        raise ValueError("kernel and grid alpha differ")
    h_k = float(H.frozen(j, k))
    i_start, w = direct_coeff_weights(grid.delta, phi, j, k, h_k)
    lo = grid.origin_index + i_start
    if lo < 0 or lo + w.size > grid.n_cells:
        raise TruncationError(
            f"grid [{grid.t_min}, 1) does not cover the certified window "
            f"from {i_start * grid.delta:.3f}"
        )
    return float(w @ grid.increments[lo : lo + w.size])
