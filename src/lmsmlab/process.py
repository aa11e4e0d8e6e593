"""Shared-noise simulation of the stable field, the motion, and direct coefficients.

One replicate means one realized noise grid; every field value, sample path
and wavelet coefficient inside that replicate is a linear functional of the
same increments.  The discretization is the left-endpoint Riemann sum of the
defining stochastic integrals: cell i carries an independent SaS increment of
scale delta**(1/alpha), so discrete integrals inherit the continuous scale
contract ||sum f(s_i) dZ_i||_alpha**alpha = sum |f(s_i)|**alpha * delta.

A path is built one way: ``make_noise_grid``, then a ``MeshFieldInterpolant``
of X(t, v) on the delta/refine mesh of [0, 1], which takes the path's Hurst
function H and puts its v-nodes across H's range (one node exactly when H is
constant), then ``simulate_lmsm``, which reads Y(t) = X(t, H(t)) off that
whole mesh.  H is given once, to the interpolant.  The ``SamplePath`` it
returns holds that interpolant beside the values, so whatever reads the path
also knows its mesh step, its noise and its H.

The path comes from one field pass, ``field_on_mesh``, whose docstring is
the one full description of it: the (refine, K + 1) residue grid it speaks,
K = 1/delta, the split of the noise at s = -1/4, the near part's FFT
convolutions and the one table of their buffers, the far part's certified
power series, and the consumers, which take each row's far series and then
each residue row as the pass makes it.  The path's consumer is
``_Barycentric``: the field is analytic in v, so barycentric sums over a few
dozen Chebyshev nodes reach near machine precision, and they keep two
arrays on the residue grid, the numerator and its node hits: no node row,
and no H(t), which they read one block at a time.  ``eval_field`` is the
direct Riemann sum at one point, the reference the mesh route is tested
against.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .stable import StableLaw, _stream, serial_matmul, unit_sas
from .wavelet import PhiKernel, _binom_coeffs, _far_series_terms, _kappa, _poly_eval

__all__ = [
    "HurstFunction",
    "constant_hurst",
    "linear_hurst",
    "sine_hurst",
    "NoiseGrid",
    "MeshFieldInterpolant",
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


# the kinds of H and the number of parameters of each
_HURST_KINDS = {"constant": 1, "linear": 2, "sine": 2}


def _dyadic_shifts(j: int, k) -> np.ndarray:
    """The shifts k (one or an array, maybe empty) as an array; ValueError
    unless each is an integer whose dyadic cell [k 2^-j, (k + 1) 2^-j] lies
    inside [0, 1].  The one cell rule of every route that reads H_k."""
    k = np.asarray(k)
    bad = k[(k != np.floor(k)) | (k < 0) | ((k + 1) * 2.0**-j > 1.0)]
    if bad.size:
        raise ValueError(f"dyadic cell ({j}, {bad[0]}) must lie inside [0, 1] at integer k")
    return k


@dataclass(frozen=True)
class HurstFunction:
    """Time-varying Hurst functional on [0, 1], held as its id (name, params).

    ``constant`` (value,) is H = value, ``linear`` (intercept, slope) is
    H = intercept + slope t, and ``sine`` (center, amplitude) is
    H = center + amplitude sin(2 pi t).  Each is Lipschitz, so its Hölder
    exponent ``holder_exponent`` is 1 and the theory's rho > h_high holds
    whenever ``validate`` passes.  H compares, hashes and pickles by its id.
    """

    name: str
    params: tuple

    holder_exponent = 1.0

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in _HURST_KINDS:
            raise ValueError(f"hurst_name {self.name!r} is not one of {sorted(_HURST_KINDS)}")
        if not isinstance(self.params, (list, tuple)):
            raise ValueError(f"hurst_params must be a list, got {self.params!r}")
        n_params = _HURST_KINDS[self.name]
        if len(self.params) != n_params:
            raise ValueError(f"hurst_params for {self.name!r} must hold {n_params} values, "
                             f"got {len(self.params)}")
        object.__setattr__(self, "params", tuple(self.params))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.name == "constant":
            return np.full_like(t, self.params[0])
        a, b = self.params
        if self.name == "linear":
            return a + b * t
        return a + b * np.sin(2.0 * math.pi * t)

    def _extremes(self, lo: float, hi: float) -> np.ndarray:
        """H at lo, at hi and, for a sine, at its critical points 1/4 and 3/4
        between them (0 <= lo <= hi <= 1): H's least and greatest value on
        [lo, hi] are among these."""
        critical = (0.25, 0.75) if self.name == "sine" else ()
        return self([lo, hi, *(t for t in critical if lo < t < hi)])

    @property
    def h_low(self) -> float:
        return self.min_over(0.0, 1.0)

    @property
    def h_high(self) -> float:
        return float(np.max(self._extremes(0.0, 1.0)))

    def frozen(self, j: int, k) -> np.ndarray:
        """H_k = H(k 2^-j), the level a dyadic cell (j, k) is frozen at, for
        one shift or an array of shifts.  Raises ValueError for a shift that
        is not an integer or whose cell leaves [0, 1] (``_dyadic_shifts``)."""
        return np.asarray(self(_dyadic_shifts(j, k) * 2.0**-j), dtype=float)

    @property
    def is_constant(self) -> bool:
        return self.h_low == self.h_high

    def validate(self, alpha: float) -> None:
        """Raise unless H's range lies inside (1/alpha, 1)."""
        if not (1.0 / alpha < self.h_low <= self.h_high < 1.0):
            raise ValueError(
                f"range [{self.h_low}, {self.h_high}] not inside (1/alpha, 1)"
            )

    def min_over(self, lo: float, hi: float) -> float:
        """min H on [lo, hi] inside [0, 1], exactly: at an end or a critical point."""
        return float(np.min(self._extremes(max(lo, 0.0), min(hi, 1.0))))


def constant_hurst(value: float) -> HurstFunction:
    return HurstFunction("constant", (value,))


def linear_hurst(intercept: float, slope: float) -> HurstFunction:
    return HurstFunction("linear", (intercept, slope))


def sine_hurst(center: float, amplitude: float) -> HurstFunction:
    return HurstFunction("sine", (center, amplitude))


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

    @property
    def unit_cells(self) -> int:
        """K = 1/delta, the number of cells of [0, 1)."""
        return self.n_cells - self.origin_index

    def left_endpoints(self) -> np.ndarray:
        """s_i = (i - i0) delta, s_{i0} = 0: exact at i0 for every delta."""
        return (np.arange(self.n_cells) - self.origin_index) * self.delta

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
    increments = unit_sas(law.alpha, noise_cell_count(t_min, delta), _stream(seed, 0))
    increments *= law.scale * delta ** (1.0 / law.alpha)  # in place: no second array
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

    The cells' left ends are s_i = (i - i0) delta, s_{i0} = 0, and a u whose
    cell coordinate u / delta lies within four ulps of an integer n is read
    as n delta, so the offset u - s_i of the cell starting at u is exactly
    0, as in the FFT route, at every delta: t_min + i delta rounds at a
    delta that is not a power of two, and so does u, and an offset of 3e-16
    raised to kappa is about 1e-3.
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
    x = u / grid.delta
    u = round(x) * grid.delta if abs(x - round(x)) <= 4 * np.spacing(x) else u
    s = grid.left_endpoints()
    w = (u - s).clip(min=0.0) ** kappa - (-s).clip(min=0.0) ** kappa
    return float(w @ grid.increments)


# field_on_mesh's near/far split: the noise on [-ceil(K / _NEAR_SHARE) delta, 1)
# goes through the FFT, K = 1/delta, the rest through the far series (the
# trade-off is in its docstring); a whole number of cells, so the split is a
# cell boundary for every delta
_NEAR_SHARE = 4
# the far series: one power series per piece of [0, 1], its cells
# floor(pK/8)..floor((p+1)K/8) - 1 (_far_pieces), in h = t - c about their
# centre c, from the moments of source blocks of K // _SOURCE_SHARE cells, at
# most 1/32 wide
_PIECES = 8
_SOURCE_SHARE = 32
# points per block wherever a pass over the mesh goes block by block to bound
# its temporaries
_CHUNK = 16384
# residue rows per kernel transform in the field pass (see field_on_mesh)
_BLOCK = 2


def _far_blocks(K: int, delta: float) -> tuple[int, float, float]:
    """(B, rho, x_near) of a pass's far part, K cells on [0, 1): B cells per
    source block, rho = B delta / 2, which bounds |x_i - x_b| inside a block,
    and x_near = -s of the nearest far cell."""
    B = max(1, K // _SOURCE_SHARE)
    return B, B * delta / 2, (-(-K // _NEAR_SHARE) + 1) * delta


def _far_pieces(K: int, delta: float) -> list[tuple[int, int, float, float]]:
    """The far series' pieces of [0, 1] on its K cells of width delta, as
    (qa, qb, c, hw): piece p is the cells qa = floor(pK/8) through qb - 1,
    qb = floor((p+1)K/8), and its series is about the centre of those
    cells, c = (qa + qb) delta/2, with half-width hw = (qb - qa) delta/2:
    (2p+1)/16 and 1/16 whenever K is a power of two of at least 8.  The
    pieces with no cell (possible when K < 8) are left out."""
    edges = [p * K // _PIECES for p in range(_PIECES + 1)]
    return [(qa, qb, (qa + qb) * delta / 2, (qb - qa) * delta / 2)
            for qa, qb in zip(edges, edges[1:]) if qb > qa]


def _far_terms(K: int, delta: float, kappa: float) -> list[tuple[int, int]]:
    """Per piece (``_far_pieces``), (N, M): the highest power of h its series
    keeps, and the degree at which the block expansion stops, the fewest
    whose certified remainders (``wavelet._far_remainder``, see
    ``field_on_mesh``) are at most 2^-53 at this kappa.  Their ratios are
    h's half-range over the nearest far cell's distance, hw/(x_near + c),
    and (hw + rho)/(x_0 + c) for the nearest block, centred at x_0."""
    B, rho, x_near = _far_blocks(K, delta)
    x_0 = x_near + (B - 1) / 2 * delta
    terms = []
    for _, _, c, hw in _far_pieces(K, delta):
        n = _far_series_terms(kappa, hw / (x_near + c))
        terms.append((n, max(n, _far_series_terms(kappa, (hw + rho) / (x_0 + c)))))
    return terms


def _far_coeffs(grid: NoiseGrid, i_near: int, kappa: np.ndarray, terms) -> list:
    """Per piece (``_far_pieces``), the power-series coefficients in h = t - c
    about its centre c of the far part sum_{i < i_near} [(x_i + t)^kappa -
    x_i^kappa] dZ_i, x_i = -s_i: one array of len(kappa) rows and N + 1
    columns, for the (N, M) of ``terms``.

    Block moments: the far cells, nearest first, go in blocks b of B cells
    centred at x_b, and mu[b, m] = sum_{i in b} (x_i - x_b)^m dZ_i, one
    product over the far noise that no kappa enters.  Translation: with
    X = x_b + c and d_i = x_i - x_b, (X + h + d_i)^k = sum_s binom(k, s)
    X^(k-s) (h + d_i)^s, so the block adds to coefficient q
    sum_{s=q}^{M} binom(k, s) binom(s, q) X^(k-s) mu[b, s-q], for q <= N.
    Summed over the blocks this is E @ A, E[k, b] = X_b^k and A the
    kappa-free rest, one product per piece for every kappa.  Coefficient 0
    then drops the far part at t = 0, the first piece's series at h = -c, so
    the series vanish there, as the far part does, and no power of x is
    taken."""
    K = grid.unit_cells
    B, rho, x_near = _far_blocks(K, grid.delta)
    centres = [c for _, _, c, _ in _far_pieces(K, grid.delta)]
    n_blocks = -(-i_near // B)
    dz = np.zeros(n_blocks * B)  # the farthest block padded with empty cells
    dz[:i_near] = grid.increments[i_near - 1 :: -1]
    degree = np.arange(max(m for _, m in terms) + 1)
    u = (2.0 * np.arange(B) - (B - 1)) / B  # (x_i - x_b) / rho, inside (-1, 1)
    mu = serial_matmul(dz.reshape(n_blocks, B), u[:, None] ** degree)
    mu *= rho**degree
    x_b = x_near + (np.arange(n_blocks) * B + (B - 1) / 2) * grid.delta
    coefs = []
    for c, (n, m) in zip(centres, terms):
        X = x_b + c
        s, q = np.arange(m + 1)[:, None], np.arange(n + 1)
        comb = np.array([[math.comb(a, b) for b in range(n + 1)] for a in range(m + 1)], float)
        a = mu[:, np.maximum(s - q, 0)]
        a *= comb  # 0 where q > s
        a *= X[:, None, None] ** -s
        e = np.exp(np.multiply.outer(kappa, np.log(X)))
        t = serial_matmul(e, a.reshape(n_blocks, -1)).reshape(kappa.size, m + 1, n + 1)
        coefs.append(np.sum(np.array([_binom_coeffs(k, m) for k in kappa])[:, :, None] * t,
                            axis=1))
    at_zero = _poly_eval(coefs[0].T, -centres[0])
    for coef in coefs:
        coef[:, 0] -= at_zero
    return coefs


def _check_refine(refine) -> int:
    """``refine`` as an int; ValueError unless it is an integer >= 1 (a bool
    is not an integer here).  The one rule of the field pass and the
    interpolant."""
    if isinstance(refine, bool) or not isinstance(refine, numbers.Integral) or refine < 1:
        raise ValueError("refine must be an integer >= 1")
    return int(refine)


def field_on_mesh(grid: NoiseGrid, v, refine: int = 1, *consumers):
    """X(m*delta/refine, v) for m = 0..refine/delta: the mesh of [0, 1].

    ``v`` is one Hurst value or a 1-D array of them.  This is the one field
    pass.  With no ``consumers`` it returns the rows, a 1-D row for a scalar v
    and otherwise one row per v in one array.  With consumers it keeps no row
    and returns None: each consumer applies its own linear functional to every
    row as the pass produces it.  A row is its far part plus its near part,
    and both come on one residue grid of shape (refine, K + 1), K = 1/delta:
    its entry (rho, q) is mesh point q * refine + rho, at t = (q +
    rho/refine) delta, so column K of a residue rho > 0 lies just past t = 1
    and every consumer drops it.  The far parts come first, once per piece
    of [0, 1] (``_far_pieces``: its cells qa..qb-1, and the last piece also
    column K), as ``consumer.far(coef, qa, h)``: h is the piece's (refine,
    n) block of the grid's t - c, c the centre of its cells, and row i's far
    part on the grid's columns qa..qa+n-1 is the power series sum_n coef[i,
    n] h^n.  Then the near parts come node by node, residue by residue:
    ``consumer.residue(i, rho, values)`` hands over row rho = 0, ...,
    refine - 1 of node i's grid, K + 1 values, in a buffer the next residue
    overwrites.  At t = 0 every row is 0: residue 0's values[0] is 0, and a
    consumer takes the far part there as 0.  A consumer that reads whole
    rows subclasses ``_NodeRows``, which sums the two parts and keeps that
    rule; the rows returned without consumers are its.  The rows are
    identical (up to float rounding) to calling eval_field at each mesh
    time.
    ``refine`` samples the discrete-noise field on a mesh finer than the noise
    cells (one convolution per residue class), which is what keeps trapezoid
    coefficient quadrature accurate at deep levels without touching the noise
    resolution.

    The noise is split at s = -ceil(K/4) delta, K = 1/delta (``_NEAR_SHARE``).
    Near cells [-1/4, 1) go through FFT convolution.  Its circular transforms
    have length L = n_near + K, the shortest with no wrap-around, which is
    9K/4 when the noise reaches the split and 4 divides K (9 * 2^(k-2) for
    K = 2^k, as on every shipped geometry).  The near window's
    origin is i0 = min(ceil(K/4), index of s = 0): the product dz[i] * g[l]
    lands on index i + l, or on i + l - L when that reaches L; since i + l
    <= (n_near - 1) + (i0 + K), a wrapped term lands below i0, outside the
    window [i0, i0 + K] that is read.  The noise is transformed once per
    pass, first, and the kernel values g = t^kappa of a block are formed in
    its own buffer: t, then log t, then kappa log t and its exp.  Each v's
    residue rows go in blocks of min(2, refine) rows
    (``_BLOCK``), one ``numpy.fft`` call per block and stage, each on the
    thread that makes it; a node's first block holds residue 0.  Stage 1 is
    the kernel half, a function of the geometry, the node and the block's
    residues alone, which reads no noise: the block's kernel values and
    their forward transform.  Stage 2 multiplies by the noise spectrum and
    inverts, and the consumers take each residue straight from the
    convolution, its window [i0, i0 + K], which the kernel values' support
    covers for every residue.  Residue 0's value at t = 0 is the kernel's
    second term over the near cells, b = sum_{s_i < 0} (-s_i)^kappa dZ_i,
    the same for every residue, so stage 2 subtracts it from each window in
    place before handing it on, which makes residue 0 exactly 0 at t = 0.
    Stage 1 runs on one helper thread, started for the pass and ended with
    it, one block ahead of the caller, which runs stage 2; a pass of one
    block runs it there too.  Block 0's stage 1 starts before the far part,
    which the caller computes and hands on meanwhile.  A pass allocates its
    buffers once, after the noise spectrum, each from its entry in one
    table of shapes and dtypes (``_pass_geometry``, the list
    ``check_path_memory`` sums), in this order: the kernel values over
    i0 + K + 1 points, which rfft pads with zeros to L; a ring of two
    spectra (block n's in slot n % 2, free because the caller is done with
    block n - 2); and the convolution.  Each transform buffer holds
    min(2, refine) rows, and every 2-D transform writes into one
    (``out=``); no buffer holds a mesh or a table of times.

    Far cells s_i < -ceil(K/4) delta, x_i = -s_i >= x_near = (ceil(K/4) + 1)
    delta, add sum_i [(x_i + t)^kappa - x_i^kappa] dZ_i.  On a piece, t = c
    + h about the centre c of its cells and |h| <= hw, their half-width (c =
    (2p + 1)/16 and hw = 1/16 when K is a power of two of at least 8; only
    the dropped points past t = 1 lie farther), and ``_far_coeffs`` sums it
    from block moments (blocks of B = K // 32 cells, centred at x_b, |x_i -
    x_b| <= rho = B delta/2).  With |binom(kappa, n)| <= kappa/n its two
    truncations are certified in ``wavelet._far_remainder``'s form: keeping
    powers of h up to N leaves at most kappa/(N+1) r1^(N+1)/(1 - r1) (x_i +
    c)^kappa |dZ_i| per cell, r1 = hw/(x_near + c), below 1/5 when K is a
    power of two, and stopping the block expansion at degree M at most
    kappa/(M+1) r2^(M+1)/(1 - r2) (x_b + c)^kappa |dZ_i|, r2 = (hw +
    rho)/(x_b + c) (the dropped terms are binom(kappa, s) X^(kappa-s) (h +
    d_i)^s, s > M).  Coefficient 0 adds the first piece's error at t = 0
    once more, which is the
    factor 2 of ``_far_remainder``.  N and M are the fewest that put both
    factors below 2^-53 for every v of the pass (the largest over the
    batch, ``_far_terms``): 20 and 22 on piece 0 down to 11 and 12 on piece
    7 at criterion 8, against the 29 terms of one series about t = 1/2 with
    the split at s = -1.  The split sits at -1/4 because the far part then
    costs little against the near part's transforms, which shrink by a
    quarter: 9K/4 points instead of 3K.
    """
    vs = np.asarray(v, dtype=float)
    if vs.ndim > 1 or vs.size == 0:
        raise ValueError("v must be a scalar or a non-empty 1-D array")
    kappa = np.array([_kappa(grid.law.alpha, x) for x in vs.reshape(-1)])
    refine = _check_refine(refine)
    if consumers:
        _field_pass(grid, kappa, refine, consumers)
        return None
    rows = _Rows(kappa.size, grid, refine)
    _field_pass(grid, kappa, refine, (rows,))
    return rows.out if vs.ndim else rows.out[0]


def _pass_geometry(n_cells: int, K: int, refine: int) -> tuple[int, int, int, dict]:
    """(i_near, i0, n_fft, buffers) of a field pass over n_cells noise cells,
    K of them on [0, 1), at mesh step delta/refine: the first near cell
    (s >= -ceil(K/4) delta), the near window's origin, the transform length
    n_near + K, the shortest with no wrap-around, and the near half's
    buffers, name -> (shape, dtype), in the order ``_field_pass`` allocates
    them (see ``field_on_mesh``): the transform buffers of min(2, refine)
    rows.  A block's log t lives in its kernel values, and a residue row
    goes to the consumers straight from the convolution, so the pass holds
    no table of times and no mesh."""
    i_origin = n_cells - K
    i_near = max(i_origin - -(-K // _NEAR_SHARE), 0)
    i0, n_fft, rows = i_origin - i_near, n_cells - i_near + K, min(_BLOCK, refine)
    return i_near, i0, n_fft, {
        "kernel values": ((rows, i0 + K + 1), float),
        "ring": ((2, rows, n_fft // 2 + 1), complex), "convolution": ((rows, n_fft), float)}


def _field_pass(grid: NoiseGrid, kappa: np.ndarray, refine: int, consumers) -> None:
    # the pass behind field_on_mesh (see there): far parts, then residue rows
    K = grid.unit_cells
    i_near, i0, n_fft, buffers = _pass_geometry(grid.n_cells, K, refine)
    zf = rfft(grid.increments[i_near:], n_fft)
    # the workspace, made once per pass: the kernel values over their support
    # (rfft pads them with zeros to n_fft), a ring of two spectra, one per
    # block in flight, and the convolution
    gk = np.empty(*buffers["kernel values"])
    ring = np.empty(*buffers["ring"])
    conv = np.empty(*buffers["convolution"])
    # a block is one node i and its residue rows lo..hi-1, as many as a
    # workspace buffer holds; a node's first block holds residue 0
    rows = len(conv)
    blocks = [(i, lo, min(lo + rows, refine))
              for i in range(kappa.size) for lo in range(0, refine, rows)]

    def kernel_spectrum(n):
        # stage 1, the kernel half of block n, a function of the geometry, the
        # node and the residues alone: their kernel values and their transform
        # into ring slot n % 2, which the caller is done with (see below).
        # Row rho - lo of the values is first t = (q + rho/refine) delta, then
        # log t (log 0 = -inf makes the value at t = 0 exactly 0), then t^kappa
        i, lo, hi = blocks[n]
        g = gk[: hi - lo]
        np.add(np.arange(i0 + K + 1), np.arange(lo, hi)[:, None] / refine, out=g)
        with np.errstate(divide="ignore"):
            np.log(np.multiply(g, grid.delta, out=g), out=g)
        np.exp(np.multiply(g, kappa[i], out=g), out=g)
        return rfft(g, n_fft, axis=-1, out=ring[n % 2, : hi - lo])

    # one helper thread runs stage 1 one block ahead: it starts block 0
    # before the far part and block n + 1 once the caller holds block n, so
    # the caller is done with block n - 1 and its ring slot; leaving the
    # pool, also on an error, waits for the helper to end
    with ThreadPoolExecutor(1) as helper:
        ahead = helper.submit(kernel_spectrum, 0)
        if i_near > 0:
            _far_part(grid, kappa, K, i_near, refine, consumers)
        for n, (i, lo, hi) in enumerate(blocks):
            spec = ahead.result()
            if n + 1 < len(blocks):
                ahead = helper.submit(kernel_spectrum, n + 1)
            # stage 2, with the noise: grid entry (rho, q) is column i0 + q
            # of the convolution's row rho - lo
            spec *= zf
            out = irfft(spec, n_fft, axis=-1, out=conv[: hi - lo])
            if lo == 0:
                # residue 0 at t = 0 is the kernel's second term
                # b = sum_{s_i < 0} (-s_i)^kappa dZ_i, which every residue drops
                b = out[0, i0]
            for rho in range(lo, hi):
                values = out[rho - lo, i0 : i0 + K + 1]
                values -= b
                for consumer in consumers:
                    consumer.residue(i, rho, values)


def _far_part(grid: NoiseGrid, kappa: np.ndarray, K: int, i_near: int, refine: int,
              consumers) -> None:
    # the far cells' series coefficients, handed to every consumer once per
    # piece with its (refine, n) block of h on the residue grid; a function
    # of its own, so its temporaries are gone before the first residue row
    coefs = _far_coeffs(grid, i_near, kappa, _far_terms(K, grid.delta, kappa.max()))
    for (qa, qb, c, _), coef in zip(_far_pieces(K, grid.delta), coefs):
        q = np.arange(qa, qb + (qb == K))  # the last piece also takes column K
        h = (q * refine + np.arange(refine)[:, None]) * (grid.delta / refine)
        h -= c
        for consumer in consumers:
            consumer.far(coef, qa, h)


class _NodeRows:
    """The base of the field pass's consumers that read whole node rows, of
    ``n_rows`` nodes on the mesh of ``grid``'s [0, 1] at ``refine`` points
    per noise cell.  Its row buffer has shape (K + 1, refine): entry (q,
    rho) is mesh point q * refine + rho, so its ravel is the mesh, with
    refine - 1 points past t = 1 at its end.  ``far`` keeps each piece's
    series coefficients, first column and h; ``residue`` writes residue rho
    of node i into column rho, adds the node's series on each piece's
    columns, and after the node's last residue sets t = 0 to 0 and hands the
    mesh to the subclass's ``take(i, row)``.  The buffer is overwritten by
    the next row; the pass hands the rows in node order, so after the last
    one the buffer and the pieces are dropped: the consumer outlives the
    pass without them, and serves no second pass."""

    def __init__(self, n_rows: int, grid: NoiseGrid, refine: int):
        self.n_rows, self.size, self.pieces = n_rows, grid.unit_cells * refine + 1, []
        self.buf = np.empty((grid.unit_cells + 1, refine))

    def far(self, coef: np.ndarray, qa: int, h: np.ndarray) -> None:
        self.pieces.append((coef, qa, h))

    def residue(self, i: int, rho: int, values: np.ndarray) -> None:
        col = self.buf[:, rho]
        col[:] = values
        for coef, qa, h in self.pieces:
            col[qa : qa + h.shape[1]] += _poly_eval(coef[i], h[rho])
        if rho < self.buf.shape[1] - 1:
            return
        row = self.buf.reshape(-1)[: self.size]
        row[0] = 0.0
        self.take(i, row)
        if i == self.n_rows - 1:
            del self.buf, self.pieces


class _Rows(_NodeRows):
    """The field rows themselves: ``field_on_mesh``'s result without consumers."""

    def __init__(self, n_rows: int, grid: NoiseGrid, refine: int):
        super().__init__(n_rows, grid, refine)
        self.out = np.empty((n_rows, self.size))

    def take(self, i: int, row: np.ndarray) -> None:
        self.out[i] = row


def _node_hits(nodes: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The ascending positions of the 1-D v within 1e-15 of a node.
    ``nodes`` ascend, so a v near a node is next to its searchsorted slot:
    one search over v, then the exact test on its two neighbours.  Which
    node a hit reads is ``_Barycentric._weights``' rule."""
    pos = np.searchsorted(nodes, v)
    gap = np.abs(v - nodes[np.maximum(pos - 1, 0)])
    np.minimum(gap, np.abs(v - nodes[np.minimum(pos, nodes.size - 1)]), out=gap)
    return np.flatnonzero(gap <= 1e-15)


class _Barycentric:
    """Barycentric sums over node rows fed one residue row at a time: the
    value at v is sum_i c_i X_i / sum_i c_i, c_i = w_i / (v - node_i).

    The sums lie on a grid of ``rows`` rows of ``width`` points, a field
    pass's (refine, K + 1) residue grid or any 1-D row as a grid of one row,
    flat: grid entry (rho, q) sits at rho * width + q, so each residue row
    of a node is one contiguous update, and so is each residue's stretch of
    a far piece.  v is never held on the grid: ``v(rho, lo, hi)`` gives it
    on row rho's columns lo..hi-1, one block of at most ``_CHUNK`` points at
    a time, and the sums read it there each time they visit the block.  They
    keep two arrays of the grid's size: the numerator ``num`` and the
    positions of its exact node hits (``_node_hits``), found block by block,
    as long as the grid when every point is a hit, as for a constant H's one
    node, which fills one array made for them.  ``_weights`` is the one
    route to one node's c_i on a block.  ``far`` adds the far part of a
    field pass from one piece's series coefficients, residue by residue and
    block by block: node i's far part is sum_n coef[i, n] h^n, so its share
    of the numerator is the series with coefficients sum_i c_i coef[i, n],
    a matrix product per block, of the nodes' weights one row each, that
    BLAS runs on the calling thread (``stable.serial_matmul``).  ``residue``
    adds c_i X_i on one residue row, in one block-sized scratch.
    ``result`` forms the denominator block by block, adding the c_i in node
    order, divides ``num`` by it in place and returns it, flat.  An exact
    node hit rides the weights, also on the far part's blocks: there c is 1
    for the first node within 1e-15 of v and 0 for every other, so the sums
    hold that node's row over exactly 1 and ``result`` reads it bit for
    bit."""

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, rows: int, width: int, v):
        self.nodes, self.weights, self.rows, self.width, self.v = nodes, weights, rows, width, v
        self.c = np.empty(min(_CHUNK, width))
        one = nodes.size == 1  # every point may be a hit: one array for them
        hits, found, n = np.empty(rows * width if one else 0, np.intp), [], 0
        for rho in range(rows):
            for lo in range(0, width, _CHUNK):
                at = _node_hits(nodes, v(rho, lo, min(lo + _CHUNK, width)))
                at += rho * width + lo
                if one:
                    hits[n : n + at.size] = at
                    n += at.size
                else:
                    found.append(at)
        self.hits = hits[:n] if one else np.concatenate(found)
        self.num = np.zeros(rows * width)

    def _weights(self, v: np.ndarray, hits: np.ndarray, i: int, out: np.ndarray) -> np.ndarray:
        """Node i's c_i = w_i / (v - x_i) at the block ``v``, into ``out``;
        at the block's hits (positions in v) 1 where node i is the first
        node within 1e-15 of v and 0 elsewhere.  The nodes ascend, so node i
        is first when |v - x_i| <= 1e-15 and v - x_(i-1) > 1e-15."""
        c = np.subtract(v, self.nodes[i], out=out)
        with np.errstate(divide="ignore"):  # a hit's 1/0, set just below
            np.divide(self.weights[i], c, out=c)
        if hits.size:
            d = np.take(v, hits)  # v at the hits, one scratch for both tests
            first = np.abs(np.subtract(d, self.nodes[i], out=d), out=d) <= 1e-15
            if i:
                first &= np.subtract(np.take(v, hits, out=d), self.nodes[i - 1], out=d) > 1e-15
            c[hits] = first
        return c

    def _blocks(self, rho: int, a: int, b: int):
        # per block of row rho's columns a..b-1: its first column, its part of
        # num, v on it, its hits (as position - its first) and the scratch
        # sized to it
        at = rho * self.width
        for lo in range(a, b, _CHUNK):
            hi = min(lo + _CHUNK, b)
            s, e = np.searchsorted(self.hits, (at + lo, at + hi))
            yield (lo, self.num[at + lo : at + hi], self.v(rho, lo, hi),
                   self.hits[s:e] - (at + lo), self.c[: hi - lo])

    def far(self, coef: np.ndarray, qa: int, h: np.ndarray) -> None:
        for rho, h_rho in enumerate(h):
            for lo, part, v, hits, _ in self._blocks(rho, qa, qa + h_rho.size):
                c = np.empty((self.nodes.size, part.size))
                for i, row in enumerate(c):
                    self._weights(v, hits, i, row)
                part += _poly_eval(serial_matmul(coef.T, c), h_rho[lo - qa : lo - qa + part.size])

    def residue(self, i: int, rho: int, values: np.ndarray) -> None:
        for lo, part, v, hits, scratch in self._blocks(rho, 0, values.size):
            c = self._weights(v, hits, i, scratch)
            c *= values[lo : lo + part.size]
            part += c

    def result(self) -> np.ndarray:
        den = np.empty(self.c.size)
        for rho in range(self.rows):
            for _, part, v, hits, scratch in self._blocks(rho, 0, self.width):
                d = den[: part.size]
                d[:] = 0.0
                for i in range(self.nodes.size):
                    d += self._weights(v, hits, i, scratch)
                part /= d
        return self.num


def _interp_nodes(H: HurstFunction, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the v-interpolation of a path with Hurst function
    H: one node at H's value, of weight 1, exactly when ``H.is_constant``,
    else n_nodes >= 2 Chebyshev-Lobatto nodes on [H.h_low, H.h_high],
    ascending, with their barycentric weights.  The one node rule of the
    interpolant and of ``check_path_memory``'s callers."""
    if H.is_constant:  # one node, no interpolation
        return np.array([H.h_low]), np.array([1.0])
    if n_nodes < 2:
        raise ValueError(f"interpolating over [{H.h_low}, {H.h_high}] needs n_nodes >= 2")
    x = np.cos(math.pi * np.arange(n_nodes) / (n_nodes - 1))
    w = (-1.0) ** np.arange(n_nodes)
    w[[0, -1]] *= 0.5
    return H.h_low + (H.h_high - H.h_low) * 0.5 * (1.0 - x), w


class MeshFieldInterpolant:
    """Chebyshev interpolation in v of X(m*t_step, v), t_step = delta/refine,
    on the whole mesh of [0, 1], for v across the range of the path's Hurst
    function ``H``: ``n_nodes`` Chebyshev nodes on [H.h_low, H.h_high], or
    one node at H's value exactly when ``H.is_constant`` (``_interp_nodes``).

    It holds its nodes and barycentric weights, never the node rows: ``at``
    runs one field pass over the nodes and folds each row into barycentric
    sums as the pass produces it, so a replicate holds a few mesh-length
    arrays instead of one per node."""

    def __init__(self, grid: NoiseGrid, H: HurstFunction, n_nodes: int, refine: int):
        self.grid, self.H = grid, H
        self.refine = _check_refine(refine)
        self.t_step = grid.delta / self.refine
        self.size = grid.unit_cells * self.refine + 1
        self.nodes, self.weights = _interp_nodes(H, n_nodes)

    def at(self, *consumers) -> np.ndarray:
        """X(m*t_step, H(m*t_step)) on the whole mesh, from one field pass
        (``field_on_mesh``) whose node rows also go to ``consumers``; it is
        0 at t = 0.  The sums lie on the pass's residue grid and read H on
        it one block at a time, at the exact times (q * refine + rho) *
        t_step of its entries (rho, q), so no H(t) and no times are kept
        through the pass; one transpose puts the sums in mesh order."""
        K, refine, t_step, H = self.grid.unit_cells, self.refine, self.t_step, self.H
        # a block's times from one block of column offsets: every q * refine +
        # rho is an integer, exact as a float, so no integer cast is needed
        offsets = np.arange(min(_CHUNK, K + 1)) * float(refine)
        times = np.empty(offsets.size)

        def v(rho, lo, hi):
            t = np.add(offsets[: hi - lo], lo * refine + rho, out=times[: hi - lo])
            return H(np.multiply(t, t_step, out=t))

        sums = _Barycentric(self.nodes, self.weights, refine, K + 1, v)
        field_on_mesh(self.grid, self.nodes, refine, sums, *consumers)
        out = sums.result().reshape(refine, K + 1).T.reshape(-1)[: self.size]
        out[0] = 0.0  # the u = 0 kernel vanishes identically
        return out

    def combine(self, v, vals: np.ndarray) -> np.ndarray:
        """Barycentric combination at v (one v, or one per entry) of per-node
        1-D rows ``vals`` (node axis first), e.g. of any linear functional of
        the node fields.  Raises ValueError for v outside H's range [h_low,
        h_high]: it never extrapolates."""
        v = np.asarray(v, dtype=float)
        lo, hi = self.H.h_low, self.H.h_high
        if np.any((v < lo - 1e-12) | (v > hi + 1e-12)):
            raise ValueError(f"v outside the interpolant's [{lo}, {hi}]")
        v = np.broadcast_to(v, vals.shape[1:]).reshape(-1)
        sums = _Barycentric(self.nodes, self.weights, 1, v.size, lambda rho, a, b: v[a:b])
        for i, row in enumerate(vals):
            sums.residue(i, 0, row)
        return sums.result().reshape(vals.shape[1:])


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Y(t) = X(t, H(t)) on the mesh t = m * field.t_step of [0, 1], with the
    field interpolant that made it, which holds the Hurst function.  The
    values are the only mesh-length array a path keeps: the interpolant holds
    no node rows."""

    field: MeshFieldInterpolant
    values: np.ndarray

    @property
    def H(self) -> HurstFunction:
        return self.field.H

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size) * self.field.t_step


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


def check_path_memory(t_min: float, delta: float, refine: int, n_nodes: int) -> None:
    """Raise ValueError when building one path over n_nodes v-nodes on the
    noise of [t_min, 1) at mesh step delta/refine would exceed the machine's
    RAM.  ``n_nodes`` is the interpolant's own count (``_interp_nodes``): 1
    for a constant H.

    A build holds, throughout its field pass, the noise grid and its
    spectrum, the transform buffers of the pass's table (``_pass_geometry``:
    the kernel values, a ring of two spectra and the convolution, each of
    min(``_BLOCK``, refine) rows), the kernel half's row of window indices
    q (i0 + K + 1 points, the one temporary its times need), and the
    barycentric sums: two arrays as long as the (refine, K + 1) residue
    grid, the numerator and the hit positions (as long as the grid when
    every point is a hit, as for a constant H), and ten block-sized
    temporaries: ``at``'s column offsets and times, the scratch and the
    denominator throughout, and per block v, H's one temporary while it
    forms v, the hit offsets and v at the hits, and under one block for
    the two tests of the weights there and numpy's cast buffer for their
    indicator; finding the hits holds v and four more.

    The far part, when the noise reaches below the split, runs beside all
    of these, block 0's kernel half on the helper meanwhile, and adds the
    larger of its two steps.  Its coefficients: the far noise in source
    blocks, its block moments, the translation table (two copies, one row
    per block, one column per pair of series term and block-expansion
    degree) and three tables of that width with one row per node (the
    translated terms, their binomial weighting, and the series of every
    piece).  Its series: one piece's h, (refine, n) for the widest piece's
    n columns, with its integer grid, the series' blocks of at most
    ``_CHUNK`` of those columns (one row per node for the weights, one per
    series term for their product with the coefficients and one for the
    series' value), and the series of every piece.  Both at the largest
    term counts of any piece.

    Never a row per v-node, no H(t) and no table of times on the grid, no
    mesh for a residue row, which goes to the sums straight from the
    convolution, and nothing for the kernel's second term b: stage 1 reads
    no noise, and b is residue 0's own convolution at t = 0."""
    n_cells = noise_cell_count(t_min, delta)
    K = round(1.0 / delta)  # cells of [0, 1)
    i_near, i0, n_fft, buffers = _pass_geometry(n_cells, K, refine)
    noise = n_cells + 2 * (n_fft // 2 + 1)  # the noise and its complex spectrum
    transforms = sum(math.prod(s) * np.dtype(t).itemsize // 8 for s, t in buffers.values())
    index, rows = i0 + K + 1, buffers["convolution"][0][0]
    size = refine * (K + 1)  # the residue grid
    sums = 2 * size + 10 * min(_CHUNK, K + 1)
    far = 0
    if i_near:
        B = _far_blocks(K, delta)[0]
        n_blocks = -(-i_near // B)
        n, m = map(max, zip(*_far_terms(K, delta, 1.0)))  # kappa < 1
        points = max(qb - qa for qa, qb, _, _ in _far_pieces(K, delta)) + 1  # most columns
        far = max(n_blocks * B + (n_blocks + B) * (m + 1)
                  + (2 * n_blocks + 3 * n_nodes) * (m + 1) * (n + 1),
                  2 * refine * points + (n_nodes + n + 2) * min(_CHUNK, points)
                  + _PIECES * n_nodes * (n + 1))
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * (noise + transforms + index + sums + far) > memory:
        raise ValueError(
            f"{noise} values of noise and its spectrum, {transforms} of transform buffers "
            f"(kernel values, next spectrum, current spectrum and convolution, {rows} rows "
            f"each), {index} window indices of the kernel half, {sums} of barycentric sums "
            f"(numerator, hit positions and a block's temporaries) and {far} far noise, "
            f"block moment, translation and far series values exceed RAM")


def simulate_lmsm(field: MeshFieldInterpolant, *consumers) -> SamplePath:
    """Y(t) = X(t, H(t)) on the interpolant's whole mesh t = m*t_step of
    [0, 1], for the interpolant's H: ``field.at()``, with Y(0) = 0 exactly.
    Its one field pass also hands every node row to ``consumers`` (see
    ``field_on_mesh``), e.g. a ``coeffs.FrozenLevels``, so nothing that reads
    the node rows needs a second pass.

    Raises ValueError unless H's range lies inside (1/alpha, 1), and
    TruncationError when the noise domain costs the path values more than
    ``_PATH_TAIL_TOL`` of their alpha-mass (``check_path_domain``).
    """
    grid, H = field.grid, field.H
    H.validate(grid.law.alpha)
    check_path_domain(grid.law.alpha, grid.t_min, grid.delta, H.h_high)
    return SamplePath(field=field, values=field.at(*consumers))


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
    whose certified tail alpha-mass is below 1e-6 of the kernel mass.  Raises
    ValueError unless k is an integer whose dyadic cell [k 2^-j, (k + 1)
    2^-j] lies inside [0, 1], where H_k is read.
    """
    _dyadic_shifts(j, k)
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
