"""Symmetric alpha-stable sampling, fractional moments and tail diagnostics.

All heavy-tailed randomness in the package flows through this module.  The
scale convention is the usual one for stable stochastic integrals: if
``S = int f dZ`` then ``||S||_alpha**alpha = int |f|**alpha``, and for
``alpha = 2`` a unit-scale variable is Gaussian with variance 2 (not 1).

Unit-scale draws come from the Chambers-Mallows-Stuck transform of a uniform
angle and a standard exponential (Chambers, Mallows & Stuck 1976; Weron 1996;
Samorodnitsky & Taqqu 1994).  The stream order is fixed: all ``n`` uniforms,
then all ``n`` exponentials, from one Philox generator.  The transform is
elementwise, so it runs over fixed tiles of ``_TILE`` elements, on the
calling thread: every element goes through the same ufuncs in the same order
as the whole-array expression, so the tiles change no draw, and a tile's
working set stays in cache.  Philox is counter-based (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11): ``_stream`` gives
independent streams of one key, which ``bounds``' Monte Carlo chunks draw
from side by side.

The transform is written for the ufuncs numpy vectorises.  With numpy 2.4 on
an AVX-512 host (a 2-vCPU Xeon), float64 ``sin`` and ``cos`` are scalar libm
calls at 12-19 ns per element over the transform's angles, while ``tan``,
``log`` and ``exp`` are vectorised at about 3.0, 1.3-1.8 and 0.9-1.3 ns, and
``power`` costs 3.6-4.6 ns.  So each of the transform's three sines comes
from one ``tan`` of a half angle, ``sin x = 2 tan(x/2) / (1 + tan(x/2)^2)``,
and its two powers from ``log`` and one ``exp``: about 30 ns per element on
one thread, against about 70 ns for the direct ``sin``/``cos``/``power``
expression.  Without AVX-512 numpy's ``tan`` is a scalar call as well, and
the gain shrinks.  The half angles are built from ``min(r, 1 - r)`` rather
than from ``pi (r - 1/2)``, so no sine loses digits near ``r = 0`` or ``1``,
where the direct expression's relative error grows to about 1e-8; the
draws are within 5e-15 relative of 50-digit values of the transform, and
differ from the direct expression's in the last bits.

``serial_matmul`` takes the matrix products of ``bounds``' Monte Carlo
chunks, the field pass's far part (its block moments and their translation
into piece series) and the path's far series in blocks that BLAS runs on
the calling thread.  The module holds no thread state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StableLaw",
    "sample_sas",
    "moment_constant",
    "tail_coefficient",
    "unit_sas",
]


@dataclass(frozen=True)
class StableLaw:
    """Symmetric alpha-stable law with stability index and scale parameter.

    ``alpha`` must lie in (1, 2]; alpha = 2 (the Gaussian endpoint) is
    admitted only so that tests can use a Gaussian oracle.  ``scale = 0``
    denotes the point mass at zero.
    """

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (1, 2], got {self.alpha}")
        if self.scale < 0:
            raise ValueError(f"scale must be >= 0, got {self.scale}")


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based, so distinct integer keys give independent
    # streams without coordination; replicate r of an experiment uses seed ^ r.
    return _stream(seed, 0)


def _stream(seed: int, c: int) -> np.random.Generator:
    """Stream ``c`` of key ``seed``: Philox at counter ``(0, 0, c, 0)``, bit
    for bit ``_rng(seed).bit_generator.jumped(c)``, 2^128 blocks past stream
    ``c - 1``, but built in about 20 us against ``jumped``'s 48 us."""
    return np.random.Generator(np.random.Philox(
        counter=[0, 0, c, 0], key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))


# elements per tile of the transform: a tile's working set stays in cache
_TILE = 2**15

# OpenBLAS runs a dgemm on the calling thread up to this many multiply-adds
# (SMP_THRESHOLD_MIN 65,536 times GEMM_MULTITHREAD_THRESHOLD 4); above it the
# product wakes BLAS worker threads, which then busy-wait and take the CPUs
# of the field pass's helper and the Monte Carlo's chunk workers
_SERIAL_GEMM_MADDS = 4 * 65_536


def serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D float arrays, in ``np.matmul`` calls of at most
    ``_SERIAL_GEMM_MADDS`` multiply-adds that BLAS runs on the calling thread.
    The calls split the longer free dimension, b's columns unless a has more
    rows; never the contraction, whose split would reorder each entry's sum."""
    out = np.empty((a.shape[0], b.shape[1]))
    if a.shape[0] > b.shape[1]:
        rows = max(1, _SERIAL_GEMM_MADDS // b.size)
        for lo in range(0, a.shape[0], rows):
            np.matmul(a[lo : lo + rows], b, out=out[lo : lo + rows])
    else:
        cols = max(1, _SERIAL_GEMM_MADDS // a.size)
        for lo in range(0, b.shape[1], cols):
            np.matmul(a, b[:, lo : lo + cols], out=out[:, lo : lo + cols])
    return out


def unit_sas(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` unit-scale SaS variables via the CMS transform in half-angle form.

    With ``phi = pi (r - 1/2)``, ``m = min(r, 1 - r)`` and a standard
    exponential ``W``, the Chambers-Mallows-Stuck variable is

        X = sin(alpha phi) cos(phi)^(-1/alpha) (cos((1 - alpha) phi) / W)^((1 - alpha) / alpha).

    Each of its three trigonometric factors is ``sin(pi x)`` for an ``x`` in
    ``[0, 1/2]`` built from ``m`` without cancellation: ``cos(phi) =
    sin(pi m)``, ``cos((1 - alpha) phi) = sin(pi ((2 - alpha)/2 + (alpha - 1) m))``
    and ``|sin(alpha phi)| = sin(pi min(alpha (1/2 - m), 1 - alpha/2 + alpha m))``.
    Each sine comes from one tangent, ``sin(pi x) = 2 t / (1 + t^2)`` with
    ``t = tan(pi x / 2)``, and the powers from logarithms and one ``exp``:
    three ``tan``, two ``log`` and one ``exp`` per draw.  The factors 2 cancel
    (the transform is homogeneous of degree 0 in them), so each sine enters as
    ``t / (1 + t^2)``.  ``m`` is at least ``2^-54``, half a step of the
    generator's ``2^-53`` lattice, so ``r = 0`` gives a finite draw.  The
    formula is exact at alpha = 2, where it reduces to ``2 sin(phi) sqrt(W)``,
    a centered Gaussian with variance 2, so one expression serves every alpha.

    ``rng`` yields all ``n`` uniforms, then all ``n`` exponentials, and is
    left where ``random(n)`` and then ``standard_exponential(n)`` leave it.
    ``rng.random`` puts the uniforms in the returned array; then, one
    ``_TILE`` at a time, the tile's exponentials are drawn into a scratch
    tile and the transform rewrites the tile's uniforms in place, with two
    more scratch tiles.  Each element sees the same ufuncs in the same order
    as the whole-array expression.  The call runs on the calling thread and
    starts none: ``bounds``' Monte Carlo calls it from its chunk workers,
    each on its own generator.
    """
    out = np.empty(n)
    rng.random(out=out)
    q = math.pi / 2.0
    k_c2, k_c1 = (1.0 - alpha) / alpha, -1.0 / alpha

    def half_angle_sine(x: np.ndarray, tmp: np.ndarray) -> None:
        # x <- t / (1 + t^2) with t = tan(x): sin(2 x) / 2
        np.tan(x, out=x)
        np.multiply(x, x, out=tmp)
        np.add(tmp, 1.0, out=tmp)
        np.divide(x, tmp, out=x)

    def transform(u: np.ndarray, e: np.ndarray, m: np.ndarray, x: np.ndarray) -> None:
        # one tile: the whole-array expression one ufunc at a time, over the
        # tile's uniforms u and exponentials e and two scratch rows
        # x = r >= 2^-54
        np.maximum(u, 2.0**-54, out=x)
        # m = rint(r) - r: min(r, 1 - r) with the sign of phi
        np.rint(x, out=m)
        np.subtract(m, x, out=m)
        # e = k_c2 log(sin(pi x2) / (2 max(w, 1e-300))),
        # x2 = (2 - alpha)/2 + (alpha - 1) |m|
        np.maximum(e, 1e-300, out=e)
        np.abs(m, out=x)
        np.multiply(x, q * (alpha - 1.0), out=x)
        np.add(x, q * (2.0 - alpha) / 2.0, out=x)
        half_angle_sine(x, u)
        np.divide(x, e, out=x)
        np.log(x, out=x)
        np.multiply(x, k_c2, out=e)
        # e += k_c1 log(sin(pi |m|) / 2)
        np.abs(m, out=x)
        np.multiply(x, q, out=x)
        half_angle_sine(x, u)
        np.log(x, out=x)
        np.multiply(x, k_c1, out=x)
        np.add(e, x, out=e)
        # u = sin(alpha phi) / 2 = sign(m) sin(pi min(x0, x1)) / 2,
        # x0 = alpha (1/2 - |m|), x1 = 1 - alpha/2 + alpha |m|
        np.abs(m, out=u)
        np.multiply(u, q * alpha, out=x)
        np.add(x, q * (1.0 - alpha / 2.0), out=x)
        np.subtract(0.5, u, out=u)
        np.multiply(u, q * alpha, out=u)
        np.minimum(u, x, out=u)
        np.copysign(u, m, out=u)
        half_angle_sine(u, x)
        # X = u exp(e)
        np.exp(e, out=e)
        np.multiply(u, e, out=u)

    e, m, x = np.empty((3, min(n, _TILE)))
    for lo in range(0, n, _TILE):
        u = out[lo : lo + _TILE]
        k = u.size
        rng.standard_exponential(out=e[:k])
        transform(u, e[:k], m[:k], x[:k])
    return out


def sample_sas(law: StableLaw, n: int, seed: int) -> np.ndarray:
    """``n`` independent draws from ``law`` as a read-only array; the same
    (law, n, seed) gives the same draws."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if law.scale == 0.0:
        values = np.zeros(n)
    else:
        values = law.scale * unit_sas(law.alpha, n, _rng(seed))
    values.setflags(write=False)
    return values


def moment_constant(gamma: float, alpha: float) -> float:
    """Constant c(gamma) in E|S|**gamma = c(gamma) * ||S||_alpha**gamma.

    Evaluated from the closed Gamma-product form of the SaS absolute-moment
    integral,

        c(gamma) = (2/pi) * Gamma(1 - gamma/alpha) * Gamma(gamma) * sin(pi*gamma/2),

    valid for 0 < gamma < alpha.  At alpha = 2, gamma = 1 this gives
    2/sqrt(pi), the mean absolute value of an N(0, 2) variable.
    """
    if not 0.0 < gamma < alpha:
        raise ValueError(f"gamma must be in (0, alpha) = (0, {alpha}), got {gamma}")
    return (
        2.0
        / math.pi
        * math.gamma(1.0 - gamma / alpha)
        * math.gamma(gamma)
        * math.sin(math.pi * gamma / 2.0)
    )


def tail_coefficient(law: StableLaw, values: np.ndarray, xi_grid) -> list[tuple[float, float]]:
    """Empirical tail products P(|S| > xi) * xi**alpha of the draws ``values``
    of ``law`` along ``xi_grid``.

    The two-sided tail bound for SaS laws says these products stay within a
    band [c1 * scale**alpha, c2 * scale**alpha] for xi >= scale; the band
    constants are witnessed empirically, never asserted a priori.
    """
    xi_grid = np.atleast_1d(np.asarray(xi_grid, dtype=float))
    if np.any(xi_grid < law.scale):
        raise ValueError("every xi must be >= law.scale")
    absv = np.abs(values)
    out = []
    for xi in xi_grid:
        p = float(np.mean(absv > xi))
        out.append((float(xi), p * xi**law.alpha))
    return out
