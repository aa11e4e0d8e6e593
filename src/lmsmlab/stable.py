"""Symmetric alpha-stable sampling, fractional moments and tail diagnostics.

All heavy-tailed randomness in the package flows through this module.  The
scale convention is the usual one for stable stochastic integrals: if
``S = int f dZ`` then ``||S||_alpha**alpha = int |f|**alpha``, and for
``alpha = 2`` a unit-scale variable is Gaussian with variance 2 (not 1).

Unit-scale draws come from the Chambers-Mallows-Stuck transform of a uniform
angle and a standard exponential (Chambers, Mallows & Stuck 1976; Weron 1996;
Samorodnitsky & Taqqu 1994).  The stream order is fixed: all ``n`` uniforms,
then all ``n`` exponentials, from one Philox generator.  Philox is
counter-based (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11), so a copy of the generator can jump ``n`` words ahead at once and
draw the exponentials on a second thread while the uniforms' words are drawn
and the transform runs, without changing a single draw; the ziggurat
exponential consumes a variable number of words, so the exponentials
themselves stay one serial stream.  The transform is elementwise, so it runs
over fixed tiles of ``_TILE`` elements spread across the process's threads
(numpy ufuncs and the bit generators release the GIL); every element goes
through the same ufuncs in the same order as the whole-array expression, so
the draws are bitwise identical for any thread count.

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
draws are within 5e-15 relative of 50-digit values of the transform.  They
are bitwise identical across thread counts, but differ from the direct
expression's in the last bits.

The process has one thread budget, ``_threads``: every CPU in the affinity
mask, and 1 in each worker of ``run_experiment``'s process pool
(``_set_threads``), so that the pool's processes do not oversubscribe the
CPUs.  This transform spreads its tiles over that many threads.
``process.field_on_mesh`` runs each transform on the thread that makes the
call (``numpy.fft`` has no thread option) and, on a budget of two or more,
starts one helper thread per pass that builds the next block's kernel
spectrum while the caller convolves the current block with the noise.
Both give bitwise the same numbers on every budget.  ``bounds``' Monte
Carlo draws, the path's far series and the frozen levels' far part take
their matrix products through ``serial_matmul``, in blocks that BLAS runs
on the calling thread.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StableLaw",
    "SampleBatch",
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


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """A reproducible batch of draws: identical (seed, law, n) gives identical values."""

    values: np.ndarray
    seed: int
    law: StableLaw

    def __len__(self):
        return self.values.size


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based, so distinct integer keys give independent
    # streams without coordination; replicate r of an experiment uses seed ^ r.
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))


# elements per tile of the transform: a fixed slice, so the split never
# depends on the thread count, and a tile's working set stays in cache
_TILE = 2**15

# the process's thread budget (see the module docstring); read at each call
_threads = len(os.sched_getaffinity(0))


def _set_threads(n: int) -> None:
    global _threads
    _threads = int(n)


# OpenBLAS runs a dgemm on the calling thread up to this many multiply-adds
# (SMP_THRESHOLD_MIN 65,536 times GEMM_MULTITHREAD_THRESHOLD 4); above it the
# product wakes BLAS worker threads, which then busy-wait and take the CPUs
# of the budget's threads
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


def _skip(bit_generator: np.random.Philox, n: int) -> np.random.Generator:
    """A generator on a copy of ``bit_generator`` that is ``n`` words ahead.

    Philox makes its words in blocks of four from a counter.  The copy uses
    up the words left in its buffer, moves the counter by whole blocks
    (``advance`` counts blocks and empties the buffer), and draws the rest
    of the ``n`` words.  ``advance`` also drops a buffered 32-bit half word,
    which the copy gets back.  So the copy draws what the original draws
    after ``n`` words, and its state is the original's then, except that a
    used-up buffer may hold other stale words, which no draw reads."""
    start = bit_generator.state
    ahead = np.random.Philox(key=0)
    ahead.state = start
    rem = min(4 - start["buffer_pos"], n)
    ahead.random_raw(rem, output=False)
    if n - rem >= 4:
        ahead.advance((n - rem) // 4)
    ahead.random_raw((n - rem) % 4, output=False)
    state = ahead.state
    state["has_uint32"], state["uinteger"] = start["has_uint32"], start["uinteger"]
    ahead.state = state
    return np.random.Generator(ahead)


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

    ``rng`` yields all ``n`` uniforms, then all ``n`` exponentials.  Uniform
    ``i`` is Philox word ``i`` as ``(word >> 11) 2^-53``, exactly what
    ``Generator.random`` computes; the words come from one ``random_raw``
    call and are converted tile by tile inside the transform, whose result
    overwrites them in place.  On one thread the exponentials follow the
    words, one ``_TILE`` at a time, each tile transformed as it lands.  With
    a larger budget they come at the same time from a Philox copy skipped
    ``n`` words ahead (``_skip``), drawn tile by tile on a second thread;
    each tile is transformed, on up to ``_threads`` threads started for this
    call (a module-level pool would have no threads in a forked child), as
    soon as its exponentials and the words are there.  The generator then takes the
    copy's state, so every budget leaves ``rng`` where ``random(n)`` and
    then ``standard_exponential(n)`` would.  An error in any thread stops
    the others, and reaches the caller once every thread has ended.  The
    transform works in place over the words, the exponentials and two
    scratch tiles per thread, so it allocates nothing per tile.  Each
    element sees the same ufuncs in the same order as the whole-array
    expression, so the result is bitwise identical for every budget.
    """
    if n == 0:
        return np.empty(0)
    bg = rng.bit_generator
    if not isinstance(bg, np.random.Philox):
        raise TypeError(f"unit_sas draws from a Philox generator, got {type(bg).__name__}")
    n_tiles = -(-n // _TILE)
    threads = min(_threads, n_tiles)
    ahead = _skip(bg, n) if threads > 1 else rng
    words = None
    w = np.empty(n)
    scratch = np.empty((threads, 2, min(n, _TILE)))
    q = math.pi / 2.0
    k_c2, k_c1 = (1.0 - alpha) / alpha, -1.0 / alpha

    def half_angle_sine(x: np.ndarray, tmp: np.ndarray) -> None:
        # x <- t / (1 + t^2) with t = tan(x): sin(2 x) / 2
        np.tan(x, out=x)
        np.multiply(x, x, out=tmp)
        np.add(tmp, 1.0, out=tmp)
        np.divide(x, tmp, out=x)

    def transform(k: int, i: int) -> None:
        # tile i on thread k: the whole-array expression one ufunc at a time,
        # over the tile's words and w and two scratch rows
        tile = slice(i * _TILE, (i + 1) * _TILE)
        b, e = words[tile], w[tile]
        u = b.view(np.float64)
        m, x = scratch[k, 0, : u.size], scratch[k, 1, : u.size]
        # x = r = (word >> 11) 2^-53, r >= 2^-54
        np.right_shift(b, 11, out=b)
        np.multiply(b, 2.0**-53, out=x)
        np.maximum(x, 2.0**-54, out=x)
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

    def draw_exponentials(i: int) -> None:
        ahead.standard_exponential(out=w[i * _TILE : (i + 1) * _TILE])

    if threads == 1:
        words = bg.random_raw(n)
        for i in range(n_tiles):
            draw_exponentials(i)
            transform(0, i)
        return words.view(np.float64)

    # thread 0 (the caller) draws the words, thread 1 the exponentials; then
    # each takes the next untransformed tile, waiting until it is drawn
    ready = threading.Condition()
    landed, claimed, failed = 0, 0, False

    def work(k: int) -> None:
        nonlocal words, landed, claimed, failed
        try:
            if k == 0:
                drawn = bg.random_raw(n)
                with ready:
                    words = drawn
                    ready.notify_all()
            elif k == 1:
                for i in range(n_tiles):
                    draw_exponentials(i)
                    with ready:
                        if failed:
                            return
                        landed += 1
                        ready.notify_all()
            while True:
                with ready:
                    i, claimed = claimed, claimed + 1
                    if i >= n_tiles:
                        return
                    ready.wait_for(lambda: failed or (words is not None and landed > i))
                    if failed:
                        return
                transform(k, i)
        except BaseException:
            with ready:
                failed = True
                ready.notify_all()
            raise

    with ThreadPoolExecutor(threads - 1) as pool:
        others = [pool.submit(work, k) for k in range(1, threads)]
        work(0)
    for f in others:
        f.result()
    bg.state = ahead.bit_generator.state
    return words.view(np.float64)


def sample_sas(law: StableLaw, n: int, seed: int) -> SampleBatch:
    """Sample ``n`` independent draws from ``law``, deterministically in ``seed``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if law.scale == 0.0:
        values = np.zeros(n)
    else:
        values = law.scale * unit_sas(law.alpha, n, _rng(seed))
    values.setflags(write=False)
    return SampleBatch(values=values, seed=seed, law=law)


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


def tail_coefficient(
    law: StableLaw, samples: SampleBatch, xi_grid
) -> list[tuple[float, float]]:
    """Empirical tail products P(|S| > xi) * xi**alpha along ``xi_grid``.

    The two-sided tail bound for SaS laws says these products stay within a
    band [c1 * scale**alpha, c2 * scale**alpha] for xi >= scale; the band
    constants are witnessed empirically, never asserted a priori.
    """
    if samples.law != law:
        raise ValueError("samples were not drawn from the given law")
    xi_grid = np.atleast_1d(np.asarray(xi_grid, dtype=float))
    if np.any(xi_grid < law.scale):
        raise ValueError("every xi must be >= law.scale")
    absv = np.abs(samples.values)
    out = []
    for xi in xi_grid:
        p = float(np.mean(absv > xi))
        out.append((float(xi), p * xi**law.alpha))
    return out
