"""Stable sampling against independent oracles: Gaussian endpoint, closed-form
moment constants, and large-sample Monte Carlo."""

import ast
import contextlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from lmsmlab import stable
from lmsmlab.stable import (
    StableLaw,
    _rng,
    moment_constant,
    sample_sas,
    tail_coefficient,
    unit_sas,
)


def test_zero_scale_is_point_mass():
    assert np.all(sample_sas(StableLaw(1.7, 0.0), 5, seed=1) == 0.0)


def test_alpha2_matches_gaussian_oracle():
    # unit-scale SaS at alpha=2 is N(0, 2); compare variance within 3 MC SEs,
    # with the SE taken from an independent Gaussian sampler
    n = 1_000_000
    vals = sample_sas(StableLaw(2.0, 1.0), n, seed=7)
    oracle = np.random.default_rng(123).normal(0.0, math.sqrt(2.0), n)
    se = np.std(oracle**2, ddof=1) / math.sqrt(n)
    assert abs(vals.var() - 2.0) < 3.0 * se
    assert abs(np.mean(oracle**2) - 2.0) < 3.0 * se  # oracle sane


def test_symmetric_median_near_zero():
    vals = sample_sas(StableLaw(1.5, 1.0), 1_000_000, seed=11)
    assert abs(np.median(vals)) < 0.01


def test_determinism_and_stream_separation():
    a = sample_sas(StableLaw(1.5, 1.0), 1000, seed=42)
    b = sample_sas(StableLaw(1.5, 1.0), 1000, seed=42)
    c = sample_sas(StableLaw(1.5, 1.0), 1000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _cms_whole_array(alpha, n, rng):
    # reference: the half-angle CMS transform as one whole-array expression
    if n == 0:
        return np.empty(0)
    r, w = rng.random(n), rng.standard_exponential(n)
    q = math.pi / 2.0

    def half_sine(x):  # sin(2 x) / 2
        t = np.tan(x)
        return t / (t * t + 1.0)

    r = np.maximum(r, 2.0**-54)
    m = np.rint(r) - r
    a = np.abs(m)
    c2 = half_sine(a * (q * (alpha - 1.0)) + q * (2.0 - alpha) / 2.0) / np.maximum(w, 1e-300)
    c1 = half_sine(a * q)
    x0 = (0.5 - a) * (q * alpha)
    x1 = a * (q * alpha) + q * (1.0 - alpha / 2.0)
    s = half_sine(np.copysign(np.minimum(x0, x1), m))
    return s * np.exp(np.log(c2) * ((1.0 - alpha) / alpha) + np.log(c1) * (-1.0 / alpha))


def _state(rng):
    # the bit generator's full state: counter, key, buffered block and
    # position, and the buffered 32-bit half word
    s = rng.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
            s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"], s["uinteger"])


def _predrawn(seed, pre):
    # a generator that has drawn ``pre`` words, or a 32-bit half word
    rng = _rng(seed)
    if pre == "half":
        rng.random(dtype=np.float32)
    else:
        rng.bit_generator.random_raw(pre)
    return rng


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
def test_tiled_transform_is_bitwise_whole_array(alpha, threads):
    # tiles, the generator's position within its Philox block (0-3 words or
    # a 32-bit half word drawn before) and ``threads`` callers at once, as
    # bounds' Monte Carlo chunk workers call it, change neither the values
    # nor the generator's full state, which must equal that after random(n)
    # then standard_exponential(n)
    tile = stable._TILE

    def check(pre, n):
        rng, ref_rng = _predrawn(9, pre), _predrawn(9, pre)
        got = unit_sas(alpha, n, rng)
        assert got.tobytes() == _cms_whole_array(alpha, n, ref_rng).tobytes(), (pre, n)
        assert _state(rng) == _state(ref_rng), (pre, n)

    cases = [(pre, n) for pre in (0, 1, 2, 3, "half")
             for n in (0, 1, 5, tile - 1, tile, tile + 1, 3 * tile + 7)]
    with ThreadPoolExecutor(threads) as pool:
        for done in [pool.submit(check, *case) for case in cases]:
            done.result()


def test_stream_is_a_jump_of_the_key():
    # stream c of a key is the key's generator jumped c times, state and draws
    for c in (0, 1, 2, 7):
        got, want = stable._stream(5, c), np.random.Generator(_rng(5).bit_generator.jumped(c))
        assert _state(got) == _state(want), c
        assert got.random(9).tobytes() == want.random(9).tobytes(), c


@contextlib.contextmanager
def _fast_switching():
    # a thread switch every microsecond
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_draws_under_fast_switching():
    # unit_sas keeps no state between calls: 8 threads, more than a small box
    # has CPUs, each drawing three streams of one key under a thread switch
    # every microsecond, get the bits of the same calls made one at a time
    n = 3 * stable._TILE + 3
    want = [unit_sas(1.5, n, stable._stream(11, c)).tobytes() for c in range(24)]
    got = [None] * 24

    def draw(first):
        for c in range(first, 24, 8):
            got[c] = unit_sas(1.5, n, stable._stream(11, c)).tobytes()

    threads = [threading.Thread(target=draw, args=(w,), daemon=True) for w in range(8)]
    with _fast_switching():
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    assert not any(t.is_alive() for t in threads), "no return within 120 s"
    assert got == want


def test_sampler_starts_no_thread():
    # the sampler is serial by construction: its module imports no thread
    # machinery, and a call of three tiles leaves the thread count as it was
    with open(stable.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not imported & {"threading", "concurrent.futures"}
    before = threading.active_count()
    assert unit_sas(1.5, 3 * stable._TILE, _rng(3)).size == 3 * stable._TILE
    assert threading.active_count() == before


def test_only_bounds_holds_a_thread_count():
    # the field pass has one schedule and the sampler none, so stable holds
    # no thread state, and bounds' Monte Carlo chunk workers are the one
    # reader of a thread count: no other module of the package names
    # _threads or asks for the affinity mask
    assert not hasattr(stable, "_threads") and not hasattr(stable, "_set_threads")
    for path in sorted(Path(stable.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        wanted = {"_threads", "sched_getaffinity"} if path.stem == "bounds" else set()
        assert names & {"_threads", "sched_getaffinity"} == wanted, path.name


def test_unit_sas_stream_is_pinned():
    # first draws of key 1: a change to the stream order or the transform's
    # arithmetic changes these bits; the sin/cos/power route gave the second
    # list, and the half-angle route moves each value by at most 1e-15
    got = unit_sas(1.5, 4, _rng(1)).tolist()
    assert [x.hex() for x in got] == [
        "-0x1.f108ee17d0837p-1",
        "0x1.1c35e40600ee6p+0",
        "-0x1.0ee8fdf350277p+1",
        "-0x1.08ddcdc812f89p+2",
    ]
    before = [
        "-0x1.f108ee17d0838p-1",
        "0x1.1c35e40600ee5p+0",
        "-0x1.0ee8fdf350275p+1",
        "-0x1.08ddcdc812f86p+2",
    ]
    for x, b in zip(got, map(float.fromhex, before)):
        assert abs(x - b) <= 1e-15 * abs(b)


class _FixedDraws:
    """Stands in for the generator: hands unit_sas given uniforms and given
    exponentials, each from a cursor."""

    def __init__(self, r, w):
        self.r, self.w, self.drawn_r, self.drawn_w = r, w, 0, 0

    def random(self, out):
        out[:] = self.r[self.drawn_r : self.drawn_r + out.size]
        self.drawn_r += out.size

    def standard_exponential(self, out):
        out[:] = self.w[self.drawn_w : self.drawn_w + out.size]
        self.drawn_w += out.size


def _cms_mpmath(alpha, r, w):
    # CMS at 50 digits from the exact r; unit_sas reads r = 0 as 2^-54
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        phi = mpmath.pi * (max(mpmath.mpf(r), mpmath.mpf(2) ** -54) - mpmath.mpf(0.5))
        tilt = (mpmath.cos((1 - a) * phi) / mpmath.mpf(max(w, 1e-300))) ** ((1 - a) / a)
        return float(mpmath.sin(a * phi) / mpmath.cos(phi) ** (1 / a) * tilt)


def _cms_sin_cos_power(alpha, r, w):
    # the direct CMS expression, for comparison near r = 0 and 1
    u = math.pi * (r - 0.5)
    tilt = np.cos((1.0 - alpha) * u) / np.maximum(w, 1e-300)
    return np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha) * tilt ** ((1.0 - alpha) / alpha)


@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.9, 2.0])
def test_unit_sas_matches_mpmath_oracle(alpha):
    # uniforms on the generator's 2^-53 lattice: 500 random ones, 100 within
    # 1e-6 of 0 and of 1 each, and the extreme lattice points
    g = np.random.default_rng(2024)
    lattice = 2.0**-53
    near = 2**53 // 10**6
    r = np.concatenate([
        g.integers(0, 2**53, 500) * lattice,
        g.integers(0, near, 100) * lattice,
        1.0 - g.integers(1, near, 100) * lattice,
        [0.0, lattice, 0.5, 1.0 - lattice],
    ])
    w = g.standard_exponential(r.size)
    w[:3] = [0.0, 1e-310, 40.0]
    draws = _FixedDraws(r, w)
    got = unit_sas(alpha, r.size, draws)
    assert draws.drawn_r == draws.drawn_w == r.size
    exact = np.array([_cms_mpmath(alpha, ri, wi) for ri, wi in zip(r, w)])
    assert np.all(np.isfinite(got))
    # r = 1/2 gives exactly 0, which the bound below demands bit for bit
    assert np.all(np.abs(got - exact) <= 1e-13 * np.abs(exact))
    # near 0 and 1 the sin/cos/power expression's error is set by the rounding
    # of pi (r - 1/2); unit_sas takes its angles from min(r, 1 - r) and does
    # no worse, and for alpha < 2 (no cancellation) far better
    edge = slice(500, 700)
    err = np.abs(got[edge] - exact[edge]) / np.abs(exact[edge])
    old = _cms_sin_cos_power(alpha, r[edge], w[edge])
    old_err = np.abs(old - exact[edge]) / np.abs(exact[edge])
    assert np.all(err <= np.maximum(old_err, 1e-13))
    if alpha < 2.0:
        assert err.max() < 1e-3 * old_err.max()


def test_domain_validation():
    with pytest.raises(ValueError):
        StableLaw(1.0, 1.0)
    with pytest.raises(ValueError):
        StableLaw(2.2, 1.0)
    with pytest.raises(ValueError):
        StableLaw(1.5, -0.1)
    with pytest.raises(ValueError):
        sample_sas(StableLaw(1.5, 1.0), -1, seed=0)
    with pytest.raises(ValueError):
        moment_constant(1.5, 1.5)
    with pytest.raises(ValueError):
        moment_constant(1.7, 1.5)


def test_moment_constant_small_gamma_limit():
    assert abs(moment_constant(1e-10, 1.5) - 1.0) < 1e-6


def test_moment_constant_gaussian_closed_form():
    # E|N(0,2)| = 2/sqrt(pi)
    assert abs(moment_constant(1.0, 2.0) - 2.0 / math.sqrt(math.pi)) < 1e-14


@pytest.mark.parametrize("gamma,alpha", [(0.25, 1.2), (0.25, 1.5), (0.5, 1.8)])
def test_moment_identity_against_mc(gamma, alpha):
    n = 10_000_000
    vals = sample_sas(StableLaw(alpha, 1.0), n, seed=int(alpha * 100))
    mc = np.mean(np.abs(vals) ** gamma)
    c = moment_constant(gamma, alpha)
    assert abs(mc - c) < 0.01 * c


def test_moment_constant_mc_crosscheck_quarter():
    # (0.25, 1.5) within 1% of a 1e7-sample MC oracle, as an absolute check
    n = 10_000_000
    vals = sample_sas(StableLaw(1.5, 1.0), n, seed=5150)
    mc = np.mean(np.abs(vals) ** 0.25)
    assert abs(moment_constant(0.25, 1.5) - mc) < 0.01 * mc


def test_scaling_equivariance_in_gamma_moment():
    gamma, alpha, c_mult = 0.25, 1.5, 3.0
    n = 1_000_000
    base = sample_sas(StableLaw(alpha, 1.0), n, seed=21)
    scaled_law = sample_sas(StableLaw(alpha, c_mult), n, seed=22)
    m1 = np.mean(np.abs(c_mult * base) ** gamma)
    m2 = np.mean(np.abs(scaled_law) ** gamma)
    pooled_se = math.sqrt(
        np.var(np.abs(c_mult * base) ** gamma, ddof=1) / n
        + np.var(np.abs(scaled_law) ** gamma, ddof=1) / n
    )
    assert abs(m1 - m2) < 3.0 * pooled_se


def test_tail_products_banded():
    law = StableLaw(1.5, 1.0)
    batch = sample_sas(law, 10_000_000, seed=777)
    prods = [p for _, p in tail_coefficient(law, batch, [2.0, 4.0, 8.0, 16.0])]
    assert max(prods) / min(prods) < 2.0
    assert all(p > 0 for p in prods)


def test_tail_scale_equivariance():
    # doubling sigma doubles the quantile grid: the product at 2*xi under
    # scale 2 is exactly 2**alpha times the product at xi under scale 1
    alpha = 1.5
    b1 = sample_sas(StableLaw(alpha, 1.0), 4_000_000, seed=88)
    b2 = sample_sas(StableLaw(alpha, 2.0), 4_000_000, seed=89)
    p1 = dict(tail_coefficient(StableLaw(alpha, 1.0), b1, [4.0, 8.0]))
    p2 = dict(tail_coefficient(StableLaw(alpha, 2.0), b2, [8.0, 16.0]))
    for xi in (4.0, 8.0):
        assert p2[2 * xi] / p1[xi] == pytest.approx(2.0**alpha, rel=0.1)


def test_tail_zero_scale_and_xi_validation():
    law0 = StableLaw(1.4, 0.0)
    batch = sample_sas(law0, 1000, seed=3)
    assert all(p == 0.0 for _, p in tail_coefficient(law0, batch, [0.5, 1.0]))
    law = StableLaw(1.4, 2.0)
    with pytest.raises(ValueError):
        tail_coefficient(law, sample_sas(law, 10, seed=1), [1.0])
