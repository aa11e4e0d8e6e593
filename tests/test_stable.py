"""Stable sampling against independent oracles: Gaussian endpoint, closed-form
moment constants, and large-sample Monte Carlo."""

import contextlib
import math
import sys
import threading

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
def test_tiled_transform_is_bitwise_whole_array(alpha, threads, monkeypatch):
    # thread budgets, tiles and the generator's position within its Philox
    # block (0-3 words or a 32-bit half word drawn before) change neither the
    # values nor the generator's full state, which must equal that after
    # random(n) then standard_exponential(n); 4 threads take one tile each of
    # the largest n, more threads than a small box has CPUs
    monkeypatch.setattr(stable, "_threads", threads)
    tile = stable._TILE
    for pre in (0, 1, 2, 3, "half"):
        for n in (0, 1, 5, tile - 1, tile, tile + 1, 3 * tile + 7):
            rng, ref_rng = _predrawn(9, pre), _predrawn(9, pre)
            got = unit_sas(alpha, n, rng)
            assert got.tobytes() == _cms_whole_array(alpha, n, ref_rng).tobytes(), (pre, n)
            assert _state(rng) == _state(ref_rng), (pre, n)


def test_skip_matches_drawn_words():
    # the skipped copy is where the original is after n words, from every
    # position in the buffered block and across many blocks: the same state
    # (a used-up buffer's stale words aside, which no draw reads) and the
    # same next words
    for pre in (0, 1, 2, 3, 4, "half"):
        for n in (0, 1, 2, 3, 4, 5, 8, 9, 1001):
            rng = _predrawn(5, pre)
            ahead = stable._skip(rng.bit_generator, n)
            rng.bit_generator.random_raw(n)
            got, want = _state(ahead), _state(rng)
            if want[3] == 4:
                got, want = got[:2] + got[3:], want[:2] + want[3:]
            assert got == want, (pre, n)
            assert (ahead.bit_generator.random_raw(9).tolist()
                    == rng.bit_generator.random_raw(9).tolist()), (pre, n)


def _within(seconds, fn, *args):
    # run fn on a thread, so that a hang fails the test instead of stalling it
    box = {}

    def run():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # handed to the test below
            box["error"] = exc

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"no return within {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


@contextlib.contextmanager
def _fast_switching():
    # a thread switch every microsecond
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_draws_under_fast_switching(monkeypatch):
    # more threads than CPUs and a thread switch every microsecond: a lost
    # hand-off hangs (the time limit fails it) or transforms a tile before its
    # exponentials land (the bits differ)
    monkeypatch.setattr(stable, "_threads", 8)
    n = 20 * stable._TILE + 3
    with _fast_switching():
        got = _within(120, unit_sas, 1.5, n, _rng(11))
    assert got.tobytes() == _cms_whole_array(1.5, n, _rng(11)).tobytes()


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_sink_pieces_join_to_array_result(threads, monkeypatch):
    # for every n and generator position of the tiled test, the pieces handed
    # to a sink are whole tiles but the last, join to the array result byte
    # for byte, and leave the generator where the array result does
    monkeypatch.setattr(stable, "_threads", threads)
    tile = stable._TILE
    for pre in (0, 1, 2, 3, "half"):
        for n in (0, 1, 5, tile - 1, tile, tile + 1, 3 * tile + 7):
            rng, ref_rng = _predrawn(9, pre), _predrawn(9, pre)
            pieces = []
            assert unit_sas(1.5, n, rng, sink=lambda p: pieces.append(p.copy())) is None
            want = unit_sas(1.5, n, ref_rng)
            assert [p.size for p in pieces] == [min(tile, n - lo) for lo in range(0, n, tile)]
            assert np.concatenate([np.empty(0), *pieces]).tobytes() == want.tobytes(), (pre, n)
            assert _state(rng) == _state(ref_rng), (pre, n)


def test_sink_sees_pieces_in_stream_order(monkeypatch):
    # more threads than CPUs and a thread switch every microsecond: the sink
    # gets each tile once, in stream order, and never two tiles at once
    monkeypatch.setattr(stable, "_threads", 8)
    tile, n = stable._TILE, 20 * stable._TILE + 3
    want = _cms_whole_array(1.5, n, _rng(11))
    pieces, busy = [], threading.Lock()

    def sink(piece):
        assert busy.acquire(blocking=False), "two pieces handed over at once"
        try:
            pieces.append(piece.copy())
        finally:
            busy.release()

    with _fast_switching():
        _within(120, unit_sas, 1.5, n, _rng(11), sink)
    assert len(pieces) == -(-n // tile)
    for i, piece in enumerate(pieces):
        assert piece.tobytes() == want[i * tile : (i + 1) * tile].tobytes(), i


@pytest.mark.parametrize("call", [1, 3])
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_failed_sink_reaches_caller(threads, call, monkeypatch):
    # the sink raises at its call-th piece: the error reaches the caller, no
    # piece is handed over after it, and no thread is left running
    monkeypatch.setattr(stable, "_threads", threads)
    calls = []

    def sink(piece):
        calls.append(piece.size)
        if len(calls) == call:
            raise RuntimeError("injected sink failure")

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="injected sink failure"):
        _within(60, unit_sas, 1.5, 6 * stable._TILE, _rng(3), sink)
    assert threading.active_count() == before
    assert len(calls) == call


class _FailingExponentials:
    """Wraps a generator; its ``call``-th exponential draw raises."""

    def __init__(self, gen, call):
        self.gen, self.bit_generator, self.call = gen, gen.bit_generator, call

    def standard_exponential(self, out):
        self.call -= 1
        if self.call == 0:
            raise RuntimeError("injected draw failure")
        self.gen.standard_exponential(out=out)


@pytest.mark.parametrize("call", [1, 2, 5])
@pytest.mark.parametrize("threads", [2, 4])
def test_failed_exponential_draw_reaches_caller(threads, call, monkeypatch):
    # an exponential tile draw fails on the thread that draws it: the error
    # reaches the caller, and no thread is left waiting for a task or running
    monkeypatch.setattr(stable, "_threads", threads)
    skip = stable._skip
    monkeypatch.setattr(stable, "_skip", lambda bg, n: _FailingExponentials(skip(bg, n), call))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="injected draw failure"):
        _within(60, unit_sas, 1.5, 6 * stable._TILE, _rng(3))
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [2, 4])
def test_failed_word_draw_reaches_caller(threads, monkeypatch):
    # the third tile's draw of the uniforms from the words fails while other
    # threads draw exponentials, transform the first tiles or wait for a task
    class FailingWords:
        """Stands in for the generator; its third draw of uniforms raises."""

        def __init__(self, gen):
            self.gen, self.bit_generator, self.drawn = gen, gen.bit_generator, 0

        def random(self, out):
            self.drawn += 1
            if self.drawn == 3:
                raise RuntimeError("injected draw failure")
            self.gen.random(out=out)

    monkeypatch.setattr(stable, "_threads", threads)
    rng = FailingWords(_rng(3))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="injected draw failure"):
        _within(60, unit_sas, 1.5, 6 * stable._TILE, rng)
    assert threading.active_count() == before


def test_unit_sas_needs_philox():
    with pytest.raises(TypeError, match="Philox"):
        unit_sas(1.5, 4, np.random.default_rng(1))


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
    """Stands in for the generator and for its skipped copy: hands unit_sas
    given uniforms and given exponentials, each from a cursor."""

    def __init__(self, r, w):
        self.bit_generator = np.random.Philox(key=0)
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
def test_unit_sas_matches_mpmath_oracle(alpha, monkeypatch):
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
    # the exponentials come from the stand-in, in the skipped copy's place
    draws = _FixedDraws(r, w)
    monkeypatch.setattr(stable, "_skip", lambda bg, n: draws)
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
