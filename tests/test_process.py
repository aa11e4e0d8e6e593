"""Noise grids, field evaluation, motion paths and direct coefficients.

The Monte Carlo oracles here follow the scale contract of discrete stable
integrals: the scale of sum w_i dZ_i is (sum |w_i|**alpha * delta)**(1/alpha),
so empirical fractional moments can be compared against quadrature targets.
"""

import copy
import dataclasses
import math
import os
import pickle
import re
import sys
import threading
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from scipy.integrate import quad

import lmsmlab as L
from lmsmlab.coeffs import FrozenLevels, noise_step
from lmsmlab.harness import write_path_csv
from lmsmlab.process import (
    MeshFieldInterpolant,
    direct_coeff_weights,
    eval_field,
    field_on_mesh,
    make_noise_grid,
    path_truncation_audit,
)
from lmsmlab.stable import moment_constant, unit_sas
from lmsmlab.wavelet import PhiKernel, _poly_eval

LAW = L.StableLaw(1.5, 1.0)


def _split_cells(K):
    # field_on_mesh splits the noise ceil(K / 4) cells below s = 0, K = 1/delta
    return -(-K // L.process._NEAR_SHARE)


def test_grid_determinism_and_shape():
    g1 = make_noise_grid(LAW, -2.0, 2.0**-8, seed=5)
    g2 = make_noise_grid(LAW, -2.0, 2.0**-8, seed=5)
    assert np.array_equal(g1.increments, g2.increments)
    assert g1.n_cells == 3 * 2**8
    assert g1.origin_index == 2 * 2**8


def test_grid_validation():
    with pytest.raises(ValueError):
        make_noise_grid(LAW, -1.0, -0.1, seed=1)
    with pytest.raises(ValueError):
        make_noise_grid(LAW, 0.5, 0.01, seed=1)
    with pytest.raises(ValueError, match="integer cell count"):
        make_noise_grid(LAW, -1.0, 0.3, seed=1)
    # a key outside [0, 2^64) used to wrap: seed 2^64 drew seed 0's increments
    with pytest.raises(ValueError, match="seed must be in"):
        make_noise_grid(LAW, -1.0, 2.0**-6, seed=2**64)


def test_grid_increment_moments_match_constant():
    g = make_noise_grid(LAW, -16383.0, 1.0 / 64, seed=9)
    assert g.n_cells >= 1_000_000
    mom = np.mean(np.abs(g.increments) ** 0.25) / g.delta ** (0.25 / LAW.alpha)
    assert mom == pytest.approx(moment_constant(0.25, LAW.alpha), rel=0.02)


@pytest.mark.parametrize("alpha", [1.2, 1.8])
def test_noise_grid_scales_the_draws_in_place(alpha):
    # the increments are the unit draws times law.scale * delta^(1/alpha),
    # bitwise the old out-of-place expression's (IEEE multiplication
    # commutes), on two seeds
    law, t_min, delta = L.StableLaw(alpha, 1.7), -2.0, 2.0**-9
    for seed in (5, 6):
        g = make_noise_grid(law, t_min, delta, seed)
        xi = unit_sas(alpha, g.n_cells, L.stable._stream(seed, 0))
        old = law.scale * delta ** (1.0 / alpha) * xi
        assert g.increments.tobytes() == old.tobytes()
        assert not g.increments.flags.writeable


def test_unit_delta_increments_are_unit_scale():
    g = make_noise_grid(LAW, -3.0, 1.0, seed=31)
    direct = unit_sas(LAW.alpha, 4, np.random.Generator(np.random.Philox(key=np.uint64(31))))
    assert np.allclose(g.increments, direct)


def test_field_zero_at_origin_and_domain_checks():
    g = make_noise_grid(LAW, -2.0, 2.0**-8, seed=5)
    assert eval_field(g, 0.0, 0.8) == 0.0
    with pytest.raises(ValueError):
        eval_field(g, -0.1, 0.8)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        eval_field(g, 1.0 + 2.0**-8, 0.8)  # past the grid's right end, 1
    with pytest.raises(ValueError):
        eval_field(g, 0.5, 0.6)  # v below 1/alpha


def test_field_truncation_signal():
    g = make_noise_grid(LAW, -1.0, 2.0**-8, seed=5)
    with pytest.raises(L.TruncationError):
        eval_field(g, 1.0, 0.9, tail_tol=1e-3)


def test_fft_route_equals_direct_sums():
    g = make_noise_grid(LAW, -4.0, 2.0**-9, seed=17)
    mesh = field_on_mesh(g, 0.8)
    for m in (0, 1, 3, 77, 512):
        direct = eval_field(g, m * 2.0**-9, 0.8, tail_tol=0.5)
        assert mesh[m] == pytest.approx(direct, abs=1e-10 + 1e-9 * abs(direct))


def test_refined_mesh_consistency():
    g = make_noise_grid(LAW, -2.0, 2.0**-7, seed=23)
    x1 = field_on_mesh(g, 0.75, refine=1)
    x4 = field_on_mesh(g, 0.75, refine=4)
    assert np.allclose(x4[::4], x1, atol=1e-12)
    direct = eval_field(g, 5 * 2.0**-9, 0.75, tail_tol=0.5)
    assert x4[5] == pytest.approx(direct, abs=1e-12)


def _near_cells(g):
    # cells from the split (or t_min) on: the noise the FFT convolution sees
    K = round(1 / g.delta)
    return g.n_cells - max(g.origin_index - _split_cells(K), 0)


def _assert_matches_direct_sums(g, v, refine, mesh, tol):
    assert mesh.size == round(1 / g.delta) * refine + 1
    for m, x in enumerate(mesh):
        direct = eval_field(g, m * g.delta / refine, v, tail_tol=1.0)
        assert x == pytest.approx(direct, abs=tol, rel=tol)


# ids: refine, then the mesh's right end
@pytest.mark.parametrize("refine", [2, 8], ids=["2-1.0", "8-1.0"])
def test_fft_length_at_aliasing_boundary(refine, monkeypatch):
    # every transform runs at exactly the shortest wrap-free length n_near + K;
    # one point shorter would corrupt mesh index 1 (residue 1), which the
    # sweep below includes.  t_min = -4 leaves a far part.
    calls = _record_transforms(monkeypatch)
    g = make_noise_grid(LAW, -4.0, 2.0**-7, seed=41)
    n_min = _near_cells(g) + round(1 / g.delta)
    assert n_min < g.n_cells
    mesh = field_on_mesh(g, 0.8, refine)
    assert calls and all(n == n_min for _, n, _ in calls)
    _assert_matches_direct_sums(g, 0.8, refine, mesh, 1e-12)


def _record_transforms(monkeypatch) -> list:
    # (input shape, length, keywords) of every process.rfft / irfft call
    calls = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            calls.append((np.shape(args[0]), args[1] if len(args) > 1 else None, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(L.process, "rfft", recording(L.process.rfft))
    monkeypatch.setattr(L.process, "irfft", recording(L.process.irfft))
    return calls


def _distinct_buffers(arrays) -> int:
    # how many separate blocks of memory the arrays lie in
    seen = []
    for a in arrays:
        if not any(np.shares_memory(a, b) for b in seen):
            seen.append(a)
    return len(seen)


def test_fft_length_contract(monkeypatch):
    # one 1-D noise transform per call, then per v and block of min(2, refine)
    # residues (one block at refine 2, blocks of 2 and 1 at refine 3) one 2-D
    # rfft and one 2-D irfft with a row per residue; every call takes its
    # length as the second positional argument, n_near + K (560 here, where
    # the noise stops short of the split), never the linear-convolution
    # size, and no keyword but axis and out.  Every 2-D transform writes into
    # the pass's workspace: the rffts of a pass into a ring of two buffers,
    # the irffts into one
    calls = _record_transforms(monkeypatch)
    # no far part: the noise starts at s = -3/16, above the split
    g = make_noise_grid(LAW, -0.1875, 2.0**-8, seed=43)
    n_fft = _near_cells(g) + round(1 / g.delta)
    assert n_fft == 560 == g.n_cells + round(1 / g.delta)
    field_on_mesh(g, 0.8, 2)
    assert len(calls) == 1 + 2
    field_on_mesh(g, np.array([0.75, 0.8, 0.85]), 3)
    assert len(calls) == 1 + 2 + 1 + 2 * 2 * 3
    assert all(n == n_fft for _, n, _ in calls)
    noise, batched = [calls[0], calls[3]], calls[1:3] + calls[4:]
    assert all(len(shape) == 1 and not kw for shape, _, kw in noise)
    # the helper's rfft of block n + 1 and the caller's irfft of block n may
    # run in either order
    assert [shape[0] for shape, _, _ in calls[1:3]] == [2, 2]
    assert sorted(shape[0] for shape, _, _ in calls[4:]) == [1] * 6 + [2] * 6
    for shape, _, kw in batched:
        assert len(shape) == 2
        assert set(kw) == {"axis", "out"} and kw["axis"] == -1
    # a one-block pass makes one spectrum, so it fills one slot of the ring
    for one_pass, ring in ((calls[1:3], 1), (calls[4:], 2)):
        outs = [kw["out"] for _, _, kw in one_pass]
        spectra = [out for out in outs if out.dtype.kind == "c"]
        convolutions = [out for out in outs if out.dtype.kind == "f"]
        assert len(spectra) == len(convolutions) == len(one_pass) // 2
        assert _distinct_buffers(spectra) == ring
        assert _distinct_buffers(convolutions) == 1


# (t_tail, deepest level): the noise geometry of criteria 8 and 10 and of the
# verify bundle's approx_error_check, whose delta is noise_step(deepest level)
@pytest.mark.parametrize("t_tail, j", [(8.0, 12), (8.0, 11)],
                         ids=["criteria-8-and-10", "approx-error-check"])
def test_run_geometries_transform_at_nine_quarters_of_k(t_tail, j, monkeypatch):
    # the noise reaches s = -1/4 on a dyadic grid, so n_near + K = 9K/4:
    # every transform of the runs' passes has that length (3 * 2^16 points
    # at criterion 8's delta = 2^-16), with no search and no padding
    calls = _record_transforms(monkeypatch)
    g = make_noise_grid(LAW, -t_tail, noise_step(j), seed=1)
    K = round(1 / g.delta)
    field_on_mesh(g, 0.8)
    assert len(calls) == 3 and all(4 * n == 9 * K for _, n, _ in calls)


def test_batched_rows_match_one_v_calls():
    # rows are not bitwise equal to one-v calls: the far series' matrix
    # products sum a 1-row and a 16-row product in different orders
    g = make_noise_grid(LAW, -4.0, 2.0**-12, seed=67)
    vs = np.linspace(0.7, 0.95, 16)
    batch = field_on_mesh(g, vs, 8)
    assert batch.shape == (16, 2**12 * 8 + 1)
    for v, row in zip(vs, batch):
        one = field_on_mesh(g, float(v), 8)
        assert one.shape == row.shape
        assert np.max(np.abs(row - one)) <= 1e-13 * np.max(np.abs(one))
    with pytest.raises(ValueError):
        field_on_mesh(g, vs.reshape(4, 4))
    with pytest.raises(ValueError):
        field_on_mesh(g, np.array([0.8, 0.6]))  # one v below 1/alpha
    # an empty batch is refused, with a far part or without one
    for t_min in (-4.0, -1.5, -0.125):
        with pytest.raises(ValueError, match="v must"):
            field_on_mesh(make_noise_grid(LAW, t_min, 2.0**-6, 1), np.array([]), 2)


def test_cost_contract_of_the_split(monkeypatch):
    # the split fixes the cost balance: on a grid with a long far part every
    # transform has length n_near + K = 9K/4, and the far series of the
    # criterion-8 batch need the term counts below.  The cost is counted in
    # rows: the noise is one row, and each v transforms refine kernel rows
    # and inverts refine rows, in blocks of min(2, refine) rows per call
    calls = _record_transforms(monkeypatch)

    def rows():
        return sum(math.prod(shape[:-1]) for shape, _, _ in calls)

    g = make_noise_grid(LAW, -8.0, 2.0**-10, seed=71)
    field_on_mesh(g, 0.8, 8)
    assert [n for _, n, _ in calls] == [9 * 2**8] * (1 + 2 * 4)
    assert rows() == 1 + 2 * 8
    # a path build is one pass: 1 + 2 * 16 * 8 rows in 1 + 2 * 16 * 4 calls,
    # also when a consumer reads the same node rows
    H = L.linear_hurst(0.7, 0.15)
    interp = MeshFieldInterpolant(g, H, 16, 8)
    frozen = FrozenLevels(interp, L.default_wavelet(), {5: (0.0, 1.0)})
    for consumers in ((), (frozen,)):
        calls.clear()
        L.simulate_lmsm(interp, *consumers)
        assert [n for _, n, _ in calls] == [9 * 2**8] * (1 + 2 * 16 * 4)
        assert rows() == 1 + 2 * 16 * 8
    # criterion 8: alpha 1.5, H in [0.7, 0.85], t_tail 8, delta = 2^-16,
    # refine 8, 16 nodes: one noise transform and 2 * 16 * 4 block
    # transforms, each of 147,456 = 9 * 2^14 points
    g = make_noise_grid(LAW, -8.0, 2.0**-16, seed=72)
    calls.clear()
    L.simulate_lmsm(MeshFieldInterpolant(g, H, 16, 8))
    assert [n for _, n, _ in calls] == [147_456] * (1 + 2 * 16 * 4)
    assert rows() == 1 + 2 * 16 * 8
    # the batch takes the counts of its largest kappa: per piece of [0, 1],
    # the highest power of h its series keeps and the block expansion's
    # degree; one series about t = 1/2 with the split at s = -1 kept 29
    kappas = np.linspace(0.7, 0.85, 16) - 1.0 / LAW.alpha
    terms = [L.process._far_terms(2**16, 2.0**-16, k) for k in kappas]
    assert terms[-1] == [(20, 22), (16, 18), (15, 16), (13, 15), (12, 14), (12, 13),
                         (11, 12), (11, 12)]
    assert all(t <= terms[-1][p] for k_terms in terms for p, t in enumerate(k_terms))


_SPLIT_CASES = [
    # refine 8 at t_min = -4 is in test_fft_length_at_aliasing_boundary
    (-4.0, 1), (-4.0, 3),
    (-0.5, 3), (-1.0, 3), (-1.0078125, 3),  # far parts of 32, 96 and 97 cells
    (-0.125, 3),  # t_min inside the near window: no far part
    (-0.25, 3),  # the first cell starts exactly at the split
    (-0.25 - 2.0**-7, 3),  # one far cell
]


# ids: t_min, the mesh's right end, refine
@pytest.mark.parametrize("t_min,refine", _SPLIT_CASES,
                         ids=[f"{t}-1.0-{r}" for t, r in _SPLIT_CASES])
def test_near_far_split_matches_direct_sums(t_min, refine):
    g = make_noise_grid(LAW, t_min, 2.0**-7, seed=53)
    vs = (0.7, 0.95)
    for v, row in zip(vs, field_on_mesh(g, np.array(vs), refine)):
        for mesh in (field_on_mesh(g, v, refine), row):
            _assert_matches_direct_sums(g, v, refine, mesh, 1e-12)


@pytest.mark.parametrize("refine", [1, 3, 8])
def test_rows_match_direct_sums_at_piece_edges(refine):
    # the far part changes series at every edge p/8 of [0, 1], the first
    # column of each piece (_far_pieces): the mesh points on both sides of
    # each edge, and t = 0, delta and 1, match the
    # direct sums on grids that end on both sides of the split (no far cell,
    # one far cell) and on a long far part, whose nearest source blocks
    # reach the split
    K = 2**9
    for t_min in (-_split_cells(K) / K, -(_split_cells(K) + 1) / K, -4.0):
        g = make_noise_grid(LAW, t_min, 1.0 / K, seed=57)
        size = K * refine + 1
        edges = [qa * refine for qa, *_ in L.process._far_pieces(K, 1.0 / K)[1:]]
        assert edges == [p * K * refine // 8 for p in range(1, 8)]
        points = sorted({0, refine, size - 1} | {e + d for e in edges for d in (-1, 0)})
        vs = np.array([0.7, 0.95])
        for v, row in zip(vs, field_on_mesh(g, vs, refine)):
            for m in points:
                direct = eval_field(g, m / (K * refine), v, tail_tol=1.0)
                assert row[m] == pytest.approx(direct, abs=1e-12, rel=1e-12)


@pytest.mark.parametrize("K", [12, 24])
def test_direct_sums_match_the_rows_where_delta_is_not_dyadic(K):
    # at a delta that is not a power of two t_min + i delta rounds, so a
    # mesh point on a cell's left end once met that cell at an offset of
    # about 3e-16, whose kappa-th power is about 1e-3 where it should be 0.
    # eval_field takes its offsets from integer cell indices and puts a u
    # within a few ulps of a cell's left end on it, so it matches the rows at
    # every mesh point, with u formed as m delta / refine or m / (K refine)
    for t_min in (-2.0, -1.0, -0.25):
        g = make_noise_grid(LAW, t_min, 1.0 / K, seed=K)
        for refine in (1, 3):
            vs = np.array([0.7, 0.95])
            for v, row in zip(vs, field_on_mesh(g, vs, refine)):
                _assert_matches_direct_sums(g, v, refine, row, 1e-12)
                for m, x in enumerate(row):
                    direct = eval_field(g, m / (K * refine), v, tail_tol=1.0)
                    assert x == pytest.approx(direct, abs=1e-12, rel=1e-12)


def _piece_bounds(g, i_near, kappa, terms):
    # per piece p, the certified bound of the far series on its points: the
    # two truncations of _far_coeffs in _far_remainder's form, each half of
    # it times its own scale, for piece p and once more for piece 0, whose
    # value at t = 0 coefficient 0 subtracts
    K = round(1 / g.delta)
    B, rho, x_near = L.process._far_blocks(K, g.delta)
    dz = np.abs(g.increments[:i_near][::-1])
    x = x_near + np.arange(i_near) * g.delta
    x_b = x_near + ((np.arange(i_near) // B) * B + (B - 1) / 2) * g.delta
    hw = 1.0 / 16
    own = []
    for p, (n, m) in enumerate(terms):
        c = (p + 0.5) / 8
        r1, r2 = hw / (x_near + c), (hw + rho) / (x_b[0] + c)
        own.append(0.5 * L.wavelet._far_remainder(kappa, r1, n) * float((x + c) ** kappa @ dz)
                   + 0.5 * L.wavelet._far_remainder(kappa, r2, m) * float((x_b + c) ** kappa @ dz))
    return [b + own[0] for b in own]


def _truncated_far_series(g, i_near, kappa, terms):
    # the piece series of _far_coeffs summed cell by cell, with no block
    # moments: coefficient q of piece p is sum_i dZ_i sum_{s=q}^{M} binom(k, s)
    # binom(s, q) X^(k-s) d_i^(s-q), X = x_b + c_p and d_i = x_i - x_b the
    # cell's offset from its block's centre, q <= N; then piece 0's value at
    # t = 0 comes off every coefficient 0
    K = round(1 / g.delta)
    B, _, x_near = L.process._far_blocks(K, g.delta)
    dz = g.increments[:i_near][::-1]
    x = x_near + np.arange(i_near) * g.delta
    x_b = x_near + ((np.arange(i_near) // B) * B + (B - 1) / 2) * g.delta
    coefs = []
    for p, (n, m) in enumerate(terms):
        X = x_b + (p + 0.5) / 8
        b = L.wavelet._binom_coeffs(kappa, m)
        coefs.append(np.array([
            sum(b[t] * math.comb(t, q) * float(dz @ (X ** (kappa - t) * (x - x_b) ** (t - q)))
                for t in range(q, m + 1))
            for q in range(n + 1)]))
    at_zero = _poly_eval(coefs[0], -1.0 / 16)
    for coef in coefs:
        coef[0] -= at_zero
    return coefs


def test_far_series_remainder_is_certified():
    # the truncated piece series against the exact far sum, a direct Riemann
    # sum, on every mesh point of each piece: within the certified bound at
    # the certified term counts and below them (piece terms, block degree or
    # both cut), with signed and one-signed noise; for one-signed noise the
    # bound is not vacuous where a count is cut.  Blocks of 8 cells, whose
    # expansion matters; the far part ends 3/4 below the split, so its
    # nearest cells carry a fair share of it
    delta = 2.0**-8
    K = round(1 / delta)
    g0 = make_noise_grid(LAW, -1.0, delta, seed=61)
    i_near = g0.origin_index - _split_cells(K)  # field_on_mesh's far cells
    assert L.process._far_blocks(K, delta)[0] == 8 and i_near == 192
    refine = 2
    s = -g0.left_endpoints()[:i_near]
    for kappa in (0.8 - 1.0 / LAW.alpha, 0.95 - 1.0 / LAW.alpha):
        certified = L.process._far_terms(K, delta, kappa)
        n0, m0 = certified[0]
        assert L.wavelet._far_remainder(kappa, 0.2, n0) <= 2.0**-53
        cuts = [certified,
                [(min(n, 4), m) for n, m in certified],  # piece terms cut
                [(n, min(m, 4)) for n, m in certified],  # block degree cut
                [(2, 3)] * 8, [(1, 1)] * 8]  # both
        for signed in (True, False):
            incr = g0.increments if signed else np.abs(g0.increments)
            g = dataclasses.replace(g0, increments=incr)
            dz = incr[:i_near]
            for terms in cuts:
                coefs = L.process._far_coeffs(g, i_near, np.array([kappa]), terms)
                bounds = _piece_bounds(g, i_near, kappa, terms)
                truncated = _truncated_far_series(g, i_near, kappa, terms)
                worst = 0.0
                pieces = L.process._far_pieces(K, delta)
                for p, (coef, (n, _), (qa, qb, *_)) in enumerate(zip(coefs, terms, pieces)):
                    assert coef.shape == (1, n + 1)
                    # the mesh points of the piece's cells, and t = 1 in the last
                    t = np.arange(qa * refine, qb * refine + (qb == K)) / (K * refine)
                    h = t - (p + 0.5) / 8
                    exact = dz @ ((s[:, None] + t) ** kappa - s[:, None] ** kappa)
                    series = _poly_eval(coef[0], h)
                    # the block moments sum the very truncation the bound is for
                    assert np.max(np.abs(series - _poly_eval(truncated[p], h))) <= 1e-13
                    err = np.abs(series - exact)
                    assert np.max(err) <= bounds[p] + 1e-13
                    worst = max(worst, np.max(err) / bounds[p])
                if not signed and terms is not certified:
                    assert worst > 1 / 100
    # one product for a vector of kappa: each row is that kappa's own series
    kappas = np.array([0.7, 0.8, 0.95]) - 1.0 / LAW.alpha
    terms = L.process._far_terms(K, delta, kappas.max())
    rows = L.process._far_coeffs(g0, i_near, kappas, terms)
    for i, k in enumerate(kappas):
        for one, batch in zip(L.process._far_coeffs(g0, i_near, np.array([k]), terms), rows):
            assert np.allclose(one[0], batch[i], rtol=1e-13, atol=1e-16)


def test_interpolant_matches_exact_nodes_and_offnode():
    g = make_noise_grid(LAW, -4.0, 2.0**-10, seed=29)
    interp = MeshFieldInterpolant(g, L.linear_hurst(0.7, 0.15), 16, 1)
    rows = field_on_mesh(g, interp.nodes)
    rng = np.random.default_rng(2)
    for v in rng.uniform(0.7, 0.85, 4):
        exact = field_on_mesh(g, float(v))
        approx = interp.combine(float(v), rows)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(exact - approx)) < 1e-9 * scale


def test_interpolant_needs_two_nodes_on_a_range():
    g = make_noise_grid(LAW, -2.0, 2.0**-8, seed=31)
    with pytest.raises(ValueError, match="n_nodes"):
        MeshFieldInterpolant(g, L.linear_hurst(0.7, 0.15), 1, 1)
    single = MeshFieldInterpolant(g, L.constant_hurst(0.8), 1, 1)  # constant H needs one
    assert single.nodes.tolist() == [0.8]


def test_refine_must_be_an_integer():
    # one rule for the field pass and the interpolant: an integer >= 1, of
    # any integer type but bool; 2.5 once built at refine 2 and True at 1
    g = make_noise_grid(LAW, -1.0, 2.0**-6, seed=3)
    H = L.linear_hurst(0.7, 0.15)
    for refine in (2.5, 2.0, True, False, np.True_, 0, -1, "2", None):
        with pytest.raises(ValueError, match=r"^refine must be an integer >= 1$"):
            MeshFieldInterpolant(g, H, 8, refine)
        with pytest.raises(ValueError, match=r"^refine must be an integer >= 1$"):
            field_on_mesh(g, 0.8, refine)
    interp = MeshFieldInterpolant(g, H, 8, np.int64(2))
    assert interp.refine == 2 and type(interp.refine) is int
    assert np.array_equal(field_on_mesh(g, 0.8, np.int64(3)), field_on_mesh(g, 0.8, 3))


def test_interpolant_has_one_node_exactly_when_h_is_constant():
    # the interpolant's one constant-H rule is H.is_constant, exact equality
    # of H's extremes: a range of 5e-14 is interpolated like any other
    g = make_noise_grid(LAW, -2.0, 2.0**-8, seed=31)
    for H in (L.constant_hurst(0.8), L.linear_hurst(0.8, 0.0), L.sine_hurst(0.8, 0.0)):
        interp = MeshFieldInterpolant(g, H, 16, 1)
        assert H.is_constant
        assert interp.nodes.tolist() == [0.8] and interp.weights.tolist() == [1.0]
    H = L.sine_hurst(0.8, 2.5e-14)
    assert not H.is_constant
    interp = MeshFieldInterpolant(g, H, 16, 1)
    assert interp.nodes.size == 16
    assert (interp.nodes[0], interp.nodes[-1]) == pytest.approx((H.h_low, H.h_high), abs=1e-16)


def test_interpolant_one_v_and_per_index_v_agree_bitwise():
    # an odd node count puts the middle Chebyshev node at H(1/2) of a linear
    # H, so the streamed route meets interior node hits besides both ends:
    # with 13 nodes, nodes 0, 4, 6, 8 and 12 sit at H(0), H(1/4), H(1/2),
    # H(3/4) and H(1)
    g = make_noise_grid(LAW, -2.0, 2.0**-8, seed=31)
    H = L.linear_hurst(0.7, 0.15)
    interp = MeshFieldInterpolant(g, H, 13, 2)
    vals = field_on_mesh(g, interp.nodes, 2)
    v = H(np.arange(interp.size) * interp.t_step)
    quarter = (interp.size - 1) // 4
    mid = 2 * quarter  # t = 1/2
    # reference: the broadcast barycentric formula, summed over the node axis
    diff = v[None, :] - interp.nodes[:, None]
    exact = np.isclose(diff, 0.0, atol=1e-15)
    coef = interp.weights[:, None] / np.where(exact, 1.0, diff)
    ref = (coef * vals).sum(axis=0) / coef.sum(axis=0)
    hit = exact.any(axis=0)
    ref[hit] = vals[exact.argmax(axis=0)[hit], np.flatnonzero(hit)]
    assert np.flatnonzero(hit).tolist() == [0, quarter, mid, 3 * quarter, 4 * quarter]
    assert exact[[0, 4, 6, 8, 12], np.flatnonzero(hit)].all()
    got = interp.at()
    # a hit reads its node row bit for bit; elsewhere the streamed pass
    # combines the far part as series coefficients, a different summation order
    assert np.array_equal(got[hit], ref[hit])
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(interp.combine(float(v[mid]), vals), vals[6])  # one v on a node


def test_node_hits_ride_the_weights():
    # constant H: one node, so every point of the residue grid is a hit; the
    # weight routine gives that node c = 1 on every block of the sums, so
    # the denominator is exactly 1, the numerator holds the node's row on
    # the (refine, K + 1) grid, flat, residue 0's row then residue 1's, and
    # never a NaN, and the result is that row bit for bit (X(0, v) = 0 is
    # set by at(), not by the sums).  Residue 1's column K lies past t = 1.
    # The sums read v block by block, each block inside one residue row
    K = 2**14
    g = make_noise_grid(LAW, -2.0, 1.0 / K, seed=31)  # noise beyond s = -1: a far part
    interp = MeshFieldInterpolant(g, L.constant_hurst(0.8), 16, 2)
    sums = L.process._Barycentric(interp.nodes, interp.weights, 2, K + 1,
                                  lambda rho, lo, hi: np.full(hi - lo, 0.8))
    rows = L.process._Rows(1, g, 2)
    field_on_mesh(g, interp.nodes, 2, sums, rows)
    assert interp.nodes.size == 1
    assert sums.width == K + 1 and sums.num.size == 2 * (K + 1) == interp.size + 1
    assert np.array_equal(sums.hits, np.arange(sums.num.size))
    blocks = [b for rho in range(2) for b in sums._blocks(rho, 0, K + 1)]
    assert [part.size for _, part, _, _, _ in blocks] == [L.process._CHUNK, 1] * 2
    dens = [sums._weights(v, hits, 0, np.empty(v.size)) for _, _, v, hits, _ in blocks]
    assert sum(d.size for d in dens) == sums.num.size
    assert all(np.all(d == 1.0) for d in dens)
    assert np.all(np.isfinite(sums.num))
    grid = sums.result().reshape(2, K + 1)
    assert np.array_equal(grid[0, 1:], rows.out[0, 2::2])
    assert np.array_equal(grid[1, :K], rows.out[0, 1::2])


def test_a_hit_reads_the_first_node_of_a_degenerate_pair():
    # nodes 0 and 1 lie 4e-16 apart, both within 1e-15 of v = 0.8: every
    # point is a hit on both, and the sums read node 0's row alone, bit for
    # bit, on the far part's blocks and the residue rows alike, never a
    # blend of the two rows.  Two blocks and a bit of points
    n = 2 * L.process._CHUNK + 3
    rng = np.random.default_rng(5)
    rows, coef, h = rng.standard_normal((3, n)), rng.standard_normal((3, 4)), rng.random((1, n))
    sums = L.process._Barycentric(np.array([0.8, 0.8 + 4e-16, 0.9]), np.array([0.5, -1.0, 0.5]),
                                  1, n, lambda rho, lo, hi: np.full(hi - lo, 0.8))
    sums.far(coef, 0, h)
    for i, row in enumerate(rows):
        sums.residue(i, 0, row)
    assert np.array_equal(sums.result(), _poly_eval(coef[0], h[0]) + rows[0])


def _node_axis_combine(interp, v, vals):
    # the barycentric combination with node-axis coefficient arrays, as it
    # stood before combine built one node row at a time
    v = np.asarray(v, dtype=float)
    col = (-1,) + (1,) * v.ndim
    diff = v - interp.nodes.reshape(col)
    exact = np.isclose(diff, 0.0, atol=1e-15)
    diff = np.where(exact, 1.0, diff)
    coef = interp.weights.reshape(col) / diff
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


def test_combine_equals_node_axis_formula():
    g = make_noise_grid(LAW, -2.0, 2.0**-8, seed=37)
    interp = MeshFieldInterpolant(g, L.linear_hurst(0.7, 0.15), 12, 2)
    vals = field_on_mesh(g, interp.nodes, 2)
    v = np.linspace(0.7, 0.85, vals.shape[1])
    v[[5, 9]] = interp.nodes[[3, 7]]  # node hits inside, besides both ends
    levels = vals[:, ::64]  # per-node rows of any linear functional
    cases = [(v, vals), (0.7731, vals), (float(interp.nodes[3]), vals),
             (float(interp.nodes[0]), vals), (v[::64], levels), (0.81, levels)]
    for x, rows in cases:
        got = interp.combine(x, rows)
        assert got.shape == rows.shape[1:]
        assert np.array_equal(got, _node_axis_combine(interp, x, rows))


def test_combine_streams_node_rows():
    # an array of v costs a few rows of temporaries, not n_nodes x N arrays
    g = make_noise_grid(LAW, -2.0, 2.0**-10, seed=39)
    interp = MeshFieldInterpolant(g, L.linear_hurst(0.7, 0.15), 16, 8)
    vals = field_on_mesh(g, interp.nodes, 8)
    n = interp.size
    v = np.linspace(0.7, 0.85, n)
    tracemalloc.start()
    try:
        interp.combine(v, vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * 8


# the measured tracemalloc peaks are in the body (2-core machine)
@pytest.mark.parametrize("cells", [2**10, 2**13, 2**15])
def test_path_build_streams_node_rows(cells):
    # a 16-node path build never holds the 16 node rows: besides the field
    # pass's transform buffers of min(2, refine) rows (the kernel values, a
    # ring of two spectra and the convolution) and the far part's blocks
    # (one row per node and per series term, at most _CHUNK points long, at
    # piece 0's term count, the largest) it keeps at most two mesh rows (the
    # barycentric numerator on the residue grid, and one piece's h or, once
    # the pass is done, the path in mesh order): no near row, no log t table
    # and no H(t).  The peak reads 0.44, 0.43 and 0.67 of the bound at 2^10,
    # 2^13 and 2^15 cells, and read 0.42, 0.43 and 0.85 of it with H(t) and
    # the log t table held
    g = make_noise_grid(LAW, -4.0, 1.0 / cells, seed=39)
    H = L.linear_hurst(0.7, 0.15)
    refine, n_nodes = 8, 16
    n = cells * refine + 1
    n_fft = _near_cells(g) + cells
    n_terms = L.process._far_terms(cells, g.delta, H.h_high - 1.0 / LAW.alpha)[0][0]
    far_blocks = (n_nodes + n_terms + 1) * min(L.process._CHUNK, n)
    workspace = (2 + 2) * min(2, refine) * n_fft
    tracemalloc.start()
    try:
        L.simulate_lmsm(MeshFieldInterpolant(g, H, n_nodes, refine))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (workspace + far_blocks + 2 * n)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("H", [L.linear_hurst(0.7, 0.15), L.constant_hurst(0.8)],
                         ids=["linear", "constant"])
def test_path_sums_hold_no_h_grid(H, monkeypatch):
    # the sums at() builds, with their hits, before its field pass starts:
    # the numerator, the hit positions (as long as the grid for a constant
    # H, whose every point is a hit) and a few blocks of temporaries, since
    # H and the hits are found one block at a time.  At 2^13 cells, refine 8
    # and 16 nodes the peak beyond the numerator and the hits reads 1.53
    # and 2.02 _CHUNK blocks for the linear and the constant H; H and
    # _node_hits over the whole grid read 16 and 12 (2-core machine).  The
    # second build's peak is read, so it leaves out what only a process's
    # first build allocates
    g = make_noise_grid(LAW, -4.0, 2.0**-13, seed=39)
    interp = MeshFieldInterpolant(g, H, 16, 8)
    seen = []

    def stop(grid, v, refine, sums, *consumers):
        seen.append((tracemalloc.get_traced_memory()[1], sums.num.nbytes + sums.hits.nbytes))
        raise _Stop

    monkeypatch.setattr(L.process, "field_on_mesh", stop)
    for _ in range(2):
        tracemalloc.start()
        try:
            with pytest.raises(_Stop):
                interp.at()
        finally:
            tracemalloc.stop()
    peak, held = seen[-1]
    assert held >= 8 * interp.size
    assert peak < held + 4 * 8 * L.process._CHUNK


# ids: cells for the linear H, constant-cells for the constant one
_MEMORY_CASES = [(H, cells) for H in (L.linear_hurst(0.7, 0.15), L.constant_hurst(0.8))
                 for cells in (2**10, 2**13, 2**16)]


@pytest.mark.parametrize("H,cells", _MEMORY_CASES, ids=[
    f"{'constant-' * H.is_constant}{cells}" for H, cells in _MEMORY_CASES])
def test_path_memory_rule_counts_what_a_build_holds(H, cells, monkeypatch):
    # check_path_memory refuses a 16-node refine-8 build on a machine whose
    # memory is that build's tracemalloc peak (the noise grid included) and
    # passes it on twice that: the rule never counts less than a build
    # holds, and not wildly more.  It counts the interpolant's own nodes, as
    # ExperimentConfig.validate does: one for the constant H.  The far part
    # runs beside the transform buffers, so the rule adds it to them, the
    # noise and the barycentric sums, whose hit positions it counts as if
    # every point were one, as it is for a constant H.  The far phase holds
    # one piece's h on the residue grid and the blocks of its series
    # (test_path_memory_rule_counts_what_the_far_phase_holds pins it
    # alone).  The rule reads 1.43, 1.44 and 1.31 times the measured peak
    # at 2^10, 2^13 and 2^16 cells for the linear H, and 1.27, 1.20 and
    # 1.08 for the constant one, whose hits fill the mesh (2-core
    # machine).  A
    # small build first, so that the peak leaves out what only a process's
    # first build allocates, about 0.67 MiB of lazy imports: 1.83 against
    # 1.16 MiB for a constant-H 2^10-cell build repeated
    t_min, refine, n_nodes = -4.0, 8, 16
    L.simulate_lmsm(MeshFieldInterpolant(make_noise_grid(LAW, t_min, 2.0**-6, seed=39), H,
                                         n_nodes, refine))
    tracemalloc.start()
    try:
        g = make_noise_grid(LAW, t_min, 1.0 / cells, seed=39)
        L.simulate_lmsm(MeshFieldInterpolant(g, H, n_nodes, refine))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del g
    n_nodes = L.process._interp_nodes(H, n_nodes)[0].size
    page, sysconf = os.sysconf("SC_PAGE_SIZE"), os.sysconf
    for memory in (peak, 2 * peak):
        monkeypatch.setattr(os, "sysconf", lambda name, pages=memory // page:
                            pages if name == "SC_PHYS_PAGES" else sysconf(name))
        if memory == peak:
            with pytest.raises(ValueError, match="values of noise and its spectrum.*exceed RAM"):
                L.process.check_path_memory(t_min, 1.0 / cells, refine, n_nodes)
        else:
            L.process.check_path_memory(t_min, 1.0 / cells, refine, n_nodes)


# (t_min, cells): a far part of 64 units, whose coefficients decide the far
# phase, and one of 1/4 unit at 2^14 cells, whose series' blocks decide it
@pytest.mark.parametrize("t_min,cells", [(-64.0, 2**10), (-0.5, 2**14)],
                         ids=["t_min-64", "t_min-0.5"])
def test_path_memory_rule_counts_what_the_far_phase_holds(t_min, cells, monkeypatch):
    # check_path_memory's far term against the far phase's own tracemalloc
    # peak, traced around _far_part in a 16-node refine-8 path build: at
    # least that peak and at most twice it.  It reads 1.32 and 1.17 times
    # the peak (2-core machine).  The build runs twice, and the second peak
    # is read, so it leaves out what only a process's first pass allocates
    H, refine, n_nodes = L.linear_hurst(0.7, 0.15), 8, 16
    peaks, far_part = [], L.process._far_part

    def traced(*args):
        tracemalloc.start()
        try:
            far_part(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(L.process, "_far_part", traced)
    g = make_noise_grid(LAW, t_min, 1.0 / cells, seed=39)
    for _ in range(2):
        MeshFieldInterpolant(g, H, n_nodes, refine).at()
    assert len(peaks) == 2
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name:
                        0 if name == "SC_PHYS_PAGES" else sysconf(name))
    with pytest.raises(ValueError) as refused:
        L.process.check_path_memory(t_min, 1.0 / cells, refine, n_nodes)
    far = 8 * int(re.search(r"(\d+) far noise", str(refused.value)).group(1))
    assert peaks[-1] <= far <= 2 * peaks[-1]


def test_field_pass_allocates_its_buffer_table(monkeypatch):
    # the near half's buffers come from one table of (shape, dtype): the
    # kernel values over their support, a ring of two spectra and the
    # convolution, each transform buffer of min(2, refine) rows, no log t
    # table (a block's log t lives in its kernel values) and no mesh: the
    # residue rows go to the consumers straight from the convolution.
    # _field_pass makes exactly these with np.empty, in the table's order,
    # and no other (the far part's own temporaries are _far_part's);
    # check_path_memory counts the same table, so its transform term is the
    # table's sum
    g = make_noise_grid(LAW, -4.0, 2.0**-7, seed=41)
    K, refine = round(1 / g.delta), 6
    i_near, i0, n_fft, table = L.process._pass_geometry(g.n_cells, K, refine)
    assert (i0, n_fft) == (K // 4, 9 * K // 4) and i_near > 0
    assert table == {"kernel values": ((2, K // 4 + K + 1), float),
                     "ring": ((2, 2, n_fft // 2 + 1), complex),
                     "convolution": ((2, n_fft), float)}
    made, empty = [], np.empty

    def recording(shape, dtype=float):
        if sys._getframe(1).f_code is L.process._field_pass.__code__:
            made.append((shape, dtype))
        return empty(shape, dtype)

    monkeypatch.setattr(np, "empty", recording)
    L.process._field_pass(g, np.array([0.1, 0.2]), refine, (_ThreadCount(),))
    monkeypatch.undo()
    assert made == list(table.values())
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name:
                        0 if name == "SC_PHYS_PAGES" else sysconf(name))
    with pytest.raises(ValueError) as refused:
        L.process.check_path_memory(g.t_min, g.delta, refine, 16)
    transforms = int(re.search(r"(\d+) of transform buffers", str(refused.value)).group(1))
    doubles = sum(math.prod(shape) * np.dtype(dtype).itemsize // 8
                  for shape, dtype in table.values())
    assert transforms == doubles


class _ResidueLog:
    """A consumer that keeps a copy of every residue row it is handed, with
    its node and residue, and of every far call's (qa, h), with the number
    of residue rows it had been handed before that call."""

    def __init__(self):
        self.residues, self.pieces = [], []

    def far(self, coef, qa, h):
        self.pieces.append((qa, h.copy(), len(self.residues)))

    def residue(self, i, rho, values):
        self.residues.append((i, rho, values.copy()))


@pytest.mark.parametrize("refine", [1, 3, 8])
def test_consumers_take_residue_rows_in_node_order(refine):
    # the pass hands each consumer, node by node, residues 0..refine-1 in
    # order, the rows of the (refine, K + 1) residue grid: every residue
    # holds K + 1 points (column K of a residue rho > 0 lies past t = 1),
    # and residue 0 starts at exactly 0, the row's second term b dropped.
    # With no far part (the noise starts at the split, s = -1/4) the residue
    # rows are the field rows' mesh points rho, rho + refine, ... bit for
    # bit; with one, they come after every far call, one per piece
    nodes = np.array([0.7, 0.78, 0.85])
    for t_min, far in ((-0.25, False), (-2.0, True)):
        g = make_noise_grid(LAW, t_min, 2.0**-8, seed=47)
        K = round(1 / g.delta)
        log = _ResidueLog()
        field_on_mesh(g, nodes, refine, log)
        assert [(i, rho) for i, rho, _ in log.residues] == [
            (i, rho) for i in range(nodes.size) for rho in range(refine)]
        assert all(x.size == K + 1 for _, _, x in log.residues)
        assert all(x[0] == 0.0 for _, rho, x in log.residues if rho == 0)
        assert len(log.pieces) == (8 if far else 0)
        if not far:
            rows = field_on_mesh(g, nodes, refine)
            for i, rho, x in log.residues:
                assert np.array_equal(x[: K + (rho == 0)], rows[i, rho::refine])


@pytest.mark.parametrize("cells", [4, 2**8])
@pytest.mark.parametrize("refine", [1, 3, 8])
def test_far_part_reaches_consumers_in_residue_coordinates(refine, cells):
    # the far series come before every residue row, one call per piece with
    # cells, far(coef, qa, h): h is the piece's (refine, n) block of the
    # residue grid's t - c, columns qa..qa+n-1, c the centre of its cells,
    # (2p + 1)/16 at 1/delta = 2^8.  Every grid point of a piece at t <= 1
    # lies in its cells (t = 1 in the last piece), and the points past t = 1
    # are the last piece's column K of the residues rho > 0.  The pieces'
    # columns tile the grid's 0..K exactly once, in order.  At 1/delta = 4
    # a piece is one cell, and four of the eight pieces hold none: those get
    # no call, and the rows still match the direct sums
    g = make_noise_grid(LAW, -2.0, 1.0 / cells, seed=47)
    log = _ResidueLog()
    nodes = np.array([0.7, 0.85])
    field_on_mesh(g, nodes, refine, log)
    assert len(log.pieces) == min(cells, 8) and all(seen == 0 for *_, seen in log.pieces)
    assert all(x.size == cells + 1 for _, _, x in log.residues)
    columns = []
    for qa, h, _ in log.pieces:
        q = qa + np.arange(h.shape[1])
        qb = q[-1] + (q[-1] < cells)  # the cells qa..qb-1
        assert h.shape[0] == refine
        t = (q * refine + np.arange(refine)[:, None]) / (cells * refine)
        centre = t - h
        assert np.allclose(centre, (qa + qb) / (2 * cells), rtol=0, atol=1e-15)
        inside = (qa / cells <= t) & ((t < qb / cells) | (t == 1.0) & (qb == cells))
        past = (t > 1.0) & (qb == cells) & (q == cells)
        assert np.all(inside | past) and np.count_nonzero(past) == (refine - 1) * (qb == cells)
        columns.append(q)
    if cells == 2**8:
        assert [(c, hw) for *_, c, hw in L.process._far_pieces(cells, 1.0 / cells)] == [
            ((2 * p + 1) / 16, 1 / 16) for p in range(8)]
    assert np.array_equal(np.concatenate(columns), np.arange(cells + 1))
    if cells == 4:
        for v, row in zip(nodes, field_on_mesh(g, nodes, refine)):
            for m in range(row.size):
                direct = eval_field(g, m / (cells * refine), v, tail_tol=1.0)
                assert row[m] == pytest.approx(direct, abs=1e-12, rel=1e-12)


class _ThreadCount:
    """A consumer that records the number of live threads at every residue row."""

    def __init__(self):
        self.seen = []

    def far(self, coef, qa, h):
        pass

    def residue(self, i, rho, values):
        self.seen.append(threading.active_count())


class _OnCaller:
    """A stand-in for the field pass's one-thread pool that runs each task on
    the caller as it is submitted: the pass with no helper thread."""

    def __init__(self, workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


def _pass_outputs(g, H, refine, *consumers):
    # rows, path and frozen level 5 of one interpolant, the path's pass also
    # feeding ``consumers``
    interp = MeshFieldInterpolant(g, H, 16, refine)
    frozen = FrozenLevels(interp, L.default_wavelet(), {5: (0.0, 1.0)})
    return (field_on_mesh(g, interp.nodes, refine),
            L.simulate_lmsm(interp, frozen, *consumers).values, frozen.level(5))


# refine 1 is one block per node, 3 ends on a block of 1 row, 6 and 8 are
# whole blocks of 2 rows
@pytest.mark.parametrize("refine", [1, 3, 6, 8])
def test_rows_do_not_depend_on_the_thread_budget(refine, monkeypatch):
    # one schedule: every pass builds each block's kernel spectrum one block
    # ahead on one helper thread, which is alive at every row and gone when
    # the pass returns.  Rows, paths and frozen levels are bitwise those of
    # the same passes with every block on the caller, and the path is
    # bitwise that of a pass that feeds no other consumer
    g = make_noise_grid(LAW, -4.0, 2.0**-9, seed=83)
    H = L.linear_hurst(0.7, 0.15)
    before, count = threading.active_count(), _ThreadCount()
    got = _pass_outputs(g, H, refine, count)
    assert count.seen and set(count.seen) == {before + 1}
    assert threading.active_count() == before
    interp = MeshFieldInterpolant(g, H, 16, refine)
    assert np.array_equal(got[1], L.simulate_lmsm(interp).values)
    monkeypatch.setattr(L.process, "ThreadPoolExecutor", _OnCaller)
    for one, two in zip(got, _pass_outputs(g, H, refine)):
        assert np.array_equal(one, two)


class _Recording(_OnCaller):
    """``_OnCaller`` that also keeps a copy of every task's result, taken
    before the caller works on it."""

    results = []

    def submit(self, fn, *args):
        done = super().submit(fn, *args)
        self.results.append(copy.deepcopy(done.result()))
        return done


def test_kernel_half_reads_no_noise(monkeypatch):
    # stage 1 of the field pass is a function of the geometry, the node and
    # the residue block alone: on two grids of one geometry and different
    # noise, every block's kernel spectrum is bitwise the same, in the same
    # order.  Each row's second term b is the convolution at t = 0, which
    # makes the row exactly 0 there
    monkeypatch.setattr(L.process, "ThreadPoolExecutor", _Recording)
    nodes, refine = np.array([0.7, 0.78, 0.85]), 6  # three blocks of 2 rows
    spectra = []
    for seed in (3, 4):
        _Recording.results = []
        rows = field_on_mesh(make_noise_grid(LAW, -2.0, 2.0**-8, seed=seed), nodes, refine)
        assert np.all(rows[:, 0] == 0.0) and np.all(rows[:, 1:] != 0.0)
        spectra.append(_Recording.results)
    assert len(spectra[0]) == len(spectra[1]) == 3 * nodes.size
    for one, two in zip(*spectra):
        assert isinstance(one, np.ndarray) and isinstance(two, np.ndarray)
        assert one.tobytes() == two.tobytes()


def test_far_series_products_stay_on_the_calling_thread(monkeypatch):
    # every matrix product of the far part goes through serial_matmul, in
    # blocks small enough (stable._SERIAL_GEMM_MADDS) that BLAS runs them on
    # the calling thread: the block moments, one product over the far noise;
    # the translation, one product per piece over the source blocks; and the
    # path's barycentric combination of the nodes' series coefficients,
    # whose blocks, one residue of one piece at a time, cover every point of
    # the (refine, K + 1) residue grid once.  A FrozenLevels
    # consumer evaluates each node's series on its own row and adds no
    # matrix product
    g = make_noise_grid(LAW, -4.0, 2.0**-12, seed=61)
    H = L.linear_hurst(0.7, 0.15)
    interp = MeshFieldInterpolant(g, H, 16, 8)
    K = 2**12
    terms = L.process._far_terms(K, g.delta, H.h_high - 1.0 / LAW.alpha)
    B = L.process._far_blocks(K, g.delta)[0]
    n_blocks = -(-(g.origin_index - _split_cells(K)) // B)
    columns = [qb - qa + (qb == K) for qa, qb, *_ in L.process._far_pieces(K, g.delta)]
    madds, matmul = [], np.matmul

    def spy(a, b, **kwargs):
        madds.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    L.simulate_lmsm(interp)
    assert 0 < max(madds) <= L.stable._SERIAL_GEMM_MADDS
    moments = n_blocks * B * (max(m for _, m in terms) + 1)
    translation = sum(16 * n_blocks * (m + 1) * (n + 1) for n, m in terms)
    barycentric = sum((n + 1) * 16 * 8 * cols for (n, _), cols in zip(terms, columns))
    assert sum(madds) == moments + translation + barycentric
    assert 8 * sum(columns) == 8 * (K + 1) == interp.size + 7
    total = sum(madds)
    madds.clear()
    levels = {j: (0.0, 1.0) for j in (0, 2, 5, 9)}
    L.simulate_lmsm(interp, FrozenLevels(interp, L.default_wavelet(), levels))
    assert sum(madds) == total


@pytest.mark.parametrize("refine", [1, 4])
def test_frozen_levels_across_piece_edges_match_the_rows(refine):
    # FrozenLevels builds each whole node row, its near part plus its far
    # series on every piece, as field_on_mesh's rows are built, and applies
    # the level quadrature (_level_coeffs) to it: every level's per-node
    # coefficients are those of the rows bit for bit, also at j < 3, whose
    # cells straddle the series' pieces
    from lmsmlab.coeffs import _level_coeffs

    g = make_noise_grid(LAW, -4.0, 2.0**-8, seed=87)
    H = L.linear_hurst(0.7, 0.15)
    interp = MeshFieldInterpolant(g, H, 16, refine)
    w = L.default_wavelet()
    intervals = {0: (0.0, 1.0), 1: (0.0, 1.0), 2: (0.0, 1.0), 4: (0.0, 1.0),
                 3: (0.25, 0.75)}
    frozen = FrozenLevels(interp, w, intervals)
    L.simulate_lmsm(interp, frozen)
    rows = field_on_mesh(g, interp.nodes, refine)
    for j, ks in frozen.cells.items():
        want = _level_coeffs(rows, interp.t_step, w, j, ks)
        got = frozen.node_levels[j]
        assert got.shape == want.shape == (16, len(ks))
        assert np.array_equal(got, want)


def _arrays(x):
    # every numpy array reachable from x through dicts, lists and tuples
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, dict):
        for y in x.values():
            yield from _arrays(y)
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from _arrays(y)


def test_frozen_levels_drop_their_row_buffers_after_the_pass():
    # a FrozenLevels needs its row buffer, (K + 1, refine), whose ravel is
    # the mesh, and the far pieces' series and h only while the pass hands
    # it rows; once it has taken its
    # last node's row it holds its per-node level coefficients alone (the
    # interpolant and the wavelet are the caller's), and its levels still
    # combine
    g = make_noise_grid(LAW, -4.0, 2.0**-8, seed=87)
    interp = MeshFieldInterpolant(g, L.linear_hurst(0.7, 0.15), 16, 4)
    frozen = FrozenLevels(interp, L.default_wavelet(), {2: (0.0, 1.0), 5: (0.0, 1.0)})
    assert frozen.buf.shape == (2**8 + 1, 4)
    L.simulate_lmsm(interp, frozen)
    own = {k: v for k, v in vars(frozen).items() if k not in ("field", "w")}
    held = list(_arrays(own))
    assert all(max(a.shape) < interp.size // 8 for a in held)
    assert sum(a.nbytes for a in held) == sum(a.nbytes for a in frozen.node_levels.values())
    assert frozen.level(5).shape == (32,)


def test_frozen_levels_refuse_an_unsampled_level_before_the_pass(monkeypatch):
    # a level whose cells hold fewer than 16 mesh intervals (8 at j = 7 on
    # the refine-1 mesh of delta = 2^-10) is refused when the consumer is
    # made, so no field pass starts: no far series is summed and no
    # transform runs
    from lmsmlab.coeffs import ResolutionError

    calls, far_coeffs = _record_transforms(monkeypatch), L.process._far_coeffs
    monkeypatch.setattr(L.process, "_far_coeffs",
                        lambda *args: calls.append("far") or far_coeffs(*args))
    g = make_noise_grid(LAW, -4.0, 2.0**-10, seed=29)
    interp = MeshFieldInterpolant(g, L.linear_hurst(0.7, 0.15), 16, 1)
    with pytest.raises(ResolutionError, match="level-7 cell"):
        L.simulate_lmsm(interp, FrozenLevels(interp, L.default_wavelet(),
                                             {5: (0.0, 1.0), 7: (0.0, 1.0)}))
    assert calls == []

def test_interpolant_refuses_to_extrapolate():
    # combine takes any v a caller passes, and refuses one more than 1e-12
    # outside H's range, here [0.75, 0.8]
    g = make_noise_grid(LAW, -4.0, 2.0**-10, seed=29)
    interp = MeshFieldInterpolant(g, L.linear_hurst(0.75, 0.05), 16, 1)
    rows = np.ones((16, 2))
    interp.combine(0.8 + 5e-13, rows)  # inside the 1e-12 slack
    for v in (0.8 + 2e-12, np.array([0.76, 0.7499])):
        with pytest.raises(ValueError, match="outside"):
            interp.combine(v, rows)
    single = MeshFieldInterpolant(g, L.constant_hurst(0.8), 16, 1)
    with pytest.raises(ValueError, match="outside"):
        single.combine(0.8 + 2e-12, np.ones((1, 2)))


def test_constant_hurst_path_is_lfsm_code_path():
    g = make_noise_grid(LAW, -4.0, 2.0**-10, seed=37)
    H = L.constant_hurst(0.8)
    path = L.simulate_lmsm(MeshFieldInterpolant(g, H, 16, 1))
    assert np.array_equal(path.times, np.arange(2**10 + 1) * 2.0**-10)
    mesh = field_on_mesh(g, 0.8)
    mesh[0] = 0.0
    assert np.array_equal(path.values, mesh)
    assert path.values[0] == 0.0


def test_lmsm_reads_the_interpolant_on_its_whole_mesh():
    # Y(m t_step) is the v-interpolation of the node rows at H(m t_step),
    # with Y(0) = 0; at a node hit (both ends here) it is that node's row bit
    # for bit
    g = make_noise_grid(LAW, -4.0, 2.0**-8, seed=41)
    H = L.linear_hurst(0.7, 0.15)
    refine = 4
    field = MeshFieldInterpolant(g, H, 16, refine)
    path = L.simulate_lmsm(field)
    times = np.arange(refine / g.delta + 1) * field.t_step
    assert np.array_equal(path.times, times)
    rows = field_on_mesh(g, field.nodes, refine)
    expect = field.combine(H(times), rows)
    assert path.values[0] == 0.0
    assert np.array_equal(path.values[[0, -1]], [rows[0, 0], rows[-1, -1]])
    assert np.max(np.abs(path.values - expect)) <= 1e-13 * np.max(np.abs(expect))
    assert np.array_equal(path.values, field.at())


def test_lipschitz_coupling_in_hurst():
    # nearby Hurst functions on shared noise stay uniformly close
    g = make_noise_grid(LAW, -4.0, 2.0**-10, seed=43)
    def path(h):  # one single-node interpolant per constant H
        return L.simulate_lmsm(MeshFieldInterpolant(g, L.constant_hurst(h), 16, 1)).values

    base = 0.75
    y1 = path(base)
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        ratios.append(np.max(np.abs(path(base + eps) - y1)) / eps)
    ratios = np.array(ratios)
    assert np.all(ratios < 10.0 * np.median(ratios) + 1e-9)
    assert np.all(ratios > 0)


def _field_weight_samples(g, u, v, n_rep, seed):
    s = g.left_endpoints()
    kappa = v - 1.0 / g.law.alpha
    w = (u - s).clip(min=0.0) ** kappa - (-s).clip(min=0.0) ** kappa
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    scale = g.delta ** (1.0 / g.law.alpha)
    out = np.empty(n_rep)
    chunk = max(1, 2_000_000 // w.size)
    done = 0
    while done < n_rep:
        m = min(chunk, n_rep - done)
        dz = scale * unit_sas(g.law.alpha, m * w.size, rng).reshape(m, w.size)
        out[done : done + m] = dz @ w
        done += m
    return out


def test_field_scale_matches_quadrature_norm():
    # gamma-moment of X(1, v) against c(gamma) * ||kernel||^gamma with the
    # truncated-kernel norm computed by quadrature
    gamma, v = 0.25, 0.8
    t_min, delta = -64.0, 2.0**-8
    g = make_noise_grid(LAW, t_min, delta, seed=51)
    kappa = v - 1.0 / LAW.alpha

    def f_abs_alpha(s):
        val = max(1.0 - s, 0.0) ** kappa - max(-s, 0.0) ** kappa
        return abs(val) ** LAW.alpha

    mass = quad(f_abs_alpha, t_min, 0.0, limit=400)[0] + quad(f_abs_alpha, 0.0, 1.0, limit=200)[0]
    target = moment_constant(gamma, LAW.alpha) * mass ** (gamma / LAW.alpha)
    samples = _field_weight_samples(g, 1.0, v, 1500, seed=52)
    mc = np.mean(np.abs(samples) ** gamma)
    assert mc == pytest.approx(target, rel=0.05)


def test_lfsm_self_similarity_probe():
    # beta-moment of X(a t) is a**(beta H) times that of X(t), exactly in
    # law: at constant H, X(t) = sum_i w_i(t) dZ_i is SaS with scale
    # sigma(t) = (delta sum_i |w_i(t)|^alpha)^(1/alpha), so E|X(t)|^beta =
    # c(beta) sigma(t)^beta and the ratio is (sigma(a t) / sigma(t))^beta.
    # The grid's Riemann sums and its truncation at t_min = -64 put the four
    # ratios 0.11-0.27% below a**(beta H)
    H, beta = 0.8, 0.25
    g = make_noise_grid(LAW, -64.0, 2.0**-9, seed=61)
    s, kappa = g.left_endpoints(), H - 1.0 / LAW.alpha

    def sigma(t):
        w = (t - s).clip(min=0.0) ** kappa - (-s).clip(min=0.0) ** kappa
        return (g.delta * np.sum(np.abs(w) ** LAW.alpha)) ** (1.0 / LAW.alpha)

    for t, a in ((0.125, 2.0), (0.125, 4.0), (0.25, 2.0), (0.25, 4.0)):
        ratio = (sigma(a * t) / sigma(t)) ** beta
        assert ratio == pytest.approx(a ** (beta * H), rel=0.01)


def test_direct_coeff_linearity_in_noise():
    kern = PhiKernel(1.5)
    H = L.constant_hurst(0.8)
    g1 = make_noise_grid(LAW, -16.0, 2.0**-9, seed=71)
    g2 = make_noise_grid(L.StableLaw(1.5, 2.0), -16.0, 2.0**-9, seed=71)
    d1 = L.simulate_coeff_direct(g1, kern, 4, 3, H)
    d2 = L.simulate_coeff_direct(g2, kern, 4, 3, H)
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)


def test_direct_coeff_scale_identity_mc():
    kern = PhiKernel(1.5)
    h = 0.8
    j, k = 5, 7
    beta = 0.25
    i0, w = direct_coeff_weights(2.0**-9, kern, j, k, h)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(81)))
    scale = (2.0**-9) ** (1.0 / 1.5)
    n_rep = 12_000
    vals = np.empty(n_rep)
    chunk = max(1, 4_000_000 // w.size)
    done = 0
    while done < n_rep:
        m = min(chunk, n_rep - done)
        dz = scale * unit_sas(1.5, m * w.size, rng).reshape(m, w.size)
        vals[done : done + m] = dz @ w
        done += m
    target = 2.0 ** (-j * h) * kern.lalpha_norm(h)
    mc_scale = (np.mean(np.abs(vals) ** beta) / moment_constant(beta, 1.5)) ** (1.0 / beta)
    assert mc_scale == pytest.approx(target, rel=0.05)


def test_direct_coeff_grid_refinement_stability():
    # halving delta moves the empirical beta-moment by < 2% (fresh seeds)
    kern = PhiKernel(1.5)
    h, j, k, beta = 0.8, 4, 5, 0.25
    moments = []
    for delta, seed in ((2.0**-8, 91), (2.0**-9, 92)):
        i0, w = direct_coeff_weights(delta, kern, j, k, h)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        scale = delta ** (1.0 / 1.5)
        n_rep = 10_000
        vals = np.empty(n_rep)
        chunk = max(1, 4_000_000 // w.size)
        done = 0
        while done < n_rep:
            m = min(chunk, n_rep - done)
            dz = scale * unit_sas(1.5, m * w.size, rng).reshape(m, w.size)
            vals[done : done + m] = dz @ w
            done += m
        moments.append(np.mean(np.abs(vals) ** beta))
    assert abs(moments[1] - moments[0]) < 0.02 * moments[0]


def test_direct_coeff_requires_coverage():
    kern = PhiKernel(1.5)
    g = make_noise_grid(LAW, -2.0**-4, 2.0**-9, seed=101)
    with pytest.raises(L.TruncationError):
        L.simulate_coeff_direct(g, kern, 4, 0, L.constant_hurst(0.8))


def test_direct_coeff_cell_validation():
    kern = PhiKernel(1.5)
    g = make_noise_grid(LAW, -16.0, 2.0**-9, seed=103)
    with pytest.raises(ValueError):
        L.simulate_coeff_direct(g, kern, 3, 8, L.constant_hurst(0.8))  # cell ends at 9/8


def test_cross_route_coefficients_agree_on_shared_noise():
    # path-quadrature d and stable-integral d~ are discretizations of the
    # same object; with constant H they differ only by quadrature error
    kern = PhiKernel(1.5)
    H = L.constant_hurst(0.8)
    grid = make_noise_grid(LAW, -16.0, 2.0**-11, seed=121)
    path = L.simulate_lmsm(MeshFieldInterpolant(grid, H, 16, 8))
    from lmsmlab.coeffs import build_pyramid

    pyr = build_pyramid(path, L.default_wavelet(), {5: (0.0, 1.0), 6: (0.0, 1.0)})
    for j in (5, 6):
        scale = 2.0 ** (-j * 0.8) * kern.lalpha_norm(0.8)
        worst = max(
            abs(pyr.level(j)[k - pyr.cells[j].start] - L.simulate_coeff_direct(grid, kern, j, k, H))
            / scale
            for k in range(0, 2**j, max(1, 2**j // 8))
        )
        assert worst < 0.05


def test_path_csv_roundtrip(tmp_path):
    g = make_noise_grid(LAW, -2.0, 2.0**-8, seed=111)
    path = L.simulate_lmsm(MeshFieldInterpolant(g, L.constant_hurst(0.8), 16, 1))
    fname = tmp_path / "path.csv"
    assert write_path_csv(path, str(tmp_path)) == str(fname)
    # the header is derived from the path's noise grid and H
    assert fname.read_bytes().split(b"t,Y\n")[0] == (
        b"# kind: lmsm\n"
        b"# alpha: 1.5\n"
        b"# scale: 1.0\n"
        b"# hurst: constant(0.8,)\n"
        b"# t_min: -2.0\n"
        b"# delta: 0.00390625\n"
        b"# seed: 111\n"
    )
    back = np.loadtxt(fname, delimiter=",", comments="#", skiprows=8)
    assert np.array_equal(back[:, 0], path.times)
    assert np.array_equal(back[:, 1], path.values)


def test_truncation_audit_monotone_in_domain():
    a_short = path_truncation_audit(LAW.alpha, -2.0, 2.0**-8, 1.0, 0.85)
    a_long = path_truncation_audit(LAW.alpha, -64.0, 2.0**-8, 1.0, 0.85)
    assert a_long < a_short


def _riemann_audit(grid, u, v):
    # the audit's ratio with the kernel's alpha-mass summed over every cell
    alpha = grid.law.alpha
    kappa = v - 1.0 / alpha
    s = grid.left_endpoints()
    w = (u - s).clip(min=0.0) ** kappa - (-s).clip(min=0.0) ** kappa
    mass = float(np.sum(np.abs(w) ** alpha) * grid.delta)
    p = alpha * (1.0 - kappa) - 1.0
    tail = (kappa * u) ** alpha * (-grid.t_min) ** -p / p
    return tail / (mass + tail)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_truncation_audit_bounds_the_riemann_ratio(alpha):
    # the closed-form mass is a lower bound on the Riemann sum, so the audit
    # never reads below the ratio it certifies; and it stays close to it
    for v in (1.0 / alpha + 0.05, 0.95):
        for t_tail, delta in ((1.0, 2.0**-6), (1.0, 2.0**-10), (8.0, 2.0**-6),
                              (8.0, 2.0**-10)):
            g = make_noise_grid(L.StableLaw(alpha), -t_tail, delta, seed=1)
            for u in (1.0, 0.5, delta):
                brute = _riemann_audit(g, u, v)
                audit = path_truncation_audit(alpha, g.t_min, g.delta, u, v)
                assert brute <= audit <= 1.25 * brute


def test_hurst_validation():
    with pytest.raises(ValueError):
        L.constant_hurst(0.6).validate(1.5)  # below 1/alpha
    with pytest.raises(ValueError):
        L.linear_hurst(0.7, 0.4).validate(1.5)  # exceeds 1
    L.sine_hurst(0.75, 0.08).validate(1.5)
    # a cell (j, k) is frozen at H(k 2^-j): one shift gives a 0-d array, an
    # array of shifts one value per shift, each bit-identical to H itself
    for H in (L.constant_hurst(0.8), L.linear_hurst(0.7, 0.15), L.sine_hurst(0.75, 0.08)):
        for j in (5, 8, 12):
            k = 3 * 2 ** (j - 2) + 1
            one = H.frozen(j, k)
            assert one.shape == () and one.dtype == float
            assert float(one) == float(H(k * 2.0**-j))
            ks = np.arange(2**j)
            assert np.array_equal(H.frozen(j, ks), H(ks * 2.0**-j))
            assert np.array_equal(H.frozen(j, range(2**j)), H(ks * 2.0**-j))


def test_frozen_refuses_a_cell_outside_the_unit_interval():
    # H_k is read at an integer shift k whose cell [k 2^-j, (k + 1) 2^-j]
    # lies inside [0, 1], alone or among other shifts, for every kind of H;
    # direct_coeff_weights shares the rule, and no shift at all passes
    for H in (L.constant_hurst(0.8), L.linear_hurst(0.7, 0.15), L.sine_hurst(0.75, 0.08)):
        for j in (2, 6):
            for k in (-1, 2**j, 0.5):
                with pytest.raises(ValueError, match=rf"dyadic cell \({j}, .*must lie inside"):
                    H.frozen(j, k)
                with pytest.raises(ValueError, match="must lie inside"):
                    H.frozen(j, [0, k, 1])
            assert H.frozen(j, np.array([], dtype=int)).shape == (0,)
    with pytest.raises(ValueError, match="must lie inside"):
        direct_coeff_weights(2.0**-10, PhiKernel(1.5), 2, 0.5, 0.8)


# each kind's closed form, which H's values must equal bit for bit
_HURST_FORMULAS = {
    "constant": lambda t, value: np.full_like(t, value),
    "linear": lambda t, intercept, slope: intercept + slope * t,
    "sine": lambda t, center, amplitude: center + amplitude * np.sin(2.0 * math.pi * t),
}


@pytest.mark.parametrize(
    "build, params, ends",
    [(L.constant_hurst, (0.8,), (0.8, 0.8)),
     (L.linear_hurst, (0.7, 0.15), (0.7, 0.7 + 0.15)),
     (L.linear_hurst, (0.85, -0.15), (0.85 + -0.15, 0.85)),
     (L.sine_hurst, (0.75, 0.08), (0.75 - 0.08, 0.75 + 0.08)),
     (L.sine_hurst, (0.75, -0.08), (0.75 - 0.08, 0.75 + 0.08))],
    ids=["constant", "linear", "linear-falling", "sine", "sine-negative"],
)
def test_hurst_function_is_its_id(build, params, ends):
    # H holds only (name, params): built from a list or by its builder it
    # compares and hashes the same, survives pickling, and its values and
    # range are the closed forms, bit for bit
    H = build(*params)
    assert [f.name for f in dataclasses.fields(H)] == ["name", "params"]
    same = L.HurstFunction(H.name, list(params))
    assert same == H and hash(same) == hash(H) and same.params == params
    assert pickle.loads(pickle.dumps(H)) == H
    t = np.linspace(0.0, 1.0, 4097)
    assert np.array_equal(H(t), _HURST_FORMULAS[H.name](t, *params))
    assert (H.h_low, H.h_high) == ends
    assert H.holder_exponent == 1.0
    with pytest.raises(ValueError, match=f"hurst_params for '{H.name}' must hold"):
        L.HurstFunction(H.name, (*params, 0.1))
    with pytest.raises(ValueError, match="hurst_name 'cubic' is not one of"):
        L.HurstFunction("cubic", params)
    with pytest.raises(ValueError, match=f"hurst_params must be a list, got {params[0]!r}"):
        L.HurstFunction(H.name, params[0])


@pytest.mark.parametrize(
    "H, lo, hi, low",
    [(L.sine_hurst(0.75, 0.08), 0.7, 0.8003, 0.75 - 0.08),
     (L.sine_hurst(0.75, -0.08), 0.2, 0.3, 0.75 - 0.08),
     (L.sine_hurst(0.75, 0.08), 0.1, 0.2, float(L.sine_hurst(0.75, 0.08)(0.1))),
     (L.linear_hurst(0.85, -0.15), -0.5, 2.0, 0.85 + -0.15)],
    ids=["sine-trough-inside", "sine-negative", "sine-rising", "linear-clipped"],
)
def test_min_over_reads_ends_and_critical_points(H, lo, hi, low):
    # min H on [lo, hi], clipped to [0, 1], is H at an end or at a sine
    # critical point (1/4 or 3/4) inside, the rule h_low reads too; a 4097
    # point grid on [0.7, 0.8003] missed the trough at t = 3/4 by 1.5e-11
    assert H.min_over(lo, hi) == low
