"""Noise grids, field evaluation, motion paths and direct coefficients.

The Monte Carlo oracles here follow the scale contract of discrete stable
integrals: the scale of sum w_i dZ_i is (sum |w_i|**alpha * delta)**(1/alpha),
so empirical fractional moments can be compared against quadrature targets.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.integrate import quad

import lmsmlab as L
from lmsmlab.coeffs import FrozenLevels
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
_NEAR_SPAN = L.process._NEAR_SPAN  # field_on_mesh splits the noise at s = -_NEAR_SPAN


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


def test_grid_increment_moments_match_constant():
    g = make_noise_grid(LAW, -16383.0, 1.0 / 64, seed=9)
    assert g.n_cells >= 1_000_000
    mom = np.mean(np.abs(g.increments) ** 0.25) / g.delta ** (0.25 / LAW.alpha)
    assert mom == pytest.approx(moment_constant(0.25, LAW.alpha), rel=0.02)


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
    return g.n_cells - max(g.origin_index - _NEAR_SPAN * K, 0)


def _assert_matches_direct_sums(g, v, refine, mesh, tol):
    assert mesh.size == round(1 / g.delta) * refine + 1
    for m, x in enumerate(mesh):
        direct = eval_field(g, m * g.delta / refine, v, tail_tol=1.0)
        assert x == pytest.approx(direct, abs=tol, rel=tol)


# ids: refine, then the mesh's right end
@pytest.mark.parametrize("refine", [2, 8], ids=["2-1.0", "8-1.0"])
def test_fft_length_at_aliasing_boundary(refine):
    # n_near + K is already a fast length, so the transforms run at exactly the
    # shortest wrap-free length; one point shorter would corrupt mesh index 1
    # (residue 1), which the sweep below includes.  t_min = -4 leaves a far part.
    g = make_noise_grid(LAW, -4.0, 2.0**-7, seed=41)
    n_min = _near_cells(g) + round(1 / g.delta)
    assert n_min < g.n_cells and next_fast_len(n_min) == n_min
    mesh = field_on_mesh(g, 0.8, refine)
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


def test_fft_length_contract(monkeypatch):
    # one 1-D noise transform per call, then per v one 2-D rfft and one 2-D
    # irfft with a row per residue; every call takes its length as the second
    # positional argument, n_near + K rounded up to a fast length, never the
    # linear-convolution size, and no keyword but axis and workers
    calls = _record_transforms(monkeypatch)
    # no far part, and n_near + K = 608 is not a fast length
    g = make_noise_grid(LAW, -0.375, 2.0**-8, seed=43)
    refine = 3
    n_fft = next_fast_len(_near_cells(g) + round(1 / g.delta))
    assert n_fft == 616 > _near_cells(g) + round(1 / g.delta) == 608
    field_on_mesh(g, 0.8, refine)
    assert len(calls) == 1 + 2
    field_on_mesh(g, np.array([0.75, 0.8, 0.85]), refine)
    assert len(calls) == 1 + 2 + 1 + 2 * 3
    assert all(n == n_fft for _, n, _ in calls)
    noise, batched = [calls[0], calls[3]], calls[1:3] + calls[4:]
    assert all(len(shape) == 1 and not kw for shape, _, kw in noise)
    for shape, _, kw in batched:
        assert len(shape) == 2 and shape[0] == refine
        assert set(kw) <= {"axis", "workers"} and kw.get("axis", -1) == -1


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
    for t_min in (-4.0, -1.5, -_NEAR_SPAN / 2):
        with pytest.raises(ValueError, match="v must"):
            field_on_mesh(make_noise_grid(LAW, t_min, 2.0**-6, 1), np.array([]), 2)


def test_cost_contract_of_the_split(monkeypatch):
    # the split fixes the cost balance: on a grid with a long far part every
    # transform has length n_near + K = (_NEAR_SPAN + 2) K, and the far series
    # of the criterion-8 batch needs the term count below
    calls = _record_transforms(monkeypatch)
    g = make_noise_grid(LAW, -8.0, 2.0**-10, seed=71)
    field_on_mesh(g, 0.8, 8)
    assert [n for _, n, _ in calls] == [3 * 2**10] * (1 + 2)
    # a path build is one pass, 1 + 2 n_nodes transforms, also when a consumer
    # reads the same node rows
    H = L.linear_hurst(0.7, 0.15)
    interp = MeshFieldInterpolant(g, H.h_low, H.h_high, n_nodes=16, refine=8)
    frozen = FrozenLevels(interp, H, L.default_wavelet(), (5,),
                          L.build_global_intervals((0.0, 1.0), 5))
    for consumers in ((), (frozen,)):
        calls.clear()
        L.simulate_lmsm(interp, H, *consumers)
        assert [n for _, n, _ in calls] == [3 * 2**10] * (1 + 2 * 16)
    # criterion 8: alpha 1.5, H in [0.7, 0.85], delta = 2^-16; the batch takes
    # the count of its largest kappa
    c = 0.5
    ratio = c / (_NEAR_SPAN + 2.0**-16 + c)
    kappas = np.linspace(0.7, 0.85, 16) - 1.0 / LAW.alpha
    assert max(L.process._far_series_terms(k, ratio) for k in kappas) == 29


_SPLIT_CASES = [
    # refine 8 at t_min = -4 is in test_fft_length_at_aliasing_boundary
    (-4.0, 1), (-4.0, 3),
    (-_NEAR_SPAN / 2, 3),  # t_min inside the near window: no far part
    (-float(_NEAR_SPAN), 3),  # the first cell starts exactly at the split
    (-_NEAR_SPAN - 2.0**-7, 3),  # one far cell
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


def test_far_series_remainder_is_certified():
    # the truncated series against the exact far sum, a direct Riemann sum
    delta, v = 2.0**-6, 0.8
    g = make_noise_grid(LAW, -6.0, delta, seed=61)
    kappa = v - 1.0 / LAW.alpha
    n_far = g.origin_index - round(_NEAR_SPAN / delta)  # field_on_mesh's far cells
    x = -g.left_endpoints()[:n_far]
    c = 0.5
    ratio = c / (x.min() + c)
    h = np.arange(round(1 / delta) * 4 + 1) * (delta / 4) - c
    kernel = (x[:, None] + c + h) ** kappa - x[:, None] ** kappa
    n = L.process._far_series_terms(kappa, ratio)
    assert L.process._far_remainder(kappa, ratio, n) <= 2.0**-53 < L.process._far_remainder(kappa, ratio, n - 1)
    # coefficient 0 comes from the moments; against the direct difference
    # sum [(x + c)^k - x^k] dZ it carries one of the two truncations that
    # _far_remainder counts
    for dz in (g.increments[:n_far], np.abs(g.increments[:n_far])):
        exact = dz @ kernel
        direct = float(dz @ ((x + c) ** kappa - x ** kappa))
        scale = float((x + c) ** kappa @ np.abs(dz))
        for n_terms in (1, 2, 4, 8, n):
            coef = L.process._far_coeffs(x, dz, kappa, c, n_terms)
            err = np.max(np.abs(_poly_eval(coef, h) - exact))
            bound = L.process._far_remainder(kappa, ratio, n_terms) * scale
            assert err <= bound + 1e-13
            assert abs(coef[0] - direct) <= bound / 2 + 1e-13
            if dz.min() > 0 and n_terms < n:  # one-signed noise: the bound is not vacuous
                assert err > bound / 100
    # a vector of kappa: one row per kappa, each within its own bound
    kappas = np.array([0.7, 0.8, 0.95]) - 1.0 / LAW.alpha
    for dz in (g.increments[:n_far], np.abs(g.increments[:n_far])):
        for n_terms in (1, 2, 4, 8, n):
            rows = L.process._far_coeffs(x, dz, kappas, c, n_terms)
            assert rows.shape == (kappas.size, n_terms + 1)
            for k, coef in zip(kappas, rows):
                exact = dz @ ((x[:, None] + c + h) ** k - x[:, None] ** k)
                direct = float(dz @ ((x + c) ** k - x ** k))
                scale = float((x + c) ** k @ np.abs(dz))
                err = np.max(np.abs(_poly_eval(coef, h) - exact))
                bound = L.process._far_remainder(k, ratio, n_terms) * scale
                assert err <= bound + 1e-13
                assert abs(coef[0] - direct) <= bound / 2 + 1e-13


def test_interpolant_matches_exact_nodes_and_offnode():
    g = make_noise_grid(LAW, -4.0, 2.0**-10, seed=29)
    interp = MeshFieldInterpolant(g, 0.7, 0.85, n_nodes=16)
    rng = np.random.default_rng(2)
    for v in rng.uniform(0.7, 0.85, 4):
        exact = field_on_mesh(g, float(v))
        approx = interp.at(float(v))
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(exact - approx)) < 1e-9 * scale


def test_interpolant_needs_two_nodes_on_a_range():
    g = make_noise_grid(LAW, -2.0, 2.0**-8, seed=31)
    with pytest.raises(ValueError, match="n_nodes"):
        MeshFieldInterpolant(g, 0.7, 0.85, n_nodes=1)
    pinned = MeshFieldInterpolant(g, 0.8, 0.8, n_nodes=1)  # constant H needs one
    assert pinned.nodes.tolist() == [0.8]


def test_interpolant_one_v_and_per_index_v_agree_bitwise():
    g = make_noise_grid(LAW, -2.0, 2.0**-8, seed=31)
    interp = MeshFieldInterpolant(g, 0.7, 0.85, n_nodes=12, refine=2)
    vals = field_on_mesh(g, interp.nodes, 2)
    v = np.linspace(0.7, 0.85, vals.shape[1])
    v[5] = interp.nodes[3]  # a node hit
    # reference: the broadcast barycentric formula, summed over the node axis
    diff = v[None, :] - interp.nodes[:, None]
    exact = np.isclose(diff, 0.0, atol=1e-15)
    coef = interp.weights[:, None] / np.where(exact, 1.0, diff)
    ref = (coef * vals).sum(axis=0) / coef.sum(axis=0)
    hit = exact.any(axis=0)
    ref[hit] = vals[exact.argmax(axis=0)[hit], np.flatnonzero(hit)]
    assert hit.sum() == 3  # both end nodes and the one placed at index 5
    got = interp.at(v)
    # a hit reads its node row bit for bit; elsewhere the streamed pass
    # combines the far part as series coefficients, a different summation order
    assert np.array_equal(got[hit], ref[hit])
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(interp.at(float(v[5])), vals[3])  # one v on a node


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
    interp = MeshFieldInterpolant(g, 0.7, 0.85, n_nodes=12, refine=2)
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
    interp = MeshFieldInterpolant(g, 0.7, 0.85, n_nodes=16, refine=8)
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


# 2^-10 puts the peak in the far part's blocks, 2^-13 in the transforms
@pytest.mark.parametrize("cells", [2**10, 2**13])
def test_path_build_streams_node_rows(cells):
    # a 16-node path build never holds the 16 node rows: besides the
    # transform buffers (kernel values, spectrum and convolution of refine
    # rows each) and the far part's blocks (one row per node and per series
    # term, at most _CHUNK points long) it keeps a few mesh rows
    g = make_noise_grid(LAW, -4.0, 1.0 / cells, seed=39)
    H = L.linear_hurst(0.7, 0.15)
    refine, n_nodes = 8, 16
    n = cells * refine + 1
    transforms = 3 * refine * next_fast_len(_near_cells(g) + cells)
    ratio = 0.5 / (_NEAR_SPAN + g.delta + 0.5)
    n_terms = L.process._far_series_terms(H.h_high - 1.0 / LAW.alpha, ratio)
    far_blocks = (n_nodes + n_terms + 1) * min(L.process._CHUNK, n)
    tracemalloc.start()
    try:
        L.simulate_lmsm(MeshFieldInterpolant(g, H.h_low, H.h_high, n_nodes, refine), H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (transforms + far_blocks + 8 * n)


def test_interpolant_refuses_to_extrapolate():
    # H = 0.8 - 0.1 t leaves the interpolant's [0.75, 0.8] at t = 0.5
    g = make_noise_grid(LAW, -4.0, 2.0**-10, seed=29)
    interp = MeshFieldInterpolant(g, 0.75, 0.8, n_nodes=16)
    with pytest.raises(ValueError, match="outside"):
        L.simulate_lmsm(interp, L.linear_hurst(0.8, -0.1))
    interp.at(0.8 + 5e-13)  # inside the 1e-12 slack
    for v in (0.8 + 2e-12, np.array([0.76, 0.7499])):
        with pytest.raises(ValueError):
            interp.at(v)
    pinned = MeshFieldInterpolant(g, 0.8, 0.8)
    with pytest.raises(ValueError):
        pinned.at(0.8 + 2e-12)


def test_constant_hurst_path_is_lfsm_code_path():
    g = make_noise_grid(LAW, -4.0, 2.0**-10, seed=37)
    H = L.constant_hurst(0.8)
    path = L.simulate_lmsm(MeshFieldInterpolant(g, 0.8, 0.8), H)
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
    field = MeshFieldInterpolant(g, H.h_low, H.h_high, n_nodes=16, refine=refine)
    path = L.simulate_lmsm(field, H)
    times = np.arange(refine / g.delta + 1) * field.t_step
    assert np.array_equal(path.times, times)
    rows = field_on_mesh(g, field.nodes, refine)
    expect = field.combine(H(times), rows)
    assert path.values[0] == 0.0
    assert np.array_equal(path.values[[0, -1]], [rows[0, 0], rows[-1, -1]])
    assert np.max(np.abs(path.values - expect)) <= 1e-13 * np.max(np.abs(expect))
    assert np.array_equal(path.values, field.at(H(times)))


def test_lipschitz_coupling_in_hurst():
    # nearby Hurst functions on shared noise stay uniformly close
    g = make_noise_grid(LAW, -4.0, 2.0**-10, seed=43)
    def path(h):  # one pinned interpolant per constant H
        return L.simulate_lmsm(MeshFieldInterpolant(g, h, h), L.constant_hurst(h)).values

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
    # beta-moment of X(a t) is a**(beta H) times that of X(t), within MC error
    H, beta = 0.8, 0.25
    g_geom = make_noise_grid(LAW, -64.0, 2.0**-9, seed=61)
    mom = {}
    for t in (0.125, 0.25, 0.5, 1.0):
        samples = _field_weight_samples(g_geom, t, H, 2000, seed=int(1000 * t))
        mom[t] = np.mean(np.abs(samples) ** beta)
    for t, a in ((0.125, 2.0), (0.125, 4.0), (0.25, 2.0), (0.25, 4.0)):
        ratio = mom[a * t] / mom[t]
        assert ratio == pytest.approx(a ** (beta * H), rel=0.05)


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
    path = L.simulate_lmsm(MeshFieldInterpolant(grid, 0.8, 0.8, refine=8), H)
    from lmsmlab.coeffs import build_global_intervals, build_pyramid

    pyr = build_pyramid(path, L.default_wavelet(), (5, 6), build_global_intervals((0.0, 1.0), 6))
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
    path = L.simulate_lmsm(MeshFieldInterpolant(g, 0.8, 0.8), L.constant_hurst(0.8))
    fname = tmp_path / "path.csv"
    path.to_csv(fname)
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
    g_short = make_noise_grid(LAW, -2.0, 2.0**-8, seed=5)
    g_long = make_noise_grid(LAW, -64.0, 2.0**-8, seed=5)
    a_short = path_truncation_audit(g_short, 1.0, 0.85)
    a_long = path_truncation_audit(g_long, 1.0, 0.85)
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
                audit = path_truncation_audit(g, u, v)
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
