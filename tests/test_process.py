"""Noise grids, field evaluation, motion paths and direct coefficients.

The Monte Carlo oracles here follow the scale contract of discrete stable
integrals: the scale of sum w_i dZ_i is (sum |w_i|**alpha * delta)**(1/alpha),
so empirical fractional moments can be compared against quadrature targets.
"""

import math

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.integrate import quad

import lmsmlab as L
from lmsmlab.process import (
    MeshFieldInterpolant,
    direct_coeff_weights,
    eval_field,
    field_on_mesh,
    make_noise_grid,
    path_truncation_audit,
    sample_path_from_csv,
)
from lmsmlab.stable import moment_constant, unit_sas
from lmsmlab.wavelet import PhiKernel

LAW = L.StableLaw(1.5, 1.0)


def test_grid_determinism_and_shape():
    g1 = make_noise_grid(LAW, -2.0, 1.0, 2.0**-8, seed=5)
    g2 = make_noise_grid(LAW, -2.0, 1.0, 2.0**-8, seed=5)
    assert np.array_equal(g1.increments, g2.increments)
    assert g1.n_cells == 3 * 2**8
    assert g1.origin_index == 2 * 2**8


def test_grid_validation():
    with pytest.raises(ValueError):
        make_noise_grid(LAW, -1.0, 1.0, -0.1, seed=1)
    with pytest.raises(ValueError):
        make_noise_grid(LAW, 0.5, 1.0, 0.01, seed=1)
    with pytest.raises(ValueError):
        make_noise_grid(LAW, -1.0, 1.0, 0.3, seed=1)  # non-integer cell count


def test_grid_increment_moments_match_constant():
    g = make_noise_grid(LAW, -16384.0, 0.0, 1.0 / 64, seed=9)
    assert g.n_cells >= 1_000_000
    mom = np.mean(np.abs(g.increments) ** 0.25) / g.delta ** (0.25 / LAW.alpha)
    assert mom == pytest.approx(moment_constant(0.25, LAW.alpha), rel=0.02)


def test_unit_delta_increments_are_unit_scale():
    g = make_noise_grid(LAW, -4.0, 0.0, 1.0, seed=31)
    direct = unit_sas(LAW.alpha, 4, np.random.Generator(np.random.Philox(key=np.uint64(31))))
    assert np.allclose(g.increments, direct)


def test_field_zero_at_origin_and_domain_checks():
    g = make_noise_grid(LAW, -2.0, 1.0, 2.0**-8, seed=5)
    assert eval_field(g, 0.0, 0.8) == 0.0
    with pytest.raises(ValueError):
        eval_field(g, -0.1, 0.8)
    with pytest.raises(ValueError):
        eval_field(g, 0.5, 0.6)  # v below 1/alpha


def test_field_truncation_signal():
    g = make_noise_grid(LAW, -1.0, 1.0, 2.0**-8, seed=5)
    with pytest.raises(L.TruncationError):
        eval_field(g, 1.0, 0.9, tail_tol=1e-3)


def test_fft_route_equals_direct_sums():
    g = make_noise_grid(LAW, -4.0, 1.0, 2.0**-9, seed=17)
    mesh = field_on_mesh(g, 0.8)
    for m in (0, 1, 3, 77, 512):
        direct = eval_field(g, m * 2.0**-9, 0.8, tail_tol=0.5)
        assert mesh[m] == pytest.approx(direct, abs=1e-10 + 1e-9 * abs(direct))


def test_refined_mesh_consistency():
    g = make_noise_grid(LAW, -2.0, 1.0, 2.0**-7, seed=23)
    x1 = field_on_mesh(g, 0.75, refine=1)
    x4 = field_on_mesh(g, 0.75, refine=4)
    assert np.allclose(x4[::4], x1, atol=1e-12)
    direct = eval_field(g, 5 * 2.0**-9, 0.75, tail_tol=0.5)
    assert x4[5] == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("refine,t_top", [(2, 1.0), (8, 1.0), (8, 0.5)])
def test_fft_length_at_aliasing_boundary(refine, t_top):
    # n_cells + K is already a fast length, so the transforms run at exactly the
    # shortest wrap-free length; one point shorter would corrupt mesh index 1
    # (residue 1), which the sweep below includes
    g = make_noise_grid(LAW, -2.0, 1.0, 2.0**-7, seed=41)
    n_min = g.n_cells + round(t_top / g.delta)
    assert next_fast_len(n_min) == n_min
    mesh = field_on_mesh(g, 0.8, t_top, refine)
    assert mesh.size == round(t_top / g.delta) * refine + 1
    for m, x in enumerate(mesh):
        direct = eval_field(g, m * g.delta / refine, 0.8, tail_tol=1.0)
        assert x == pytest.approx(direct, abs=1e-10 + 1e-9 * abs(direct))


def test_fft_length_contract(monkeypatch):
    # every transform takes its length as the second positional argument,
    # n_cells + K rounded up to a fast length, never the linear-convolution size
    calls = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            calls.append((args[1] if len(args) > 1 else None, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(L.process, "rfft", recording(L.process.rfft))
    monkeypatch.setattr(L.process, "irfft", recording(L.process.irfft))
    g = make_noise_grid(LAW, -3.0, 1.0, 2.0**-8, seed=43)
    refine, t_top = 3, 0.75
    n_fft = next_fast_len(g.n_cells + round(t_top / g.delta))
    field_on_mesh(g, 0.8, t_top, refine)
    assert len(calls) == 2 * refine + 1  # plus the noise spectrum, once per grid
    field_on_mesh(g, 0.75, t_top, refine)
    assert len(calls) == 4 * refine + 1
    assert all(n == n_fft and not kw for n, kw in calls)


def test_field_on_mesh_rejects_times_past_the_grid():
    g = make_noise_grid(LAW, -2.0, 0.5, 2.0**-8, seed=47)
    assert field_on_mesh(g, 0.8, 0.5).size == 2**7 + 1
    with pytest.raises(ValueError, match="t_max"):
        field_on_mesh(g, 0.8, 1.0)
    with pytest.raises(ValueError, match="t_max"):
        field_on_mesh(g, 0.8, -2.0**-8)
    times = np.arange(2**8 + 1) * 2.0**-8
    with pytest.raises(ValueError, match="t_max"):
        L.simulate_lmsm(g, times, L.constant_hurst(0.8), tail_tol=1.0)


def test_interpolant_matches_exact_nodes_and_offnode():
    g = make_noise_grid(LAW, -4.0, 1.0, 2.0**-10, seed=29)
    interp = MeshFieldInterpolant(g, 0.7, 0.85, 1.0, n_nodes=16)
    rng = np.random.default_rng(2)
    for v in rng.uniform(0.7, 0.85, 4):
        exact = field_on_mesh(g, float(v))
        approx = interp.at(float(v))
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(exact - approx)) < 1e-9 * scale


def test_interpolant_one_v_and_per_index_v_agree_bitwise():
    g = make_noise_grid(LAW, -2.0, 1.0, 2.0**-8, seed=31)
    interp = MeshFieldInterpolant(g, 0.7, 0.85, 1.0, n_nodes=12, refine=2)
    vals = interp.values
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
    assert np.array_equal(interp.at(v), ref)
    for h in (0.7731, float(interp.nodes[3])):
        assert np.array_equal(interp.at(h, 40, 169), interp.at(np.full(vals.shape[1], h))[40:169])


def test_interpolant_refuses_to_extrapolate():
    # H = 0.75 + 0.2 t leaves the interpolant's [0.75, 0.8] at t = 0.25
    g = make_noise_grid(LAW, -4.0, 1.0, 2.0**-10, seed=29)
    interp = MeshFieldInterpolant(g, 0.75, 0.8, 1.0, n_nodes=16)
    times = np.arange(2**10 + 1) * interp.t_step
    with pytest.raises(ValueError, match="outside"):
        L.simulate_lmsm(g, times, L.linear_hurst(0.75, 0.2), interpolant=interp,
                        tail_tol=1.0)
    interp.at(0.8 + 5e-13)  # inside the 1e-12 slack
    for v in (0.8 + 2e-12, np.array([0.76, 0.7499])):
        with pytest.raises(ValueError):
            interp.at(v)
    pinned = MeshFieldInterpolant(g, 0.8, 0.8, 1.0)
    with pytest.raises(ValueError):
        pinned.at(0.8 + 2e-12)


def test_simulate_rejects_an_interpolant_of_another_grid():
    g = make_noise_grid(LAW, -4.0, 1.0, 2.0**-10, seed=29)
    other = make_noise_grid(LAW, -4.0, 1.0, 2.0**-10, seed=30)
    interp = MeshFieldInterpolant(other, 0.7, 0.85, 1.0, n_nodes=8)
    times = np.arange(2**10 + 1) * interp.t_step
    with pytest.raises(ValueError, match="grid"):
        L.simulate_lmsm(g, times, L.linear_hurst(0.7, 0.15), interpolant=interp)


def test_constant_hurst_path_is_lfsm_code_path():
    g = make_noise_grid(LAW, -4.0, 1.0, 2.0**-10, seed=37)
    H = L.constant_hurst(0.8)
    times = np.arange(2**10 + 1) * 2.0**-10
    path = L.simulate_lmsm(g, times, H)
    mesh = field_on_mesh(g, 0.8)
    mesh[0] = 0.0
    assert np.array_equal(path.values, mesh)
    assert path.values[0] == 0.0


def test_lmsm_offgrid_times_fall_back_to_direct():
    g = make_noise_grid(LAW, -2.0, 1.0, 2.0**-8, seed=41)
    H = L.constant_hurst(0.75)
    times = np.array([0.0, 0.111, 0.437, 0.9])
    path = L.simulate_lmsm(g, times, H, tail_tol=0.5)
    for t, y in zip(times, path.values):
        assert y == pytest.approx(eval_field(g, float(t), 0.75, tail_tol=0.5), abs=1e-12)


def test_lipschitz_coupling_in_hurst():
    # nearby Hurst functions on shared noise stay uniformly close
    g = make_noise_grid(LAW, -4.0, 1.0, 2.0**-10, seed=43)
    times = np.arange(2**10 + 1) * 2.0**-10
    base = 0.75
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        interp = MeshFieldInterpolant(g, base, base + eps, 1.0, n_nodes=12)
        y1 = L.simulate_lmsm(g, times, L.constant_hurst(base), interpolant=interp)
        y2 = L.simulate_lmsm(g, times, L.constant_hurst(base + eps), interpolant=interp)
        ratios.append(np.max(np.abs(y2.values - y1.values)) / eps)
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
    g = make_noise_grid(LAW, t_min, 1.0, delta, seed=51)
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
    g_geom = make_noise_grid(LAW, -64.0, 1.0, 2.0**-9, seed=61)
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
    g1 = make_noise_grid(LAW, -16.0, 1.0, 2.0**-9, seed=71)
    g2 = make_noise_grid(L.StableLaw(1.5, 2.0), -16.0, 1.0, 2.0**-9, seed=71)
    d1 = L.simulate_coeff_direct(g1, kern, 4, 3, H)
    d2 = L.simulate_coeff_direct(g2, kern, 4, 3, H)
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)


def test_direct_coeff_scale_identity_mc():
    kern = PhiKernel(1.5)
    h = 0.8
    j, k = 5, 7
    beta = 0.25
    i0, w = direct_coeff_weights(-16.0, 2.0**-9, kern, j, k, h)
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
        i0, w = direct_coeff_weights(-16.0, delta, kern, j, k, h)
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
    g = make_noise_grid(LAW, -2.0**-4, 1.0, 2.0**-9, seed=101)
    with pytest.raises(L.TruncationError):
        L.simulate_coeff_direct(g, kern, 4, 0, L.constant_hurst(0.8))


def test_direct_coeff_cell_validation():
    kern = PhiKernel(1.5)
    g = make_noise_grid(LAW, -16.0, 1.0, 2.0**-9, seed=103)
    with pytest.raises(ValueError):
        L.simulate_coeff_direct(g, kern, 3, 8, L.constant_hurst(0.8))  # cell ends at 9/8


def test_cross_route_coefficients_agree_on_shared_noise():
    # path-quadrature d and stable-integral d~ are discretizations of the
    # same object; with constant H they differ only by quadrature error
    kern = PhiKernel(1.5)
    H = L.constant_hurst(0.8)
    grid = make_noise_grid(LAW, -16.0, 1.0, 2.0**-11, seed=121)
    refine = 8
    times = np.arange(2**11 * refine + 1) * (2.0**-11 / refine)
    path = L.simulate_lmsm(grid, times, H, refine=refine)
    from lmsmlab.coeffs import build_pyramid
    from lmsmlab.estimators import build_global_intervals

    pyr = build_pyramid(path, L.default_wavelet(), (5, 6), build_global_intervals((0.0, 1.0), 6))
    for j in (5, 6):
        scale = 2.0 ** (-j * 0.8) * kern.lalpha_norm(0.8)
        worst = max(
            abs(pyr.value(j, k) - L.simulate_coeff_direct(grid, kern, j, k, H)) / scale
            for k in range(0, 2**j, max(1, 2**j // 8))
        )
        assert worst < 0.05


def test_path_csv_roundtrip(tmp_path):
    g = make_noise_grid(LAW, -2.0, 1.0, 2.0**-8, seed=111)
    times = np.arange(2**8 + 1) * 2.0**-8
    path = L.simulate_lmsm(g, times, L.constant_hurst(0.8), tail_tol=0.5)
    fname = tmp_path / "path.csv"
    path.to_csv(fname)
    back = sample_path_from_csv(fname)
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.values, path.values)
    assert back.provenance["kind"] == "lmsm"


def test_truncation_audit_monotone_in_domain():
    g_short = make_noise_grid(LAW, -2.0, 1.0, 2.0**-8, seed=5)
    g_long = make_noise_grid(LAW, -64.0, 1.0, 2.0**-8, seed=5)
    a_short = path_truncation_audit(g_short, 1.0, 0.85)
    a_long = path_truncation_audit(g_long, 1.0, 0.85)
    assert a_long < a_short


def test_hurst_validation():
    with pytest.raises(ValueError):
        L.constant_hurst(0.6).validate(1.5)  # below 1/alpha
    with pytest.raises(ValueError):
        L.linear_hurst(0.7, 0.4).validate(1.5)  # exceeds 1
    L.sine_hurst(0.75, 0.08).validate(1.5)
