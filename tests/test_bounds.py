"""Kernel-integral bounds: closed-form oracles, symmetry, decay sweeps,
and the Monte Carlo covariance/scale checks at reduced desk scale."""

import ast
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lmsmlab as L
from lmsmlab.bounds import (
    approx_error_check,
    covariance_mc_check,
    lambda_exponent,
    phi1_integral,
    phi2_integral,
    rq_integral,
    rq_sweep_report,
    scale_param_check,
)
from lmsmlab.wavelet import PhiKernel

LAW = L.StableLaw(1.5, 1.0)
KERN = PhiKernel(1.5)


RQ_PAIRS = [(2.0, 1.5), (1.5, 1.5), (3.0, 1.1), (2.0, 2.0), (1.05, 0.2), (1.01, 0.0)]


@pytest.mark.parametrize("dg", RQ_PAIRS, ids=[f"{d}-{g}" for d, g in RQ_PAIRS])
def test_rq_closed_form_oracle(dg):
    # r_0 = int (1+|u|)^-(delta+gamma) du = 2 / (delta + gamma - 1); for q > 0
    # the oracle is scipy's adaptive quad on the three pieces of the line
    from scipy.integrate import quad

    delta, gamma = dg
    assert rq_integral(delta, gamma, 0) == pytest.approx(2.0 / (delta + gamma - 1.0), rel=1e-13)

    def f(u, q):
        return (1.0 + abs(u - q)) ** -delta * (1.0 + abs(u)) ** -gamma

    for q in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200):
        oracle = sum(quad(f, lo, hi, args=(q,), limit=400, epsabs=1e-13, epsrel=1e-11)[0]
                     for lo, hi in ((-np.inf, 0.0), (0.0, q), (q, np.inf)))
        assert rq_integral(delta, gamma, q) == pytest.approx(oracle, rel=1e-10)


def test_rq_symmetry_and_domain():
    for q in (1, 5, 17):
        assert rq_integral(2.0, 1.3, q) == pytest.approx(rq_integral(1.3, 2.0, q), rel=1e-12)
        assert rq_integral(2.0, 1.3, -q) == rq_integral(2.0, 1.3, q)
    with pytest.raises(ValueError):
        rq_integral(0.9, 1.0, 3)
    with pytest.raises(ValueError):
        rq_integral(-0.5, 2.0, 3)


def test_import_loads_no_scipy():
    # r_q runs on the kernel layer's Gauss panel rule and the field pass on
    # numpy.fft, so importing the package loads no scipy module at all
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = ("import sys, lmsmlab; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


def _relative_imports(module: str) -> set:
    # the sibling modules that lmsmlab.<module> imports from
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    with open(os.path.join(src, "lmsmlab", module + ".py")) as fh:
        tree = ast.parse(fh.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out


def test_level_geometry_lives_in_coeffs():
    # which cells make a level is decided in coeffs alone: the estimators read
    # level arrays, and the bound checks take cells from a pyramid
    assert not _relative_imports("estimators") & {"coeffs", "bounds", "harness"}
    assert "estimators" not in _relative_imports("bounds")


def test_serial_gemm_rule_lives_in_stable():
    # how large a matrix product BLAS runs on the calling thread is decided in
    # stable alone: every other module takes its products through serial_matmul
    pkg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "lmsmlab")
    named = set()
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                if "_SERIAL_GEMM_MADDS" in fh.read():
                    named.add(name)
    assert named == {"stable.py"}


@pytest.mark.parametrize("dg", [(2.0, 1.5), (1.5, 1.5), (3.0, 1.1)])
def test_rq_sweep_bounded(dg):
    rep = rq_sweep_report(*dg)
    assert rep.passed
    assert np.isfinite(rep.witnessed_constant)


def test_phi1_diagonal_is_kernel_mass():
    H = L.constant_hurst(0.8)
    diag = phi1_integral(KERN, H, 6, 5, 5)
    mass = KERN.lalpha_norm(0.8) ** KERN.alpha
    assert diag == pytest.approx(mass, rel=1e-4)


def test_phi2_diagonal_is_kernel_mass_and_positive():
    H = L.constant_hurst(0.8)
    diag = phi2_integral(KERN, H, 6, 5, 5)
    mass = KERN.lalpha_norm(0.8) ** KERN.alpha
    assert diag == pytest.approx(mass, rel=1e-4)
    assert phi2_integral(KERN, H, 6, 0, 9) > 0.0


def test_phi1_symmetric_under_shift_swap():
    H = L.constant_hurst(0.8)
    a = phi1_integral(KERN, H, 6, 3, 11)
    b = phi1_integral(KERN, H, 6, 11, 3)
    assert a == pytest.approx(b, rel=1e-6)


def test_phi1_decay_beats_bound_with_slack():
    H = L.constant_hurst(0.8)
    expo = (1.5 / 2.0) * (2.0 + 1.0 / 1.5 - 0.8)
    v1 = phi1_integral(KERN, H, 8, 0, 1)
    v64 = phi1_integral(KERN, H, 8, 0, 64)
    assert v64 < v1 / (64.0**expo / 4.0)


def test_phi2_decay_sweep():
    H = L.constant_hurst(0.8)
    expo = (1.5 - 1.0) * (2.0 + 1.0 / 1.5 - 0.8)
    v1 = phi2_integral(KERN, H, 8, 0, 1)
    v64 = phi2_integral(KERN, H, 8, 0, 64)
    assert v64 < v1 / (64.0**expo / 4.0)


def test_lambda_exponent_values_and_properties():
    # alpha = 1.5, h_high = 0.9: base = 2 + 2/3 - 0.9; branches 1.325 / 0.8833
    lam = lambda_exponent(1.5, 0.9)
    assert lam == pytest.approx((1.5 - 1.0) * (2.0 + 1.0 / 1.5 - 0.9), abs=1e-12)
    assert lam == pytest.approx(0.883333333, abs=1e-6)
    # branches meet as alpha -> 2
    a = 1.999999
    base = 2.0 + 1.0 / a - 0.9
    assert a / 2.0 * base == pytest.approx((a - 1.0) * base, rel=1e-5)
    # positivity and monotonicity on a grid
    for alpha in (1.1, 1.5, 1.9):
        hs = np.linspace(1.0 / alpha + 0.01, 0.99, 20)
        lams = [lambda_exponent(alpha, float(h)) for h in hs]
        assert all(l > 0 for l in lams)
        assert all(x >= y - 1e-12 for x, y in zip(lams, lams[1:]))
    with pytest.raises(ValueError):
        lambda_exponent(2.5, 0.8)
    with pytest.raises(ValueError):
        lambda_exponent(1.5, 0.5)


def test_covariance_check_variance_positive_and_passes():
    H = L.constant_hurst(0.8)
    rep = covariance_mc_check(
        LAW, KERN, H, 6, [1, 2, 4, 8, 16], 0.25, replicates=10_000, seed=13
    )
    assert rep.details["variance_lag0"] > 0.0
    assert rep.passed


def test_covariance_of_independent_synthetic_coefficients_is_null():
    # independence oracle: iid draws must show covariance ~ 0 within 3 SEs
    rng = np.random.default_rng(99)
    a = np.abs(rng.standard_cauchy(20_000)) ** 0.25
    b = np.abs(rng.standard_cauchy(20_000)) ** 0.25
    da, db = a - a.mean(), b - b.mean()
    cov = np.mean(da * db)
    se = np.std(da * db, ddof=1) / math.sqrt(a.size)
    assert abs(cov) < 3.0 * se


def test_approx_check_constant_hurst_routes_coincide():
    # with constant H the frozen-Hurst coefficient IS the path coefficient:
    # same field row, same trapezoid; the frozen route takes the far part
    # through the level quadrature of each power of h, the path through its
    # values, so the two agree to rounding; the refined interpolant has
    # m = 128 samples per cell, as at j = 12 in the experiments
    from lmsmlab.coeffs import FrozenLevels, build_global_intervals, build_pyramid
    from lmsmlab.process import MeshFieldInterpolant, make_noise_grid, simulate_lmsm

    H = L.constant_hurst(0.8)
    w = L.default_wavelet()
    grid = make_noise_grid(LAW, -4.0, 2.0**-10, seed=333)
    intervals = build_global_intervals((0.0, 1.0), 5)
    for refine in (1, 4):
        interp = MeshFieldInterpolant(grid, 0.8, 0.8, refine=refine)
        frozen = FrozenLevels(interp, H, w, (5,), intervals)
        path = simulate_lmsm(interp, H, frozen)
        level = build_pyramid(path, w, (5,), intervals).level(5)
        assert frozen.cells[5] == range(32)
        assert np.max(np.abs(frozen.level(5) - level)) <= 1e-13 * np.max(np.abs(level))


def test_frozen_level_matches_per_shift_definition():
    # node-wise quadrature combined at h_k against the quadrature of the field
    # interpolated at h_k; k = 0 puts h_k on the first Chebyshev node exactly
    from lmsmlab.coeffs import FrozenLevels, build_global_intervals
    from lmsmlab.process import MeshFieldInterpolant, field_on_mesh, make_noise_grid, simulate_lmsm

    H = L.linear_hurst(0.7, 0.15)
    w = L.default_wavelet()
    grid = make_noise_grid(LAW, -4.0, 2.0**-10, seed=334)
    interp = MeshFieldInterpolant(grid, H.h_low, H.h_high, n_nodes=16, refine=4)
    frozen = FrozenLevels(interp, H, w, (5, 8), build_global_intervals((0.0, 1.0), 8))
    simulate_lmsm(interp, H, frozen)
    rows = field_on_mesh(grid, interp.nodes, 4)
    assert float(H(0.0)) == interp.nodes[0]
    for j in (5, 8):
        m = round(2.0**-j / interp.t_step)
        ks = range(2**j)
        assert frozen.cells[j] == ks
        got = frozen.level(j)
        per_shift = np.array([
            w.cell_weights(m) @ interp.combine(float(H(k * 2.0**-j)),
                                               rows[:, k * m : k * m + m + 1])
            for k in ks
        ])
        assert np.max(np.abs(got - per_shift)) <= 1e-12 * np.max(np.abs(per_shift))
        assert got[0] == pytest.approx(per_shift[0], rel=1e-9)


def test_approx_check_builds_each_field_once(monkeypatch):
    # the frozen levels ride the path's own field pass: one field build, of
    # 1 + 2 n_nodes transforms, per replicate
    import lmsmlab.process as P

    builds, transforms = [], []
    field_on_mesh, rfft, irfft = P.field_on_mesh, P.rfft, P.irfft

    def counting(log, fn):
        def wrapper(*args, **kwargs):
            log.append(args[1])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(P, "field_on_mesh", counting(builds, field_on_mesh))
    monkeypatch.setattr(P, "rfft", counting(transforms, rfft))
    monkeypatch.setattr(P, "irfft", counting(transforms, irfft))
    rep = approx_error_check(LAW, L.default_wavelet(), L.linear_hurst(0.7, 0.15),
                             [4, 5, 6, 7], seed=41)
    assert len(rep.details["slopes"]) == len(builds) == 20
    assert all(nodes.size == 24 for nodes in builds)
    assert len(transforms) == 20 * (1 + 2 * 24)


def test_covariance_check_enforces_replicate_floor():
    H = L.constant_hurst(0.8)
    with pytest.raises(ValueError):
        covariance_mc_check(LAW, KERN, H, 6, [1, 2], 0.25, replicates=100)


def test_direct_checks_refuse_a_kernel_of_another_alpha():
    # an alpha-1.2 kernel on alpha-1.9 noise used to run and report
    # passed=False with a worst relative error of 2.13
    law, kern, H = L.StableLaw(1.9), PhiKernel(1.2), L.constant_hurst(0.9)
    with pytest.raises(ValueError, match="alpha differ"):
        scale_param_check(law, kern, H, 5, [3, 11], 0.25, replicates=10_000, seed=19)
    with pytest.raises(ValueError, match="alpha differ"):
        covariance_mc_check(law, kern, H, 6, [1, 2], 0.25, replicates=10_000, seed=19)


def test_scale_check_small_level():
    H = L.constant_hurst(0.8)
    rep = scale_param_check(LAW, KERN, H, 5, [3, 11], 0.25, replicates=10_000, seed=19)
    assert rep.passed
    assert max(rep.details["rel_errors"]) <= 0.05


def test_scale_check_target_halves_per_level():
    # the quadrature target obeys 2^-H exactly from one level to the next
    h = 0.8
    t6 = 2.0 ** (-6 * h) * KERN.lalpha_norm(h)
    t7 = 2.0 ** (-7 * h) * KERN.lalpha_norm(h)
    assert t7 / t6 == pytest.approx(2.0**-h, rel=1e-14)


def test_blocked_direct_coeffs_match_one_product(monkeypatch):
    # the row-blocked product equals one product of each chunk's draws with the
    # weights to rounding; 1,500 rows give a full chunk and a partial one, and
    # 8 shifts give blocks that do not divide either
    from lmsmlab import bounds, stable

    H, j, ks = L.constant_hurst(0.8), 8, [64, 65, 66, 68, 72, 80, 96, 128]
    chunks = []

    def spy(alpha, n, rng):
        dz = stable.unit_sas(alpha, n, rng)
        chunks.append(dz.copy())
        return dz

    monkeypatch.setattr(bounds, "unit_sas", spy)
    got = bounds._draw_direct_coeffs(LAW, KERN, H, j, ks, 1500, seed=5)
    W = bounds._direct_weight_matrix(LAW, KERN, H, j, ks)
    assert 1024 * W.size > stable._SERIAL_GEMM_MADDS  # a chunk's product is blocked
    ref = np.concatenate([dz.reshape(-1, W.shape[1]) @ W.T for dz in chunks])
    assert got.shape == ref.shape == (1500, len(ks))
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max(axis=0))
