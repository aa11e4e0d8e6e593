"""Kernel-integral bounds: closed-form oracles, symmetry, decay sweeps,
and the Monte Carlo covariance/scale checks at reduced desk scale."""

import math

import numpy as np
import pytest

import lmsmlab as L
from lmsmlab.bounds import (
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


def test_rq_closed_form_oracle():
    # int (1+|u|)^-4 du = 2 * [ -(1+u)^-3 / 3 ]_0^inf = 2/3
    assert rq_integral(2.0, 2.0, 0) == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_rq_symmetry_and_domain():
    for q in (1, 5, 17):
        assert rq_integral(2.0, 1.3, q) == pytest.approx(rq_integral(1.3, 2.0, q), rel=1e-8)
    with pytest.raises(ValueError):
        rq_integral(0.9, 1.0, 3)
    with pytest.raises(ValueError):
        rq_integral(-0.5, 2.0, 3)


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
    # same interpolant level, same trapezoid, identical to the last bit; the
    # refined interpolant has m = 128 samples per cell, as at j = 12 in the
    # experiments
    from lmsmlab.coeffs import build_pyramid, frozen_level
    from lmsmlab.estimators import build_global_intervals
    from lmsmlab.process import MeshFieldInterpolant, make_noise_grid, simulate_lmsm

    H = L.constant_hurst(0.8)
    w = L.default_wavelet()
    grid = make_noise_grid(LAW, -4.0, 1.0, 2.0**-10, seed=333)
    for refine in (1, 4):
        interp = MeshFieldInterpolant(grid, 0.8, 0.8, 1.0, refine=refine)
        times = np.arange(2**10 * refine + 1) * interp.t_step
        path = simulate_lmsm(grid, times, H, interpolant=interp)
        pyr = build_pyramid(path, w, (5,), build_global_intervals((0.0, 1.0), 5))
        frozen = frozen_level(interp, w, 5, range(32), H)
        assert np.array_equal(frozen, pyr.level(5))


def test_frozen_level_matches_per_shift_definition():
    # node-wise quadrature combined at h_k against the quadrature of the field
    # interpolated at h_k; k = 0 puts h_k on the first Chebyshev node exactly
    from lmsmlab.coeffs import frozen_level
    from lmsmlab.process import MeshFieldInterpolant, make_noise_grid

    H = L.linear_hurst(0.7, 0.15)
    w = L.default_wavelet()
    grid = make_noise_grid(LAW, -4.0, 1.0, 2.0**-10, seed=334)
    interp = MeshFieldInterpolant(grid, H.h_low, H.h_high, 1.0, n_nodes=16, refine=4)
    assert float(H(0.0)) == interp.nodes[0]
    for j in (5, 8):
        m = round(2.0**-j / interp.t_step)
        ks = range(2**j)
        frozen = frozen_level(interp, w, j, ks, H)
        per_shift = np.array([
            w.cell_weights(m) @ interp.at(float(H(k * 2.0**-j)), k * m, k * m + m + 1)
            for k in ks
        ])
        assert np.max(np.abs(frozen - per_shift)) <= 1e-12 * np.max(np.abs(per_shift))
        assert frozen[0] == pytest.approx(per_shift[0], rel=1e-9)


def test_covariance_check_enforces_replicate_floor():
    H = L.constant_hurst(0.8)
    with pytest.raises(ValueError):
        covariance_mc_check(LAW, KERN, H, 6, [1, 2], 0.25, replicates=100)


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
