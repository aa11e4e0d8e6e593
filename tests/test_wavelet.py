"""Wavelet admissibility and kernel evaluation against symbolic and
brute-force quadrature oracles."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from lmsmlab.wavelet import (
    PhiKernel,
    WaveletSpec,
    default_wavelet,
    validate_wavelet,
)

QUARTIC = (Fraction(0), Fraction(1), Fraction(-6), Fraction(10), Fraction(-5))


def exact_moment(n: int) -> Fraction:
    """int_0^1 t**n psi(t) dt in exact rational arithmetic."""
    return sum(c / Fraction(n + i + 1) for i, c in enumerate(QUARTIC))


def brute_phi(s: float, v: float, alpha: float, n: int = 1_000_001) -> float:
    """Trapezoid oracle for the kernel integral on [max(s,0), 1]."""
    w = default_wavelet()
    kappa = v - 1.0 / alpha
    y = np.linspace(max(s, 0.0), 1.0, n)
    vals = np.where(y > s, np.clip(y - s, 0.0, None) ** kappa, 0.0) * w(y)
    return float(np.trapezoid(vals, y))


def test_default_wavelet_point_values():
    w = default_wavelet()
    assert w(0.0) == 0.0
    assert w(1.0) == 0.0
    assert w(0.5) == pytest.approx(-0.0625, abs=1e-15)
    assert w(-0.3) == 0.0 and w(1.7) == 0.0


def test_default_wavelet_moments_exact_by_symbolic_oracle():
    assert exact_moment(0) == 0
    assert exact_moment(1) == 0
    assert exact_moment(2) == Fraction(1, 420)  # first non-vanishing moment
    rep = validate_wavelet(default_wavelet(), tol=1e-12)
    assert rep.passed
    assert abs(rep.moment0) < 1e-12 and abs(rep.moment1) < 1e-12


def test_validate_rejects_indicator_and_zero():
    ind = WaveletSpec(poly_coeffs=(1.0,))
    rep = validate_wavelet(ind, tol=1e-10)
    assert not rep.passed
    assert "moment0" in rep.failures and "continuity" in rep.failures
    zero = WaveletSpec(poly_coeffs=(0.0,))
    rep0 = validate_wavelet(zero, tol=1e-10)
    assert not rep0.passed and "nontrivial" in rep0.failures
    # zero outside [0, 1] by construction, whatever the coefficients
    assert not ind(np.array([-1e-9, 1.0 + 1e-9])).any()


def test_affine_annihilation():
    w = default_wavelet()
    rng = np.random.default_rng(5)
    n = 1 << 14
    x = np.linspace(0.0, 1.0, n + 1)
    simp = np.ones(n + 1)
    simp[1:-1:2], simp[2:-1:2] = 4.0, 2.0
    for _ in range(5):
        a, b = rng.normal(size=2)
        resid = np.sum(simp * (a + b * x) * w(x)) / (3.0 * n)
        assert abs(resid) < 1e-10


def test_phi_zero_beyond_support():
    k = PhiKernel(1.5)
    for s in (1.0, 1.5, 2.0, 100.0):
        assert k.phi(s, 0.8) == 0.0


def test_phi_matches_brute_oracle_at_spec_point():
    k = PhiKernel(1.5)
    ours = k.phi(-5.0, 0.8)
    oracle = brute_phi(-5.0, 0.8, 1.5)
    assert abs(ours - oracle) < 1e-6 * abs(oracle)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_phi_matches_brute_oracle_grid(alpha):
    k = PhiKernel(alpha)
    v_lo, v_hi = 1.0 / alpha + 0.02, 0.97
    for s in (-30.0, -7.0, -2.0, -1.3, -0.4, 0.0, 0.3, 0.95):
        for v in (v_lo, 0.5 * (v_lo + v_hi), v_hi):
            ours = k.phi(s, v)
            oracle = brute_phi(s, v, alpha, n=400_001)
            assert ours == pytest.approx(oracle, rel=5e-6, abs=5e-12)


def test_phi_branch_continuity_at_switch():
    k = PhiKernel(1.5)
    cut = k._SERIES_CUT
    for v in (0.7, 0.8, 0.9):
        left = k.phi(cut - 1e-9, v)
        right = k.phi(cut + 1e-9, v)
        assert left == pytest.approx(right, rel=1e-7)


def mpmath_phi(s: float, v: float, alpha: float) -> float:
    """Phi(s, v) by 40-digit mpmath quadrature of the kernel integral."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        kappa = mpmath.mpf(v) - 1 / mpmath.mpf(alpha)
        s = mpmath.mpf(s)
        psi = lambda y: sum(int(c) * y**i for i, c in enumerate(QUARTIC))  # noqa: E731
        return float(mpmath.quad(lambda y: (y - s) ** kappa * psi(y), [0, 0.5, 1]))


@pytest.mark.parametrize("alpha, v", [(1.5, 0.75), (1.2, 0.9), (1.8, 0.6), (1.5, 0.95)])
def test_phi_series_matches_mpmath_reference(alpha, v):
    # the centred series on [-40, -1/2], cut included, against 40 digits
    k = PhiKernel(alpha)
    s = np.concatenate([[k._SERIES_CUT], -np.geomspace(0.5 + 2.0**-20, 40.0, 40)])
    ours = k.phi(s, v)
    reference = np.array([mpmath_phi(x, v, alpha) for x in s])
    assert np.max(np.abs(ours / reference - 1.0)) <= 1e-13


def test_phi_and_its_error_estimate_keep_nan():
    # NaN comes out as NaN, not as the zero of s >= 1; the finite points after
    # it keep their values
    k = PhiKernel(1.5)
    s = np.array([np.nan, -1.0, 0.5])
    for f in (k.phi, k.phi_error_estimate):
        out = f(s, 0.8)
        assert np.isnan(out[0]) and np.isfinite(out[1:]).all()
        assert np.array_equal(out[1:], f(s[1:], 0.8))
        assert np.isnan(f(np.nan, 0.8))
    assert k.phi(np.array([1.0, 2.0]), 0.8).tolist() == [0.0, 0.0]


def test_phi_rejects_bad_v():
    k = PhiKernel(1.5)
    with pytest.raises(ValueError):
        k.phi(0.0, 0.5)  # below 1/alpha
    with pytest.raises(ValueError):
        k.phi(0.0, 1.0)


def test_norm_positive_and_continuous_in_v():
    k = PhiKernel(1.5)
    h_lo, h_hi = 0.7, 0.9
    for v in (h_lo, 0.5 * (h_lo + h_hi), h_hi):
        assert k.lalpha_norm(v) > 0.0
    grid = np.linspace(h_lo, h_hi, 21)
    norms = np.array([k.lalpha_norm(float(v)) for v in grid])
    steps = np.abs(np.diff(norms))
    assert np.all(steps < 1e-2)


def test_norm_rounding_jitter_in_v_is_bounded():
    # across 64 steps of 1e-13 in v the norm moves by about 2e-13 relative per
    # step, and jitters around that line by 1.4e-14 to 2.3e-14 relative; the
    # Taylor form's cancellation, were it used below s = -1/2, would lift that
    # above 1e-12.  corrected_hmin adds log2 of the norm over j, so this jitter
    # is a rounding floor of its estimates; the bound keeps it from growing
    k = PhiKernel(1.5)
    steps = np.arange(64)
    for v in (0.7, 0.75, 0.85):
        norms = np.array([k.lalpha_norm(v + i * 1e-13) for i in steps])
        line = np.polyval(np.polyfit(steps, norms, 1), steps)
        assert np.max(np.abs(norms - line)) < 2e-13 * norms[0]


def test_norm_truncation_self_consistency():
    # extending the domain changes the alpha-mass by less than the tail bound
    k = PhiKernel(1.5)
    v = 0.8
    detail = k.norm_detail(v)
    m1 = k._alpha_integral(v, -detail.s_max)
    m2 = k._alpha_integral(v, -2.0 * detail.s_max)
    assert abs(m2 - m1) <= detail.tail_bound * 1.5 + 1e-18
    assert detail.tail_bound < 1e-6 * m1


def test_decay_envelope_bounds_phi_beyond_its_cut():
    # |Phi(s, v)| <= A(S) (-s)^(kappa - 2) for every s <= -S, from the series'
    # cut outwards, and the bound is within a factor 2 of Phi far out
    for alpha in (1.2, 1.5, 2.0):
        k = PhiKernel(alpha)
        for v in (1.0 / alpha + 0.01, 0.5 / alpha + 0.5, 0.99):
            kappa = v - 1.0 / alpha
            for S in (0.5, 2.0, 64.0):
                s = -S * np.geomspace(1.0, 1e4, 200)
                envelope = k.decay_envelope_constant(S, kappa) * (-s) ** (kappa - 2.0)
                assert np.all(np.abs(k.phi(s, v)) <= envelope)
            assert envelope[-1] < 2.0 * abs(k.phi(s[-1], v))
    # inside the cut, and a kappa of a v below 1/alpha (v = 0.8 at alpha 1.2)
    for S, kappa in ((0.25, 0.1), (2.0, 0.8 - 1.0 / 1.2)):
        with pytest.raises(ValueError, match="envelope needs s_cut >= 1/2 and kappa in"):
            PhiKernel(1.2).decay_envelope_constant(S, kappa)


def quad_phi(s: float, v: float, alpha: float) -> float:
    """Adaptive-quadrature oracle: the substitution w = (y - s)^(kappa+1)
    removes the endpoint singularity; accurate to about 1e-12."""
    psi = default_wavelet()
    kappa = v - 1.0 / alpha
    inv = 1.0 / (kappa + 1.0)
    upper = (1.0 - s) ** (kappa + 1.0)
    lower = max(-s, 0.0) ** (kappa + 1.0)
    val, _ = quad(lambda w: float(psi(s + w**inv)), lower, upper,
                  limit=400, epsabs=1e-13, epsrel=1e-11)
    return inv * val


def test_phi_error_estimate_covers_independent_route_disagreement():
    # reference: adaptive quadrature, an algorithm independent of both the
    # Taylor form and the far-field series
    k = PhiKernel(1.5)
    for s in (-10.0, -2.5, -1.0, 0.3):
        ours = k.phi(s, 0.8)
        bound = k.phi_error_estimate(s, 0.8)
        reference = quad_phi(s, 0.8, 1.5)
        assert abs(ours - reference) < bound + 1e-11
        assert bound < 1e-6 * max(abs(reference), 1e-12)  # and it is actually tight
