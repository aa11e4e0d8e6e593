"""Estimator algebra, interval constructions and the constant correction."""

import math

import numpy as np
import pytest

import lmsmlab as L
from lmsmlab.coeffs import CoeffPyramid
from lmsmlab.estimators import (
    DegenerateReplicate,
    EstimatorConfig,
    build_global_intervals,
    build_local_intervals,
    corrected_hmin,
    empirical_mean,
    estimate_alpha,
    estimate_hmin,
    hmin_offset,
)
from lmsmlab.stable import moment_constant
from lmsmlab.wavelet import PhiKernel


def _pyramid(j, values):
    return CoeffPyramid(
        levels={j: np.array(values)},
        k0={j: 0},
        source="direct_kernel",
        wavelet_id="quartic",
        seed=0,
    )


def test_empirical_mean_constant_and_mixed():
    pyr = _pyramid(3, [0.5] * 8)
    assert empirical_mean(pyr, 3, range(8), 0.25) == pytest.approx(0.5**0.25)
    pyr2 = _pyramid(1, [1.0, 2.0])
    expected = (1.0 + 2.0**0.25) / 2.0  # hand arithmetic: ~1.0946
    assert empirical_mean(pyr2, 1, [0, 1], 0.25) == pytest.approx(expected)
    assert expected == pytest.approx(1.0946, abs=1e-4)


def test_empirical_mean_validation():
    pyr = _pyramid(2, [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        empirical_mean(pyr, 2, [], 0.25)
    with pytest.raises(ValueError):
        empirical_mean(pyr, 2, [0, 1], 0.0)


def test_estimate_hmin_exact_inversion():
    for h in (0.55, 0.7, 0.95):
        for j in (1, 5, 12):
            for beta in (0.1, 0.25):
                v = 2.0 ** (-j * beta * h)
                assert estimate_hmin(v, j, beta) == pytest.approx(h, abs=1e-13)
    assert estimate_hmin(1.0, 7, 0.25) == 0.0


def test_estimate_hmin_degenerate_and_domain():
    with pytest.raises(DegenerateReplicate):
        estimate_hmin(0.0, 5, 0.25)
    with pytest.raises(ValueError):
        estimate_hmin(0.5, 0, 0.25)
    with pytest.raises(ValueError):
        estimate_hmin(0.5, 5, 0.0)


def test_global_intervals_constant_and_admissible_from_two():
    seq = build_global_intervals((0.0, 1.0), 8)
    for j in range(9):
        assert seq.interval(j) == (0.0, 1.0)
    assert seq.first_admissible == 2
    for j in range(1, 9):
        lo1, hi1 = seq.interval(j - 1)
        lo2, hi2 = seq.interval(j)
        assert lo1 <= lo2 and hi2 <= hi1
    with pytest.raises(ValueError):
        build_global_intervals((0.4, 0.4), 5)


def test_local_intervals_interior_diameters_and_nesting():
    t0 = 0.5
    seq = build_local_intervals(t0, 12)
    for j in range(2, 13):
        lo, hi = seq.interval(j)
        assert hi - lo == pytest.approx(2.0 ** (1 - j / 2.0), rel=1e-12)
        assert lo <= t0 <= hi
        assert 0.0 <= lo and hi <= 1.0
    # intersection shrinks to t0
    lo, hi = seq.interval(12)
    assert hi - lo < 0.05 and lo < t0 < hi


def test_local_intervals_clipping_keeps_diameter():
    seq = build_local_intervals(0.25, 12)
    for j in range(2, 13):
        lo, hi = seq.interval(j)
        width = 2.0 ** (1 - j / 2.0)
        assert 0.0 <= lo and hi <= 1.0
        if width <= 1.0:
            assert hi - lo == pytest.approx(width, rel=1e-12)
        assert lo <= 0.25 <= hi
    with pytest.raises(ValueError):
        build_local_intervals(0.0, 5)


def test_local_intervals_index_count_lower_bound():
    # admissible levels of an interval sequence hold at least floor(2^(j/2)) cells
    from lmsmlab.coeffs import index_set

    for t0 in (0.25, 0.5, 0.8):
        seq = build_local_intervals(t0, 14)
        for j in range(2, 15):
            if seq.admissible(j):
                assert len(index_set(seq.interval(j), j)) >= math.floor(2.0 ** (j / 2.0))


def test_estimate_alpha_inversions_and_shift_identity():
    alpha, h, j = 1.5, 0.8, 10
    d = 2.0 ** (-j * (h - 1.0 / alpha))
    assert estimate_alpha(h, d, j) == pytest.approx(alpha, rel=1e-12)
    assert estimate_alpha(0.8, 1.0, j) == pytest.approx(1.25)
    # joint shift leaves the output unchanged: exact algebra
    for c in (-0.3, 0.2, 1.0):
        shifted = estimate_alpha(h + c, 2.0 ** (-j * c) * d, j)
        assert shifted == pytest.approx(estimate_alpha(h, d, j), rel=1e-12)


def test_estimate_alpha_flags_degenerates():
    with pytest.raises(DegenerateReplicate):
        estimate_alpha(0.8, 0.0, 10)
    with pytest.raises(DegenerateReplicate):
        estimate_alpha(-0.5, 1.0, 10)  # denominator -0.5 <= 0


def test_estimator_config_beta_windows():
    EstimatorConfig(beta=0.25)  # unknown alpha: endpoint allowed
    with pytest.raises(ValueError):
        EstimatorConfig(beta=0.3)  # unknown alpha
    EstimatorConfig(beta=0.3, alpha=1.5)  # known alpha: (0, 0.375)
    with pytest.raises(ValueError):
        EstimatorConfig(beta=0.4, alpha=1.5)
    with pytest.raises(ValueError):
        EstimatorConfig(interval_mode="local")  # t0 missing


def test_corrected_hmin_recovers_truth_on_synthetic_input():
    # feed the estimator its own idealized expectation and ask for H back
    kernel = PhiKernel(1.5)
    beta = 0.25
    for h, j in ((0.72, 8), (0.8, 10), (0.83, 12)):
        v = moment_constant(beta, 1.5) * (2.0 ** (-j * h) * kernel.lalpha_norm(h)) ** beta
        raw = estimate_hmin(v, j, beta)
        assert abs(raw - h) > 0.3  # the constant offset is material
        corr = corrected_hmin(v, j, beta, kernel, (0.7, 0.85))
        assert corr == pytest.approx(h, abs=5e-3)


def test_hmin_offset_shrinks_like_one_over_j():
    kernel = PhiKernel(1.5)
    o8 = hmin_offset(1.5, 0.25, kernel, 0.8, 8)
    o16 = hmin_offset(1.5, 0.25, kernel, 0.8, 16)
    assert o16 == pytest.approx(o8 / 2.0, rel=1e-12)
