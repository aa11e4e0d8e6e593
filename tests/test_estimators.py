"""Estimator algebra, interval constructions and the constant correction."""

import math

import numpy as np
import pytest

import lmsmlab as L
from lmsmlab.coeffs import index_set, local_window
from lmsmlab.estimators import (
    DegenerateReplicate,
    corrected_hmin,
    empirical_mean,
    estimate_alpha,
    estimate_hmin,
    hmin_offset,
)
from lmsmlab.harness import ExperimentConfig
from lmsmlab.stable import moment_constant
from lmsmlab.wavelet import PhiKernel


def test_empirical_mean_constant_and_mixed():
    assert empirical_mean(np.full(8, 0.5), 0.25) == pytest.approx(0.5**0.25)
    expected = (1.0 + 2.0**0.25) / 2.0  # hand arithmetic: ~1.0946
    assert empirical_mean(np.array([1.0, 2.0]), 0.25) == pytest.approx(expected)
    assert expected == pytest.approx(1.0946, abs=1e-4)


def test_empirical_mean_validation():
    with pytest.raises(ValueError):
        empirical_mean(np.zeros(0), 0.25)
    with pytest.raises(ValueError):
        empirical_mean(np.ones(4), 0.0)


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


def _admissible(interval, j):
    # the diameter condition diam(I_j) >= 2^(1 - j/2)
    lo, hi = interval
    return hi - lo >= 2.0 ** (1.0 - j / 2.0) - 1e-12


def test_global_intervals_constant_and_admissible_from_two():
    intervals = ExperimentConfig(j_range=tuple(range(9))).intervals()
    for j in range(9):
        assert intervals[j] == (0.0, 1.0)
    assert [j for j in range(9) if _admissible(intervals[j], j)] == list(range(2, 9))
    for j in range(1, 9):
        lo1, hi1 = intervals[j - 1]
        lo2, hi2 = intervals[j]
        assert lo1 <= lo2 and hi2 <= hi1


def test_local_intervals_interior_diameters_and_nesting():
    t0 = 0.5
    for j in range(2, 13):
        lo, hi = local_window(t0, j)
        assert hi - lo == pytest.approx(2.0 ** (1 - j / 2.0), rel=1e-12)
        assert lo <= t0 <= hi
        assert 0.0 <= lo and hi <= 1.0
    # intersection shrinks to t0
    lo, hi = local_window(t0, 12)
    assert hi - lo < 0.05 and lo < t0 < hi
    # non-degenerate and nested: each window inside the one a level coarser,
    # slid back into [0, 1] or not
    for t0 in (0.25, 0.5, 0.8):
        for j in range(1, 15):
            lo, hi = local_window(t0, j)
            lo1, hi1 = local_window(t0, j - 1)
            assert lo < hi
            assert lo >= lo1 - 1e-12 and hi <= hi1 + 1e-12


def test_local_intervals_clipping_keeps_diameter():
    for j in range(2, 13):
        lo, hi = local_window(0.25, j)
        width = 2.0 ** (1 - j / 2.0)
        assert 0.0 <= lo and hi <= 1.0
        if width <= 1.0:
            assert hi - lo == pytest.approx(width, rel=1e-12)
        assert lo <= 0.25 <= hi
    with pytest.raises(ValueError):
        local_window(0.0, 5)


def test_local_intervals_index_count_lower_bound():
    # admissible local windows hold at least floor(2^(j/2)) cells
    for t0 in (0.25, 0.5, 0.8):
        for j in range(2, 15):
            window = local_window(t0, j)
            if _admissible(window, j):
                assert len(index_set(window, j)) >= math.floor(2.0 ** (j / 2.0))


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


def test_experiment_config_estimator_checks():
    ExperimentConfig(alpha=1.5, beta=0.3).validate()  # (0, alpha/4) = (0, 0.375)
    with pytest.raises(ValueError, match="alpha/4"):
        ExperimentConfig(alpha=1.5, beta=0.4).validate()
    with pytest.raises(ValueError, match="t0"):
        ExperimentConfig(interval_mode="local").validate()
    with pytest.raises(ValueError, match="interval_mode"):
        ExperimentConfig(interval_mode="Local", t0=0.25).validate()


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
