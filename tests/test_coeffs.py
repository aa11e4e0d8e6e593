"""Pyramid construction, index sets and the max statistic.

The polynomial-path expected values are frozen from exact rational
integration of psi against monomials (see the fractions oracle below).
"""

from fractions import Fraction

import numpy as np
import pytest

import lmsmlab as L
from lmsmlab.coeffs import (
    CoeffPyramid,
    IntervalSequence,
    build_pyramid,
    compute_coeff,
    index_set,
    max_coeff,
    pyramid_from_csv,
    pyramid_to_csv,
)
from lmsmlab.coeffs import ResolutionError
from lmsmlab.process import SamplePath

QUARTIC = (Fraction(0), Fraction(1), Fraction(-6), Fraction(10), Fraction(-5))


def exact_poly_coeff(path_coeffs) -> Fraction:
    """int_0^1 (sum a_n t**n) psi(t) dt exactly: the j = 0, k = 0 coefficient."""
    total = Fraction(0)
    for n, a in enumerate(path_coeffs):
        for i, c in enumerate(QUARTIC):
            total += Fraction(a) * c / Fraction(n + i + 1)
    return total


def dense_poly_path(coeffs, n=1 << 16) -> SamplePath:
    t = np.linspace(0.0, 1.0, n + 1)
    y = np.zeros_like(t)
    for p, a in enumerate(coeffs):
        y = y + a * t**p
    return SamplePath(times=t, values=y, provenance={"kind": "poly"})


def test_index_set_enumeration():
    ks, n = index_set((0.0, 1.0), 3)
    assert ks == list(range(8)) and n == 8
    ks, n = index_set((0.3, 0.4), 2)
    assert ks == [] and n == 0
    ks, n = index_set((0.25, 0.75), 2)
    assert ks == [1, 2] and n == 2


def test_index_set_monotone_in_interval():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b = np.sort(rng.uniform(0, 1, 2))
        pad = rng.uniform(0, 0.2, 2)
        big = (max(a - pad[0], 0.0), min(b + pad[1], 1.0))
        for j in (2, 4, 6):
            inner, _ = index_set((a, b), j)
            outer, _ = index_set(big, j)
            assert set(inner) <= set(outer)


def test_constant_and_affine_paths_annihilated():
    w = L.default_wavelet()
    const = dense_poly_path([3.7], n=1 << 17)
    assert abs(compute_coeff(const, w, 0, 0)) < 1e-10
    affine = dense_poly_path([1.0, -2.0], n=1 << 17)
    assert abs(compute_coeff(affine, w, 0, 0)) < 1e-10
    # exact rational oracle agrees that affine paths integrate to zero
    assert exact_poly_coeff([1, -2]) == 0


def test_quadratic_path_matches_symbolic_oracle():
    # int t^2 psi(t) dt = 1/420 by exact fraction arithmetic
    oracle = exact_poly_coeff([0, 0, 1])
    assert oracle == Fraction(1, 420)
    path = dense_poly_path([0, 0, 1])
    val = compute_coeff(path, L.default_wavelet(), 0, 0)
    assert val == pytest.approx(float(oracle), rel=1e-7)


def test_compute_coeff_requires_resolution():
    t = np.linspace(0.0, 1.0, 9)
    path = SamplePath(times=t, values=np.zeros_like(t), provenance={})
    with pytest.raises(ResolutionError):
        compute_coeff(path, L.default_wavelet(), 0, 0)


def test_off_mesh_path_raises_resolution_error():
    # only a uniform mesh gives every cell of a level the same weight vector
    grid = L.make_noise_grid(L.StableLaw(1.5, 1.0), -2.0, 1.0, 2.0**-8, seed=41)
    times = np.sort(np.concatenate([[0.0, 1.0], np.random.default_rng(6).uniform(0, 1, 200)]))
    path = L.simulate_lmsm(grid, times, L.constant_hurst(0.75), tail_tol=0.5)
    with pytest.raises(ResolutionError):
        compute_coeff(path, L.default_wavelet(), 0, 0)
    with pytest.raises(ResolutionError):
        build_pyramid(path, L.default_wavelet(), (0, 1), L.build_global_intervals((0.0, 1.0), 1))


def test_build_pyramid_structure_and_zero_path():
    w = L.default_wavelet()
    t = np.arange(2**12 + 1) / 2**12
    path = SamplePath(times=t, values=np.zeros_like(t), provenance={"seed": 4})
    seq = L.build_global_intervals((0.0, 1.0), 6)
    pyr = build_pyramid(path, w, (4, 5, 6), seq)
    assert set(pyr.levels) == {4, 5, 6}
    for j in (4, 5, 6):
        ks, _ = index_set((0.0, 1.0), j)
        assert sorted(pyr.level(j)) == ks
        assert all(v == 0.0 for v in pyr.level(j).values())
    assert pyr.seed == 4


def test_mesh_and_generic_quadrature_agree():
    w = L.default_wavelet()
    rng = np.random.default_rng(12)
    t = np.arange(2**12 + 1) / 2**12
    y = np.cumsum(rng.normal(size=t.size)) * 2.0**-6
    path = SamplePath(times=t, values=y, provenance={})
    seq = L.build_global_intervals((0.0, 1.0), 5)
    pyr = build_pyramid(path, w, (5,), seq)
    for k in (0, 13, 31):
        assert pyr.value(5, k) == pytest.approx(compute_coeff(path, w, 5, k), abs=1e-14)


def test_max_coeff_basics():
    levels = {3: {2: -0.5, 3: 0.25, 4: 0.1}, 4: {5: 0.0, 6: 0.0}}
    pyr = CoeffPyramid(levels=levels, source="direct_kernel", wavelet_id="quartic", seed=0)
    assert max_coeff(pyr, 3, (0.25, 0.625)) == 0.5
    assert max_coeff(pyr, 4, (0.3125, 0.4375)) == 0.0
    with pytest.raises(ValueError):
        max_coeff(pyr, 4, (0.9, 0.95))


def test_max_over_unit_interval_equals_global_max():
    rng = np.random.default_rng(3)
    for j in (2, 3, 5):
        lev = {k: float(rng.normal()) for k in range(2**j)}
        pyr = CoeffPyramid(levels={j: lev}, source="direct_kernel", wavelet_id="q", seed=0)
        assert max_coeff(pyr, j, (0.0, 1.0)) == max(abs(v) for v in lev.values())


def test_pyramid_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(44)
    levels = {j: {k: float(rng.standard_cauchy()) for k in range(2**j)} for j in (2, 3)}
    pyr = CoeffPyramid(levels=levels, source="path_quadrature", wavelet_id="quartic", seed=17)
    fname = tmp_path / "pyr.csv"
    pyramid_to_csv(pyr, fname)
    back = pyramid_from_csv(fname)
    assert back.wavelet_id == "quartic" and back.seed == 17 and back.source == pyr.source
    for j in (2, 3):
        for k in range(2**j):
            assert back.value(j, k) == pyr.value(j, k)  # bit-exact


def test_interval_sequence_invariants():
    with pytest.raises(ValueError):
        IntervalSequence(((0.0, 1.0), (0.2, 1.1)))  # not nested
    with pytest.raises(ValueError):
        IntervalSequence(((0.5, 0.5),))  # degenerate
    seq = IntervalSequence(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
    assert not seq.admissible(0)  # needs diameter 2
    assert seq.admissible(2)
    assert seq.first_admissible == 2
    assert seq.interval(10) == (0.0, 1.0)  # constant tail


def test_pyramid_rejects_cells_outside_unit_interval():
    with pytest.raises(ValueError):
        CoeffPyramid(levels={2: {4: 1.0}}, source="direct_kernel", wavelet_id="q", seed=0)
