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
    assert index_set((0.0, 1.0), 3) == range(8)
    assert len(index_set((0.3, 0.4), 2)) == 0
    assert index_set((0.25, 0.75), 2) == range(1, 3)


def test_index_set_monotone_in_interval():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b = np.sort(rng.uniform(0, 1, 2))
        pad = rng.uniform(0, 0.2, 2)
        big = (max(a - pad[0], 0.0), min(b + pad[1], 1.0))
        for j in (2, 4, 6):
            inner = index_set((a, b), j)
            outer = index_set(big, j)
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
        assert pyr.k0[j] == 0 and len(pyr.level(j)) == len(index_set((0.0, 1.0), j))
        assert np.all(pyr.level(j) == 0.0)
    assert pyr.seed == 4


def test_mesh_and_generic_quadrature_agree():
    # the strided level product against the explicit per-cell dot product; the
    # summation order differs, so allow twice the float64 bound on the
    # rounding error of an (m + 1)-term dot product
    w = L.default_wavelet()
    rng = np.random.default_rng(12)
    t = np.arange(2**12 + 1) / 2**12
    y = np.cumsum(rng.normal(size=t.size)) * 2.0**-6
    path = SamplePath(times=t, values=y, provenance={})
    seq = L.build_global_intervals((0.0, 1.0), 8)
    for j, m in ((8, 16), (5, 128)):
        pyr = build_pyramid(path, w, (j,), seq)
        wv = w.cell_weights(m)
        for k in range(2**j):
            cell = y[k * m : k * m + m + 1]
            tol = 2 * (m + 1) * np.finfo(float).eps * float(np.abs(wv) @ np.abs(cell))
            assert abs(pyr.value(j, k) - float(wv @ cell)) <= tol
            assert abs(compute_coeff(path, w, j, k) - float(wv @ cell)) <= tol


def test_max_coeff_basics():
    levels = {3: np.array([-0.5, 0.25, 0.1]), 4: np.zeros(2)}
    pyr = CoeffPyramid(levels=levels, k0={3: 2, 4: 5}, source="direct_kernel",
                       wavelet_id="quartic", seed=0)
    assert max_coeff(pyr, 3, (0.25, 0.625)) == 0.5
    assert max_coeff(pyr, 4, (0.3125, 0.4375)) == 0.0
    with pytest.raises(ValueError):
        max_coeff(pyr, 4, (0.9, 0.95))


def test_max_over_unit_interval_equals_global_max():
    rng = np.random.default_rng(3)
    for j in (2, 3, 5):
        lev = rng.normal(size=2**j)
        pyr = CoeffPyramid(levels={j: lev}, k0={j: 0}, source="direct_kernel",
                           wavelet_id="q", seed=0)
        assert max_coeff(pyr, j, (0.0, 1.0)) == max(abs(v) for v in lev)


def test_pyramid_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(44)
    levels = {j: rng.standard_cauchy(size=2**j) for j in (2, 3)}
    pyr = CoeffPyramid(levels=levels, k0={2: 0, 3: 0}, source="path_quadrature",
                       wavelet_id="quartic", seed=17)
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
        CoeffPyramid(levels={2: np.array([1.0])}, k0={2: 4}, source="direct_kernel",
                     wavelet_id="q", seed=0)


def test_pyramid_csv_golden_bytes(tmp_path):
    # levels ascending, shifts ascending within a level, repr of each value
    pyr = CoeffPyramid(levels={2: np.array([1e-3, 0.1 + 0.2]), 1: np.array([0.5, -0.25])},
                       k0={2: 1, 1: 0}, source="path_quadrature", wavelet_id="quartic",
                       seed=3)
    fname = tmp_path / "pyr.csv"
    pyramid_to_csv(pyr, fname)
    assert fname.read_bytes() == (
        b"# wavelet: quartic\n"
        b"# seed: 3\n"
        b"j,k,value,source\n"
        b"1,0,0.5,path_quadrature\n"
        b"1,1,-0.25,path_quadrature\n"
        b"2,1,0.001,path_quadrature\n"
        b"2,2,0.30000000000000004,path_quadrature\n"
    )


def test_pyramid_from_csv_rejects_gaps(tmp_path):
    fname = tmp_path / "gap.csv"
    fname.write_text("j,k,value,source\n3,1,0.5,path_quadrature\n3,3,0.25,path_quadrature\n")
    with pytest.raises(ValueError):
        pyramid_from_csv(fname)


def test_level_rejects_missing_shifts():
    pyr = CoeffPyramid(levels={3: np.arange(3.0)}, k0={3: 2}, source="direct_kernel",
                       wavelet_id="q", seed=0)
    assert list(pyr.level(3, range(3, 5))) == [1.0, 2.0]
    for ks in (range(1, 3), range(4, 6), [7]):
        with pytest.raises(ValueError):
            pyr.level(3, ks)
    with pytest.raises(ValueError):
        pyr.value(3, 5)
