"""Pyramid construction, index sets and the max statistic.

The polynomial-path expected values are frozen from exact rational
integration of psi against monomials (see the fractions oracle below).
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import lmsmlab as L
from lmsmlab.coeffs import (
    CoeffPyramid,
    build_pyramid,
    index_set,
    max_coeff,
    noise_step,
    samples_per_cell,
)
from lmsmlab.coeffs import ResolutionError, _level_coeffs
from lmsmlab.harness import write_pyramid_csv
from lmsmlab.process import MeshFieldInterpolant, make_noise_grid

QUARTIC = (Fraction(0), Fraction(1), Fraction(-6), Fraction(10), Fraction(-5))


def exact_poly_coeff(path_coeffs) -> Fraction:
    """int_0^1 (sum a_n t**n) psi(t) dt exactly: the j = 0, k = 0 coefficient."""
    total = Fraction(0)
    for n, a in enumerate(path_coeffs):
        for i, c in enumerate(QUARTIC):
            total += Fraction(a) * c / Fraction(n + i + 1)
    return total


def coeff(values: np.ndarray, j: int, k: int) -> float:
    """d_{j,k} of values sampled on the uniform mesh of [0, 1], by the level routine."""
    step = 1.0 / (values.size - 1)
    return float(_level_coeffs(values, step, L.default_wavelet(), j, range(k, k + 1))[0])


def dense_poly_path(coeffs, n=1 << 16) -> np.ndarray:
    """The polynomial sum a_p t**p on the n + 1 points of the uniform mesh of [0, 1]."""
    t = np.linspace(0.0, 1.0, n + 1)
    y = np.zeros_like(t)
    for p, a in enumerate(coeffs):
        y = y + a * t**p
    return y


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
    const = dense_poly_path([3.7], n=1 << 17)
    assert abs(coeff(const, 0, 0)) < 1e-10
    affine = dense_poly_path([1.0, -2.0], n=1 << 17)
    assert abs(coeff(affine, 0, 0)) < 1e-10
    # exact rational oracle agrees that affine paths integrate to zero
    assert exact_poly_coeff([1, -2]) == 0


def test_quadratic_path_matches_symbolic_oracle():
    # int t^2 psi(t) dt = 1/420 by exact fraction arithmetic
    oracle = exact_poly_coeff([0, 0, 1])
    assert oracle == Fraction(1, 420)
    path = dense_poly_path([0, 0, 1])
    val = coeff(path, 0, 0)
    assert val == pytest.approx(float(oracle), rel=1e-7)


def test_compute_coeff_requires_resolution():
    with pytest.raises(ResolutionError):
        coeff(np.zeros(9), 0, 0)


def test_sampling_rule_and_noise_step():
    # the default noise step puts 16 noise cells in a cell of the deepest level
    assert samples_per_cell(noise_step(12), 12) == 16
    assert samples_per_cell(noise_step(12) / 8, 10) == 512
    with pytest.raises(ResolutionError, match="level-6"):
        samples_per_cell(2.0**-9, 6)  # 8 samples
    with pytest.raises(ResolutionError):
        samples_per_cell(2.0**-6 / 20.5, 6)  # not a whole number


def test_build_pyramid_structure_and_zero_path():
    # a simulated path: the level routine on the field's mesh step, the
    # pyramid's seed from the field's noise grid; a zero path gives zeros
    w = L.default_wavelet()
    grid = make_noise_grid(L.StableLaw(1.5), -2.0, 2.0**-10, seed=4)
    H = L.constant_hurst(0.8)
    path = L.simulate_lmsm(MeshFieldInterpolant(grid, H, 16, 4))
    intervals = {j: (0.0, 1.0) for j in (4, 5, 6)}
    pyr = build_pyramid(path, w, intervals)
    assert set(pyr.levels) == {4, 5, 6}
    assert pyr.seed == path.field.grid.seed == 4
    for j in (4, 5, 6):
        assert pyr.cells[j] == index_set((0.0, 1.0), j) == range(len(pyr.level(j)))
        level = _level_coeffs(path.values, 2.0**-12, w, j, range(2**j))
        assert np.array_equal(pyr.level(j), level)
    zero = replace(path, values=np.zeros_like(path.values))
    zero_pyr = build_pyramid(zero, w, intervals)
    for j in (4, 5, 6):
        assert np.all(zero_pyr.level(j) == 0.0)


def test_mesh_and_generic_quadrature_agree():
    # the tap-by-tap level sum against the explicit per-cell dot product; the
    # summation order differs, so allow twice the float64 bound on the
    # rounding error of an (m + 1)-term dot product
    w = L.default_wavelet()
    rng = np.random.default_rng(12)
    t = np.arange(2**12 + 1) / 2**12
    y = np.cumsum(rng.normal(size=t.size)) * 2.0**-6
    for j, m in ((8, 16), (5, 128)):
        level = _level_coeffs(y, 2.0**-12, w, j, range(2**j))
        wv = w.cell_weights(m)
        for k in range(2**j):
            cell = y[k * m : k * m + m + 1]
            tol = 2 * (m + 1) * np.finfo(float).eps * float(np.abs(wv) @ np.abs(cell))
            assert abs(level[k] - float(wv @ cell)) <= tol


def test_row_and_level_routes_agree_bitwise():
    # one path row (build_pyramid) and many node rows (the frozen route) sum
    # every coefficient in the same order
    w = L.default_wavelet()
    rng = np.random.default_rng(12)
    t = np.arange(2**12 + 1) / 2**12
    y = np.cumsum(rng.normal(size=t.size)) * 2.0**-6
    for j in (5, 8):
        level = _level_coeffs(y, 2.0**-12, w, j, range(2**j))
        rows = _level_coeffs(np.stack([-y, y, 2 * y]), 2.0**-12, w, j, range(2**j))
        assert np.array_equal(rows[1], level)


def test_max_coeff_basics():
    levels = {3: np.array([-0.5, 0.25, 0.1]), 4: np.zeros(2)}
    pyr = CoeffPyramid(levels=levels, cells={3: range(2, 5), 4: range(5, 7)},
                       wavelet_id="quartic", seed=0)
    assert max_coeff(pyr.level(3)) == 0.5
    assert max_coeff(pyr.level(4)) == 0.0
    with pytest.raises(ValueError):
        max_coeff(np.zeros(0))  # an empty level has no maximum


def test_max_over_unit_interval_equals_global_max():
    rng = np.random.default_rng(3)
    for j in (2, 3, 5):
        lev = rng.normal(size=2**j)
        pyr = CoeffPyramid(levels={j: lev}, cells={j: range(2**j)}, wavelet_id="q", seed=0)
        assert max_coeff(pyr.level(j)) == max(abs(v) for v in lev)


def test_pyramid_rejects_cells_outside_unit_interval():
    with pytest.raises(ValueError):
        CoeffPyramid(levels={2: np.array([1.0])}, cells={2: range(4, 5)}, wavelet_id="q",
                     seed=0)


def test_pyramid_csv_golden_bytes(tmp_path):
    # levels ascending, shifts ascending within a level, fmt17 of each value
    pyr = CoeffPyramid(levels={2: np.array([1e-3, 0.1 + 0.2, 0.1]), 1: np.array([0.5, -0.25])},
                       cells={2: range(1, 4), 1: range(2)}, wavelet_id="quartic", seed=3)
    assert write_pyramid_csv(pyr, str(tmp_path)) == str(tmp_path / "pyramid.csv")
    assert (tmp_path / "pyramid.csv").read_bytes() == (
        b"# wavelet: quartic\n"
        b"# seed: 3\n"
        b"j,k,value\n"
        b"1,0,0.5\n"
        b"1,1,-0.25\n"
        b"2,1,0.001\n"
        b"2,2,0.30000000000000004\n"
        b"2,3,0.10000000000000001\n"
    )


def test_level_rejects_missing_shifts():
    pyr = CoeffPyramid(levels={3: np.arange(3.0)}, cells={3: range(2, 5)}, wavelet_id="q",
                       seed=0)
    assert list(pyr.level(3)) == [0.0, 1.0, 2.0]
    with pytest.raises(KeyError):
        pyr.level(4)  # a level the pyramid was not built on
