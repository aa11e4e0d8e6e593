"""Kernel-integral bounds: closed-form oracles, symmetry, decay sweeps,
and the Monte Carlo covariance/scale checks at reduced desk scale."""

import ast
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import lmsmlab as L
from lmsmlab import bounds
from lmsmlab.bounds import (
    approx_error_check,
    covariance_mc_check,
    lambda_exponent,
    lambda_grid_report,
    phi1_integral,
    phi2_integral,
    phi_decay_report,
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
    # level arrays, the bound checks take cells from a pyramid, and harness,
    # bounds and cli hand coeffs {j: I_j} maps, never shifts: no other module
    # calls index_set
    assert not _relative_imports("estimators") & {"coeffs", "bounds", "harness"}
    assert "estimators" not in _relative_imports("bounds")
    pkg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "lmsmlab")
    named = set()
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and "index_set" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    named.add(name)
    assert named == {"coeffs.py"}


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


def test_no_invalid_value_is_silenced_in_the_package():
    # pytest turns every RuntimeWarning into an error, so a NaN the package
    # makes fails a test, unless an errstate(invalid="ignore") hides it
    pkg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "lmsmlab")
    silenced = []
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                if 'invalid="ignore"' in fh.read():
                    silenced.append(name)
    assert silenced == []


def test_only_harness_writes_files():
    # harness is the one artifact layer: no other module of the package calls
    # open with a mode that writes, appends or creates
    pkg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "lmsmlab")
    writers = set()
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                    modes = node.args[1:2] + [kw.value for kw in node.keywords
                                              if kw.arg == "mode"]
                    if any(not isinstance(m, ast.Constant) or set("wax+") & set(m.value)
                           for m in modes):
                        writers.add(name)
    assert writers == {"harness.py"}


def test_report_dict_holds_json_types_only():
    # an np.bool_ comes out a JSON bool: its str, 'False', would be truthy
    arr = np.array([1.5, 2.0])
    rep = bounds.BoundReport(
        name="r", grid="g", witnessed_constant=np.float64(0.25), bound_exponent=np.int64(-2),
        passed=np.bool_(True), tolerance=0.1,
        details={"f": np.float64(1.25), "i": np.int64(7), "b": np.bool_(False), "a": arr,
                 "t": (1, np.float64(2.5)), "none": None, "nan": float("nan")})
    d = rep.to_dict()

    def plain(x):
        if isinstance(x, dict):
            return all(isinstance(k, str) and plain(v) for k, v in x.items())
        if isinstance(x, list):
            return all(plain(v) for v in x)
        return x is None or type(x) in (bool, int, float, str)

    assert plain(d)
    assert d["passed"] is True and d["bound_exponent"] == -2
    det = d["details"]
    assert det["b"] is False
    assert det["i"] == 7 and type(det["i"]) is int
    assert det["f"] == 1.25 and det["a"] == [1.5, 2.0] and det["t"] == [1, 2.5]
    assert det["none"] is None and math.isnan(det["nan"])


@pytest.mark.parametrize("dg", [(2.0, 1.5), (1.5, 1.5), (3.0, 1.1)])
def test_rq_sweep_bounded(dg):
    rep = rq_sweep_report(*dg)
    assert rep.passed
    assert np.isfinite(rep.witnessed_constant)


def test_rq_sweep_fails_while_products_still_grow():
    # at (1.05, 1.05) the last product is the largest, so a verdict on
    # last/max passes it, but the products still grow 5.8% from q = 144 to 200
    rep = rq_sweep_report(1.05, 1.05)
    prods = rep.details["products"]
    assert rep.details["last_over_max"] == 1.0
    assert prods[-1] / prods[-2] == pytest.approx(1.0578, abs=1e-4)
    assert rep.details["closed_form_residual"] < 1e-15
    assert not rep.passed


@pytest.mark.parametrize("offset, passed", [(2e-8, False), (-2e-8, False), (5e-9, True)])
def test_rq_sweep_checks_its_closed_form(monkeypatch, offset, passed):
    # r_0 = 2 / (delta + gamma - 1) = 0.8 at (2, 1.5); the report fails when
    # its q = 0 term is off by more than 1e-8
    exact = bounds.rq_integral
    monkeypatch.setattr(bounds, "rq_integral",
                        lambda d, g, q: exact(d, g, q) + (offset if q == 0 else 0.0))
    rep = rq_sweep_report(2.0, 1.5)
    assert rep.details["closed_form_residual"] == pytest.approx(abs(offset), rel=1e-6)
    assert rep.passed == passed


@pytest.mark.parametrize("fine_factor, passed", [(0.99, False), (1.02, False), (1.005, True)])
def test_phi_decay_checks_its_refinement_drift(monkeypatch, fine_factor, passed):
    # the witnessing lag integrated again at twice the panels must move the
    # witnessed constant by less than 1%; the true drift here is 1.4e-5
    exact = bounds._phi_product_integral

    def skewed(*args, panels_scale):
        skew = fine_factor if panels_scale == 32 else 1.0
        return exact(*args, panels_scale=panels_scale) * skew

    monkeypatch.setattr(bounds, "_phi_product_integral", skewed)
    rep = phi_decay_report(KERN, L.constant_hurst(0.8), 8, [1, 2, 4, 8, 16, 32, 64, 128], "phi1")
    drift = abs(fine_factor - 1.0) / fine_factor
    assert rep.details["refinement_drift"] == pytest.approx(drift, abs=1e-4)
    assert rep.details["fitted_slope"] <= rep.bound_exponent + 0.2
    assert rep.passed == passed


def test_lambda_grid_report():
    rep = lambda_grid_report()
    assert rep.name == "lambda_exponent_grid" and rep.passed
    assert rep.details == {"monotone_in_h_high": True, "continuous": True}
    assert rep.witnessed_constant == pytest.approx(lambda_exponent(1.05, 1.0 - 1e-3))


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
    # one node, whose weight is exactly 1, so the path is the node's whole
    # row, near part plus far series, and the frozen route applies the same
    # level quadrature to that same row: the two are equal bit for bit, also
    # at levels 0 and 2, whose cells straddle the far series' pieces; the
    # refined interpolant has m = 128 samples per level-5 cell, as at j = 12
    # in the experiments
    from lmsmlab.coeffs import FrozenLevels, build_pyramid
    from lmsmlab.process import MeshFieldInterpolant, make_noise_grid, simulate_lmsm

    H = L.constant_hurst(0.8)
    w = L.default_wavelet()
    grid = make_noise_grid(LAW, -4.0, 2.0**-10, seed=333)
    intervals = {0: (0.0, 1.0), 2: (0.0, 1.0), 5: (0.0, 1.0)}
    for refine in (1, 4):
        interp = MeshFieldInterpolant(grid, H, 16, refine)
        frozen = FrozenLevels(interp, w, intervals)
        path = simulate_lmsm(interp, frozen)
        pyramid = build_pyramid(path, w, intervals)
        assert frozen.cells[5] == range(32)
        for j in intervals:
            assert np.array_equal(frozen.level(j), pyramid.level(j))


def test_frozen_level_matches_per_shift_definition():
    # node-wise quadrature combined at h_k against the quadrature of the field
    # interpolated at h_k; k = 0 puts h_k on the first Chebyshev node exactly
    from lmsmlab.coeffs import FrozenLevels
    from lmsmlab.process import MeshFieldInterpolant, field_on_mesh, make_noise_grid, simulate_lmsm

    H = L.linear_hurst(0.7, 0.15)
    w = L.default_wavelet()
    grid = make_noise_grid(LAW, -4.0, 2.0**-10, seed=334)
    interp = MeshFieldInterpolant(grid, H, 16, 4)
    frozen = FrozenLevels(interp, w, {5: (0.0, 1.0), 8: (0.0, 1.0)})
    simulate_lmsm(interp, frozen)
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
    # the frozen levels ride the path's own field pass: one field build per
    # replicate, of one noise transform and two per node and block (the
    # refine 4 residues go in two blocks of two)
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
    assert len(transforms) == 20 * (1 + 2 * 24 * 2)


def test_covariance_check_enforces_replicate_floor():
    H = L.constant_hurst(0.8)
    with pytest.raises(ValueError):
        covariance_mc_check(LAW, KERN, H, 6, [1, 2], 0.25, replicates=100, seed=0)


def test_direct_checks_refuse_a_kernel_of_another_alpha():
    # an alpha-1.2 kernel on alpha-1.9 noise used to run and report
    # passed=False with a worst relative error of 2.13
    law, kern, H = L.StableLaw(1.9), PhiKernel(1.2), L.constant_hurst(0.9)
    with pytest.raises(ValueError, match="alpha differ"):
        scale_param_check(law, kern, H, 5, [3, 11], 0.25, replicates=10_000, seed=19)
    with pytest.raises(ValueError, match="alpha differ"):
        covariance_mc_check(law, kern, H, 6, [1, 2], 0.25, replicates=10_000, seed=19)


def test_phi_integrals_refuse_a_cell_outside_the_unit_interval():
    # the decay reports' lag 128 is cell (6, 128) at j = 6, frozen at H(2):
    # 0.9 for this H, inside (1/alpha, 1), so the integral used to run there
    H = L.linear_hurst(0.7, 0.1)
    for integral in (phi1_integral, phi2_integral):
        with pytest.raises(ValueError, match=r"dyadic cell \(6, 128\) must lie inside"):
            integral(KERN, H, 6, 0, 128)
    assert phi1_integral(KERN, H, 8, 0, 128) > 0.0


def test_direct_coefficients_refuse_a_cell_outside_the_unit_interval(monkeypatch):
    # H_k is read at k 2^-j, so a cell (j, k) must lie inside [0, 1]: every
    # direct-coefficient route refuses k = -1 and k = 2^j, the MC checks
    # before any noise is drawn.  scale_param_check used to report targets
    # for the cells at 70/64 and -3/64
    H, j = L.linear_hurst(0.7, 0.15), 6
    drawn = []
    monkeypatch.setattr(bounds, "unit_sas", lambda *args: drawn.append(args))
    grid = L.make_noise_grid(LAW, -2.0, 2.0**-10, seed=5)
    for k in (-1, 2**j):
        with pytest.raises(ValueError, match="must lie inside"):
            L.process.direct_coeff_weights(2.0**-10, KERN, j, k, 0.8)
        with pytest.raises(ValueError, match="must lie inside"):
            L.simulate_coeff_direct(grid, KERN, j, k, H)
        with pytest.raises(ValueError, match="must lie inside"):
            scale_param_check(LAW, KERN, H, j, [8, k], 0.25, replicates=10_000, seed=1)
    # the lag set puts k = -1 (lags up to -1) or k = 2^j (32 + 32) in play
    for lags in ([-3, -1], [32]):
        with pytest.raises(ValueError, match="must lie inside"):
            covariance_mc_check(LAW, KERN, H, j, lags, 0.25, replicates=10_000, seed=1)
    assert drawn == []


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


def _direct_coeffs_by_chunk(alpha, W, replicates, seed):
    # reference: chunk c's rows from unit_sas on stream c times the weights
    # through serial_matmul, one chunk after another on this thread
    from lmsmlab import stable

    n_cells = W.shape[1]
    rows = max(1, 2 * stable._TILE // n_cells)
    out = []
    for c, lo in enumerate(range(0, replicates, rows)):
        m = min(rows, replicates - lo)
        dz = stable.unit_sas(alpha, m * n_cells, stable._stream(seed, c))
        out.append(stable.serial_matmul(dz.reshape(m, n_cells), W.T))
    return np.concatenate(out)


def test_direct_coeffs_are_the_same_on_every_budget(monkeypatch):
    # on the covariance check's j = 8 shifts a chunk is 21 rows, so 100
    # replicates make four whole chunks and a short one, dealt to 1, 2 or 4
    # workers; every worker count gives the per-chunk reference bit for bit
    H, j, ks = L.constant_hurst(0.8), 8, [64, 65, 66, 68, 72, 80, 96, 128]
    W = bounds._direct_weight_matrix(LAW, KERN, H, j, ks)
    ref = _direct_coeffs_by_chunk(LAW.alpha, W, 100, seed=5)
    assert ref.shape == (100, len(ks))
    for threads in (1, 2, 4):
        monkeypatch.setattr(bounds, "_threads", threads)
        got = bounds._draw_direct_coeffs(LAW, KERN, H, j, ks, 100, seed=5)
        assert got.tobytes() == ref.tobytes(), threads


def _within(seconds, fn, *args):
    # run fn on a thread, so that a hang fails the test instead of stalling it
    box = {}

    def run():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # handed to the test below
            box["error"] = exc

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"no return within {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.mark.parametrize("chunk", [0, 1, 4])
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_failed_chunk_reaches_caller(threads, chunk, monkeypatch):
    # the draw of one chunk raises, on the caller (chunk 0) or on a worker:
    # the error reaches the caller, and no worker thread is left running
    from lmsmlab import stable

    def draw(alpha, n, rng):
        if rng.bit_generator.state["state"]["counter"][2] == chunk:
            raise RuntimeError("injected draw failure")
        return stable.unit_sas(alpha, n, rng)

    monkeypatch.setattr(bounds, "_threads", threads)
    monkeypatch.setattr(bounds, "unit_sas", draw)
    H, ks = L.constant_hurst(0.8), [64, 65, 66, 68, 72, 80, 96, 128]
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="injected draw failure"):
        _within(60, bounds._draw_direct_coeffs, LAW, KERN, H, 8, ks, 100, 5)
    assert threading.active_count() == before


def test_direct_coeffs_hold_no_chunk_of_noise(monkeypatch):
    # the draws reach the product a tile at a time: on the covariance check's
    # j = 8 shifts, 2,048 replicates peak below 16 MB traced, where one chunk
    # of 1,024 rows would take 25 MB of draws and 25 MB of exponentials; the
    # worker count is pinned, since each thread adds tiles in flight and scratch
    import tracemalloc

    monkeypatch.setattr(bounds, "_threads", 4)
    H, j, ks = L.constant_hurst(0.8), 8, [64, 65, 66, 68, 72, 80, 96, 128]
    tracemalloc.start()
    try:
        bounds._draw_direct_coeffs(LAW, KERN, H, j, ks, 2048, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
