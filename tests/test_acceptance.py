"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Every tolerance is stated inline; Monte Carlo designs (replicate counts,
scales, noise steps) are fixed here, together with their seeds, so the whole
suite is deterministic.  Runtime budgets are asserted with the wall clock.
"""

import filecmp
import math
import time

import numpy as np
import pytest

import lmsmlab as L
from lmsmlab.bounds import (
    approx_error_check,
    covariance_mc_check,
    lambda_grid_report,
    phi_decay_report,
    rq_integral,
    rq_sweep_report,
    scale_param_check,
)
from lmsmlab.harness import ExperimentConfig, run_experiment, run_verification
from lmsmlab.wavelet import PhiKernel, default_wavelet, validate_wavelet


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{status}] {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_wavelet_admissibility():
    t0 = time.time()
    rep = validate_wavelet(default_wavelet(), tol=1e-12)
    elapsed = time.time() - t0
    ok = rep.passed and abs(rep.moment0) < 1e-12 and abs(rep.moment1) < 1e-12
    ok = ok and elapsed < 1.0
    _report(1, "wavelet admissibility", ok,
            f"moments=({rep.moment0:.2e}, {rep.moment1:.2e}), {elapsed:.2f}s")


def test_criterion_02_kernel_localization():
    t0 = time.time()
    ok = True
    details = []
    for alpha in (1.2, 1.5, 1.8):
        kern = PhiKernel(alpha)
        h_lo, h_hi = 1.0 / alpha + 0.03, 0.97
        for s in (1.0, 1.5, 7.0, 3000.0):
            ok = ok and kern.phi(s, 0.5 * (h_lo + h_hi)) == 0.0
        # the certified far-field envelope A(1/2) bounds |Phi(s, v)| by
        # A (-s)^(kappa - 2) at every s <= -1/2 of geometric grids of 4,000
        # and 8,000 points on [-1000, -1e-3]
        for v in (h_lo, h_hi):
            kappa = v - 1.0 / alpha
            c = kern.decay_envelope_constant(0.5, kappa)
            ok = ok and np.isfinite(c) and c > 0
            for n_s in (4000, 8000):
                s = -np.geomspace(1e-3, 1e3, n_s)
                s = s[s <= -0.5]
                ok = ok and bool(np.all(np.abs(kern.phi(s, v)) <= c * (-s) ** (kappa - 2.0)))
            details.append(f"a={alpha} v={v:.3f}: A={c:.4e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    _report(2, "kernel localization", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_03_scale_identity():
    t0 = time.time()
    law = L.StableLaw(1.5, 1.0)
    kern = PhiKernel(1.5)
    h2 = L.linear_hurst(0.7, 0.15)
    rep = scale_param_check(law, kern, h2, 6, [8, 32, 48], 0.25,
                            replicates=10_000, seed=30)
    elapsed = time.time() - t0
    ok = rep.passed and rep.tolerance == 0.05 and max(rep.details["rel_errors"]) <= 0.05
    ok = ok and elapsed < 300.0
    _report(3, "scale identity", ok,
            f"rel errors {[f'{e:.3f}' for e in rep.details['rel_errors']]}, {elapsed:.0f}s")


def test_criterion_04_rq_oracle_and_sweeps():
    t0 = time.time()
    resid = abs(rq_integral(2.0, 2.0, 0) - 2.0 / 3.0)
    ok = resid < 1e-8
    for dg in ((2.0, 1.5), (1.5, 1.5), (3.0, 1.1)):
        ok = ok and rq_sweep_report(*dg).passed
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _report(4, "r_q oracle and boundedness", ok, f"residual={resid:.2e}, {elapsed:.0f}s")


def test_criterion_05_phi_decay_slopes():
    t0 = time.time()
    kern = PhiKernel(1.5)
    h = L.constant_hurst(0.8)
    lags = [1, 2, 4, 8, 16, 32, 64, 128]
    r1 = phi_decay_report(kern, h, 8, lags, "phi1")
    r2 = phi_decay_report(kern, h, 8, lags, "phi2")
    elapsed = time.time() - t0
    ok = r1.passed and r2.passed and r1.tolerance == r2.tolerance == 0.2
    ok = ok and all(r.details["fitted_slope"] <= r.bound_exponent + 0.2 for r in (r1, r2))
    ok = ok and elapsed < 120.0
    _report(5, "phi1/phi2 decay slopes", ok,
            f"slopes {r1.details['fitted_slope']:.3f} (need <= {r1.bound_exponent + 0.2:.3f}), "
            f"{r2.details['fitted_slope']:.3f} (need <= {r2.bound_exponent + 0.2:.3f}), {elapsed:.0f}s")


@pytest.fixture(scope="module")
def approx_lemma():
    # the approximation check with the verify bundle's arguments, once for
    # criterion 6 and the bundle's direct call, with its own elapsed time
    t0 = time.time()
    h2 = L.linear_hurst(0.7, 0.15)  # C^1, rho_H = 1
    rep = approx_error_check(L.StableLaw(1.5, 1.0), default_wavelet(), h2,
                             [6, 7, 8, 9, 10, 11], seed=4060)
    return rep, time.time() - t0


def test_criterion_06_approximation_lemma(approx_lemma):
    rep, elapsed = approx_lemma
    # 20 replicates; at least 80% of the slopes at most -rho_H + 0.15
    ok = rep.passed and rep.tolerance == 0.15 and len(rep.details["slopes"]) == 20
    ok = ok and rep.details["passing_fraction"] >= 0.8 and elapsed < 600.0
    _report(6, "approximation-error decay", ok,
            f"median slope {rep.witnessed_constant:.3f}, passing fraction "
            f"{rep.details['passing_fraction']:.2f}, {elapsed:.0f}s")


def test_criterion_07_theorem1_constant_hurst(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(alpha=1.5, hurst_name="constant", hurst_params=(0.8,),
                           j_range=(6, 8, 10), beta=0.25, delta=2.0**-15,
                           t_tail=8.0, path_refine=8, replicates=20, seed=70,
                           out_dir=str(tmp_path))
    table = run_experiment(cfg)
    errs = [abs(table.row(j)["h_corr_mean"] - 0.8) for j in (6, 8, 10)]
    elapsed = time.time() - t0
    ok = errs[2] < 0.1
    inversions = sum(1 for a, b in zip(errs, errs[1:]) if b > a + 1e-12)
    ok = ok and inversions <= 1 and elapsed < 1200.0
    _report(7, "Theorem 1, constant H", ok,
            f"|err| at j=6,8,10: {[f'{e:.4f}' for e in errs]}, inversions={inversions}, {elapsed:.0f}s")


def test_criterion_08_theorem1_min_tracking(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(alpha=1.5, hurst_name="linear", hurst_params=(0.7, 0.15),
                           j_range=(8, 10, 12), beta=0.25, t_tail=8.0,
                           path_refine=8, v_nodes=16, replicates=20, seed=80,
                           out_dir=str(tmp_path))
    table = run_experiment(cfg)
    h12 = table.row(12)["h_corr_mean"]
    elapsed = time.time() - t0
    interval_mean = 0.775
    ok = abs(h12 - 0.7) < 0.12 and h12 < interval_mean - 0.02 and elapsed < 1200.0
    _report(8, "Theorem 1, min tracking", ok,
            f"h_hat(12)={h12:.4f} vs min 0.7 (need within 0.12 and below 0.755), {elapsed:.0f}s")


def test_criterion_09_theorem1_local(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(alpha=1.5, hurst_name="sine", hurst_params=(0.75, 0.08),
                           j_range=(8, 10, 12), beta=0.25, interval_mode="local",
                           t0=0.25, t_tail=8.0, path_refine=8, v_nodes=16,
                           replicates=20, seed=90, out_dir=str(tmp_path))
    table = run_experiment(cfg)
    target = 0.75 + 0.08 * math.sin(2.0 * math.pi * 0.25)
    h12 = table.row(12)["h_corr_mean"]
    elapsed = time.time() - t0
    ok = abs(h12 - target) < 0.12 and elapsed < 1200.0
    _report(9, "Theorem 1, local variant", ok,
            f"h_hat(12)={h12:.4f} vs H(t0)={target:.4f} (need within 0.12), {elapsed:.0f}s")


def test_criterion_10_theorem2_alpha(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(alpha=1.5, hurst_name="constant", hurst_params=(0.8,),
                           j_range=(12,), beta=0.25, t_tail=8.0, path_refine=8,
                           replicates=50, seed=20260808, out_dir=str(tmp_path))
    table = run_experiment(cfg)
    row = table.row(12)
    elapsed = time.time() - t0
    med = row["alpha_median"]
    flagged_frac = row["flagged"] / cfg.replicates
    ok = abs(med - 1.5) < 0.25 and flagged_frac < 0.2 and elapsed < 1800.0
    _report(10, "Theorem 2, stability index", ok,
            f"median alpha_hat(12)={med:.4f} (need within 0.25 of 1.5), "
            f"flagged={flagged_frac:.0%}, {elapsed:.0f}s")


def test_criterion_11_covariance_decay():
    t0 = time.time()
    law = L.StableLaw(1.5, 1.0)
    kern = PhiKernel(1.5)
    h = L.constant_hurst(0.8)
    rep = covariance_mc_check(law, kern, h, 8, [1, 2, 4, 8, 16, 32, 64], 0.25,
                              replicates=10_000, seed=110)
    elapsed = time.time() - t0
    ok = rep.passed and rep.tolerance == 0.3 and elapsed < 600.0
    slope = rep.details["fitted_slope"]
    _report(11, "covariance decay", ok,
            f"slope={slope if slope is None else f'{slope:.3f}'} "
            f"(lambda={rep.details['lambda']:.3f}), {elapsed:.0f}s")


def test_criterion_12_experiment_determinism(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(alpha=1.5, hurst_name="constant", hurst_params=(0.8,),
                           j_range=(5, 6), beta=0.25, delta=2.0**-11, t_tail=4.0,
                           path_refine=2, v_nodes=8, replicates=4, seed=120,
                           out_dir=str(tmp_path / "r1"))
    run_experiment(cfg)
    run_experiment(ExperimentConfig(**{**cfg.to_dict(), "out_dir": str(tmp_path / "r2")}))
    same = all(
        filecmp.cmp(tmp_path / "r1" / f, tmp_path / "r2" / f, shallow=False)
        for f in ("records.csv", "table.csv", "manifest.json")
    )
    elapsed = time.time() - t0
    _report(12, "experiment determinism", same, f"byte-identical artifacts, {elapsed:.0f}s")


def test_verification_suite_bundle(tmp_path, approx_lemma):
    # the default `verify` bundle: at least 6 reports, all green, JSON emitted
    cfg = ExperimentConfig(alpha=1.5, hurst_name="constant", hurst_params=(0.8,),
                           j_range=(6, 8), beta=0.25, t_tail=8.0, seed=4057,
                           verify_cov_replicates=10_000,
                           verify_scale_replicates=10_000)
    reports = run_verification(cfg)
    from lmsmlab.harness import write_reports

    fname = write_reports(reports, str(tmp_path))
    assert len(reports) >= 6
    failed = [rep.name for rep in reports if not rep.passed]
    print("\nverification bundle:", ", ".join(rep.name for rep in reports))
    assert not failed, f"failing reports: {failed}"
    assert (tmp_path / "bound_reports.json").exists()

    # each report is the bounds call's own, verdict included: the bundle's
    # arguments called directly give the same dicts
    law, h, kern = L.StableLaw(1.5, 1.0), L.constant_hurst(0.8), PhiKernel(1.5)
    lags = [1, 2, 4, 8, 16, 32, 64, 128]
    direct = [
        rq_sweep_report(2.0, 1.5),
        phi_decay_report(kern, h, 8, lags, "phi1"),
        phi_decay_report(kern, h, 8, lags, "phi2"),
        lambda_grid_report(),
        covariance_mc_check(law, kern, h, 8, [1, 2, 4, 8, 16, 32, 64], 0.25,
                            replicates=10_000, seed=4058),
        scale_param_check(law, kern, h, 6, [8, 32, 48], 0.25, replicates=10_000, seed=4059),
        approx_lemma[0],
    ]
    assert [rep.to_dict() for rep in reports] == [rep.to_dict() for rep in direct]
