"""One benchmark workload, run in a fresh process; prints one JSON line.

``run.py`` starts this script once per measurement so that peak RSS and
set-up time belong to one workload alone:

    python3 perfbench/workload.py --workload minh-linear --seed 0 \
        --seconds 40 --out .perfbench_out/x [--trace] [--setup-only]

Set-up (imports, building and validating the config) ends at the monotonic
timestamp ``setup_end``; the parent subtracts its own timestamp taken just
before it started this process.  Then comes the workload's one timed call,
its correctness checks, and with ``--trace`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lmsmlab  # noqa: E402
from lmsmlab import bounds, harness  # noqa: E402
from lmsmlab.harness import ExperimentConfig  # noqa: E402
from lmsmlab.wavelet import PhiKernel  # noqa: E402

import tracing  # noqa: E402

# --seed n moves every noise stream by n * 2**20; replicate r of an experiment
# uses config seed ^ r, so runs on different --seed never share a stream
SEED_STRIDE = 2**20


class MinhLinear:
    """Acceptance criterion 8 through ``run_experiment``, serial; one operation
    is one replicate."""

    name = "minh-linear"
    acceptance_seed = 80
    nominal_op_s = 10.0
    # delta None resolves to 2**-(12 + 4) = 2**-16
    base_config = ExperimentConfig(
        alpha=1.5, hurst_name="linear", hurst_params=(0.7, 0.15), j_range=(8, 10, 12),
        beta=0.25, interval_mode="global", t_tail=8.0, path_refine=8, v_nodes=16,
        workers=1, seed=acceptance_seed,
    )

    def setup(self, seed: int, seconds: float, out_dir: str) -> None:
        self.ops = self.attempted = max(1, round(seconds / self.nominal_op_s))
        self.config = ExperimentConfig.from_dict({
            **self.base_config.to_dict(),
            "replicates": self.ops,
            "seed": self.acceptance_seed + seed * SEED_STRIDE,
            "out_dir": out_dir,
        })
        self.config.validate()

    def timed_call(self, tracer):
        return harness.run_experiment(self.config)

    def outcome(self, table) -> dict:
        out = self.config.out_dir
        with open(os.path.join(out, "manifest.json")) as fh:
            swallowed = json.load(fh)["failed_replicates"]
        with open(os.path.join(out, "records.csv"), "rb") as fh:
            records = fh.read()
        rows = records.decode().splitlines()
        header = rows[0].split(",")
        numeric = [header.index(c) for c in
                   ("V_j", "h_hat", "h_hat_corrected", "D_j", "alpha_hat")]
        non_finite = set()
        for row in rows[1:]:
            cells = row.split(",")
            if any(cells[i] and not math.isfinite(float(cells[i])) for i in numeric):
                non_finite.add(cells[0])
        h12 = table.row(12)["h_corr_mean"]
        h12_ok = h12 is not None and abs(h12 - 0.7) < 0.12
        # a failed aggregate check counts as one more failed operation
        failed = len(swallowed) + len(non_finite) + (not h12_ok)
        artifact_bytes = sum(os.path.getsize(os.path.join(out, f))
                             for f in ("records.csv", "table.csv", "manifest.json"))
        return {
            "attempted": self.ops,
            "failed": min(failed, self.ops),
            "checks": {
                "every estimate is finite": not non_finite,
                f"|h_corr_mean(12) - 0.7| < 0.12 (h_corr_mean(12) = {h12})": h12_ok,
            },
            "digest": hashlib.sha256(records).hexdigest(),
            "digest_of": "records.csv",
            "artifact_bytes": artifact_bytes,
        }


COV_LAGS = (1, 2, 4, 8, 16, 32, 64)
REPORTS_PER_PASS = 5
PHI_LAGS = [1, 2, 4, 8, 16, 32, 64, 128]


class BoundsMC:
    """The Monte Carlo and deterministic reports of the ``verify`` bundle,
    called through the public ``bounds`` functions with the arguments
    ``run_verification`` gives them (lambda grid and approximation check left
    out).  The timed loop repeats passes over the five reports; a failed
    operation is a failed report."""

    name = "bounds-mc"
    acceptance_seed = 4057  # the verify-bundle acceptance test
    nominal_op_s = 5.0

    def setup(self, seed: int, seconds: float, out_dir: str) -> None:
        self.ops = max(1, round(seconds / self.nominal_op_s))
        self.attempted = REPORTS_PER_PASS * self.ops
        self.config = ExperimentConfig(
            alpha=1.5, hurst_name="constant", hurst_params=(0.8,), j_range=(6, 8),
            beta=0.25, t_tail=8.0, seed=self.acceptance_seed + seed * SEED_STRIDE,
            verify_cov_replicates=10_000, verify_scale_replicates=10_000,
            out_dir=out_dir,
        )
        self.config.validate()

    def timed_call(self, tracer):
        reports = []
        for p in range(self.ops):
            with tracer.span("bench.pass"):
                # the bundle draws from seed + 1 and seed + 2
                reports.extend(self._bundle(self.config.seed + 3 * p))
        return reports

    def _bundle(self, seed: int) -> list:
        cfg = self.config
        law, H = cfg.law, cfg.hurst()
        kernel = PhiKernel(cfg.alpha, cfg.wavelet())  # fresh norm cache per pass
        j_max = max(cfg.j_range)
        rq = bounds.rq_sweep_report(2.0, 1.5)
        rq.details["closed_form_residual"] = abs(bounds.rq_integral(2.0, 2.0, 0) - 2.0 / 3.0)
        rq.passed = bool(rq.passed and rq.details["closed_form_residual"] < 1e-8)
        reports = [rq]
        for which in ("phi1", "phi2"):
            rep = bounds.phi_decay_report(kernel, H, j_max, PHI_LAGS, which)
            fine = bounds.phi_decay_report(kernel, H, j_max, PHI_LAGS, which,
                                           panels_scale=32)
            drift = abs(fine.witnessed_constant - rep.witnessed_constant) / max(
                abs(fine.witnessed_constant), 1e-300)
            rep.details["refinement_drift"] = drift
            rep.passed = bool(rep.passed and drift < 0.01)
            reports.append(rep)
        j_cov = min(8, j_max)
        cov_lags = [q for q in COV_LAGS if q <= 2 ** (j_cov - 2)]
        reports.append(bounds.covariance_mc_check(
            law, kernel, H, j_cov, cov_lags, cfg.beta,
            replicates=cfg.verify_cov_replicates, seed=seed + 1))
        j_scale = min(6, j_max)
        ks = [2 ** (j_scale - 3), 2 ** (j_scale - 1), 3 * 2 ** (j_scale - 2)]
        reports.append(bounds.scale_param_check(
            law, kernel, H, j_scale, ks, cfg.beta,
            replicates=cfg.verify_scale_replicates, seed=seed + 2))
        return reports

    def outcome(self, reports) -> dict:
        bad = [rep.name for rep in reports
               if not (rep.passed and math.isfinite(rep.witnessed_constant))]
        blob = json.dumps([rep.to_dict() for rep in reports], sort_keys=True).encode()
        return {
            "attempted": len(reports),
            "failed_reports": bad,
            "failed": len(bad),
            "checks": {"every report passed with a finite witnessed constant": not bad},
            "digest": hashlib.sha256(blob).hexdigest(),
            "digest_of": "report dicts",
            "artifact_bytes": 0,
        }


WORKLOADS = {w.name: w for w in (MinhLinear(), BoundsMC())}


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "thread_caps": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "scipy_fft_workers": 1,  # lmsmlab passes no ``workers`` to scipy.fft
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(lmsmlab.__file__), src]) != src:
        raise SystemExit(f"lmsmlab imported from {lmsmlab.__file__}, not from {src}")
    os.makedirs(args.out, exist_ok=True)
    workload = WORKLOADS[args.workload]
    workload.setup(args.seed, args.seconds, args.out)
    tracer = tracing.Tracer()
    tracing.install(tracer, full=args.trace)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    error = None
    with tracer.span("bench.call"):
        try:
            result = workload.timed_call(tracer)
        except Exception:  # noqa: BLE001 - reported as failed operations below
            error = traceback.format_exc()
    if error is None:
        outcome = workload.outcome(result)
    else:
        sys.stderr.write(error)
        outcome = {"attempted": workload.attempted, "failed": workload.attempted,
                   "checks": {"the timed call returns": False}, "error": error,
                   "digest": None, "digest_of": "nothing", "artifact_bytes": 0}
    wall_s = tracer.durations("bench.call")[0]
    replicate_s = tracer.durations("harness.run_replicate")
    out = {
        "workload": workload.name,
        "env": environment(),
        "config_seed": workload.config.seed,
        "setup_end": setup_end,
        "wall_s": wall_s,
        "op_s": replicate_s or tracer.durations("bench.pass"),
        "replicates": len(replicate_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **outcome,
    }
    if args.trace:
        out["layers"] = tracing.layer_metrics(tracer, outcome["artifact_bytes"])
        tracer.write(os.path.join(args.out, "spans.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
