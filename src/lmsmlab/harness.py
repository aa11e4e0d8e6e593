"""Batch experiment orchestration: configs, replicates, tables, manifests.

Every knob lives in the config; no defaults hide in code paths.  The output
manifest echoes every field but ``out_dir``: like ``config_hash`` it records
what a run computes, not where it writes, so no artifact depends on the
output directory.  The path noise is unit-scale SaS, the law that
``corrected_hmin`` assumes, and the analysing wavelet is ``default_wavelet``.
Replicate r draws its noise from the stream seed ^ r, so results are
independent of worker count and execution order, and identical (config,
seed) pairs produce byte-identical CSV artifacts.
``validate`` refuses what no replicate could run (a mesh too coarse for a
level, a path larger than RAM, a noise domain too short for the path), all
properties of the config, never of a noise draw.  So every replicate returns
its records, and any exception a replicate raises is a bug that ends the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .bounds import (
    BoundReport,
    approx_error_check,
    covariance_mc_check,
    lambda_exponent,
    phi_decay_report,
    rq_integral,
    rq_sweep_report,
    scale_param_check,
)
from .coeffs import (ResolutionError, build_global_intervals, build_local_intervals,
                     build_pyramid, max_coeff, noise_step, samples_per_cell)
from .estimators import (
    DegenerateReplicate,
    EstimateRecord,
    corrected_hmin,
    empirical_mean,
    estimate_alpha,
    estimate_hmin,
)
from .process import (
    MeshFieldInterpolant,
    SamplePath,
    check_path_domain,
    check_path_memory,
    hurst_from_id,
    make_noise_grid,
    simulate_lmsm,
)
from .stable import StableLaw, _set_threads
from .wavelet import PhiKernel, default_wavelet

__all__ = [
    "ExperimentConfig",
    "ConvergenceTable",
    "run_experiment",
    "run_replicate",
    "replicate_path",
    "run_verification",
    "fmt17",
]


def fmt17(x) -> str:
    """Fixed 17-significant-digit decimal rendering; round-trips float64 exactly."""
    if x is None:
        return ""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one Monte Carlo experiment."""

    alpha: float = 1.5
    hurst_name: str = "constant"
    hurst_params: tuple = (0.8,)
    j_range: tuple = (6, 8, 10)
    beta: float = 0.25
    interval_mode: str = "global"
    interval: tuple = (0.0, 1.0)
    t0: float | None = None
    delta: float | None = None  # None: noise_step(max(j_range))
    t_tail: float = 8.0
    v_nodes: int = 16
    path_refine: int = 8  # path mesh = delta / path_refine
    replicates: int = 20
    seed: int = 1234
    workers: int = 1
    out_dir: str = "out"
    # verification-suite sizes
    verify_cov_replicates: int = 10_000
    verify_scale_replicates: int = 10_000

    @property
    def law(self) -> StableLaw:
        return StableLaw(alpha=self.alpha)

    @property
    def noise_delta(self) -> float:
        return self.delta if self.delta is not None else noise_step(max(self.j_range))

    def hurst(self):
        return hurst_from_id(self.hurst_name, self.hurst_params)

    def wavelet(self):
        return default_wavelet()

    def intervals(self):
        j_max = max(self.j_range)
        if self.interval_mode == "global":
            return build_global_intervals(tuple(self.interval), j_max)
        return build_local_intervals(float(self.t0), j_max)

    def validate(self) -> None:
        # StableLaw checks alpha first; interval_mode and t0 before
        # intervals(), which reads float(self.t0)
        alpha = self.law.alpha
        if not self.j_range or min(self.j_range) < 1:
            raise ValueError(f"j_range must hold levels >= 1, got {self.j_range}")
        if len(self.interval) != 2:
            raise ValueError(f"interval must be (lo, hi), got {self.interval}")
        if self.interval_mode not in ("global", "local"):
            raise ValueError("interval_mode must be 'global' or 'local'")
        if self.interval_mode == "local" and self.t0 is None:
            raise ValueError("local mode needs t0")
        if not 0.0 < self.beta < alpha / 4.0:
            raise ValueError(f"beta={self.beta} outside (0, alpha/4) for alpha={alpha}")
        self.hurst().validate(alpha)
        self.intervals()
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.t_tail < 1.0:
            raise ValueError("t_tail must be >= 1")
        if self.v_nodes < 2:
            raise ValueError("v_nodes must be >= 2")
        if self.path_refine < 1:
            raise ValueError("path_refine must be >= 1")
        try:
            check_path_memory(-self.t_tail, self.noise_delta, self.path_refine)
        except ValueError as exc:
            raise ValueError(f"j_range={self.j_range}, delta={self.noise_delta:g}: "
                             f"{exc}") from None
        try:
            check_path_domain(alpha, -self.t_tail, self.noise_delta, self.hurst().h_high)
        except ValueError as exc:
            raise ValueError(f"t_tail={self.t_tail:g}: {exc}") from None
        try:
            for j in self.j_range:
                samples_per_cell(self.noise_delta / self.path_refine, j)
        except ResolutionError as exc:
            raise ValueError(f"delta / path_refine: {exc}") from None

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("hurst_params", "j_range", "interval"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        for key in ("hurst_params", "j_range", "interval"):
            if key in d:
                if not isinstance(d[key], (list, tuple)):
                    raise ValueError(f"{key} must be a list, got {d[key]!r}")
                d[key] = tuple(d[key])
        return cls(**d)

    def config_hash(self) -> str:
        """sha256 of the science: every field but how and where the run executes."""
        science = {k: v for k, v in self.to_dict().items()
                   if k not in ("workers", "out_dir")}
        blob = json.dumps(science, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class ConvergenceTable:
    """Aggregate estimator outputs per scale with the exact targets alongside."""

    rows: list

    COLUMNS = (
        "j",
        "n_j",
        "target_hmin",
        "h_mean",
        "h_median",
        "h_iqr",
        "h_corr_mean",
        "h_corr_median",
        "alpha_mean",
        "alpha_median",
        "flagged",
    )

    def to_csv(self, fname) -> None:
        with open(fname, "w") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            for row in self.rows:
                cells = []
                for col in self.COLUMNS:
                    val = row[col]
                    if col in ("j", "n_j", "flagged"):
                        cells.append(str(int(val)))
                    else:
                        cells.append(fmt17(val))
                fh.write(",".join(cells) + "\n")

    def row(self, j: int) -> dict:
        for row in self.rows:
            if row["j"] == j:
                return row
        raise KeyError(f"no row for level {j}")


def replicate_path(config: ExperimentConfig, r: int) -> SamplePath:
    """Replicate r's path Y(t) = X(t, H(t)) on the delta/path_refine mesh of
    [0, 1], from the noise stream seed ^ r."""
    H = config.hurst()
    grid = make_noise_grid(config.law, -config.t_tail, config.noise_delta, config.seed ^ r)
    field = MeshFieldInterpolant(
        grid, H.h_low, H.h_high, n_nodes=config.v_nodes, refine=config.path_refine
    )
    return simulate_lmsm(field, H)


def run_replicate(config: ExperimentConfig, r: int) -> list[EstimateRecord]:
    """All per-scale estimates for replicate r (noise stream seed ^ r)."""
    H = config.hurst()
    wavelet = config.wavelet()
    kernel = PhiKernel(config.alpha, wavelet)
    pyramid = build_pyramid(replicate_path(config, r), wavelet, config.j_range,
                            config.intervals())

    records = []
    for j in config.j_range:
        level = pyramid.level(j)
        rec = EstimateRecord(j=j, v_j=math.nan, h_hat=math.nan, d_j=math.nan, n_j=level.size)
        if not level.size:
            rec.flags.append("empty_index_set")
            records.append(rec)
            continue
        rec.v_j = empirical_mean(level, config.beta)
        try:
            rec.h_hat = estimate_hmin(rec.v_j, j, config.beta)
            rec.h_hat_corrected = corrected_hmin(
                rec.v_j, j, config.beta, kernel, (H.h_low, H.h_high)
            )
        except DegenerateReplicate as exc:
            rec.flags.append(str(exc))
        rec.d_j = max_coeff(level)
        if config.interval_mode == "global" and not rec.flags:
            try:
                rec.alpha_hat = estimate_alpha(rec.h_hat, rec.d_j, j)
            except DegenerateReplicate as exc:
                rec.flags.append(str(exc))
        records.append(rec)
    return records


def _aggregate(config: ExperimentConfig, per_replicate: list) -> ConvergenceTable:
    H = config.hurst()
    intervals = config.intervals()
    rows = []
    for j in config.j_range:
        recs = [rec for records in per_replicate for rec in records if rec.j == j]
        good = [rec for rec in recs if not rec.flagged]
        target = H.min_over(*intervals.interval(j))
        h_vals = np.array([rec.h_hat for rec in good]) if good else np.array([])
        hc_vals = np.array(
            [rec.h_hat_corrected for rec in good if rec.h_hat_corrected is not None]
        )
        a_vals = np.array(
            [rec.alpha_hat for rec in good if rec.alpha_hat is not None]
        )
        q75, q25 = (np.percentile(h_vals, [75, 25]) if h_vals.size else (math.nan,) * 2)
        rows.append(
            {
                "j": j,
                "n_j": recs[0].n_j,
                "target_hmin": target,
                "h_mean": float(h_vals.mean()) if h_vals.size else None,
                "h_median": float(np.median(h_vals)) if h_vals.size else None,
                "h_iqr": float(q75 - q25) if h_vals.size else None,
                "h_corr_mean": float(hc_vals.mean()) if hc_vals.size else None,
                "h_corr_median": float(np.median(hc_vals)) if hc_vals.size else None,
                "alpha_mean": float(a_vals.mean()) if a_vals.size else None,
                "alpha_median": float(np.median(a_vals)) if a_vals.size else None,
                "flagged": len(recs) - len(good),
            }
        )
    return ConvergenceTable(rows=rows)


def _write_records_csv(fname, per_replicate: list) -> None:
    cols = "replicate,j,n_j,V_j,h_hat,h_hat_corrected,D_j,alpha_hat,flags\n"
    with open(fname, "w") as fh:
        fh.write(cols)
        for r, records in enumerate(per_replicate):
            for rec in records:
                flags = ";".join(rec.flags)
                fh.write(
                    f"{r},{rec.j},{rec.n_j},{fmt17(rec.v_j)},{fmt17(rec.h_hat)},"
                    f"{fmt17(rec.h_hat_corrected)},{fmt17(rec.d_j)},{fmt17(rec.alpha_hat)},"
                    f"{flags}\n"
                )


def _manifest(config: ExperimentConfig) -> dict:
    return {
        "config": {k: v for k, v in config.to_dict().items() if k != "out_dir"},
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "lmsmlab": __version__,
        },
        "failed_replicates": {},
    }


def _replicate_pool(workers: int) -> ProcessPoolExecutor:
    """Process pool for replicates; each worker's thread budget is 1 (noise
    transform and FFTs on one thread), so the pool's processes do not
    oversubscribe the CPUs."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_set_threads,
                               initargs=(1,))


def run_experiment(config: ExperimentConfig) -> ConvergenceTable:
    """Run the full replicate batch, aggregate, and write the artifacts to
    ``config.out_dir``.  An exception in a replicate ends the run before any
    artifact is written; ``failed_replicates`` is always ``{}``, kept for the
    manifest's format."""
    config.validate()
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    reps = range(config.replicates)
    if config.workers > 1:
        with _replicate_pool(config.workers) as pool:
            per_replicate = list(pool.map(run_replicate, [config] * len(reps), reps))
    else:
        per_replicate = [run_replicate(config, r) for r in reps]
    table = _aggregate(config, per_replicate)
    _write_records_csv(os.path.join(out, "records.csv"), per_replicate)
    table.to_csv(os.path.join(out, "table.csv"))
    manifest = _manifest(config)
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return table


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def _lambda_grid_report() -> BoundReport:
    alphas = np.linspace(1.05, 1.95, 19)
    worst = math.inf
    monotone_ok = True
    cont_ok = True
    for a in alphas:
        hs = np.linspace(1.0 / a + 1e-3, 1.0 - 1e-3, 41)
        lams = np.array([lambda_exponent(float(a), float(h)) for h in hs])
        worst = min(worst, float(lams.min()))
        if np.any(np.diff(lams) > 1e-12):
            monotone_ok = False
        if np.max(np.abs(np.diff(lams))) > 0.2:
            cont_ok = False
    passed = worst > 0.0 and monotone_ok and cont_ok
    return BoundReport(
        name="lambda_exponent_grid",
        grid="alpha in [1.05, 1.95] x h_high in (1/alpha, 1)",
        witnessed_constant=worst,
        bound_exponent=0.0,
        passed=bool(passed),
        tolerance=0.0,
        details={"monotone_in_h_high": monotone_ok, "continuous": cont_ok},
    )


def run_verification(config: ExperimentConfig) -> list[BoundReport]:
    """The default bound-report suite; each kernel-decay report carries its
    refinement drift (quadrature resolution doubled)."""
    config.validate()
    law = config.law
    H = config.hurst()
    kernel = PhiKernel(config.alpha, config.wavelet())

    reports = []

    rq = rq_sweep_report(2.0, 1.5)
    rq.details["closed_form_residual"] = abs(rq_integral(2.0, 2.0, 0) - 2.0 / 3.0)
    rq.passed = bool(rq.passed and rq.details["closed_form_residual"] < 1e-8)
    reports.append(rq)

    lags = [1, 2, 4, 8, 16, 32, 64, 128]
    for which in ("phi1", "phi2"):
        rep = phi_decay_report(kernel, H, max(config.j_range), lags, which)
        fine = phi_decay_report(
            kernel, H, max(config.j_range), lags, which, panels_scale=32
        )
        drift = abs(fine.witnessed_constant - rep.witnessed_constant) / max(
            abs(fine.witnessed_constant), 1e-300
        )
        rep.details["refinement_drift"] = drift
        rep.passed = bool(rep.passed and drift < 0.01)
        reports.append(rep)

    reports.append(_lambda_grid_report())

    j_cov = min(8, max(config.j_range))
    cov_lags = [q for q in (1, 2, 4, 8, 16, 32, 64) if q <= 2 ** (j_cov - 2)]
    reports.append(
        covariance_mc_check(
            law, kernel, H, j_cov, cov_lags, config.beta,
            replicates=config.verify_cov_replicates, seed=config.seed + 1,
        )
    )

    j_scale = min(6, max(config.j_range))
    ks = [2 ** (j_scale - 3), 2 ** (j_scale - 1), 3 * 2 ** (j_scale - 2)]
    reports.append(
        scale_param_check(
            law, kernel, H, j_scale, ks, config.beta,
            replicates=config.verify_scale_replicates, seed=config.seed + 2,
        )
    )

    # the approximation lemma is vacuous for constant H (the two coefficient
    # routes coincide exactly); verify it on the configured profile when that
    # varies, else on the vetted linear profile
    h_approx = H if not H.is_constant else hurst_from_id("linear", (0.7, 0.15))
    reports.append(
        approx_error_check(
            law, config.wavelet(), h_approx, [6, 7, 8, 9, 10, 11], seed=config.seed + 3
        )
    )
    return reports


def write_reports(reports: list[BoundReport], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    fname = os.path.join(out_dir, "bound_reports.json")
    with open(fname, "w") as fh:
        json.dump([rep.to_dict() for rep in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    return fname
