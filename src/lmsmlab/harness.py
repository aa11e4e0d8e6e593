"""Batch experiment orchestration: configs, replicates, tables, manifests.

Every knob lives in the config; no defaults hide in code paths.  The output
manifest echoes every field but ``out_dir``: like ``config_hash`` it records
what a run computes, not where it writes, so no artifact depends on the
output directory.  The path noise is unit-scale SaS, the law that
``corrected_hmin`` assumes, and the analysing wavelet is ``default_wavelet``.
Replicate r draws its noise from the stream seed ^ r, so results are
independent of worker count and execution order, and identical (config,
seed) pairs produce byte-identical CSV artifacts: this module writes every
file of the package, through ``_write_csv`` (every real spelled by ``fmt17``)
or ``_write_json``.  ``workers > 1`` spreads the replicates over a plain
process pool, whose workers run the field pass as the parent does, helper
thread included.
``validate`` refuses what no replicate could run (a field of the wrong type,
a repeated level, a mesh too coarse for a level, a path larger than RAM, a
noise domain too short for the path), all properties of the config, never of
a noise draw.  So every replicate returns its records, and any exception a
replicate raises is a bug that ends the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .bounds import (
    MIN_MC_REPLICATES,
    BoundReport,
    approx_error_check,
    covariance_mc_check,
    lambda_grid_report,
    phi_decay_report,
    rq_sweep_report,
    scale_param_check,
)
from .coeffs import (CoeffPyramid, ResolutionError, build_pyramid, local_window, max_coeff,
                     noise_step, samples_per_cell)
from .estimators import (
    DegenerateReplicate,
    EstimateRecord,
    corrected_hmin,
    empirical_mean,
    estimate_alpha,
    estimate_hmin,
)
from .process import (
    HurstFunction,
    MeshFieldInterpolant,
    SamplePath,
    _interp_nodes,
    check_path_domain,
    check_path_memory,
    linear_hurst,
    make_noise_grid,
    simulate_lmsm,
)
from .stable import StableLaw
from .wavelet import PhiKernel, default_wavelet

__all__ = [
    "ExperimentConfig",
    "ConvergenceTable",
    "run_experiment",
    "run_replicate",
    "replicate_path",
    "run_verification",
    "write_path_csv",
    "write_pyramid_csv",
    "fmt17",
]


def fmt17(x) -> str:
    """Fixed 17-significant-digit decimal rendering; round-trips float64 exactly."""
    if x is None:
        return ""
    return format(float(x), ".17g")


def _write_csv(fname, comments, columns, rows) -> None:
    """``# key: value`` per (key, value) of comments, the header, then one line
    per row: text as is, integers as integers, reals (and None) by ``fmt17``."""
    with open(fname, "w") as fh:
        for key, value in comments:
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(x) if isinstance(x, (str, numbers.Integral)) else fmt17(x)
                              for x in row) + "\n")


def _write_json(fname, obj) -> None:
    with open(fname, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# the config's numeric fields, each checked by validate entry by entry:
# integers, and finite reals (delta and t0 may also be None); never a bool
_INTEGER_FIELDS = ("replicates", "v_nodes", "path_refine", "workers", "seed", "j_range",
                   "verify_cov_replicates", "verify_scale_replicates")
_REAL_FIELDS = ("alpha", "beta", "t_tail", "delta", "t0", "hurst_params", "interval")
# the fields that hold a list: a tuple in the config, a list in JSON
_LIST_FIELDS = ("hurst_params", "j_range", "interval")


def _is_number(x, integer: bool) -> bool:
    if isinstance(x, bool) or not isinstance(x, numbers.Integral if integer else numbers.Real):
        return False
    return integer or math.isfinite(x)


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
        return HurstFunction(self.hurst_name, self.hurst_params)

    def wavelet(self):
        return default_wavelet()

    def intervals(self) -> dict:
        """{j: I_j} over j_range: the fixed interval, or the local window at t0.

        The admissibility condition diam(I_j) >= 2**(1 - j/2) may fail at
        small j for an interval inside [0, 1]; no level is skipped for it.
        """
        if self.interval_mode == "global":
            return {j: tuple(self.interval) for j in self.j_range}
        return {j: local_window(float(self.t0), j) for j in self.j_range}

    def validate(self) -> None:
        # every field's type first; then StableLaw checks alpha, and
        # interval_mode and t0 go before intervals(), which reads float(self.t0)
        for key in _LIST_FIELDS:
            if not isinstance(getattr(self, key), (list, tuple)):
                raise ValueError(f"{key} must be a list, got {getattr(self, key)!r}")
        for key in _INTEGER_FIELDS + _REAL_FIELDS:
            value, integer = getattr(self, key), key in _INTEGER_FIELDS
            if value is None and key in ("delta", "t0"):
                continue
            entries = value if isinstance(value, (list, tuple)) else (value,)
            if not all(_is_number(x, integer) for x in entries):
                kind = "integers" if integer else "finite reals"
                raise ValueError(f"{key} takes {kind} only, got {value!r}")
        alpha = self.law.alpha
        if not self.j_range or min(self.j_range) < 1:
            raise ValueError(f"j_range must hold levels >= 1, got {self.j_range}")
        if len(set(self.j_range)) < len(self.j_range):
            raise ValueError(f"j_range must hold distinct levels, got {self.j_range}")
        if len(self.interval) != 2:
            raise ValueError(f"interval must be (lo, hi), got {self.interval}")
        lo, hi = self.interval
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"interval must be a non-empty (lo, hi) inside [0, 1], "
                             f"got {self.interval}")
        if self.interval_mode not in ("global", "local"):
            raise ValueError("interval_mode must be 'global' or 'local'")
        if self.interval_mode == "local" and self.t0 is None:
            raise ValueError("local mode needs t0")
        if not 0.0 < self.beta < alpha / 4.0:
            raise ValueError(f"beta={self.beta} outside (0, alpha/4) for alpha={alpha}")
        self.hurst().validate(alpha)
        self.intervals()  # local_window refuses a t0 outside (0, 1)
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ValueError(f"out_dir must be a non-empty string, got {self.out_dir!r}")
        for key, low in (("replicates", 1), ("t_tail", 1), ("v_nodes", 2), ("path_refine", 1),
                         ("workers", 1), ("verify_cov_replicates", MIN_MC_REPLICATES),
                         ("verify_scale_replicates", MIN_MC_REPLICATES)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}")
        try:
            check_path_memory(-self.t_tail, self.noise_delta, self.path_refine,
                              _interp_nodes(self.hurst(), self.v_nodes)[0].size)
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
        return {**asdict(self), **{key: list(getattr(self, key)) for key in _LIST_FIELDS}}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        if unknown := sorted(set(d) - {f.name for f in fields(cls)}):
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        for key in _LIST_FIELDS:
            if isinstance(d.get(key), list):
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
        _write_csv(fname, (), self.COLUMNS,
                   ([row[col] for col in self.COLUMNS] for row in self.rows))

    def row(self, j: int) -> dict:
        for row in self.rows:
            if row["j"] == j:
                return row
        raise KeyError(f"no row for level {j}")


def replicate_path(config: ExperimentConfig, r: int) -> SamplePath:
    """Replicate r's path Y(t) = X(t, H(t)) on the delta/path_refine mesh of
    [0, 1], from the noise stream seed ^ r."""
    grid = make_noise_grid(config.law, -config.t_tail, config.noise_delta, config.seed ^ r)
    return simulate_lmsm(MeshFieldInterpolant(grid, config.hurst(), config.v_nodes,
                                              config.path_refine))


def run_replicate(config: ExperimentConfig, r: int) -> list[EstimateRecord]:
    """All per-scale estimates for replicate r (noise stream seed ^ r)."""
    H = config.hurst()
    wavelet = config.wavelet()
    kernel = PhiKernel(config.alpha, wavelet)
    pyramid = build_pyramid(replicate_path(config, r), wavelet, config.intervals())

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


def _stat(f, values: np.ndarray):
    return float(f(values)) if values.size else None


def _aggregate(config: ExperimentConfig, per_replicate: list) -> ConvergenceTable:
    H = config.hurst()
    intervals = config.intervals()
    rows = []
    for j in config.j_range:
        recs = [rec for records in per_replicate for rec in records if rec.j == j]
        good = [rec for rec in recs if not rec.flagged]
        h_vals = np.array([rec.h_hat for rec in good])
        hc_vals = np.array(
            [rec.h_hat_corrected for rec in good if rec.h_hat_corrected is not None]
        )
        a_vals = np.array(
            [rec.alpha_hat for rec in good if rec.alpha_hat is not None]
        )
        rows.append(
            {
                "j": j,
                "n_j": recs[0].n_j,
                "target_hmin": H.min_over(*intervals[j]),
                "h_mean": _stat(np.mean, h_vals),
                "h_median": _stat(np.median, h_vals),
                "h_iqr": _stat(lambda v: np.subtract(*np.percentile(v, [75, 25])), h_vals),
                "h_corr_mean": _stat(np.mean, hc_vals),
                "h_corr_median": _stat(np.median, hc_vals),
                "alpha_mean": _stat(np.mean, a_vals),
                "alpha_median": _stat(np.median, a_vals),
                "flagged": len(recs) - len(good),
            }
        )
    return ConvergenceTable(rows=rows)


def _write_records_csv(fname, per_replicate: list) -> None:
    _write_csv(fname, (), ("replicate", "j", "n_j", "V_j", "h_hat", "h_hat_corrected", "D_j",
                           "alpha_hat", "flags"),
               ((r, rec.j, rec.n_j, rec.v_j, rec.h_hat, rec.h_hat_corrected, rec.d_j,
                 rec.alpha_hat, ";".join(rec.flags))
                for r, records in enumerate(per_replicate) for rec in records))


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
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            per_replicate = list(pool.map(run_replicate, [config] * len(reps), reps))
    else:
        per_replicate = [run_replicate(config, r) for r in reps]
    table = _aggregate(config, per_replicate)
    _write_records_csv(os.path.join(out, "records.csv"), per_replicate)
    table.to_csv(os.path.join(out, "table.csv"))
    _write_json(os.path.join(out, "manifest.json"), _manifest(config))
    return table


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def run_verification(config: ExperimentConfig) -> list[BoundReport]:
    """The default bound-report suite: the reports ``bounds`` builds, each
    with its own verdict, on the config's law, kernel and Hurst profile."""
    config.validate()
    law, H = config.law, config.hurst()
    kernel = PhiKernel(config.alpha, config.wavelet())
    # the checks read fixed levels, so every cell lies inside [0, 1] whatever
    # the config's levels: the decay reports' lag 128 needs j >= 8, the
    # covariance check's cells reach 128 at j = 8, the scale check's 48 at j = 6
    j_decay = max(max(config.j_range), 8)
    # the approximation lemma is vacuous for constant H (the two coefficient
    # routes coincide exactly); verify it on the configured profile when that
    # varies, else on the vetted linear profile
    h_approx = H if not H.is_constant else linear_hurst(0.7, 0.15)
    return [
        rq_sweep_report(2.0, 1.5),
        *(phi_decay_report(kernel, H, j_decay, [1, 2, 4, 8, 16, 32, 64, 128], which)
          for which in ("phi1", "phi2")),
        lambda_grid_report(),
        covariance_mc_check(law, kernel, H, 8, [1, 2, 4, 8, 16, 32, 64], config.beta,
                            replicates=config.verify_cov_replicates, seed=config.seed + 1),
        scale_param_check(law, kernel, H, 6, [8, 32, 48], config.beta,
                          replicates=config.verify_scale_replicates, seed=config.seed + 2),
        approx_error_check(law, config.wavelet(), h_approx, [6, 7, 8, 9, 10, 11],
                           seed=config.seed + 3),
    ]


def write_reports(reports: list[BoundReport], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    fname = os.path.join(out_dir, "bound_reports.json")
    _write_json(fname, [rep.to_dict() for rep in reports])
    return fname


def write_path_csv(path: SamplePath, out_dir: str) -> str:
    """``path.csv``: a ``t,Y`` row per mesh time, under the noise's and H's ids."""
    grid = path.field.grid
    comments = {"kind": "lmsm", "alpha": grid.law.alpha, "scale": grid.law.scale,
                "hurst": f"{path.H.name}{path.H.params}", "t_min": grid.t_min,
                "delta": grid.delta, "seed": grid.seed}
    os.makedirs(out_dir, exist_ok=True)
    fname = os.path.join(out_dir, "path.csv")
    _write_csv(fname, comments.items(), ("t", "Y"),
               zip(path.times.tolist(), path.values.tolist()))
    return fname


def write_pyramid_csv(pyramid: CoeffPyramid, out_dir: str) -> str:
    """``pyramid.csv``: a ``j,k,value`` row per coefficient, levels and shifts ascending."""
    os.makedirs(out_dir, exist_ok=True)
    fname = os.path.join(out_dir, "pyramid.csv")
    _write_csv(fname, (("wavelet", pyramid.wavelet_id), ("seed", pyramid.seed)),
               ("j", "k", "value"),
               ((j, k, v) for j in sorted(pyramid.levels)
                for k, v in zip(pyramid.cells[j], pyramid.levels[j].tolist())))
    return fname
