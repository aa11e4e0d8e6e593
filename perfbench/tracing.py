"""Spans and counters around the public functions of each lmsmlab layer.

The program carries no tracing of its own, so the benchmark wraps the names
the layers call each other through (module attributes and class methods)
before the timed call.  Each wrapped call records one span
``[name, start, end, parent, ok]``, where ``ok`` is false when the call raised;
spans stay in memory and are written out when the run ends.  A span's self time is its duration minus the durations of its
direct children, which never overlap because the workloads are serial.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import math
import time

import numpy as np

# counts that must repeat exactly between two traced runs on one seed
REPEATED_COUNTS = (
    "process.fft_calls",
    "process.fft_points",
    "stable.draws",
    "coeffs.coeffs",
    "wavelet.norm_calls",
)


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._open = [-1]

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._open[-1], False]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
            rec[4] = True
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a spanned call; ``count(counts, args, out)``
        runs after each call."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, out)
            return out

        setattr(owner, attr, traced)

    def durations(self, name: str) -> list[float]:
        """Durations of the calls of ``name`` that returned."""
        return [end - start for n, start, end, _, ok in self.spans if n == name and ok]

    def totals(self) -> tuple[dict, dict, collections.Counter]:
        """Per span name: summed duration, summed self time, call count."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        dur: dict = collections.defaultdict(float)
        own: dict = collections.defaultdict(float)
        calls: collections.Counter = collections.Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            dur[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return dur, own, calls

    def write(self, fname: str) -> None:
        with open(fname, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "ok"],
                       "spans": self.spans}, fh)


LAYER_UNITS = {
    "stable.draw_s": "s", "stable.draws": "count", "stable.draws_per_s": "1/s",
    "process.noise_grid_s": "s", "process.field_s": "s", "process.field_calls": "count",
    "process.fft_calls": "count", "process.fft_points": "count", "process.fft_s": "s",
    "process.fft_gflop_computed": "GFLOP", "process.fft_bytes_computed": "B",
    "process.interp_s": "s", "process.simulate_s": "s", "process.audit_s": "s",
    "process.direct_weights_s": "s", "process.direct_weights_calls": "count",
    "wavelet.norm_s": "s", "wavelet.norm_calls": "count", "wavelet.phi_s": "s",
    "wavelet.phi_points": "count", "coeffs.pyramid_s": "s", "coeffs.coeffs": "count",
    "coeffs.max_s": "s", "estimators.s": "s", "bounds.covariance_self_s": "s",
    "bounds.scale_self_s": "s", "bounds.phi_decay_s": "s",
    "harness.replicate_self_s": "s", "harness.overhead_s": "s",
    "harness.artifact_bytes": "B", "trace.overhead_s": "s",
}


def _count_draws(counts, args, out):
    counts["draws"] += int(args[1])


def _count_fft(counts, args, out):
    n = int(args[1])
    counts["fft_points"] += n
    counts["fft_flop"] += 2.5 * n * math.log2(n)
    # one pass over the real side (8 B per point) and the half spectrum (16 B per bin)
    counts["fft_bytes"] += 8 * n + 16 * (n // 2 + 1)


def _count_phi_points(counts, args, out):
    counts["phi_points"] += int(np.size(args[1]))


def _count_coeffs(counts, args, out):
    counts["coeffs"] += sum(len(level) for level in out.levels.values())


def install(tracer: Tracer, full: bool) -> None:
    """Wrap ``run_replicate`` always (it times replicates for the end-to-end
    metrics); with ``full`` also every layer boundary the metrics need."""
    from lmsmlab import bounds, harness, process, stable, wavelet

    tracer.patch(harness, "run_replicate", "harness.run_replicate")
    if not full:
        return
    for mod in (stable, process, bounds):
        tracer.patch(mod, "unit_sas", "stable.unit_sas", _count_draws)
    for mod in (harness, bounds):
        tracer.patch(mod, "make_noise_grid", "process.make_noise_grid")
        tracer.patch(mod, "simulate_lmsm", "process.simulate_lmsm")
        tracer.patch(mod, "build_pyramid", "coeffs.build_pyramid", _count_coeffs)
    tracer.patch(process, "field_on_mesh", "process.field_on_mesh")
    tracer.patch(process, "rfft", "process.rfft", _count_fft)
    tracer.patch(process, "irfft", "process.irfft", _count_fft)
    tracer.patch(process.MeshFieldInterpolant, "at", "process.interp_at")
    tracer.patch(process, "path_truncation_audit", "process.path_truncation_audit")
    for mod in (process, bounds):
        tracer.patch(mod, "direct_coeff_weights", "process.direct_coeff_weights")
    tracer.patch(wavelet.PhiKernel, "norm_detail", "wavelet.norm_detail")
    tracer.patch(wavelet.PhiKernel, "phi", "wavelet.phi", _count_phi_points)
    tracer.patch(harness, "max_coeff", "coeffs.max_coeff")
    for fn in ("empirical_mean", "corrected_hmin", "estimate_alpha"):
        tracer.patch(harness, fn, "estimators." + fn)
    for fn in ("covariance_mc_check", "scale_param_check", "phi_decay_report",
               "rq_sweep_report"):
        tracer.patch(bounds, fn, "bounds." + fn)


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict:
    """The per-layer metrics of one traced timed call (span ``bench.call``)."""
    dur, own, calls = tracer.totals()
    c = tracer.counts
    draw_s = dur["stable.unit_sas"]
    replicates_s = dur["harness.run_replicate"]
    return {
        "stable.draw_s": draw_s,
        "stable.draws": c["draws"],
        "stable.draws_per_s": c["draws"] / draw_s if draw_s > 0 else 0.0,
        "process.noise_grid_s": dur["process.make_noise_grid"],
        "process.field_s": dur["process.field_on_mesh"],
        "process.field_calls": calls["process.field_on_mesh"],
        "process.fft_calls": calls["process.rfft"] + calls["process.irfft"],
        "process.fft_points": c["fft_points"],
        "process.fft_s": dur["process.rfft"] + dur["process.irfft"],
        "process.fft_gflop_computed": c["fft_flop"] / 1e9,
        "process.fft_bytes_computed": c["fft_bytes"],
        "process.interp_s": dur["process.interp_at"],
        "process.simulate_s": dur["process.simulate_lmsm"],
        "process.audit_s": dur["process.path_truncation_audit"],
        "process.direct_weights_s": dur["process.direct_coeff_weights"],
        "process.direct_weights_calls": calls["process.direct_coeff_weights"],
        "wavelet.norm_s": dur["wavelet.norm_detail"],
        "wavelet.norm_calls": calls["wavelet.norm_detail"],
        "wavelet.phi_s": dur["wavelet.phi"],
        "wavelet.phi_points": c["phi_points"],
        "coeffs.pyramid_s": dur["coeffs.build_pyramid"],
        "coeffs.coeffs": c["coeffs"],
        "coeffs.max_s": dur["coeffs.max_coeff"],
        "estimators.s": dur["estimators.empirical_mean"]
        + dur["estimators.corrected_hmin"]
        + dur["estimators.estimate_alpha"],
        "bounds.covariance_self_s": own["bounds.covariance_mc_check"],
        "bounds.scale_self_s": own["bounds.scale_param_check"],
        "bounds.phi_decay_s": own["bounds.phi_decay_report"],
        "harness.replicate_self_s": own["harness.run_replicate"],
        "harness.overhead_s": dur["bench.call"] - replicates_s
        if calls["harness.run_replicate"] else 0.0,
        "harness.artifact_bytes": artifact_bytes,
    }
