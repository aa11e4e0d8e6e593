"""lmsmlab benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload minh-linear --seed 0 --seconds 40 --trace 0

``--workload all`` runs every workload in turn.  Every measurement runs in a
fresh process (``workload.py``) with BLAS threads capped at ``nproc``; load is
a closed loop from that one process, serial.  ``--seed 0`` gives the
acceptance seeds.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the failed fraction, the checks, the
environment and a digest of the results (information only).  The exit code
is 1 when a correctness check fails, and also, with no JSON line, when a
measurement process fails; it is 2, with no JSON line, when the checkout has
no ``src/lmsmlab``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (the
workload's one timed call), ``replicate_s_p50`` (median operation),
``peak_rss_mb`` and ``setup_s`` (median over ``SETUP_PROBES + 1`` fresh
processes of the time from process start to the timed call).  ``--trace 1``
runs the workload once untraced and twice traced on the same seed, checks
that the traced counts repeat exactly, and reports the per-layer metrics
(times averaged over the two traced runs) and the tracing overhead.  See
README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import LAYER_UNITS, REPEATED_COUNTS  # noqa: E402

WORKLOADS = ("minh-linear", "bounds-mc")
SETUP_PROBES = 4
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"wall_s": "s", "replicate_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s",
         **LAYER_UNITS}


class MeasurementFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = nproc
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _measure(args, workload: str, out: str, deadline: float, *flags,
             seconds: float | None = None) -> dict:
    """Run workload.py once; its setup_s counts from just before the start."""
    seconds = args.seconds if seconds is None else seconds
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--out", out, *flags]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=_child_env(), timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise MeasurementFailed(f"{workload} {flags} ran past the deadline") from exc
    if proc.returncode != 0:
        raise MeasurementFailed(f"{workload} {flags} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - start
    return result


def _plain(args, workload, out, deadline) -> dict:
    def probe(i):
        return _measure(args, workload, os.path.join(out, f"setup{i}"), deadline,
                        "--setup-only")["setup_s"]

    # set-up probes before and after the run see more of the machine's drift
    half = SETUP_PROBES // 2
    setups = [probe(i) for i in range(half)]
    run = _measure(args, workload, os.path.join(out, "plain"), deadline)
    setups += [run["setup_s"]] + [probe(i) for i in range(half, SETUP_PROBES)]
    run["metrics"] = {
        "wall_s": run["wall_s"],
        # operations that raised are counted in failed, not timed
        "replicate_s_p50": statistics.median(run["op_s"] or [run["wall_s"]]),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    print(f"  setup_s samples: {[round(s, 4) for s in setups]}")
    return run


def _traced(args, workload, out, deadline) -> dict:
    # the three measurements share the run length, so each does a third of the work
    runs = {role: _measure(args, workload, os.path.join(out, role), deadline, *flags,
                           seconds=args.seconds / 3.0)
            for role, flags in (("plain", ()), ("traced-a", ("--trace",)),
                                ("traced-b", ("--trace",)))}
    plain, a, b = runs.values()
    mismatched = [k for k in REPEATED_COUNTS if a["layers"][k] != b["layers"][k]]
    # times are averaged over the two traced runs; counts are taken from the first
    layers = {k: 0.5 * (a["layers"][k] + b["layers"][k]) if UNITS[k] in ("s", "1/s")
              else a["layers"][k] for k in a["layers"]}
    layers["trace.overhead_s"] = 0.5 * (a["wall_s"] + b["wall_s"]) - plain["wall_s"]
    checks = {f"{role}: {name}": ok for role, run in runs.items()
              for name, ok in run["checks"].items()}
    checks[f"counts repeat across two traced runs ({', '.join(REPEATED_COUNTS)})"] = (
        not mismatched)
    for role, run in runs.items():
        print(f"  {role}: wall_s={run['wall_s']:.4f} s, digest {run['digest']}")
    if a["replicates"]:
        print(f"  process.field_s / summed run_replicate = "
              f"{a['layers']['process.field_s'] / sum(a['op_s']):.4f}")
        print(f"  process.fft_calls per replicate = "
              f"{a['layers']['process.fft_calls'] / a['replicates']:g}")
    print(f"  stable.draw_s / traced wall_s = "
          f"{a['layers']['stable.draw_s'] / a['wall_s']:.4f}")
    return {
        "checks": checks,
        "attempted": sum(run["attempted"] for run in runs.values()),
        "failed": sum(run["failed"] for run in runs.values()),
        "env": plain["env"],
        "digest": plain["digest"],
        "digest_of": plain["digest_of"],
        "config_seed": plain["config_seed"],
        "metrics": layers,
    }


def run_workload(args, workload: str) -> bool:
    start = time.monotonic()
    out = os.path.join(ROOT, ".perfbench_out",
                       f"{workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}")
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    measure = _traced if args.trace else _plain
    res = measure(args, workload, out, start + DEADLINE_S)
    correct = all(res["checks"].values())
    print(f"  config seed {res['config_seed']}; env {json.dumps(res['env'])}")
    for name, value in res["metrics"].items():
        print(f"  {name} = {value:.6g} {UNITS[name]}")
    if not args.trace:
        print(f"  replicate_s samples ({len(res['op_s'])} operations): "
              f"{[round(s, 4) for s in res['op_s']]}")
    print(f"  failed_frac = {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4g}")
    for name, ok in res["checks"].items():
        print(f"  check {'PASS' if ok else 'FAIL'}: {name}")
    print(f"  sha256 of {res['digest_of']} (information only): {res['digest']}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in res["metrics"].items()},
    }))
    return correct


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "lmsmlab", "__init__.py")):
        print(f"no lmsmlab source tree under {ROOT}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        correct = [run_workload(args, name) for name in names]
    except MeasurementFailed as exc:
        print(f"measurement failed: {exc}", file=sys.stderr)
        return 1
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
