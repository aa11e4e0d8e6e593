"""Config round trips, experiment artifacts, determinism and the CLI."""

import filecmp
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from lmsmlab import harness
from lmsmlab.bounds import BoundReport
from lmsmlab.cli import main as cli_main
from lmsmlab.estimators import DegenerateReplicate
from lmsmlab.harness import (
    ConvergenceTable,
    ExperimentConfig,
    fmt17,
    run_experiment,
    run_replicate,
    write_pyramid_csv,
    write_reports,
)
from lmsmlab.process import TruncationError

FAST = dict(
    alpha=1.5,
    hurst_name="constant",
    hurst_params=(0.8,),
    j_range=(4, 6),
    beta=0.25,
    delta=2.0**-11,
    t_tail=4.0,
    path_refine=2,
    v_nodes=8,
    replicates=2,
    seed=314,
)


def test_config_roundtrip_and_hash():
    cfg = ExperimentConfig(**FAST)
    d = cfg.to_dict()
    back = ExperimentConfig.from_dict(json.loads(json.dumps(d)))
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()
    cfg2 = ExperimentConfig(**{**FAST, "seed": 315})
    assert cfg2.config_hash() != cfg.config_hash()


def test_config_hash_names_the_science_only():
    cfg = ExperimentConfig(**FAST)
    elsewhere = ExperimentConfig(**{**FAST, "workers": 2, "out_dir": "/elsewhere"})
    assert elsewhere.config_hash() == cfg.config_hash()
    assert ExperimentConfig(**{**FAST, "seed": 315}).config_hash() != cfg.config_hash()


def test_readme_config_example_is_valid():
    # the README's config block names only fields ExperimentConfig has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig.from_dict(json.loads(block))
    cfg.validate()
    assert cfg.hurst_name == "linear" and cfg.j_range == (8, 10, 12)


@pytest.mark.parametrize(
    "bad",
    [{"v_nodes": 1}, {"path_refine": 0}, {"alpha": 2.5}, {"j_range": (0, 4)}, {"delta": 3e-4},
     {"hurst_params": (0.8,)}, {"interval": (0.2,)}, {"j_range": ()},
     {"j_range": (40,), "delta": None}, {"delta": 2.0**-8}, {"t_tail": 1.0},
     {"hurst_name": "cubic"}, {"hurst_params": 0.8}, {"interval": 0.3}, {"j_range": 12},
     {"replicates": 2.5}, {"v_nodes": 3.5}, {"path_refine": 2.5}, {"workers": 2.5},
     {"workers": True}, {"seed": 1.5}, {"j_range": (4, 6.5)}, {"j_range": (6, 4, 6)},
     {"alpha": "1.5"}, {"beta": "0.25"}, {"t_tail": math.inf}, {"delta": "0.0005"},
     {"t0": math.nan}, {"hurst_params": (0.7, "x")}, {"interval": (0.0, math.nan)},
     {"workers": 0}, {"interval": (0.4, 0.4)}, {"interval": (0.5, 1.2)},
     {"verify_scale_replicates": -4}, {"verify_cov_replicates": 2.5},
     {"verify_cov_replicates": 9_999}, {"out_dir": None}, {"out_dir": ""},
     {"hurst_name": ["linear"]}, {"seed": 2**64 + 80}, {"seed": -1}, {"t_tail": 8.3}],
    ids=["v_nodes=1", "path_refine=0", "alpha=2.5", "j_range=(0,4)", "delta=3e-4",
         "hurst_params=(0.8,)", "interval=(0.2,)", "j_range=()", "j_range=(40,)",
         "delta=2^-8", "t_tail=1", "hurst_name=cubic", "hurst_params=0.8", "interval=0.3",
         "j_range=12", "replicates=2.5", "v_nodes=3.5", "path_refine=2.5", "workers=2.5",
         "workers=True", "seed=1.5", "j_range=(4,6.5)", "j_range=(6,4,6)", "alpha='1.5'",
         "beta='0.25'", "t_tail=inf", "delta='0.0005'", "t0=nan", "hurst_params=(0.7,'x')",
         "interval=(0,nan)", "workers=0", "interval=(0.4,0.4)", "interval=(0.5,1.2)",
         "verify_scale_replicates=-4", "verify_cov_replicates=2.5",
         "verify_cov_replicates=9999", "out_dir=None", "out_dir=''",
         "hurst_name=['linear']", "seed=2^64+80", "seed=-1", "t_tail=8.3"],
)
def test_config_rejects_unusable_mesh_settings(bad):
    # each used to pass validate and fail only inside the replicate (a nan v
    # for one node, a ZeroDivisionError for refine 0, a ValueError from
    # StableLaw, estimate_hmin or make_noise_grid for the next three, a
    # ResolutionError for 8 samples per level-6 cell, a TruncationError for
    # noise on [-1, 1), whose audit bounds the lost alpha-mass of the
    # h_high = 0.85 kernel by 0.29, over the 0.25 limit), to die in validate
    # with an error that named no field (one parameter for the linear H, one
    # interval end, no level, an unknown H kind), or to pass validate and ask
    # for about 9 * 2^44 noise cells (level 40), or to die in validate with a
    # TypeError that named no field (a scalar where a tuple belongs).  The
    # later cases each passed validate, to run silently on int(path_refine)
    # or raise a bare TypeError in the run, or wrote duplicate rows for a
    # repeated level, or died in validate with a TypeError or OverflowError
    # that named no field (a string, a non-finite real), or passed validate
    # to run serially and record a worker count of 0, or passed validate to
    # fail late: a Monte Carlo size that bounds refuses only after the
    # earlier reports of the verify bundle have run, an out_dir that
    # os.makedirs refuses with a TypeError or FileNotFoundError naming no
    # field, or died in validate with a bare TypeError that named no field
    # (an unhashable H kind, as a JSON list), or passed validate to key
    # Philox with the seed mod 2^64 and draw seed 80's or 2^64 - 1's noise
    # under another seed and config_hash (seeds in [0, 2^63) keep seed ^ r
    # and the verify bundle's seed + 3 inside 64 bits).  An empty interval
    # and one leaving [0, 1] must name the field too, and so must a t_tail
    # that is no whole number of noise cells, which the RAM check once
    # refused under j_range and delta; validate only, no replicate runs
    cfg = ExperimentConfig(**{**FAST, "hurst_name": "linear", "hurst_params": (0.7, 0.15),
                              **bad})
    with pytest.raises(ValueError, match=next(iter(bad))):
        cfg.validate()


def test_ram_guard_counts_four_transform_buffers():
    # the field pass holds four transform buffers of min(2, path_refine) rows;
    # the guard's message names them
    cfg = ExperimentConfig(**{**FAST, "j_range": (40,), "delta": None, "path_refine": 8})
    with pytest.raises(ValueError, match="kernel values, next spectrum, current spectrum "
                                         "and convolution, 2 rows each"):
        cfg.validate()


def test_ram_guard_counts_the_interpolants_own_nodes(monkeypatch):
    # a constant H is interpolated over one node whatever v_nodes asks for,
    # so the guard counts that one node; a linear H gets v_nodes
    counted = []
    monkeypatch.setattr(harness, "check_path_memory",
                        lambda t_min, delta, refine, n_nodes: counted.append(n_nodes))
    ExperimentConfig(**{**FAST, "v_nodes": 16}).validate()
    ExperimentConfig(**{**FAST, "v_nodes": 16, "hurst_name": "linear",
                        "hurst_params": (0.7, 0.15)}).validate()
    assert counted == [1, 16]


@pytest.mark.parametrize("bad", [{"hurst_params": 0.8}, {"j_range": 12}],
                         ids=["hurst_params=0.8", "j_range=12"])
def test_config_from_dict_names_a_scalar_list_field(bad):
    # a scalar where a list belongs used to die in tuple() with a TypeError
    # that named no field; validate names it
    with pytest.raises(ValueError, match=next(iter(bad))):
        ExperimentConfig.from_dict(bad).validate()


def test_config_file_refuses_unknown_fields(tmp_path):
    # a misspelt field in a config file used to die in ExperimentConfig's
    # __init__ with a TypeError; from_dict refuses it with a ValueError that
    # names every unknown field, before any config is made
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**ExperimentConfig(**FAST).to_dict(), "alpah": 1.5,
                                    "seeds": 3}))
    with pytest.raises(ValueError, match="unknown config fields: alpah, seeds$"):
        cli_main(["--config", str(cfg_path), "simulate"])


def test_fmt17_roundtrips():
    for x in (0.1, 2.0 ** -37 * 3.1415926, -1.7976931348623157e308, 1e-300):
        assert float(fmt17(x)) == x


def test_experiment_outputs_and_determinism(tmp_path):
    # configs that differ only in out_dir (of different lengths) write
    # byte-identical artifacts, manifest.json included
    out1, out2 = tmp_path / "a", tmp_path / "bbbbbbbb"
    cfg = ExperimentConfig(**{**FAST, "out_dir": str(out1)})
    run_experiment(cfg)
    run_experiment(ExperimentConfig(**{**FAST, "out_dir": str(out2)}))
    for f in ("records.csv", "table.csv", "manifest.json"):
        assert filecmp.cmp(out1 / f, out2 / f, shallow=False)
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert "out_dir" not in manifest["config"]
    assert manifest["config_hash"] == cfg.config_hash()
    assert manifest["config"]["delta"] == cfg.delta
    assert manifest["failed_replicates"] == {}


def test_targets_track_interval_minimum(tmp_path):
    cfg = ExperimentConfig(**{**FAST, "hurst_name": "linear", "hurst_params": (0.7, 0.15),
                              "out_dir": str(tmp_path / "linear")})
    table = run_experiment(cfg)
    for row in table.rows:
        assert row["target_hmin"] == pytest.approx(0.7, abs=1e-6)
    cfg2 = ExperimentConfig(**{**FAST, "out_dir": str(tmp_path / "constant")})
    table2 = run_experiment(cfg2)
    for row in table2.rows:
        assert row["target_hmin"] == pytest.approx(0.8, abs=1e-12)


def test_replicates_are_order_independent():
    cfg = ExperimentConfig(**FAST)
    recs0 = run_replicate(cfg, 0)
    recs1 = run_replicate(cfg, 1)
    recs0_again = run_replicate(cfg, 0)
    assert recs0[0].v_j == recs0_again[0].v_j
    assert recs0[0].v_j != recs1[0].v_j


def test_empty_index_sets_are_flagged(tmp_path):
    # no level-4 or level-6 cell fits inside [0.3, 0.31]
    cfg = ExperimentConfig(**{**FAST, "interval": (0.3, 0.31), "out_dir": str(tmp_path)})
    recs = run_replicate(cfg, 0)
    assert [(rec.j, rec.n_j, rec.flags) for rec in recs] == [
        (4, 0, ["empty_index_set"]), (6, 0, ["empty_index_set"])]
    table = run_experiment(cfg)
    assert [(row["n_j"], row["flagged"]) for row in table.rows] == [(0, 2), (0, 2)]


def test_degenerate_statistics_are_flags_not_failures(tmp_path, monkeypatch):
    def degenerate(*args):
        raise DegenerateReplicate("synthetic degenerate statistic")

    monkeypatch.setattr(harness, "estimate_alpha", degenerate)
    table = run_experiment(ExperimentConfig(**{**FAST, "out_dir": str(tmp_path)}))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["failed_replicates"] == {}
    assert [row["flagged"] for row in table.rows] == [2, 2]
    for rec in run_replicate(ExperimentConfig(**FAST), 0):
        assert rec.flags == ["synthetic degenerate statistic"] and rec.alpha_hat is None
        assert rec.h_hat_corrected is not None
    # a degenerate V_j is flagged before alpha is tried
    monkeypatch.setattr(harness, "corrected_hmin", degenerate)
    for rec in run_replicate(ExperimentConfig(**FAST), 0):
        assert rec.flags == ["synthetic degenerate statistic"] and rec.h_hat_corrected is None


def test_local_mode_has_no_alpha_hat():
    cfg = ExperimentConfig(
        **{**FAST, "interval_mode": "local", "t0": 0.5, "j_range": (5, 6)}
    )
    recs = run_replicate(cfg, 0)
    assert all(rec.alpha_hat is None for rec in recs)
    assert all(rec.n_j >= 1 for rec in recs)


def test_table_row_lookup_and_csv_columns(tmp_path):
    cfg = ExperimentConfig(**{**FAST, "out_dir": str(tmp_path)})
    table = run_experiment(cfg)
    row = table.row(6)
    assert row["n_j"] == 64
    header = (tmp_path / "table.csv").read_text().splitlines()[0]
    assert header == ",".join(ConvergenceTable.COLUMNS)
    with pytest.raises(KeyError):
        table.row(99)


def test_cli_simulate_coeffs_estimate(tmp_path, capsys):
    # experiment prints what the retired estimate command printed, one line
    # per level of j_range in order, and then the manifest's path
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**FAST, "hurst_params": [0.8], "j_range": [4, 6],
                                    "out_dir": str(out)}))
    assert cli_main(["--config", str(cfg_path), "simulate"]) == 0
    assert cli_main(["--config", str(cfg_path), "coeffs"]) == 0
    capsys.readouterr()
    assert cli_main(["--config", str(cfg_path), "experiment"]) == 0
    assert (tmp_path / "out" / "path.csv").exists()
    assert (tmp_path / "out" / "pyramid.csv").exists()
    lines = capsys.readouterr().out.splitlines()
    table = (out / "table.csv").read_text().splitlines()[1:]
    assert len(lines) == 3 and len(table) == 2
    for line, row, j in zip(lines, table, (4, 6)):
        n_j = int(row.split(",")[1])
        assert line.startswith(f"j={j:3d} n_j={n_j:6d} h_hat="), line
        assert line.endswith(" flagged=0"), line
    assert lines[-1] == os.path.join(str(out), "manifest.json")
    with pytest.raises(SystemExit):
        cli_main(["--config", str(cfg_path), "estimate"])
    capsys.readouterr()


def test_cli_writes_replicate_zero(tmp_path, monkeypatch, capsys):
    import lmsmlab.harness as hmod

    cfg = ExperimentConfig(**{**FAST, "out_dir": str(tmp_path / "out")})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert cli_main(["--config", str(cfg_path), "simulate"]) == 0
    assert cli_main(["--config", str(cfg_path), "coeffs"]) == 0
    capsys.readouterr()

    # capture the path and pyramid that the experiment's replicate 0 uses
    seen = {}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]
        monkeypatch.setattr(hmod, name, wrapped)

    spy("simulate_lmsm", hmod.simulate_lmsm)
    spy("build_pyramid", hmod.build_pyramid)
    run_replicate(cfg, 0)

    rows = np.loadtxt(tmp_path / "out" / "path.csv", delimiter=",", comments="#",
                      skiprows=8)
    assert rows.shape[0] == round(cfg.path_refine / cfg.delta) + 1
    assert np.array_equal(rows[:, 0], seen["simulate_lmsm"].times)
    assert np.array_equal(rows[:, 1], seen["simulate_lmsm"].values)
    replicate0 = write_pyramid_csv(seen["build_pyramid"], str(tmp_path / "replicate0"))
    assert filecmp.cmp(tmp_path / "out" / "pyramid.csv", replicate0, shallow=False)


def test_benchmark_trace_hooks_exist(tmp_path):
    # perfbench/run.py --trace 1 wraps these names: one renamed in src/ makes
    # install() raise AttributeError, and a call that leaves harness (or a
    # path audit that no longer goes through process.path_truncation_audit)
    # would silently zero a per-layer metric; each workload's setup builds and
    # validates its config, so a config field the benchmark passes cannot go;
    # one bounds-mc pass (about 3 s) runs the kernel and bound calls the
    # benchmark makes, so a changed signature there fails here too
    root = Path(__file__).resolve().parents[1]
    script = f"""
import json
import tracing
from lmsmlab import harness
import workload
for bench in workload.WORKLOADS.values():
    bench.setup(0, 1.0, {str(tmp_path / "bench")!r})
tracer = tracing.Tracer()
tracing.install(tracer, full=True)
harness.run_replicate(harness.ExperimentConfig(**{FAST!r}), 0)
bounds_mc = workload.WORKLOADS["bounds-mc"]
outcome = bounds_mc.outcome(bounds_mc.timed_call(tracer))
print(json.dumps({{"names": sorted({{span[0] for span in tracer.spans}}),
                  "attempted": outcome["attempted"], "failed": outcome["failed_reports"]}}))
"""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    names = set(result["names"])
    assert {"harness.run_replicate", "process.make_noise_grid", "process.simulate_lmsm",
            "coeffs.build_pyramid", "process.field_on_mesh",
            "process.path_truncation_audit"} <= names
    assert {"bounds.rq_sweep_report", "bounds.phi_decay_report",
            "bounds.covariance_mc_check", "bounds.scale_param_check",
            "wavelet.norm_detail", "wavelet.phi"} <= names
    assert result["attempted"] == 5 and result["failed"] == []


def test_cli_seed_precedence(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**FAST, "hurst_params": [0.8], "j_range": [4],
                                    "out_dir": str(tmp_path / "o1")}))
    monkeypatch.setenv("LMSMLAB_SEED", "777")
    assert cli_main(["--config", str(cfg_path), "experiment"]) == 0
    manifest = json.loads((tmp_path / "o1" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == manifest["seed"] == 777
    # explicit flag beats the environment; the manifest records only the winner
    assert cli_main(["--config", str(cfg_path), "--seed", "9", "--out",
                     str(tmp_path / "o2"), "experiment"]) == 0
    manifest2 = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert manifest2["config"]["seed"] == manifest2["seed"] == 9
    assert "seed_env_override" not in manifest and "seed_env_override" not in manifest2
    capsys.readouterr()


def test_cli_names_a_seed_variable_that_is_not_an_integer(tmp_path, monkeypatch):
    # int("abc") used to fail with "invalid literal for int()", naming no
    # variable; nothing is written
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**FAST, "hurst_params": [0.8], "j_range": [4],
                                    "out_dir": str(tmp_path / "o")}))
    monkeypatch.setenv("LMSMLAB_SEED", "abc")
    with pytest.raises(ValueError, match="LMSMLAB_SEED must be an integer, got 'abc'"):
        cli_main(["--config", str(cfg_path), "experiment"])
    assert not (tmp_path / "o").exists()


def test_cli_verify_exit_status(tmp_path, monkeypatch, capsys):
    import lmsmlab.cli as cli_mod

    good = [BoundReport("a", "g", 1.0, -1.0, True, 0.1)]
    bad = good + [BoundReport("b", "g", 1.0, -1.0, False, 0.1)]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**FAST, "hurst_params": [0.8], "j_range": [4],
                                    "out_dir": str(tmp_path / "v")}))
    monkeypatch.setattr(cli_mod, "run_verification", lambda cfg: good)
    assert cli_main(["--config", str(cfg_path), "verify"]) == 0
    monkeypatch.setattr(cli_mod, "run_verification", lambda cfg: bad)
    assert cli_main(["--config", str(cfg_path), "verify"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("j_range", [(1,), (2,), (4,), (6,)])
def test_verify_reads_integer_cells_inside_the_unit_interval(j_range, monkeypatch):
    # the bounds checks of run_verification read fixed levels, so every
    # cell they read is an integer shift inside [0, 1] whatever the config's
    # levels: at j_max = 6 the decay reports used to read H(2), at j_max = 2
    # the scale check a shift 0.5, and at j_max = 1 the covariance check got
    # no lag.  Recorders stand in for the checks, so no Monte Carlo runs
    cells = []

    def decay(phi, H, j, lags, which):
        cells.append((j, [0, *lags]))

    def covariance(law, phi, H, j, lags, beta, replicates, seed):
        assert lags
        cells.append((j, [max(lags), *(max(lags) + q for q in lags)]))

    def scale(law, phi, H, j, ks, beta, replicates, seed):
        cells.append((j, list(ks)))

    for name, recorder in (("phi_decay_report", decay), ("covariance_mc_check", covariance),
                           ("scale_param_check", scale)):
        monkeypatch.setattr(harness, name, recorder)
    for name in ("rq_sweep_report", "lambda_grid_report", "approx_error_check"):
        monkeypatch.setattr(harness, name, lambda *args, **kwargs: None)
    harness.run_verification(ExperimentConfig(**{**FAST, "hurst_name": "linear",
                                                 "hurst_params": (0.7, 0.15),
                                                 "j_range": j_range}))
    assert len(cells) == 4
    for j, ks in cells:
        assert all(float(k).is_integer() and 0 <= k and (k + 1) * 2.0**-j <= 1 for k in ks)


@pytest.mark.parametrize("workers, name", [(1, "run_replicate"), (2, "build_pyramid")],
                         ids=["workers=1", "workers=2"])
def test_a_bug_in_a_replicate_ends_the_run(workers, name, tmp_path, monkeypatch):
    # a replicate returns its records or raises: a RuntimeError in a serial
    # run's replicate (called through the module global the benchmark wraps)
    # or inside a pool worker (forked from this process, so it sees the
    # patched name) ends run_experiment with that error, and no manifest is
    # written
    def broken(*args):
        raise RuntimeError("synthetic bug")

    monkeypatch.setattr(harness, name, broken)
    cfg = ExperimentConfig(**{**FAST, "workers": workers, "out_dir": str(tmp_path)})
    with pytest.raises(RuntimeError, match="^synthetic bug$"):
        run_experiment(cfg)
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("workers", [1, 2], ids=["workers=1", "workers=2"])
def test_short_noise_domain_is_refused_before_any_replicate(workers, tmp_path, monkeypatch):
    # with noise on [-1, 1) the audit bounds the lost alpha-mass of the
    # H = 0.9 kernel by 0.48, over the 0.25 limit; no noise enters the audit,
    # so every replicate would fail it: validate refuses the config before
    # any noise is drawn, serial or parallel, and simulate_lmsm still checks
    cfg = ExperimentConfig(**{**FAST, "t_tail": 1.0, "hurst_params": (0.9,),
                              "workers": workers, "out_dir": str(tmp_path / "out")})
    with pytest.raises(TruncationError, match="noise domain too short"):
        run_replicate(cfg, 0)
    drawn = []
    monkeypatch.setattr(harness, "make_noise_grid", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="^t_tail=1: noise domain too short"):
        run_experiment(cfg)
    assert drawn == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["kernel transform", "consumer row"])
def test_a_bug_in_the_field_pass_ends_the_run(where, tmp_path, monkeypatch):
    # a RuntimeError in a kernel transform (the pass's helper thread builds
    # the kernel spectra) or in a consumer's residue row (the caller) is a
    # bug, not a failed replicate: run_replicate raises it, run_experiment
    # ends with it and writes no manifest, and the helper is gone either way
    from lmsmlab import process

    owner, attr = (process, "rfft") if where == "kernel transform" else (
        process._Barycentric, "residue")
    real = getattr(owner, attr)
    threads_seen = []

    def failing(*args, **kwargs):
        # the noise transform is the one 1-D rfft; fail on the third kernel
        # transform or residue row, with the pipeline under way
        if where == "consumer row" or np.ndim(args[0]) == 2:
            threads_seen.append(threading.active_count())
            if len(threads_seen) % 3 == 0:
                raise RuntimeError(where)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, failing)
    cfg = ExperimentConfig(**{**FAST, "hurst_name": "linear", "hurst_params": (0.7, 0.15),
                              "out_dir": str(tmp_path)})
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^{where}$"):
        run_replicate(cfg, 0)
    assert threading.active_count() == before
    assert max(threads_seen) == before + 1  # the pass ran its one helper
    with pytest.raises(RuntimeError, match=f"^{where}$"):
        run_experiment(cfg)
    assert threading.active_count() == before
    assert not (tmp_path / "manifest.json").exists()


def test_worker_count_does_not_change_results(tmp_path):
    cfg1 = ExperimentConfig(**{**FAST, "workers": 1, "out_dir": str(tmp_path / "w1")})
    cfg2 = ExperimentConfig(**{**FAST, "workers": 2, "out_dir": str(tmp_path / "w2")})
    run_experiment(cfg1)
    run_experiment(cfg2)
    for f in ("records.csv", "table.csv"):
        assert filecmp.cmp(tmp_path / "w1" / f, tmp_path / "w2" / f, shallow=False)


def test_write_reports_json(tmp_path):
    reports = [BoundReport("x", "grid", 2.0, -1.5, True, 0.2,
                           details={"arr": np.arange(3.0)})]
    fname = write_reports(reports, str(tmp_path))
    data = json.loads(open(fname).read())
    assert data[0]["name"] == "x" and data[0]["details"]["arr"] == [0.0, 1.0, 2.0]
