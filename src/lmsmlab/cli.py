"""Command line front end: simulate, coeffs, experiment, verify.

``simulate`` and ``coeffs`` write replicate 0 of the configured experiment:
the same path and pyramid that ``run_replicate(config, 0)`` computes.
``experiment`` prints one line per level, then the manifest's path.

Seed precedence: --seed flag, then the LMSMLAB_SEED environment variable,
then the config file; whichever wins is echoed in the output manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .harness import (
    ExperimentConfig,
    replicate_path,
    replicate_pyramid,
    run_experiment,
    run_verification,
    write_path_csv,
    write_pyramid_csv,
    write_reports,
)


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def _resolve(args) -> ExperimentConfig:
    cfg = _load_config(args.config)
    updates = {}
    env_seed = os.environ.get("LMSMLAB_SEED")
    if env_seed is not None:
        try:
            updates["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"LMSMLAB_SEED must be an integer, got {env_seed!r}") from None
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.workers is not None:
        updates["workers"] = args.workers
    if args.out is not None:
        updates["out_dir"] = args.out
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    cfg.validate()
    return cfg


def cmd_simulate(args) -> int:
    cfg = _resolve(args)
    print(write_path_csv(replicate_path(cfg, 0), cfg.out_dir))
    return 0


def cmd_coeffs(args) -> int:
    cfg = _resolve(args)
    print(write_pyramid_csv(replicate_pyramid(cfg, 0), cfg.out_dir))
    return 0


def cmd_experiment(args) -> int:
    cfg = _resolve(args)
    for row in run_experiment(cfg).rows:
        print(
            f"j={row['j']:3d} n_j={row['n_j']:6d} "
            f"h_hat={row['h_mean']!s:>22} corrected={row['h_corr_mean']!s:>22} "
            f"target={row['target_hmin']:.6f} flagged={row['flagged']}"
        )
    print(os.path.join(cfg.out_dir, "manifest.json"))
    return 0


def cmd_verify(args) -> int:
    cfg = _resolve(args)
    reports = run_verification(cfg)
    fname = write_reports(reports, cfg.out_dir)
    width = max(len(rep.name) for rep in reports)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{rep.name:<{width}}  {status}  witnessed={rep.witnessed_constant:.6g}  "
            f"exponent={rep.bound_exponent:.4f}"
        )
    print(fname)
    return 0 if all(rep.passed for rep in reports) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lmsmlab",
        description="Simulation and wavelet inference for multifractional stable motion",
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--workers", type=int, default=None, help="worker processes")
    parser.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("simulate", cmd_simulate),
        ("coeffs", cmd_coeffs),
        ("verify", cmd_verify),
        ("experiment", cmd_experiment),
    ):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
