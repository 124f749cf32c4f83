"""Command-line surface.

Subcommands:
  simulate   one trajectory, path 0 of the ensemble with the same seed: its
             level and its Brownian increments, a plain array -> CSV (t,
             H_t, V_t, purity, xi, W, pi_r, |R_nm|); --mode sde and both
             integrate the SDE on those increments, print its gap to the
             closed form, and its time and repair count on stderr
  ensemble   Monte Carlo run -> summary JSON + per-time CSV of means/stderrs
  lindblad   exact ensemble mean state -> CSV of matrix entries
  verify     built-in verification suite; nonzero exit on any failure

REDUCTION_LAB_THREADS caps ensemble parallelism; outputs are byte-identical
for a fixed seed regardless of its value.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import acceptance
from .config import MODES, RunConfig, parse_config
from .dynamics import sample_noise
from .errors import ReductionLabError
from .filtering import closed_form_trajectory, sde_gap
from .harness import path_rngs, run_ensemble
from .reporting import (
    lindblad_columns,
    summary_columns,
    trajectory_columns,
    write_csv,
    write_summary_json,
)


def _load_config(args) -> RunConfig:
    if not args.config:
        raise ReductionLabError("--config PATH is required for this command")
    overrides = {"seed": args.seed, "n_paths": args.paths, "output_dir": args.out,
                 "mode": getattr(args, "mode", None)}
    if getattr(args, "checks", None):
        overrides["checks"] = [n.strip() for n in args.checks.split(",") if n.strip()]
    with open(args.config) as handle:
        return parse_config(handle.read(),
                            **{k: v for k, v in overrides.items() if v is not None})


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    model, grid = cfg.resolve()
    # every mode follows path 0 of an ensemble with the same seed: the SDE
    # integrates the Brownian increments recovered from its closed form
    rng = path_rngs(cfg.seed, 0, 1)[0]
    level = model.draw_level(rng.random())
    traj = closed_form_trajectory(model, grid, level, sample_noise(grid, rng))
    if cfg.mode != "closed-form":
        start = time.perf_counter()
        sde, gap = sde_gap(model, traj)
        elapsed = time.perf_counter() - start
        print(f"max |integrated - closed form| over the grid: {gap.max():.3e}")
        print(f"sde: {grid.n_steps} steps in {elapsed:.2f} s "
              f"({1e6 * elapsed / grid.n_steps:.1f} us/step)", file=sys.stderr)
        print(f"sde repairs: {sde.repairs} of {grid.n_steps} steps", file=sys.stderr)
        if cfg.mode == "sde":
            traj = sde

    out = _out_path(cfg, "trajectory.csv")
    write_csv(out, trajectory_columns(traj, model.spec))
    print(f"wrote {out} ({grid.n_steps + 1} rows)")
    return 0


def cmd_ensemble(args) -> int:
    cfg = _load_config(args)
    summary = run_ensemble(cfg)

    # the echo describes the run, not where its files land: output paths
    # stay out so reruns into different directories stay byte-identical
    echo = cfg.to_dict()
    echo.pop("output", None)
    json_path = _out_path(cfg, "summary.json")
    write_summary_json(json_path, summary, config_echo=echo)
    csv_path = _out_path(cfg, "summary.csv")
    write_csv(csv_path, summary_columns(summary))

    failed = [name for name, v in summary.checks.items() if not v.passed]
    for name, verdict in summary.checks.items():
        status = "pass" if verdict.passed else "FAIL"
        print(
            f"check {name}: {status} (statistic {verdict.statistic:.4g}, "
            f"threshold {verdict.threshold:.4g})"
        )
    print(f"wrote {json_path} and {csv_path}")
    return 1 if failed else 0


def cmd_lindblad(args) -> int:
    cfg = _load_config(args)
    model, grid = cfg.resolve()
    out = _out_path(cfg, "lindblad.csv")
    write_csv(out, lindblad_columns(model.mean_state(grid.times()), grid))
    print(f"wrote {out} ({grid.n_steps + 1} rows)")
    return 0


def cmd_verify(args) -> int:
    results = acceptance.run_all()
    width = max(len(r.claim) for r in results)
    print(f"{'#':>2}  {'claim':<{width}}  verdict  runtime")
    failures = 0
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{r.number:>2}  {r.claim:<{width}}  {verdict:<7}  {r.runtime_s:7.2f}s")
        print(f"      measured : {r.measured}")
        print(f"      threshold: {r.threshold}")
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reduction-lab",
        description="Energy-driven quantum state reduction: simulation and "
        "statistical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode=False, checks=False):
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        p.add_argument("--paths", type=int, default=None, help="override n_paths")
        p.add_argument("--out", default=None, help="override output directory")
        if mode:
            p.add_argument("--mode", choices=MODES, default=None,
                           help="trajectory source")
        if checks:
            p.add_argument("--checks", default=None,
                           help="comma-separated subset of checks to run")

    common(sub.add_parser("simulate", help="write one trajectory CSV"), mode=True)
    common(sub.add_parser("ensemble", help="run a Monte Carlo ensemble"), checks=True)
    common(sub.add_parser("lindblad", help="write the exact ensemble mean state"))
    sub.add_parser("verify", help="run the built-in verification suite")
    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "ensemble": cmd_ensemble,
    "lindblad": cmd_lindblad,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReductionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
