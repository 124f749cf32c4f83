"""Benchmark for reduction-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; it needs nothing
installed beyond what the package itself needs. Each workload goes through
the `reduction-lab` CLI (`python -m reduction_lab.cli`) in a child process,
one child at a time, and the seed is passed to the CLI as `--seed`
(`verify` has fixed internal seeds and takes none).

--trace 0  times the workload: set-up probes, then repeated runs of the
           same input for --seconds; prints the end-to-end metrics.
--trace 1  runs the workload untraced and under the span tracer, three
           interleaved pairs (ensembles with more than one thread also once
           traced at one thread); prints the per-layer metrics and the
           tracing overhead.

Every run's outputs are checked; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

from layers import Spans, layer_metrics, load_traces
from runner import ROOT, SETUP_PROBE, SRC, child_env, file_digests, launch, provenance, scratch_dir
from workloads import (
    WORKLOADS,
    check_outputs,
    criterion_runtimes,
    sde_gap,
    stable_stdout,
    t0_se_max,
    verdicts,
)

SETUP_PER_ROUND = 6   # set-up probes before each timed run; setup_s is their median
OVERHEAD_PAIRS = 3    # untraced/traced pairs of runs behind trace.overhead_s
RUN_BUDGET_S = 170    # every child is killed once the run has taken this long;
                      # a run the budget cuts short of --seconds is not correct


class Rep:
    """One checked run of a workload's CLI command."""

    def __init__(self, workload, child, out_dir):
        self.child = child
        self.problems = []
        if child.timed_out:
            self.problems.append("timed out")
        elif not workload.ok_status(child.status):
            self.problems.append(f"exit status {child.status}: {child.stderr.strip()[-400:]}")
        else:
            try:
                self.problems += check_outputs(workload, out_dir, child.stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.problems.append(f"output check raised {exc!r}")
        self.fingerprint = (
            file_digests(out_dir, workload.output_files()),
            stable_stdout(child.stdout),
        )
        self.verdicts_failed = sum(not ok for ok in verdicts(workload, child.stdout).values())
        self.sde_gap = sde_gap(child.stdout)
        self.t0_se = t0_se_max(out_dir) if workload.is_ensemble and self.ok else None

    @property
    def ok(self):
        return not self.problems


def run_once(workload, seed, cwd, threads, deadline, trace_dir=None) -> Rep:
    os.makedirs(cwd)
    if workload.config is not None:
        with open(os.path.join(cwd, "run.json"), "w") as handle:
            json.dump(workload.config, handle)
    args = ["-m", "reduction_lab.cli", *workload.argv(seed, "run.json", "out")]
    child = launch(args, child_env(threads, trace_dir), cwd, deadline - time.perf_counter())
    return Rep(workload, child, os.path.join(cwd, "out"))


class SetupProbe:
    """Times what a user pays before any path runs (see setup_probe.py)."""

    def __init__(self, workload, work):
        self.cwd = os.path.join(work, "setup")
        os.makedirs(self.cwd)
        self.args = [SETUP_PROBE]
        if workload.config is not None:
            with open(os.path.join(self.cwd, "run.json"), "w") as handle:
                json.dump(workload.config, handle)
            self.args.append("run.json")
        self.env = child_env(workload.threads)
        self.walls, self.problems = [], []

    def run(self, deadline, count=1, keep=True):
        for _ in range(count):
            child = launch(self.args, self.env, self.cwd, deadline - time.perf_counter())
            if child.status != 0:
                self.problems.append(
                    f"set-up probe exit {child.status}: {child.stderr.strip()[-400:]}")
            elif keep:
                self.walls.append(child.wall_s)


def summarize(values, better="lower"):
    """Median, and the worst value that still has at least ten samples
    beyond it (None below eleven samples), with the sample count."""
    ordered = sorted(values, reverse=(better == "higher"))
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = (100.0 * (n - 10) / n, ordered[n - 11])
    return statistics.median(ordered), tail, n


def fmt_value(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def load_contract() -> dict:
    """BENCHMARK.json: the metric names, units and directions to report."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def measure(workload, seed, seconds, work, end_to_end) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    setup = SetupProbe(workload, work)
    setup.run(deadline, keep=False)        # fills the byte-code cache

    reps = []
    problems = []
    started = time.perf_counter()
    while not reps or time.perf_counter() - started < seconds:
        if reps and time.perf_counter() + reps[-1].child.wall_s * 1.5 > deadline:
            problems.append(f"the {RUN_BUDGET_S} s run budget ended the runs after "
                            f"{time.perf_counter() - started:.1f} s of the {seconds} s asked")
            break
        setup.run(deadline, SETUP_PER_ROUND)
        cwd = os.path.join(work, f"rep-{len(reps)}")
        rep = run_once(workload, seed, cwd, workload.threads, deadline)
        if reps and rep.ok and rep.fingerprint != reps[0].fingerprint:
            rep.problems.append("outputs differ from the first run of the same seed")
        reps.append(rep)
        shutil.rmtree(cwd)
        status = "ok" if rep.ok else "FAILED: " + "; ".join(rep.problems)
        print(f"run {len(reps)}: wall {rep.child.wall_s:.4f} s, peak rss "
              f"{rep.child.peak_rss_mb:.1f} MB, exit {rep.child.status}, "
              f"verdicts failed {rep.verdicts_failed}, {status}", flush=True)

    good = [r for r in reps if r.ok] or reps
    samples = {
        "wall_s": [r.child.wall_s for r in good],
        "setup_s": setup.walls,
        "peak_rss_mb": [r.child.peak_rss_mb for r in good],
        "points_per_s": [workload.points / r.child.wall_s for r in good],
    }
    failed = sum(not r.ok for r in reps)
    problems += setup.problems
    print(f"{'metric':<16} {'median':>12} {'tail':>22} {'n':>4}  unit")
    metrics = {}
    for spec in end_to_end:
        name, unit = spec["name"], spec["unit"]
        if not samples[name]:
            problems.append(f"no samples for {name}")
            continue
        median, tail, n = summarize(samples[name], spec["better"])
        tail_text = f"p{tail[0]:.0f} {tail[1]:.6g}" if tail else "n/a (n < 11)"
        print(f"{name:<16} {median:>12.6g} {tail_text:>22} {n:>4}  {unit}")
        metrics[name] = {"value": median, "unit": unit}
    gaps = {r.sde_gap for r in good}
    print(f"{'verdicts_failed':<16} {fmt_value(good[0].verdicts_failed):>12} "
          f"(every run: {sorted({r.verdicts_failed for r in good})})  count")
    print(f"{'sde_max_gap':<16} {fmt_value(good[0].sde_gap):>12} "
          f"(every run: {sorted(gaps) if None not in gaps else 'n/a'})  1")
    if workload.is_ensemble:
        print(f"{'t0_se_max':<16} {fmt_value(good[0].t0_se):>12} (largest t = 0 standard "
              f"error in summary.csv; 0 in exact arithmetic)  1")
    print(f"{'error_rate':<16} {failed / len(reps):>12.6g} ({failed} of {len(reps)} runs)  1")
    for problem in problems:
        print(f"problem: {problem}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }


def trace(workload, seed, work, per_layer) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    SetupProbe(workload, work).run(deadline, keep=False)   # fills the byte-code cache
    modes = []
    for pair in range(OVERHEAD_PAIRS):
        modes += [(f"untraced-{pair}", workload.threads, False),
                  (f"traced-{pair}", workload.threads, True)]
    if workload.is_ensemble and workload.threads > 1:
        modes.append(("traced_1t", 1, True))
    runs = {}
    traces = {}
    for label, threads, traced in modes:
        trace_dir = os.path.join(work, f"{label}-spans") if traced else None
        if trace_dir:
            os.makedirs(trace_dir)
        rep = run_once(workload, seed, os.path.join(work, label), threads, deadline, trace_dir)
        if runs and rep.ok and rep.fingerprint != runs["untraced-0"].fingerprint:
            rep.problems.append(f"{label} outputs differ from the first untraced run")
        if traced:
            traces[label] = load_traces(trace_dir)
            if not traces[label]:
                rep.problems.append("the traced run left no span totals")
        runs[label] = rep
        shutil.rmtree(os.path.join(work, label))
        status = "ok" if rep.ok else "FAILED: " + "; ".join(rep.problems)
        print(f"{label} ({threads} thread{'s' if threads > 1 else ''}): wall "
              f"{rep.child.wall_s:.4f} s, cpu {rep.child.cpu_s:.4f} s, {status}", flush=True)

    # the tracer's cost: child CPU time traced minus untraced, per interleaved
    # pair so that slow drift of the machine cancels, and the median pair
    extra_cpu = [runs[f"traced-{pair}"].child.cpu_s - runs[f"untraced-{pair}"].child.cpu_s
                 for pair in range(OVERHEAD_PAIRS)]
    print("trace overhead per pair (cpu s): " + ", ".join(f"{x:+.4f}" for x in extra_cpu))
    spans = Spans(traces["traced-0"])
    serial = Spans(traces.get("traced_1t", traces["traced-0"]))
    metrics = layer_metrics(spans, serial, workload.threads)
    base, traced_run = runs["untraced-0"], runs["traced-0"]
    metrics["trace.overhead_s"] = (statistics.median(extra_cpu), "s")
    serial_run = runs.get("traced_1t")
    metrics["harness.scaling_2t"] = (
        serial_run.child.wall_s / traced_run.child.wall_s if serial_run else None, "ratio")
    metrics["acceptance.reported_gap_s"] = (
        base.child.wall_s - sum(criterion_runtimes(base.child.stdout))
        if workload.command == "verify" else None, "s")
    metrics["verdicts_failed"] = (base.verdicts_failed, "count")
    processes = len(traces["traced-0"])
    expected = 1 + metrics["acceptance.child_processes"][0]
    if processes != expected:
        traced_run.problems.append(f"span totals from {processes} processes, expected {expected}")
    # the work count behind points_per_s, as the trace counts it
    work_metric = "dynamics.sme_steps" if workload.command == "simulate" else "harness.points"
    counted = metrics[work_metric][0]
    if counted != workload.points:
        traced_run.problems.append(f"traced work {counted} != points_per_s work {workload.points}")

    for name, (value, unit) in sorted(metrics.items()):
        print(f"layer {name:<44} {fmt_value(value):>14}  {unit}")
    reported = {}
    for spec in per_layer:
        value, unit = metrics.get(spec["name"], (None, None))
        if value is None or unit != spec["unit"]:
            traced_run.problems.append(f"per-layer metric {spec['name']}: {value} {unit}")
        reported[spec["name"]] = {"value": value, "unit": spec["unit"]}
    failed = sum(not r.ok for r in runs.values())
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": reported}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "reduction_lab", "cli.py")):
        print(f"error: no reduction_lab package under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.command}, seed {args.seed}, "
          f"REDUCTION_LAB_THREADS={workload.threads}, points {workload.points}")
    print("provenance " + json.dumps(provenance(), sort_keys=True), flush=True)
    contract = load_contract()
    with scratch_dir(f"{workload.name}-") as work:
        if args.trace:
            result = trace(workload, args.seed, work, contract["per_layer"])
        else:
            result = measure(workload, args.seed, args.seconds, work, contract["end_to_end"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
