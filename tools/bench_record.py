"""Record one timed benchmark pass of every workload into a JSON file.

    python3 tools/bench_record.py --seed N --out BENCH_<tag>.json

Runs `perfbench/run.py --workload W --seed N --seconds S --trace 0` for each
workload that BENCHMARK.json declares, one after another, with the command
and the seconds (`run_seconds`) it declares. For each run the file keeps
the `provenance` line and the final result line exactly as printed, so a
later change can be held against the same numbers. Exits 1 if a run exits
nonzero or its result is not correct; the file is written either way.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record(workload: str, seed: int, command: list, seconds: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    provenance = next((line for line in lines if line.startswith("provenance ")), None)
    return {
        "exit_status": proc.returncode,
        "provenance": provenance,
        "result": lines[-1] if lines else None,
    }


def correct(run: dict) -> bool:
    try:
        return run["exit_status"] == 0 and json.loads(run["result"])["correct"] is True
    except (TypeError, ValueError, KeyError):
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    command = [sys.executable if word == "python3" else word for word in contract["command"]]
    seconds = contract["run_seconds"]
    runs = {}
    for workload in (w["name"] for w in contract["workloads"]):
        print(f"{workload} ...", file=sys.stderr, flush=True)
        runs[workload] = record(workload, args.seed, command, seconds)
    with open(args.out, "w") as handle:
        json.dump({"seed": args.seed, "seconds": seconds, "trace": 0, "runs": runs},
                  handle, indent=2)
        handle.write("\n")
    failed = [name for name, run in runs.items() if not correct(run)]
    if failed:
        print(f"not correct: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
