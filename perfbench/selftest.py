"""Self-test of the benchmark against the repository's hard contract.

    python3 perfbench/selftest.py

A reduced ensemble_fine (2 048 paths in four chunks, same grid) must write
byte-identical summary.json and summary.csv at REDUCTION_LAB_THREADS 1 and
2, traced and untraced: the thread count does not change outputs, and
neither does the span tracer. Exits 0 when all four runs agree and pass
their output checks.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time

from run import run_once
from runner import scratch_dir
from workloads import WORKLOADS


SEED = 0


def main() -> int:
    fine = WORKLOADS["ensemble_fine"]
    reduced = dataclasses.replace(fine, config={**fine.config, "n_paths": 2048})

    deadline = time.perf_counter() + 170
    runs = {}
    with scratch_dir("selftest-") as work:
        for threads in (1, 2):
            for traced in (False, True):
                label = f"{'traced' if traced else 'untraced'}, {threads} thread(s)"
                cwd = os.path.join(work, f"{threads}-{int(traced)}")
                trace_dir = cwd + "-spans" if traced else None
                if trace_dir:
                    os.makedirs(trace_dir)
                runs[label] = run_once(reduced, SEED, cwd, threads, deadline, trace_dir)
                if traced and not os.listdir(trace_dir):
                    runs[label].problems.append("no span totals written")

    reference = next(iter(runs.values())).fingerprint
    ok = True
    for label, rep in runs.items():
        same = rep.fingerprint == reference
        ok = ok and same and rep.ok
        print(f"{label:<26} wall {rep.child.wall_s:7.3f} s  "
              f"{'identical' if same else 'DIFFERENT'}  "
              f"{'ok' if rep.ok else '; '.join(rep.problems)}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
