"""tools/bench_record.py keeps each run's provenance and result lines as
printed and flags a run that is not correct."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _fake_bench(result):
    # stands in for perfbench/run.py: the workload flags land in sys.argv
    return [sys.executable, "-c",
            "print('workload x'); print('provenance {\"commit\": \"c\"}'); "
            f"print('table'); print({json.dumps(result)!r})"]


def test_a_run_keeps_its_provenance_and_result_lines_verbatim():
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}
    run = bench_record.record("verify", 1, _fake_bench(result), 20)
    assert run == {
        "exit_status": 0,
        "provenance": 'provenance {"commit": "c"}',
        "result": json.dumps(result),
    }
    assert bench_record.correct(run)


def test_an_incorrect_or_broken_run_is_flagged():
    assert not bench_record.correct(
        bench_record.record("verify", 1, _fake_bench({"correct": False}), 20))
    assert not bench_record.correct({"exit_status": 0, "provenance": None, "result": None})
    assert not bench_record.correct({"exit_status": 2, "provenance": None, "result": "oops"})
