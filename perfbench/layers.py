"""Per-layer metrics from the span totals that traced children write.

A traced workload run leaves one `trace-<pid>.json` per traced process
(for `verify`, its criterion-9 CLI children too); the metrics sum over all
of them. Self time is a span's duration minus the traced calls it made on
the same thread.
"""

from __future__ import annotations

import glob
import json
import os

from workloads import ALL_CHECKS

def load_traces(trace_dir: str) -> list:
    reports = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.json"))):
        with open(path) as handle:
            reports.append(json.load(handle))
    return reports


class Spans:
    """Span totals summed over processes and threads, by span name."""

    def __init__(self, reports: list):
        self.entries = {}
        # the wrappers' own cost: each process's calibrated cost per call
        # times the traced calls it made
        self.wrapper_s = sum(
            report["wrapper_s_per_call"] * sum(span["calls"] for span in report["spans"])
            for report in reports)
        for report in reports:
            for span in report["spans"]:
                self.entries.setdefault(span["name"], []).append({**span, "pid": report["pid"]})

    def calls(self, name) -> int:
        return sum(s["calls"] for s in self.entries.get(name, ()))

    def total(self, *names) -> float:
        return sum(s["total_s"] for n in names for s in self.entries.get(n, ()))

    def self_time(self, *names) -> float:
        return sum(s["self_s"] for n in names for s in self.entries.get(n, ()))

    def layer_self(self, layer: str) -> float:
        return self.self_time(*(n for n in self.entries if n.split(".")[0] == layer))

    def sum(self, name, key) -> float:
        return sum(s["sums"].get(key, 0) for s in self.entries.get(name, ()))

    def max(self, name, key) -> float:
        return max((s["max"].get(key, 0) for s in self.entries.get(name, ())), default=0)

    def worker_total(self, name) -> float:
        return sum(s["total_s"] for s in self.entries.get(name, ()) if not s["main_thread"])

    def threads(self, name) -> int:
        """Most threads that ran the span within one process."""
        per_process = {}
        for s in self.entries.get(name, ()):
            per_process.setdefault(s["pid"], set()).add(s["tid"])
        return max(map(len, per_process.values()), default=0)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else None


def layer_metrics(spans: Spans, serial: Spans, threads: int) -> dict:
    """All per-layer metrics: {name: (value or None, unit)}.

    `spans` comes from the run at the workload's thread count, `serial`
    from the same workload traced at one thread, where every harness span
    runs on the main thread and its self time is unambiguous.
    """
    m = {}
    m["cli.self_s"] = (spans.self_time("cli.main"), "s")
    m["trace.wrapper_s"] = (spans.wrapper_s, "s")
    m["config.parse_s"] = (spans.total("config.parse_config"), "s")
    m["spectral.decompose_s"] = (spans.total("spectral.spectral_decompose"), "s")
    m["spectral.moments_calls"] = (spans.calls("spectral.moments"), "count")
    m["spectral.moments_us"] = (
        _ratio(spans.self_time("spectral.moments"), spans.calls("spectral.moments"), 1e6), "us")
    m["spectral.offdiag_norms_us"] = (
        _ratio(spans.self_time("spectral.offdiag_norms"),
               spans.calls("spectral.offdiag_norms"), 1e6), "us")

    sme_steps = spans.calls("dynamics.sme_step")
    rk4_steps = spans.sum("dynamics.integrate_lindblad", "steps")
    m["dynamics.self_s"] = (spans.layer_self("dynamics"), "s")
    m["dynamics.sme_steps"] = (sme_steps, "count")
    m["dynamics.sme_step_us"] = (
        _ratio(spans.self_time("dynamics.sme_step"), sme_steps, 1e6), "us")
    m["dynamics.simulate_sme_self_us_per_step"] = (
        _ratio(spans.self_time("dynamics.simulate_sme"),
               spans.sum("dynamics.simulate_sme", "steps"), 1e6), "us")
    m["dynamics.rk4_steps"] = (rk4_steps, "count")
    m["dynamics.rk4_us_per_step"] = (
        _ratio(spans.self_time("dynamics.integrate_lindblad"), rk4_steps, 1e6), "us")

    for name in ("posterior", "phi"):
        span = f"filtering.{name}"
        m[f"filtering.{name}_s"] = (spans.self_time(span), "s")
        m[f"filtering.{name}_ns_per_point"] = (
            _ratio(spans.self_time(span), spans.sum(span, "points"), 1e9), "ns")
    m["filtering.moments_s"] = (
        spans.self_time("filtering.energy", "filtering.variance", "filtering.purity"), "s")
    m["filtering.assemble_calls"] = (spans.calls("filtering.assemble"), "count")
    m["filtering.assemble_s"] = (spans.self_time("filtering.assemble"), "s")
    m["filtering.block_mb_computed"] = (
        spans.max("filtering.posterior", "block_bytes") / 1e6, "MB")
    scalar = ("filtering.closed_form_state", "filtering.state_decomposition")
    scalar_calls = sum(spans.calls(n) for n in scalar)
    m["filtering.scalar_calls"] = (scalar_calls, "count")
    m["filtering.scalar_us_per_call"] = (_ratio(spans.total(*scalar), scalar_calls, 1e6), "us")
    m["filtering.closed_form_trajectory_s"] = (
        spans.total("filtering.closed_form_trajectory"), "s")
    m["filtering.recovered_brownian_s"] = (spans.total("filtering.recovered_brownian"), "s")

    run_s = spans.total("harness.run_ensemble")
    harness_self = serial.self_time("harness.run_ensemble", "harness.chunk")
    m["harness.run_ensemble_s"] = (run_s, "s")
    m["harness.self_s"] = (harness_self, "s")
    m["harness.self_ns_per_point"] = (
        _ratio(harness_self, serial.sum("harness.chunk", "points"), 1e9), "ns")
    checks = [f"harness.check.{name}" for name in ALL_CHECKS]
    m["harness.checks_s"] = (spans.total(*checks), "s")
    for name in ALL_CHECKS:
        m[f"harness.check.{name}_s"] = (spans.total(f"harness.check.{name}"), "s")
    m["harness.chunks"] = (spans.calls("harness.chunk"), "count")
    m["harness.threads"] = (spans.threads("harness.chunk"), "count")
    m["harness.points"] = (spans.sum("harness.chunk", "points"), "count")
    m["harness.worker_busy_ratio"] = (
        _ratio(spans.worker_total("harness.chunk"), threads * run_s) if threads > 1 else None,
        "ratio")

    rows = spans.sum("reporting.write_csv", "rows")
    m["reporting.write_csv_s"] = (spans.total("reporting.write_csv"), "s")
    m["reporting.csv_rows"] = (rows, "count")
    m["reporting.csv_mb"] = (spans.sum("reporting.write_csv", "bytes") / 1e6, "MB")
    m["reporting.csv_ns_per_value"] = (
        _ratio(spans.self_time("reporting.write_csv"),
               spans.sum("reporting.write_csv", "values"), 1e9), "ns")
    m["reporting.columns_s"] = (
        spans.total("reporting.summary_columns", "reporting.trajectory_columns"), "s")
    m["reporting.summary_json_s"] = (spans.total("reporting.write_summary_json"), "s")

    for n in range(1, 11):
        m[f"acceptance.criterion_{n}_s"] = (spans.total(f"acceptance.criterion_{n}"), "s")
    for tag in "abc":
        m[f"acceptance.ensemble_{tag}_s"] = (spans.total(f"acceptance.ensemble_{tag}"), "s")
    m["acceptance.child_processes"] = (spans.calls("acceptance.run_cli"), "count")
    return m
