"""Spans around the public functions of each reduction_lab module.

`install` imports the package, replaces every traced function by a wrapper
in each namespace that holds it (names bound by `from ... import` at import
time included), and writes the per-process totals to
`<trace dir>/trace-<pid>.json` when the interpreter exits. The program's
own files are not edited and its outputs do not change.

Spans nest per thread: a span's self time is its duration minus the
durations of the traced calls it made on the same thread. Totals are kept
per (span name, thread), so work on ensemble worker threads stays apart
from the main thread that waits for it.
"""

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time

_clock = time.perf_counter


def _points(xi):
    return int(getattr(xi, "size", 1))


def _posterior_attrs(args, result):
    model, xi = args[0], args[2]
    points = _points(xi)
    return {"points": points}, {"block_bytes": points * model.spec.d * 8}


def _phi_attrs(args, result):
    return {"points": _points(args[2])}, None


def _chunk_attrs(args, result):
    times, lo, hi = args[2], args[4], args[5]
    return {"points": (hi - lo) * len(times)}, None


def _grid_steps(position):
    def attrs(args, result):
        return {"steps": args[position].n_steps}, None
    return attrs


def _csv_attrs(args, result):
    path, columns = args[0], args[1]
    rows = len(next(iter(columns.values()))) if columns else 0
    return {
        "rows": rows,
        "values": rows * len(columns),
        "bytes": os.path.getsize(path),
    }, None


# (module, attribute path, span name, attribute function)
TRACED = (
    ("config", "parse_config", "config.parse_config", None),
    ("spectral", "spectral_decompose", "spectral.spectral_decompose", None),
    ("spectral", "moments", "spectral.moments", None),
    ("spectral", "offdiag_norms", "spectral.offdiag_norms", None),
    ("dynamics", "sme_step", "dynamics.sme_step", None),
    ("dynamics", "simulate_sme", "dynamics.simulate_sme", _grid_steps(4)),
    ("dynamics", "integrate_lindblad", "dynamics.integrate_lindblad", _grid_steps(4)),
    ("filtering", "FilterModel.__init__", "filtering.FilterModel", None),
    ("filtering", "FilterModel.posterior", "filtering.posterior", _posterior_attrs),
    ("filtering", "FilterModel.phi", "filtering.phi", _phi_attrs),
    ("filtering", "FilterModel.energy", "filtering.energy", None),
    ("filtering", "FilterModel.variance", "filtering.variance", None),
    ("filtering", "FilterModel.purity", "filtering.purity", None),
    ("filtering", "FilterModel.assemble", "filtering.assemble", None),
    ("filtering", "closed_form_trajectory", "filtering.closed_form_trajectory", None),
    ("filtering", "recovered_brownian", "filtering.recovered_brownian", None),
    ("filtering", "closed_form_state", "filtering.closed_form_state", None),
    ("filtering", "state_decomposition", "filtering.state_decomposition", None),
    ("harness", "run_ensemble", "harness.run_ensemble", None),
    ("harness", "_run_chunk", "harness.chunk", _chunk_attrs),
    ("reporting", "write_csv", "reporting.write_csv", _csv_attrs),
    ("reporting", "summary_columns", "reporting.summary_columns", None),
    ("reporting", "trajectory_columns", "reporting.trajectory_columns", None),
    ("reporting", "write_summary_json", "reporting.write_summary_json", None),
    ("acceptance", "ensemble_a", "acceptance.ensemble_a", None),
    ("acceptance", "ensemble_b", "acceptance.ensemble_b", None),
    ("acceptance", "ensemble_c", "acceptance.ensemble_c", None),
    ("acceptance", "_run_cli", "acceptance.run_cli", None),
    ("acceptance", "criterion_oracle_equivalence", "acceptance.criterion_1", None),
    ("acceptance", "criterion_born", "acceptance.criterion_2", None),
    ("acceptance", "criterion_terminal_moments", "acceptance.criterion_3", None),
    ("acceptance", "criterion_variance_decay", "acceptance.criterion_4", None),
    ("acceptance", "criterion_lindblad_mean", "acceptance.criterion_5", None),
    ("acceptance", "criterion_decoherence", "acceptance.criterion_6", None),
    ("acceptance", "criterion_luders", "acceptance.criterion_7", None),
    ("acceptance", "criterion_internal_consistency", "acceptance.criterion_8", None),
    ("acceptance", "criterion_determinism", "acceptance.criterion_9", None),
    ("acceptance", "criterion_negative_controls", "acceptance.criterion_10", None),
)


class Tracer:
    """Per-process span totals, keyed by (span name, thread id)."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.totals = {}
        self.main_thread = threading.get_ident()

    def stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack()
            stack.append([0.0])
            started = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - started
                children = stack.pop()[0]
                if stack:
                    stack[-1][0] += duration
            sums, maxima = attrs(args, result) if attrs else (None, None)
            self.record(name, threading.get_ident(), duration, duration - children,
                        sums, maxima)
            return result

        return traced

    def record(self, name, tid, duration, self_time, sums=None, maxima=None):
        with self._lock:
            entry = self.totals.get((name, tid))
            if entry is None:
                entry = self.totals[(name, tid)] = {
                    "calls": 0, "total_s": 0.0, "self_s": 0.0, "sums": {}, "max": {},
                }
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += self_time
            for key, value in (sums or {}).items():
                entry["sums"][key] = entry["sums"].get(key, 0) + value
            for key, value in (maxima or {}).items():
                entry["max"][key] = max(entry["max"].get(key, value), value)


def _wrapper_cost(calls=2000, rounds=5):
    """Seconds a wrapper adds to one call: the best of a few timed loops of a
    wrapped no-op against the same loops of the bare no-op."""
    def noop():
        return None

    best = []
    for fn in (noop, Tracer().wrap("calibration", noop)):
        loops = []
        for _ in range(rounds):
            started = _clock()
            for _ in range(calls):
                fn()
            loops.append(_clock() - started)
        best.append(min(loops))
    return max(best[1] - best[0], 0.0) / calls


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _patch_everywhere(original, wrapper):
    """Rebind every module-level name in the package that holds `original`."""
    for name, module in list(sys.modules.items()):
        if name == "reduction_lab" or name.startswith("reduction_lab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(trace_dir):
    """Import reduction_lab, wrap the traced functions and dump totals at exit."""
    started = _clock()
    modules = {
        name: importlib.import_module(f"reduction_lab.{name}")
        for name in ("config", "spectral", "dynamics", "filtering", "harness",
                     "reporting", "acceptance")
    }
    tracer = Tracer()
    for module_name, path, span, attrs in TRACED:
        owner, attr = _resolve(modules[module_name], path)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(span, original, attrs)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _patch_everywhere(original, wrapper)
    checks = modules["harness"].CHECKS
    for check, fn in list(checks.items()):
        checks[check] = tracer.wrap(f"harness.check.{check}", fn)

    # the root span stands for the CLI itself; traced calls on the main
    # thread are its children
    root = [0.0]
    tracer.stack().append(root)
    root_started = _clock()
    import_s = root_started - started

    def dump():
        duration = _clock() - root_started
        tracer.record("cli.main", tracer.main_thread, duration, duration - root[0])
        spans = [
            {"name": name, "tid": tid, "main_thread": tid == tracer.main_thread, **entry}
            for (name, tid), entry in tracer.totals.items()
        ]
        report = {"pid": os.getpid(), "argv": sys.argv, "import_s": import_s,
                  "wrapper_s_per_call": _wrapper_cost(), "spans": spans}
        path = os.path.join(trace_dir, f"trace-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(report, handle)

    atexit.register(dump)
