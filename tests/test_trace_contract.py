"""The names and call shapes that the benchmark's layer tracer relies on.

perfbench/trace_hook/layer_trace.py wraps the functions it lists in
TRACED and reads per-call attributes from their positional arguments
(`xi` is args[2] of FilterModel.posterior and .phi; `times`, `lo` and `hi`
of harness._run_chunk; `grid` is args[4] of simulate_sme and
integrate_lindblad; `path` and `columns` of write_csv). The benchmark
counts SDE work as calls of dynamics.sme_step, so simulate_sme must step
through that public name. A rename, a keyword-only call or a step that
bypasses sme_step breaks the traced benchmark run; these tests catch that
here. perfbench/setup_probe.py reads hamiltonian, rho0, sigma, hbar and
tolerances off the config that parse_config returns. The tracer module is
only read, never changed.
"""

import importlib
import inspect
import types
from pathlib import Path

import numpy as np

from reduction_lab import (
    RunConfig,
    TimeGrid,
    dynamics,
    harness,
    reporting,
    run_ensemble,
    spectral_decompose,
)
from reduction_lab.config import parse_config
from reduction_lab.filtering import FilterModel
from reduction_lab.instances import three_level

LAYER_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace_hook" / "layer_trace.py"


def load_layer_trace():
    # compiled from the source text, so no byte-code cache is written next to it
    module = types.ModuleType("layer_trace")
    module.__file__ = str(LAYER_TRACE)
    exec(compile(LAYER_TRACE.read_text(), str(LAYER_TRACE), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    lt = load_layer_trace()
    for module_name, path, span, _ in lt.TRACED:
        owner, attr = lt._resolve(importlib.import_module(f"reduction_lab.{module_name}"), path)
        assert callable(getattr(owner, attr, None)), span
    assert set(harness.CHECKS) == set(harness.CHECK_NAMES)


def test_parse_config_carries_the_setup_probe_fields():
    # perfbench/setup_probe.py builds the spectral decomposition and the
    # FilterModel from these fields of the parsed config
    cfg = parse_config('{"instance": "three_level"}')
    for name in ("hamiltonian", "rho0", "sigma", "hbar", "tolerances"):
        assert hasattr(cfg, name), name
    spec = spectral_decompose(cfg.hamiltonian, tols=cfg.tolerances)
    FilterModel(cfg.rho0, spec, cfg.sigma, cfg.hbar, cfg.tolerances)


def test_run_chunk_signature_is_unchanged():
    params = list(inspect.signature(harness._run_chunk).parameters)
    assert params == ["cfg", "model", "times", "check_idx", "lo", "hi"]


def test_traced_points_cover_the_ensemble(monkeypatch):
    lt = load_layer_trace()
    attrs = {span: fn for _, _, span, fn in lt.TRACED}
    tracer = lt.Tracer()
    for name in ("posterior", "phi"):
        span = f"filtering.{name}"
        monkeypatch.setattr(FilterModel, name,
                            tracer.wrap(span, getattr(FilterModel, name), attrs[span]))
    monkeypatch.setattr(harness, "_run_chunk",
                        tracer.wrap("harness.chunk", harness._run_chunk, attrs["harness.chunk"]))
    h, rho0 = three_level()
    grid = TimeGrid.from_duration(3.2, 0.1)
    cfg = RunConfig(hamiltonian=h, rho0=rho0, t_max=3.2, dt=0.1, n_paths=600, seed=2,
                    checks=("born",), check_times=(1.0,))
    run_ensemble(cfg)

    points = {}
    for (span, _), entry in tracer.totals.items():
        points[span] = points.get(span, 0) + entry["sums"]["points"]
    expected = cfg.n_paths * len(grid.times())
    assert points == {"filtering.posterior": expected, "filtering.phi": expected,
                      "harness.chunk": expected}


def test_sde_and_csv_call_shapes():
    for fn in (dynamics.simulate_sme, dynamics.integrate_lindblad):
        assert list(inspect.signature(fn).parameters)[4] == "grid", fn.__name__
    # the integrator takes H only as its spectral decomposition
    params = list(inspect.signature(dynamics.simulate_sme).parameters)
    assert params[:5] == ["rho0", "spec", "sigma", "hbar", "grid"]
    assert list(inspect.signature(reporting.write_csv).parameters) == ["path", "columns"]


def test_traced_sde_steps_and_csv_values(monkeypatch, tmp_path):
    lt = load_layer_trace()
    attrs = {span: fn for _, _, span, fn in lt.TRACED}
    tracer = lt.Tracer()
    for module, name, span in ((dynamics, "sme_step", "dynamics.sme_step"),
                               (dynamics, "simulate_sme", "dynamics.simulate_sme"),
                               (reporting, "write_csv", "reporting.write_csv")):
        monkeypatch.setattr(module, name, tracer.wrap(span, getattr(module, name), attrs[span]))
    h, rho0 = three_level()
    grid = TimeGrid.from_duration(0.05, 1e-3)
    noise = dynamics.sample_noise(grid, np.random.default_rng(3))
    spec = spectral_decompose(h)
    traj = dynamics.simulate_sme(rho0, spec, 1.0, 1.0, grid, noise)
    path = tmp_path / "trajectory.csv"
    reporting.write_csv(str(path), reporting.trajectory_columns(traj, spec))

    entries = {span: entry for (span, _), entry in tracer.totals.items()}
    assert grid.n_steps == 50
    assert entries["dynamics.sme_step"]["calls"] == grid.n_steps
    assert entries["dynamics.simulate_sme"]["sums"] == {"steps": grid.n_steps}
    csv = entries["reporting.write_csv"]["sums"]
    assert csv == {"rows": grid.n_steps + 1, "values": (grid.n_steps + 1) * 12,
                   "bytes": path.stat().st_size}

    # a step the PSD clamp repairs is still one call of dynamics.sme_step
    repaired_grid = TimeGrid.from_duration(2.0, 2e-3)
    noise = dynamics.sample_noise(repaired_grid, np.random.default_rng(0))
    traj = dynamics.simulate_sme(rho0, spec, 4.0, 1.0, repaired_grid, noise)
    entries = {span: entry for (span, _), entry in tracer.totals.items()}
    assert traj.repairs > 0
    assert entries["dynamics.sme_step"]["calls"] == grid.n_steps + repaired_grid.n_steps
