"""Machine-readable outputs: trajectory CSV, ensemble summary CSV + JSON.

All floating-point values are printed with 17 significant digits, which
round-trips IEEE doubles exactly, so fixed seeds give byte-identical
files. Undefined statistics (stderr of a single path) serialize as null.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .harness import EnsembleSummary
from .spectral import SpectralDecomposition


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _pair_label(n: int, m: int) -> str:
    # 1-based level indices in public output
    return f"R_{n + 1}{m + 1}"


def trajectory_columns(traj, spec: SpectralDecomposition) -> dict:
    """Column view of a Trajectory, integrated or closed form.

    Columns: t, H_t, V_t, purity, xi, W, pi_1..pi_D, |R_nm| for n < m.
    """
    columns = {
        "t": traj.grid.times(),
        "H_t": traj.H,
        "V_t": traj.V,
        "purity": traj.purity,
        "xi": traj.xi,
        "W": traj.w,
    }
    for r in range(spec.d):
        columns[f"pi_{r + 1}"] = traj.pi[:, r]
    for slot, (n, m) in enumerate(spec.pairs()):
        columns[_pair_label(n, m)] = traj.offdiag[:, slot]
    return columns


def write_csv(path, columns: dict):
    """One row per index; every value through one "%.17g" row template,
    which prints the bytes of fmt at a fraction of its per-value cost.
    Rows become Python floats 4 096 at a time, which bounds the memory."""
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    table = np.column_stack([np.asarray(a, dtype=float) for a in columns.values()])
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(columns) + "\n")
        for lo in range(0, len(table), 4096):
            handle.writelines(template % tuple(row) for row in table[lo:lo + 4096].tolist())


def summary_columns(summary: EnsembleSummary) -> dict:
    """Per-time means and standard errors of every tracked series."""
    columns = {
        "t": summary.times,
        "H_mean": summary.h_series.mean,
        "H_se": summary.h_series.se,
        "V_mean": summary.v_series.mean,
        "V_se": summary.v_series.se,
        "purity_mean": summary.purity_series.mean,
        "purity_se": summary.purity_series.se,
    }
    for r in range(summary.model.spec.d):
        columns[f"pi_{r + 1}_mean"] = summary.pi_series.mean[:, r]
        columns[f"pi_{r + 1}_se"] = summary.pi_series.se[:, r]
    for slot, (n, m) in enumerate(summary.model.pairs):
        label = f"Phi_{n + 1}{m + 1}"
        columns[f"{label}_mean"] = summary.phi_series.mean[:, slot]
        columns[f"{label}_se"] = summary.phi_series.se[:, slot]
        scale = summary.model.r0_norm[slot]
        columns[f"{_pair_label(n, m)}_mean"] = scale * summary.phi_series.mean[:, slot]
        columns[f"{_pair_label(n, m)}_se"] = scale * summary.phi_series.se[:, slot]
    return columns


def _sanitize(obj):
    """JSON-safe copy: numpy scalars/arrays to lists, NaN/inf to null."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"real": _sanitize(obj.real), "imag": _sanitize(obj.imag)}
    return obj


def _matrix_entry(mean: np.ndarray) -> dict:
    return {"real": _sanitize(mean.real), "imag": _sanitize(mean.imag)}


def summary_report(summary: EnsembleSummary, config_echo: dict | None = None) -> dict:
    """Full JSON report: config echo, seed, verdicts, fitted statistics.

    Statistical thresholds are artifact choices (the confidence-band
    multiplier and fit tolerances), flagged as such in the report.
    """
    report = {
        "config": _sanitize(config_echo) if config_echo else None,
        "base_seed": summary.config.seed,
        "n_paths": summary.n_paths,
        "ci_multiplier": summary.config.ci_multiplier,
        "thresholds_are_artifact_choices": True,
        "stderr_defined": summary.stderr_defined,
        "levels": {
            "energies": _sanitize(summary.model.energies),
            "multiplicities": list(summary.model.spec.multiplicities),
            "probabilities": _sanitize(summary.model.p),
        },
        "born": {
            "counts": _sanitize(summary.born_counts),
            "frequencies": _sanitize(summary.born_freqs),
            "expected": _sanitize(summary.model.p),
        },
        "terminal": _sanitize(summary.terminal),
        "luders": _sanitize(
            {str(level + 1): stats for level, stats in summary.luders.items()}
        ),
        "mean_states": {
            fmt(t): {
                "mean": _matrix_entry(stats["mean"]),
                "se_real": _sanitize(stats["se_real"]),
                "se_imag": _sanitize(stats["se_imag"]),
            }
            for t, stats in summary.mean_states.items()
        },
        "checks": {
            name: {
                "passed": bool(v.passed),
                "statistic": _sanitize(v.statistic),
                "threshold": _sanitize(v.threshold),
                "details": _sanitize(v.details),
            }
            for name, v in summary.checks.items()
        },
    }
    return report


def write_summary_json(path, summary: EnsembleSummary, config_echo: dict | None = None):
    with open(path, "w", newline="\n") as handle:
        json.dump(summary_report(summary, config_echo), handle, indent=2)
        handle.write("\n")


def lindblad_columns(states: np.ndarray, grid) -> dict:
    """Mean states, an (n_points, N, N) stack: every matrix entry as re/im
    columns."""
    columns = {"t": grid.times()}
    for i in range(states.shape[1]):
        for j in range(states.shape[2]):
            columns[f"re_{i + 1}{j + 1}"] = states[:, i, j].real
            columns[f"im_{i + 1}{j + 1}"] = states[:, i, j].imag
    return columns
