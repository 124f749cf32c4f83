"""Run configuration: JSON surface, validation, and defaults.

The config is a JSON key/value tree. Complex matrices are encoded as
paired row-major "real"/"imag" arrays (imag may be omitted when zero), so
no complex-literal syntax has to be parsed. Unknown keys anywhere in the
tree are rejected with the offending field path.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dynamics import TimeGrid
from .errors import NotHermitian, ParseError, ValidationError
from .instances import INSTANCES
from .spectral import DEFAULT_TOLS, ToleranceSet, hermiticity_defect

MODES = ("sde", "closed-form", "both")

# Largest accepted grid, in time points. Every command keeps O(points)
# state (an ensemble keeps about 20 float64 sums per point), so a grid
# past this is rejected before anything is allocated for it.
MAX_GRID_POINTS = 1_000_001

_TOP_KEYS = {
    "instance", "hamiltonian", "rho0", "sigma", "hbar", "grid", "n_paths",
    "seed", "mode", "checks", "check_times", "output", "tolerances",
    "ci_multiplier", "drift_multiplier", "sampler_bias",
}
_HAM_KEYS = {"eigenvalues", "basis", "matrix"}
_MATRIX_KEYS = {"real", "imag"}
_GRID_KEYS = {"t_max", "dt"}
_OUTPUT_KEYS = {"dir", "trajectory", "summary_json", "summary_csv", "lindblad"}
_TOL_KEYS = {
    "hermiticity_tol", "trace_tol", "psd_tol", "degeneracy_tol", "luders_floor", "clamp_tol",
}


def _reject_unknown(mapping: dict, allowed: set, where: str):
    if not isinstance(mapping, dict):
        raise ValidationError(f"{where}: expected a mapping, got {type(mapping).__name__}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")


def _as_matrix(node, where: str) -> np.ndarray:
    _reject_unknown(node, _MATRIX_KEYS, where)
    if "real" not in node:
        raise ValidationError(f"{where}: missing 'real' array")
    try:
        real = np.asarray(node["real"], dtype=float)
        imag = np.asarray(node.get("imag", np.zeros_like(real)), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    if real.shape != imag.shape:
        raise ValidationError(
            f"{where}: real {real.shape} and imag {imag.shape} shapes differ"
        )
    if real.ndim != 2 or real.shape[0] != real.shape[1]:
        raise ValidationError(f"{where}: matrix must be square, got {real.shape}")
    return real + 1j * imag


def _matrix_to_node(a: np.ndarray) -> dict:
    node = {"real": np.asarray(a).real.tolist()}
    if np.any(np.asarray(a).imag != 0):
        node["imag"] = np.asarray(a).imag.tolist()
    return node


def check_grid_size(t_max: float, dt: float) -> None:
    """Reject a grid of more than MAX_GRID_POINTS points, counted as
    TimeGrid.from_duration counts them."""
    steps = t_max / dt
    if not (np.isfinite(steps) and round(steps) < MAX_GRID_POINTS):
        raise ValidationError(
            f"grid.t_max / grid.dt = {t_max:g} / {dt:g} asks for {steps:.4g} steps; "
            f"at most {MAX_GRID_POINTS} grid points are allowed"
        )


def _positive(value, name, strict=True):
    """A finite real number, not a bool: > 0, or >= 0 when not strict."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:       # an integer beyond the float range
            pass
    if not math.isfinite(number):
        raise ValidationError(f"{name}: expected a finite number, got {value!r}")
    if strict and number <= 0:
        raise ValidationError(f"{name}: must be > 0, got {number}")
    if not strict and number < 0:
        raise ValidationError(f"{name}: must be >= 0, got {number}")
    return number


def validate_n_paths(n) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"n_paths: expected a positive integer, got {n!r}")
    return n


def validate_seed(seed) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed: expected a nonnegative integer, got {seed!r}")
    return seed


def validate_checks(checks) -> tuple:
    from .harness import CHECK_NAMES

    if not isinstance(checks, (list, tuple)):
        raise ValidationError("checks: expected a list of check names")
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise ValidationError(f"checks: unknown names {sorted(unknown)}")
    return tuple(checks)


def validate_check_times(times) -> tuple:
    if not isinstance(times, (list, tuple)):
        raise ValidationError("check_times: expected a list of times")
    return tuple(_positive(t, "check_times", strict=False) for t in times)


def validate_sampler_bias(bias) -> tuple:
    if not isinstance(bias, (list, tuple)) or not bias:
        raise ValidationError("sampler_bias: expected a nonempty list of weights")
    bias = tuple(_positive(b, "sampler_bias", strict=False) for b in bias)
    if not sum(bias) > 0:
        raise ValidationError("sampler_bias: at least one weight must be > 0")
    return bias


@dataclass
class RunConfig:
    """Validated run inputs with defaults filled in.

    t_max = None means "choose the collapse horizon from the instance"
    (resolved against the spectral gap and initial energy variance).
    """

    hamiltonian: np.ndarray
    rho0: np.ndarray
    sigma: float = 1.0
    hbar: float = 1.0
    dt: float = 1e-3
    t_max: float | None = None
    n_paths: int = 1000
    seed: int = 0
    mode: str = "closed-form"
    checks: tuple = ()
    check_times: tuple = ()
    output_dir: str = "."
    trajectory_file: str = "trajectory.csv"
    summary_json_file: str = "summary.json"
    summary_csv_file: str = "summary.csv"
    lindblad_file: str = "lindblad.csv"
    tolerances: ToleranceSet = DEFAULT_TOLS
    ci_multiplier: float = 3.0
    drift_multiplier: float = 1.0
    sampler_bias: tuple | None = None
    instance: str | None = None

    def grid(self, t_max: float) -> TimeGrid:
        check_grid_size(t_max, self.dt)
        return TimeGrid.from_duration(t_max, self.dt)

    def to_dict(self) -> dict:
        out = {
            "hamiltonian": {"matrix": _matrix_to_node(self.hamiltonian)},
            "rho0": _matrix_to_node(self.rho0),
            "sigma": self.sigma,
            "hbar": self.hbar,
            "grid": {"dt": self.dt, **({"t_max": self.t_max} if self.t_max is not None else {})},
            "n_paths": self.n_paths,
            "seed": self.seed,
            "mode": self.mode,
            "checks": list(self.checks),
            "check_times": list(self.check_times),
            "output": {
                "dir": self.output_dir,
                "trajectory": self.trajectory_file,
                "summary_json": self.summary_json_file,
                "summary_csv": self.summary_csv_file,
                "lindblad": self.lindblad_file,
            },
            "ci_multiplier": self.ci_multiplier,
            "drift_multiplier": self.drift_multiplier,
        }
        if self.sampler_bias is not None:
            out["sampler_bias"] = list(self.sampler_bias)
        overrides = {
            k: getattr(self.tolerances, k)
            for k in _TOL_KEYS
            if getattr(self.tolerances, k) != getattr(DEFAULT_TOLS, k)
        }
        if overrides:
            out["tolerances"] = overrides
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _parse_hamiltonian(node) -> np.ndarray:
    _reject_unknown(node, _HAM_KEYS, "hamiltonian")
    if "matrix" in node:
        if "eigenvalues" in node or "basis" in node:
            raise ValidationError(
                "hamiltonian: give either 'matrix' or 'eigenvalues' (+ optional 'basis'), not both"
            )
        return _as_matrix(node["matrix"], "hamiltonian.matrix")
    if "eigenvalues" not in node:
        raise ValidationError("hamiltonian: need 'matrix' or 'eigenvalues'")
    try:
        values = np.asarray(node["eigenvalues"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"hamiltonian.eigenvalues: {exc}") from exc
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("hamiltonian.eigenvalues: expected a nonempty 1-d array")
    h = np.diag(values).astype(complex)
    if "basis" in node:
        u = _as_matrix(node["basis"], "hamiltonian.basis")
        if u.shape[0] != values.size:
            raise ValidationError(
                f"hamiltonian.basis: {u.shape} incompatible with {values.size} eigenvalues"
            )
        gram = u.conj().T @ u
        if np.max(np.abs(gram - np.eye(values.size))) > 1e-10:
            raise ValidationError("hamiltonian.basis: matrix is not unitary")
        h = u @ h @ u.conj().T
    return h


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; every failure names the field."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError("top level must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")

    cfg = {}
    if "instance" in raw:
        name = raw["instance"]
        if name not in INSTANCES:
            raise ValidationError(
                f"instance: unknown '{name}', have {sorted(INSTANCES)}"
            )
        if "hamiltonian" in raw or "rho0" in raw:
            raise ValidationError("instance: cannot combine with explicit hamiltonian/rho0")
        h, rho0 = INSTANCES[name]()
        cfg["instance"] = name
    else:
        if "hamiltonian" not in raw or "rho0" not in raw:
            raise ValidationError("config: need 'instance' or both 'hamiltonian' and 'rho0'")
        h = _parse_hamiltonian(raw["hamiltonian"])
        rho0 = _as_matrix(raw["rho0"], "rho0")
    cfg["hamiltonian"] = h
    cfg["rho0"] = rho0

    tols = DEFAULT_TOLS
    if "tolerances" in raw:
        _reject_unknown(raw["tolerances"], _TOL_KEYS, "tolerances")
        overrides = {}
        for key, value in raw["tolerances"].items():
            overrides[key] = None if value is None else _positive(value, f"tolerances.{key}")
        tols = tols.override(**overrides)
    cfg["tolerances"] = tols

    defect = hermiticity_defect(h)
    if defect > tols.hermiticity_tol:
        raise NotHermitian(defect, tols.hermiticity_tol)
    if h.shape != rho0.shape:
        raise ValidationError(
            f"rho0: shape {rho0.shape} does not match hamiltonian {h.shape}"
        )

    if "sigma" in raw:
        cfg["sigma"] = _positive(raw["sigma"], "sigma", strict=False)
    if "hbar" in raw:
        cfg["hbar"] = _positive(raw["hbar"], "hbar")
    if "grid" in raw:
        _reject_unknown(raw["grid"], _GRID_KEYS, "grid")
        if "dt" in raw["grid"]:
            cfg["dt"] = _positive(raw["grid"]["dt"], "grid.dt")
        if "t_max" in raw["grid"]:
            cfg["t_max"] = _positive(raw["grid"]["t_max"], "grid.t_max")
            check_grid_size(cfg["t_max"], cfg.get("dt", RunConfig.dt))
    if "n_paths" in raw:
        cfg["n_paths"] = validate_n_paths(raw["n_paths"])
    if "seed" in raw:
        cfg["seed"] = validate_seed(raw["seed"])
    if "mode" in raw:
        if raw["mode"] not in MODES:
            raise ValidationError(f"mode: expected one of {MODES}, got {raw['mode']!r}")
        cfg["mode"] = raw["mode"]
    if "checks" in raw:
        cfg["checks"] = validate_checks(raw["checks"])
    if "check_times" in raw:
        cfg["check_times"] = validate_check_times(raw["check_times"])
    if "output" in raw:
        _reject_unknown(raw["output"], _OUTPUT_KEYS, "output")
        mapping = {
            "dir": "output_dir",
            "trajectory": "trajectory_file",
            "summary_json": "summary_json_file",
            "summary_csv": "summary_csv_file",
            "lindblad": "lindblad_file",
        }
        for key, attr in mapping.items():
            if key in raw["output"]:
                value = raw["output"][key]
                if not isinstance(value, str) or not value:
                    raise ValidationError(f"output.{key}: expected a nonempty string")
                cfg[attr] = value
    if "ci_multiplier" in raw:
        cfg["ci_multiplier"] = _positive(raw["ci_multiplier"], "ci_multiplier")
    if "drift_multiplier" in raw:
        cfg["drift_multiplier"] = _positive(raw["drift_multiplier"], "drift_multiplier")
    if raw.get("sampler_bias") is not None:
        cfg["sampler_bias"] = validate_sampler_bias(raw["sampler_bias"])

    return RunConfig(**cfg)
