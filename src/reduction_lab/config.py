"""Run configuration: JSON surface, validation, and defaults.

The config is a JSON key/value tree. Complex matrices are encoded as
paired row-major "real"/"imag" arrays (imag may be omitted when zero), so
no complex-literal syntax has to be parsed. Unknown keys anywhere in the
tree are rejected with the offending field path. parse_config only
decodes; RunConfig's constructor is the one validator of run inputs, for
the CLI and the library alike.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid
from .errors import NotHermitian, ParseError, ReductionLabError, ValidationError
from .filtering import default_horizon
from .instances import INSTANCES
from .spectral import (
    DEFAULT_TOLS,
    ToleranceSet,
    hermiticity_defect,
    require_square,
    spectral_decompose,
    validate_density,
)

MODES = ("sde", "closed-form", "both")
CHECK_NAMES = ("born", "martingales", "variance_decay", "decoherence", "luders")

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
# config key under "output" -> RunConfig field
_OUTPUT_FIELDS = {
    "dir": "output_dir",
    "trajectory": "trajectory_file",
    "summary_json": "summary_json_file",
    "summary_csv": "summary_csv_file",
    "lindblad": "lindblad_file",
}
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


def _integer(value, name, low, expected):
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ValidationError(f"{name}: expected {expected}, got {value!r}")


def _nonnegative_tuple(values, name, what):
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"{name}: expected a {what}")
    return tuple(_positive(v, name, strict=False) for v in values)


@dataclass(frozen=True)
class RunConfig:
    """Validated run inputs with defaults filled in.

    t_max = None means "choose the collapse horizon from the instance"
    (resolved against the spectral gap and initial energy variance).
    drift_multiplier and sampler_bias are negative-control fixtures: they
    corrupt the simulated dynamics while the checks keep testing the
    honest claims, and must therefore cause failures when != defaults.
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

    def __post_init__(self):
        """Check every field; every failure names it. Numbers are stored
        as floats and lists as tuples, while rho0 is kept as given."""
        def store(name, value):
            object.__setattr__(self, name, value)

        tols = self.tolerances.override(**{
            key: _positive(value, f"tolerances.{key}")
            for key in sorted(_TOL_KEYS)
            if (value := getattr(self.tolerances, key)) is not None
        })
        store("tolerances", tols)

        try:
            h = require_square(self.hamiltonian)
        except ReductionLabError as exc:
            raise ValidationError(f"hamiltonian: {exc}") from exc
        defect = hermiticity_defect(h)
        if defect > tols.hermiticity_tol:
            raise NotHermitian(defect, tols.hermiticity_tol)
        if np.shape(self.rho0) != h.shape:
            raise ValidationError(
                f"rho0: shape {np.shape(self.rho0)} does not match hamiltonian {h.shape}"
            )
        try:
            validate_density(self.rho0, tols)
        except ReductionLabError as exc:
            raise ValidationError(f"rho0: {exc}") from exc

        store("sigma", _positive(self.sigma, "sigma", strict=False))
        store("hbar", _positive(self.hbar, "hbar"))
        store("dt", _positive(self.dt, "grid.dt"))
        if self.t_max is not None:
            store("t_max", _positive(self.t_max, "grid.t_max"))
            check_grid_size(self.t_max, self.dt)
        _integer(self.n_paths, "n_paths", 1, "a positive integer")
        _integer(self.seed, "seed", 0, "a nonnegative integer")
        if self.mode not in MODES:
            raise ValidationError(f"mode: expected one of {MODES}, got {self.mode!r}")

        if not isinstance(self.checks, (list, tuple)):
            raise ValidationError("checks: expected a list of check names")
        unknown = set(self.checks) - set(CHECK_NAMES)
        if unknown:
            raise ValidationError(f"checks: unknown names {sorted(unknown)}")
        store("checks", tuple(self.checks))
        if self.checks and self.n_paths < 100:
            raise ValidationError(
                f"CI-based checks need n_paths >= 100, got {self.n_paths}"
            )
        store("check_times", _nonnegative_tuple(self.check_times, "check_times", "list of times"))

        for key, name in _OUTPUT_FIELDS.items():
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValidationError(f"output.{key}: expected a nonempty string")
        store("ci_multiplier", _positive(self.ci_multiplier, "ci_multiplier"))
        store("drift_multiplier", _positive(self.drift_multiplier, "drift_multiplier"))
        if self.sampler_bias is not None:
            bias = _nonnegative_tuple(self.sampler_bias, "sampler_bias", "list of weights")
            if not sum(bias) > 0:
                raise ValidationError("sampler_bias: expected at least one weight > 0")
            store("sampler_bias", bias)

    def grid(self, t_max: float) -> TimeGrid:
        check_grid_size(t_max, self.dt)
        return TimeGrid.from_duration(t_max, self.dt)

    def resolve(self):
        """(validated rho_0, spectral decomposition, grid): the prologue of
        every run, with t_max = None resolved to the collapse horizon."""
        rho0 = validate_density(self.rho0, self.tolerances)
        spec = spectral_decompose(self.hamiltonian, tols=self.tolerances)
        t_max = self.t_max if self.t_max is not None else default_horizon(spec, rho0, self.sigma)
        return rho0, spec, self.grid(t_max)

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
            "output": {key: getattr(self, name) for key, name in _OUTPUT_FIELDS.items()},
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
    """Decode config text into a RunConfig, which validates it; every
    failure names the field."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError("top level must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")

    # the remaining top-level keys are RunConfig fields of the same name
    nested = ("instance", "hamiltonian", "rho0", "grid", "output", "tolerances")
    cfg = {key: value for key, value in raw.items() if key not in nested}
    if "instance" in raw:
        name = raw["instance"]
        if name not in INSTANCES:
            raise ValidationError(
                f"instance: unknown '{name}', have {sorted(INSTANCES)}"
            )
        if "hamiltonian" in raw or "rho0" in raw:
            raise ValidationError("instance: cannot combine with explicit hamiltonian/rho0")
        cfg["hamiltonian"], cfg["rho0"] = INSTANCES[name]()
        cfg["instance"] = name
    else:
        if "hamiltonian" not in raw or "rho0" not in raw:
            raise ValidationError("config: need 'instance' or both 'hamiltonian' and 'rho0'")
        cfg["hamiltonian"] = _parse_hamiltonian(raw["hamiltonian"])
        cfg["rho0"] = _as_matrix(raw["rho0"], "rho0")

    if "tolerances" in raw:
        _reject_unknown(raw["tolerances"], _TOL_KEYS, "tolerances")
        cfg["tolerances"] = DEFAULT_TOLS.override(**raw["tolerances"])
    if "grid" in raw:
        _reject_unknown(raw["grid"], _GRID_KEYS, "grid")
        cfg.update(raw["grid"])
    if "output" in raw:
        _reject_unknown(raw["output"], set(_OUTPUT_FIELDS), "output")
        cfg.update({_OUTPUT_FIELDS[key]: value for key, value in raw["output"].items()})
    return RunConfig(**cfg)
