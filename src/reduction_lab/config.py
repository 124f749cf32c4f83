"""Run configuration: JSON surface, validation, and defaults.

The config is a JSON key/value tree. Complex matrices are encoded as
paired row-major "real"/"imag" arrays (imag may be omitted when zero), so
no complex-literal syntax has to be parsed. Unknown keys anywhere in the
tree are rejected with the offending field path. The hamiltonian is
given as {"matrix": ...} and the output directory as {"dir": ...}; the
file names inside it are fixed. parse_config only decodes; RunConfig's
constructor checks every field on its own, and RunConfig.resolve(), the
prologue of every command, checks what needs the levels or the grid.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid
from .errors import ParseError, ReductionLabError, ValidationError
from .filtering import FilterModel, default_horizon
from .instances import INSTANCES
from .spectral import (
    DEFAULT_TOLS,
    ToleranceSet,
    _symmetrized,
    spectral_decompose,
    validate_density,
)

MODES = ("sde", "closed-form", "both")
CHECK_NAMES = ("born", "martingales", "variance_decay", "decoherence", "luders")

# Largest accepted grid, in time points. Every command keeps O(points)
# state (an ensemble keeps about 20 float64 sums per point), so a grid
# past this is rejected before anything is allocated for it.
MAX_GRID_POINTS = 1_000_001

# Path i is seeded from the one 32-bit spawn-key word i, so an ensemble has
# at most 2**32 paths.
MAX_PATHS = 2**32

_TOP_KEYS = {
    "instance", "hamiltonian", "rho0", "sigma", "hbar", "grid", "n_paths",
    "seed", "mode", "checks", "check_times", "output", "drift_multiplier",
    "sampler_bias",
}
_MATRIX_KEYS = {"real", "imag"}
_GRID_KEYS = {"t_max", "dt"}


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
    # filling both parts keeps the sign of a -0.0 entry, which real + 1j * imag
    # would turn into +0.0
    out = np.empty(real.shape, dtype=complex)
    out.real, out.imag = real, imag
    return out


def _matrix_to_node(a: np.ndarray) -> dict:
    a = np.asarray(a)
    node = {"real": a.real.tolist()}
    # an all -0.0 imag is kept too: its sign bits are what the config said
    if np.any((a.imag != 0) | np.signbit(a.imag)):
        node["imag"] = a.imag.tolist()
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
    drift_multiplier: float = 1.0
    sampler_bias: tuple | None = None

    def __post_init__(self):
        """Check every field; every failure names it. Numbers are stored
        as floats and lists as tuples, while rho0 is kept as given and its
        validated density matrix is kept for resolve()."""
        def store(name, value):
            object.__setattr__(self, name, value)

        try:
            h = _symmetrized(self.hamiltonian)
        except ReductionLabError as exc:
            raise ValidationError(f"hamiltonian: {exc}") from exc
        if np.shape(self.rho0) != h.shape:
            raise ValidationError(
                f"rho0: shape {np.shape(self.rho0)} does not match hamiltonian {h.shape}"
            )
        try:
            store("_density", validate_density(self.rho0))
        except ReductionLabError as exc:
            raise ValidationError(f"rho0: {exc}") from exc

        store("sigma", _positive(self.sigma, "sigma", strict=False))
        store("hbar", _positive(self.hbar, "hbar"))
        store("dt", _positive(self.dt, "grid.dt"))
        if self.t_max is not None:
            store("t_max", _positive(self.t_max, "grid.t_max"))
            check_grid_size(self.t_max, self.dt)
        _integer(self.n_paths, "n_paths", 1, "a positive integer")
        if self.n_paths > MAX_PATHS:
            raise ValidationError(f"n_paths: at most {MAX_PATHS} paths, got {self.n_paths}")
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

        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ValidationError("output.dir: expected a nonempty string")
        store("drift_multiplier", _positive(self.drift_multiplier, "drift_multiplier"))
        if self.sampler_bias is not None:
            bias = _nonnegative_tuple(self.sampler_bias, "sampler_bias", "list of weights")
            if not sum(bias) > 0:
                raise ValidationError("sampler_bias: expected at least one weight > 0")
            store("sampler_bias", bias)

    @property
    def tolerances(self) -> ToleranceSet:
        """The fixed numerical tolerances, DEFAULT_TOLS. No config sets
        them; perfbench/setup_probe.py reads them off the parsed config."""
        return DEFAULT_TOLS

    def resolve(self) -> tuple:
        """(FilterModel, grid): the prologue of every command, with t_max =
        None resolved to the collapse horizon. It checks the inputs that
        need the levels or the grid, so every command rejects the same
        configs."""
        spec = spectral_decompose(self.hamiltonian)
        model = FilterModel(self._density, spec, self.sigma, self.hbar)
        t_max = self.t_max if self.t_max is not None else default_horizon(model)
        check_grid_size(t_max, self.dt)
        grid = TimeGrid.from_duration(t_max, self.dt)
        if self.sampler_bias is not None and len(self.sampler_bias) != spec.d:
            raise ValidationError(
                f"sampler_bias has {len(self.sampler_bias)} weights for {spec.d} levels"
            )
        times = grid.times()
        for want in self.check_times:
            if np.min(np.abs(times - want)) > 1e-9 * max(1.0, abs(want)):
                raise ValidationError(
                    f"check time {want} is not on the output grid (dt={self.dt})"
                )
        return model, grid

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
            "output": {"dir": self.output_dir},
            "drift_multiplier": self.drift_multiplier,
        }
        if self.sampler_bias is not None:
            out["sampler_bias"] = list(self.sampler_bias)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def parse_config(text: str, **overrides) -> RunConfig:
    """Decode config text into a RunConfig, which validates it; every
    failure names the field. overrides replace RunConfig fields of the
    text before the one validation."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError("top level must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")

    # the remaining top-level keys are RunConfig fields of the same name
    nested = ("instance", "hamiltonian", "rho0", "grid", "output")
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
    else:
        if "hamiltonian" not in raw or "rho0" not in raw:
            raise ValidationError("config: need 'instance' or both 'hamiltonian' and 'rho0'")
        _reject_unknown(raw["hamiltonian"], {"matrix"}, "hamiltonian")
        if "matrix" not in raw["hamiltonian"]:
            raise ValidationError("hamiltonian: missing 'matrix'")
        cfg["hamiltonian"] = _as_matrix(raw["hamiltonian"]["matrix"], "hamiltonian.matrix")
        cfg["rho0"] = _as_matrix(raw["rho0"], "rho0")

    if "grid" in raw:
        _reject_unknown(raw["grid"], _GRID_KEYS, "grid")
        cfg.update(raw["grid"])
    if "output" in raw:
        _reject_unknown(raw["output"], {"dir"}, "output")
        if "dir" in raw["output"]:
            cfg["output_dir"] = raw["output"]["dir"]
    cfg.update(overrides)
    return RunConfig(**cfg)
