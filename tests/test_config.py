import dataclasses
import json

import numpy as np
import pytest

from reduction_lab.config import MAX_GRID_POINTS, RunConfig, parse_config
from reduction_lab.errors import NotHermitian, ParseError, ValidationError
from reduction_lab.filtering import FilterModel, default_horizon
from reduction_lab.instances import two_level
from reduction_lab.spectral import spectral_decompose

MINIMAL = '{"instance": "two_level"}'

EXPLICIT = """
{
  "hamiltonian": {"matrix": {"real": [[0.0, 0.0], [0.0, 1.0]]}},
  "rho0": {"real": [[0.5, 0.25], [0.25, 0.5]]},
  "sigma": 0.5,
  "hbar": 2.0,
  "grid": {"t_max": 3.0, "dt": 0.01},
  "n_paths": 250,
  "seed": 9,
  "mode": "sde",
  "checks": ["born"],
  "output": {"dir": "results"}
}
"""


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.sigma == 1.0
        assert cfg.hbar == 1.0
        assert cfg.dt == 1e-3
        assert cfg.t_max is None
        assert cfg.mode == "closed-form"
        h, rho0 = two_level()
        assert np.array_equal(cfg.hamiltonian, h)
        assert np.array_equal(cfg.rho0, rho0)

    def test_explicit_config(self):
        cfg = parse_config(EXPLICIT)
        assert cfg.sigma == 0.5
        assert cfg.hbar == 2.0
        assert cfg.t_max == 3.0
        assert cfg.n_paths == 250
        assert cfg.mode == "sde"
        assert cfg.checks == ("born",)
        assert cfg.output_dir == "results"

    def test_complex_matrix_encoding(self):
        text = json.dumps({
            "hamiltonian": {"matrix": {"real": [[0, 0], [0, 1]]}},
            "rho0": {
                "real": [[0.5, 0.0], [0.0, 0.5]],
                "imag": [[0.0, -0.25], [0.25, 0.0]],
            },
        })
        cfg = parse_config(text)
        assert cfg.rho0[0, 1] == -0.25j

    def test_run_config_fields(self):
        # a new setting has to be added here as well
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "hamiltonian", "rho0", "sigma", "hbar", "dt", "t_max", "n_paths",
            "seed", "mode", "checks", "check_times", "output_dir", "tolerances",
            "drift_multiplier", "sampler_bias",
        ]


class TestRejection:
    def test_malformed_json_carries_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_config('{"instance": }')

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            parse_config('{"instance": "two_level", "volume": 11}')

    def test_unknown_nested_key(self):
        with pytest.raises(ValidationError, match="grid"):
            parse_config('{"instance": "two_level", "grid": {"dt": 0.1, "step": 3}}')

    @pytest.mark.parametrize("config, message", [
        ({"instance": "two_level", "ci_multiplier": 3.0},
         r"config: unknown keys \['ci_multiplier'\]"),
        ({"instance": "two_level", "output": {"dir": "out", "trajectory": "t.csv"}},
         r"output: unknown keys \['trajectory'\]"),
        ({"hamiltonian": {"eigenvalues": [0.0, 1.0]}, "rho0": {"real": [[0.5, 0], [0, 0.5]]}},
         r"hamiltonian: unknown keys \['eigenvalues'\]"),
    ], ids=["ci_multiplier", "output.trajectory", "hamiltonian.eigenvalues"])
    def test_removed_setting_rejected(self, config, message):
        with pytest.raises(ValidationError, match=message):
            parse_config(json.dumps(config))

    def test_negative_dt(self):
        with pytest.raises(ValidationError, match="grid.dt"):
            parse_config('{"instance": "two_level", "grid": {"dt": -0.1}}')

    def test_non_hermitian_hamiltonian_reports_deviation(self):
        text = json.dumps({
            "hamiltonian": {"matrix": {"real": [[0, 1], [0, 0]]}},
            "rho0": {"real": [[0.5, 0], [0, 0.5]]},
        })
        with pytest.raises(ValidationError, match="hamiltonian") as info:
            parse_config(text)
        assert isinstance(info.value.__cause__, NotHermitian)
        assert info.value.__cause__.deviation == pytest.approx(1.0)

    def test_shape_mismatch(self):
        text = json.dumps({
            "hamiltonian": {"matrix": {"real": [[0, 0], [0, 1]]}},
            "rho0": {"real": [[1.0]]},
        })
        with pytest.raises(ValidationError, match="rho0"):
            parse_config(text)

    def test_negative_sigma(self):
        with pytest.raises(ValidationError, match="sigma"):
            parse_config('{"instance": "two_level", "sigma": -1}')

    def test_bad_mode(self):
        with pytest.raises(ValidationError, match="mode"):
            parse_config('{"instance": "two_level", "mode": "exact"}')

    def test_bad_n_paths(self):
        with pytest.raises(ValidationError, match="n_paths"):
            parse_config('{"instance": "two_level", "n_paths": 2.5}')

    def test_unknown_check_name(self):
        with pytest.raises(ValidationError, match="checks"):
            parse_config('{"instance": "two_level", "checks": ["spin"]}')

    def test_oversized_grid_rejected(self):
        with pytest.raises(ValidationError, match="grid.t_max / grid.dt"):
            parse_config('{"instance": "two_level", "grid": {"t_max": 1e4, "dt": 1e-6}}')

    def test_oversized_default_horizon_rejected(self):
        # no t_max: a gap of 0.01 makes the collapse horizon 5e5, which is
        # 5e8 steps at the default dt
        cfg = parse_config(json.dumps({
            "hamiltonian": {"matrix": {"real": [[0.0, 0.0], [0.0, 0.01]]}},
            "rho0": {"real": [[0.5, 0.5], [0.5, 0.5]]},
        }))
        horizon = default_horizon(FilterModel(cfg.rho0, spectral_decompose(cfg.hamiltonian), cfg.sigma))
        assert horizon / cfg.dt == pytest.approx(5e8)
        with pytest.raises(ValidationError, match="grid.t_max / grid.dt"):
            cfg.resolve()

    def test_largest_grid_accepted(self):
        cfg = parse_config('{"instance": "two_level", "grid": {"t_max": 1000, "dt": 1e-3}}')
        _, grid = cfg.resolve()
        assert grid.n_steps + 1 == MAX_GRID_POINTS

    def test_all_zero_sampler_bias_rejected(self):
        with pytest.raises(ValidationError, match="sampler_bias"):
            parse_config('{"instance": "two_level", "sampler_bias": [0, 0]}')

    @pytest.mark.parametrize("fragment, field", [
        ('"sigma": NaN', "sigma"),
        ('"hbar": Infinity', "hbar"),
        ('"sigma": 1e999', "sigma"),
        pytest.param('"hbar": 1%s' % ("0" * 400), "hbar", id="hbar-beyond-float-range"),
        ('"grid": {"dt": Infinity, "t_max": 1}', "grid.dt"),
        ('"grid": {"dt": "0.1"}', "grid.dt"),
        ('"grid": {"t_max": true}', "grid.t_max"),
        ('"seed": true', "seed"),
        ('"n_paths": true', "n_paths"),
        ('"drift_multiplier": true', "drift_multiplier"),
        ('"check_times": [NaN]', "check_times"),
        ('"sampler_bias": [Infinity, 1]', "sampler_bias"),
        ('"tolerances": {"psd_tol": Infinity}', "tolerances.psd_tol"),
    ])
    def test_numbers_must_be_finite_reals(self, fragment, field):
        # NaN, +-Infinity, booleans and numeric strings used to parse
        with pytest.raises(ValidationError, match=field):
            parse_config('{"instance": "two_level", %s}' % fragment)

    def test_unknown_instance(self):
        with pytest.raises(ValidationError, match="instance"):
            parse_config('{"instance": "ten_level"}')

    def test_instance_with_explicit_matrices_rejected(self):
        text = json.dumps({
            "instance": "two_level",
            "rho0": {"real": [[1.0, 0], [0, 0.0]]},
            "hamiltonian": {"matrix": {"real": [[0, 0], [0, 1]]}},
        })
        with pytest.raises(ValidationError, match="instance"):
            parse_config(text)


class TestToleranceOverrides:
    def test_override_applies(self):
        cfg = parse_config(
            '{"instance": "two_level", "tolerances": {"psd_tol": 1e-6}}'
        )
        assert cfg.tolerances.psd_tol == 1e-6
        assert cfg.tolerances.trace_tol == 1e-10

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ValidationError, match="tolerances"):
            parse_config('{"instance": "two_level", "tolerances": {"fuzz": 1}}')

    @pytest.mark.parametrize("key", ["matrix_tol", "reconstruction_tol"])
    def test_removed_tolerance_rejected(self, key):
        # no ToleranceSet field by these names: the unknown-keys error
        with pytest.raises(ValidationError, match="tolerances: unknown keys"):
            parse_config('{"instance": "two_level", "tolerances": {"%s": 1e-9}}' % key)


class TestRoundTrip:
    def test_serialized_config_reparses_identically(self):
        cfg = parse_config(EXPLICIT)
        again = parse_config(cfg.to_json())
        assert np.array_equal(cfg.hamiltonian, again.hamiltonian)
        assert np.array_equal(cfg.rho0, again.rho0)
        for name in ("sigma", "hbar", "dt", "t_max", "n_paths", "seed", "mode",
                     "checks", "check_times", "output_dir",
                     "drift_multiplier", "sampler_bias"):
            assert getattr(cfg, name) == getattr(again, name), name
        assert cfg.tolerances == again.tolerances

    def test_complex_and_fixture_fields_survive(self):
        cfg = RunConfig(
            *two_level(), sigma=0.7, dt=0.02, t_max=4.0,
            sampler_bias=(0.7, 0.3), drift_multiplier=2.0,
            checks=("born",), check_times=(1.0, 2.0),
        )
        again = parse_config(cfg.to_json())
        assert again.sampler_bias == (0.7, 0.3)
        assert again.drift_multiplier == 2.0
        assert again.check_times == (1.0, 2.0)
