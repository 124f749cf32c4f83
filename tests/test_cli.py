import json
import re
from unittest import mock

import numpy as np
import pytest

from reduction_lab import cli, config, run_ensemble
from reduction_lab.config import parse_config
from reduction_lab.dynamics import sample_noise
from reduction_lab.filtering import closed_form_trajectory, sde_gap
from reduction_lab.harness import path_rngs
from reduction_lab.reporting import summary_report, trajectory_columns, write_csv

BASE_CONFIG = {
    "instance": "three_level",
    "grid": {"t_max": 2.0, "dt": 0.01},
    "n_paths": 400,
    "seed": 31,
    "checks": ["born", "martingales"],
}

EXPECTED_HEADER = "t,H_t,V_t,purity,xi,W,pi_1,pi_2,pi_3,R_12,R_13,R_23"


def write_config(tmp_path, **overrides):
    cfg = dict(BASE_CONFIG)
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestSimulate:
    def test_csv_schema_and_row_count(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = tmp_path / "trajectory.csv"
        header, data = read_csv(out)
        assert ",".join(header) == EXPECTED_HEADER
        assert data.shape[0] == 201      # n_steps + 1
        assert data[0, 0] == 0.0
        # t = 0 row carries the initial-state invariants
        assert data[0, 1] == pytest.approx(1.25)      # H
        assert data[0, 2] == pytest.approx(0.6875)    # V
        assert data[0, 6:9] == pytest.approx([0.25, 0.25, 0.5])

    def test_eigenstate_start_zeroes_variance_column(self, tmp_path):
        cfg = write_config(
            tmp_path,
            instance=None,
            hamiltonian={"matrix": {"real": [[0, 0], [0, 1]]}},
            rho0={"real": [[0.0, 0.0], [0.0, 1.0]]},
        )
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, data = read_csv(tmp_path / "trajectory.csv")
        assert np.all(data[:, 2] == 0.0)

    def test_fixed_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        for sub in ("r1", "r2"):
            assert cli.main(["simulate", "--config", cfg,
                             "--out", str(tmp_path / sub)]) == 0
        a = (tmp_path / "r1" / "trajectory.csv").read_bytes()
        b = (tmp_path / "r2" / "trajectory.csv").read_bytes()
        assert a == b

    def test_sde_mode_writes_same_schema(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                         "--mode", "sde"]) == 0
        header, data = read_csv(tmp_path / "trajectory.csv")
        assert ",".join(header) == EXPECTED_HEADER
        assert data.shape[0] == 201

    def test_both_mode_reports_gap(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                         "--mode", "both"]) == 0
        out = capsys.readouterr().out
        assert "closed form" in out

    @pytest.mark.parametrize("mode, reports", [("sde", True), ("both", True),
                                               ("closed-form", False)])
    def test_repair_count_goes_to_stderr_only(self, tmp_path, capsys, mode, reports):
        cfg = write_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                         "--mode", mode]) == 0
        captured = capsys.readouterr()
        assert ("sde repairs: 0 of 200 steps\n" in captured.err) is reports
        assert "repairs" not in captured.out
        assert "repairs" not in (tmp_path / "trajectory.csv").read_text()
        # so does the SDE's time; its gap to the closed form goes to stdout
        timing = re.findall(r"^sde: 200 steps in \d+\.\d\d s \(\d+\.\d us/step\)$",
                            captured.err, flags=re.MULTILINE)
        assert len(timing) == int(reports)
        assert "steps in" not in captured.out
        assert ("max |integrated - closed form|" in captured.out) is reports

    @pytest.mark.parametrize("mode", ["sde", "both"])
    def test_peak_rss_goes_to_stderr_only(self, tmp_path, capsys, mode):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "cli" / "trajectory.csv"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out.parent),
                         "--mode", mode]) == 0
        captured = capsys.readouterr()
        assert len(re.findall(r"^peak RSS: \d+\.\d MB$", captured.err, flags=re.MULTILINE)) == 1
        # stdout and the CSV are those of the library route, byte for byte
        cfg = parse_config((tmp_path / "run.json").read_text())
        model, grid = cfg.resolve()
        rng = path_rngs(cfg.seed, 0, 1)[0]
        closed = closed_form_trajectory(model, grid, model.draw_level(rng.random()),
                                        sample_noise(grid, rng))
        sde, gap = sde_gap(model, closed)
        assert captured.out == (f"max |integrated - closed form| over the grid: {gap.max():.3e}\n"
                                f"wrote {out} (201 rows)\n")
        write_csv(tmp_path / "library.csv", trajectory_columns(sde if mode == "sde" else closed,
                                                               model.spec))
        assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_sde_mode_is_path_0(self, tmp_path, seed):
        # the SDE integrates path 0's increments, so it drives the same W as
        # the closed form and collapses onto the same level
        cfg = write_config(tmp_path, grid={"t_max": 20.0, "dt": 1e-3}, seed=seed)
        runs = {}
        for mode in ("sde", "closed-form"):
            assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / mode),
                             "--mode", mode]) == 0
            header, runs[mode] = read_csv(tmp_path / mode / "trajectory.csv")
        sde, closed = runs["sde"], runs["closed-form"]
        w = header.index("W")
        assert np.max(np.abs(sde[:, w] - closed[:, w])) <= 1e-9
        assert sde[-1, 1] == pytest.approx(closed[-1, 1], abs=1e-3)

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
                  "--seed", "99"])
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert a != b

    def test_missing_config_is_an_error(self, capsys):
        assert cli.main(["simulate"]) == 2
        assert "config" in capsys.readouterr().err


class TestEnsemble:
    def test_outputs_and_verdicts(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["ensemble", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "summary.json").read_text())
        assert set(report["checks"]) == {"born", "martingales"}
        assert all(v["passed"] for v in report["checks"].values())
        assert report["config"]["seed"] == 31
        assert report["base_seed"] == 31
        header, data = read_csv(tmp_path / "summary.csv")
        assert header[0] == "t"
        assert "pi_1_mean" in header and "Phi_12_se" in header
        assert data.shape[0] == 201

    def test_checks_flag_restricts_run(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["ensemble", "--config", cfg, "--out", str(tmp_path),
                         "--checks", "born"]) == 0
        report = json.loads((tmp_path / "summary.json").read_text())
        assert list(report["checks"]) == ["born"]

    def test_failing_check_gives_nonzero_exit(self, tmp_path):
        cfg = write_config(tmp_path, sampler_bias=[0.6, 0.2, 0.2],
                           checks=["born"])
        assert cli.main(["ensemble", "--config", cfg, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "summary.json").read_text())
        assert not report["checks"]["born"]["passed"]

    def test_paths_override(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["ensemble", "--config", cfg, "--out", str(tmp_path),
                         "--paths", "150"]) == 0
        report = json.loads((tmp_path / "summary.json").read_text())
        assert report["n_paths"] == 150

    def test_single_path_serializes_null_stderr(self, tmp_path):
        cfg = write_config(tmp_path, n_paths=1, checks=[])
        assert cli.main(["ensemble", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "summary.json").read_text())
        assert report["stderr_defined"] is False
        assert report["terminal"]["h_se"] is None

    @pytest.mark.parametrize("seed, instance, units", [
        pytest.param(seed, instance, units, id=f"{seed}-{instance}{suffix}")
        for units, suffix in (({}, ""), ({"sigma": 0.7, "hbar": 1.6}, "-off_unit"))
        for seed in (1, 7, 29)
        for instance in ("two_level", "three_level", "degenerate")
    ])
    def test_simulated_path_is_ensemble_path_zero(self, tmp_path, seed, instance, units):
        # simulate draws its level and noise from the generator of ensemble
        # path 0, so a one-path ensemble's means are its series, digit for
        # digit; off sigma = hbar = 1 this also pins where sigma enters xi
        cfg = write_config(tmp_path, instance=instance, seed=seed, checks=[], **units)
        out = str(tmp_path)
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
        assert cli.main(["ensemble", "--config", cfg, "--out", out, "--paths", "1"]) == 0

        def columns(name):
            header, *rows = (tmp_path / name).read_text().splitlines()
            return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))

        path, means = columns("trajectory.csv"), columns("summary.csv")
        pairs = {"H_t": "H_mean", "V_t": "V_mean", "purity": "purity_mean"}
        pairs.update({name: f"{name}_mean" for name in path if name.startswith("pi_")})
        assert len(pairs) >= 5
        for name, mean in pairs.items():
            assert path[name] == means[mean], name


class TestLibraryRoute:
    def test_cli_summary_is_the_library_summary(self, tmp_path):
        # nothing sits between the parsed config and the run: the library
        # route gives the bytes that `ensemble` writes
        path = write_config(tmp_path)
        assert cli.main(["ensemble", "--config", path, "--out", str(tmp_path)]) == 0
        cfg = parse_config((tmp_path / "run.json").read_text())
        echo = cfg.to_dict()
        echo.pop("output")
        expected = json.dumps(summary_report(run_ensemble(cfg), echo), indent=2) + "\n"
        assert (tmp_path / "summary.json").read_text() == expected


class TestOverrideValidation:
    # command-line overrides pass the validators of the config fields
    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path),
                         "--seed", "-3"]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("flag, value, field", [("--paths", "0", "n_paths"),
                                                    ("--checks", "born,bogus", "checks")])
    def test_bad_ensemble_override_names_the_field(self, tmp_path, capsys, flag, value, field):
        cfg = write_config(tmp_path)
        assert cli.main(["ensemble", "--config", cfg, "--out", str(tmp_path),
                         flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")


    @pytest.mark.parametrize("command, extra", [
        ("simulate", ["--mode", "both"]),
        ("ensemble", ["--checks", "born"]),
        ("lindblad", []),
    ])
    def test_rho0_is_validated_once(self, tmp_path, command, extra):
        # the overrides go into the one RunConfig, whose validated rho0
        # resolve() reuses; the echo keeps rho0 as given, not renormalized
        path = write_config(tmp_path, instance=None,
                            hamiltonian={"matrix": {"real": [[0, 0], [0, 1]]}},
                            rho0={"real": [[0.5, 0.0], [0.0, 0.500000000001]]})
        with mock.patch.object(config, "validate_density",
                               wraps=config.validate_density) as validate:
            assert cli.main([command, "--config", path, "--out", str(tmp_path),
                             "--seed", "4", "--paths", "100", *extra]) == 0
        assert validate.call_count == 1
        if command == "ensemble":
            echo = json.loads((tmp_path / "summary.json").read_text())["config"]
            assert (echo["seed"], echo["n_paths"], echo["checks"]) == (4, 100, ["born"])
            assert echo["rho0"] == {"real": [[0.5, 0.0], [0.0, 0.500000000001]]}


class TestLevelAndGridChecks:
    # every command runs the same prologue, so each rejects these configs
    @pytest.mark.parametrize("command", ["simulate", "ensemble", "lindblad"])
    @pytest.mark.parametrize("field, value, message", [
        ("sampler_bias", [1, 1, 1], "sampler_bias has 3 weights for 2 levels"),
        ("check_times", [0.55], "check time 0.55 is not on the output grid"),
    ], ids=["sampler_bias", "check_times"])
    def test_config_rejected_by_every_command(self, tmp_path, capsys, command,
                                              field, value, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"instance": "two_level", field: value,
                                    "grid": {"t_max": 1, "dt": 0.1}}))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == [path]


class TestLindblad:
    def test_mean_state_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["lindblad", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / "lindblad.csv")
        assert header[0] == "t"
        assert "re_11" in header and "im_23" in header
        assert data.shape == (201, 1 + 2 * 9)
        # diagonal is invariant under pure dephasing
        re11 = data[:, header.index("re_11")]
        assert np.allclose(re11, 0.25, atol=1e-9)


class TestGoldenTrajectory:
    def test_first_data_row_is_analytic(self, tmp_path):
        # the t = 0 row is fully determined by the initial state
        cfg = write_config(tmp_path)
        cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        header, data = read_csv(tmp_path / "trajectory.csv")
        row = dict(zip(header, data[0]))
        assert row["xi"] == 0.0 and row["W"] == 0.0
        assert row["purity"] == pytest.approx(0.42)
        assert row["R_12"] == pytest.approx(0.1)
        assert row["R_13"] == pytest.approx(0.05)
        assert row["R_23"] == pytest.approx(0.1)

    def test_float_formatting_is_round_trip_exact(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        value = lines[5].split(",")[1]
        assert float(value) == float(f"{float(value):.17g}")
