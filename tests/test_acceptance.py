"""End-to-end verification: every claim the package makes about the
dynamics, checked at its stated tolerance on the built-in reference
instances. One test (and one printed verdict line) per criterion."""

import json
import threading
import time
import types

import pytest

from reduction_lab import RunConfig, ToleranceSet, Verdict, acceptance, cli, spectral_decompose
from reduction_lab.errors import ReductionLabError
from reduction_lab.instances import two_level


@pytest.fixture(scope="module")
def timed_run():
    started = time.perf_counter()
    rows = acceptance.run_all()
    yield rows, time.perf_counter() - started


@pytest.fixture(scope="module")
def rows(timed_run):
    yield timed_run[0]


@pytest.fixture(scope="module")
def results(rows):
    yield {r.number: r for r in rows}


def test_criteria_are_numbered_one_to_ten(rows):
    # the benchmark's verify check parses exactly rows 1..10: a new claim
    # folds into an existing criterion
    assert [r.number for r in rows] == list(range(1, 11))


def _assert_criterion(results, number):
    r = results[number]
    status = "PASS" if r.passed else "FAIL"
    print(f"[{status}] criterion {r.number}: {r.claim}")
    print(f"        measured : {r.measured}")
    print(f"        threshold: {r.threshold}  ({r.runtime_s:.2f}s)")
    assert r.passed, f"criterion {number}: {r.measured} vs {r.threshold}"


def test_criterion_01_oracle_equivalence(results):
    _assert_criterion(results, 1)
    r = results[1]
    assert r.details["err_coarse"] < 5e-3
    assert 0.35 <= r.details["ratio"] <= 0.75
    assert r.runtime_s < 10.0


def test_criterion_02_born_rule(results):
    _assert_criterion(results, 2)
    assert results[2].runtime_s < 60.0


def test_criterion_03_terminal_moments(results):
    _assert_criterion(results, 3)
    r = results[3]
    assert r.details["z_mean"] <= 3.0
    assert r.details["z_var"] <= 3.0


def test_criterion_04_variance_decay(results):
    _assert_criterion(results, 4)
    r = results[4]
    assert r.details["worst_bound_margin"] <= 0.0
    assert r.details["terminal_v_mean"] < 1e-6


def test_criterion_05_lindblad_mean(results):
    _assert_criterion(results, 5)
    assert results[5].details["z_mean_state"] <= 3.0


def test_criterion_06_decoherence_rates(results):
    _assert_criterion(results, 6)
    slopes = results[6].details["slopes"]
    for stats in slopes.values():
        assert stats["relative_error"] <= 0.10
    for ratio in results[6].details["ratios"]:
        assert 3.6 <= ratio <= 4.4


def test_criterion_07_luders_outcomes(results):
    _assert_criterion(results, 7)
    r = results[7]
    assert r.details["ground"]["dist_mean"] < 1e-4
    assert abs(r.details["ground"]["purity_mean"] - 0.5) <= 1e-3
    assert r.details["excited"]["dist_mean"] < 1e-4
    assert abs(r.details["excited"]["purity_mean"] - 1.0) <= 1e-3


def test_criterion_08_internal_consistency(results):
    _assert_criterion(results, 8)
    assert results[8].details["worst"] < 1e-10


def test_criterion_08_fails_when_levels_are_merged(monkeypatch):
    # mutation: a decomposition that merges eigenvalues closer than 0.3
    # into one level must show as a gap between the two routes
    merging = ToleranceSet(degeneracy_tol=0.3)
    monkeypatch.setattr(acceptance, "spectral_decompose",
                        lambda h: spectral_decompose(h, tols=merging))
    result = acceptance.criterion_internal_consistency()
    assert not result.passed
    assert result.details["worst"] >= 1e-10


def _degenerate_summary(luders_passed):
    stats = {"dist_mean": 1e-11, "purity_mean": 0.5}
    return types.SimpleNamespace(
        checks={"luders": Verdict("luders", luders_passed, 0.0, 1.0)},
        luders={0: stats, 1: dict(stats, purity_mean=1.0)},
    )


def test_criterion_07_reads_the_luders_verdict():
    assert acceptance.criterion_luders(_degenerate_summary(True)).passed
    failed = acceptance.criterion_luders(_degenerate_summary(False))
    assert not failed.passed
    assert failed.measured == (
        "doublet: dist 1.00e-11, purity 0.500000; excited: dist 1.00e-11, purity 1.000000"
    )
    unsampled = _degenerate_summary(True)
    del unsampled.luders[1]
    assert not acceptance.criterion_luders(unsampled).passed


def test_criterion_09_determinism(results):
    _assert_criterion(results, 9)
    assert results[9].details["children_wall_s"] > 0.0


def test_runtimes_add_up_to_the_run(timed_run):
    # each second of run_all is charged to one criterion at most once: the
    # lane's time shows only as criterion 9's wait for it
    rows, wall_s = timed_run
    charged = sum(r.runtime_s for r in rows)
    assert charged <= wall_s
    assert wall_s - charged < 0.1


def test_criterion_10_negative_controls(results):
    _assert_criterion(results, 10)


def test_cli_run_with_a_failing_check_still_counts(tmp_path):
    # criterion 10's doubled-drift control FAILs its check, so the ensemble
    # command exits 1 after writing its files: a finished run, not an error
    config = tmp_path / "run.json"
    config.write_text(RunConfig(
        *two_level(), t_max=10.0, dt=0.1, n_paths=2000,
        seed=acceptance.SEED_CONTROL, checks=("martingales",), drift_multiplier=2.0,
    ).to_json())
    out = tmp_path / "out"
    acceptance._run_cli(["ensemble", "--config", str(config), "--out", str(out)], 1, tmp_path)
    assert (out / "summary.csv").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["martingales"]["passed"] is False


def _outputs():
    files = {"trajectory.csv": b"t,H_t\n0,0.5\n", "summary.json": b"{}", "summary.csv": b"t\n0\n"}
    return {tag: dict(files) for tag in "abc"}


def _flip_first_byte(outputs, tag, name):
    data = outputs[tag][name]
    outputs[tag][name] = bytes([data[0] ^ 1]) + data[1:]
    return outputs


def test_determinism_fails_on_a_flipped_byte():
    assert acceptance.criterion_determinism((_outputs(), 1.0)).passed
    threads = acceptance.criterion_determinism((_flip_first_byte(_outputs(), "c", "summary.csv"), 1.0))
    assert not threads.passed
    assert threads.measured == "rerun identical: True, threads 1 vs 4 identical: False"
    rerun = acceptance.criterion_determinism((_flip_first_byte(_outputs(), "b", "summary.csv"), 1.0))
    assert not rerun.passed
    assert rerun.measured == "rerun identical: False, threads 1 vs 4 identical: True"


@pytest.fixture
def stub_criteria(monkeypatch):
    """Every criterion but 9 and every shared ensemble replaced by an
    instant stub; criterion 9's comparison is the real one."""
    for name in vars(acceptance).copy():
        if name.startswith("criterion_") and name != "criterion_determinism":
            monkeypatch.setattr(acceptance, name, lambda *_, name=name: acceptance._result(
                0, name, True, "", ""))
        elif name.startswith("ensemble_"):
            monkeypatch.setattr(acceptance, name, lambda: None)
    return monkeypatch


def test_children_start_on_their_own_lane_before_criterion_1(stub_criteria):
    lane_started = threading.Event()
    lanes, waits = [], []

    def runs():
        lanes.append(threading.get_ident())
        lane_started.set()
        return _outputs(), 0.0

    def criterion_1():
        waits.append(lane_started.wait(timeout=10))
        return acceptance._result(1, "stub", True, "", "")

    stub_criteria.setattr(acceptance, "determinism_runs", runs)
    stub_criteria.setattr(acceptance, "criterion_oracle_equivalence", criterion_1)
    rows = acceptance.run_all()
    assert waits == [True]
    assert len(lanes) == 1 and lanes[0] != threading.get_ident()
    assert [r.passed for r in rows] == [True] * 10


def test_a_lane_error_surfaces_from_verify(stub_criteria, capsys):
    def runs():
        raise ReductionLabError("cli failed (2): stub")

    stub_criteria.setattr(acceptance, "determinism_runs", runs)
    with pytest.raises(ReductionLabError, match="stub"):
        acceptance.run_all()
    assert cli.main(["verify"]) == 2
    assert capsys.readouterr().err == "error: cli failed (2): stub\n"


def test_a_failing_criterion_waits_for_the_lane(stub_criteria):
    finished = threading.Event()

    def runs():
        time.sleep(0.2)
        finished.set()
        return _outputs(), 0.2

    def criterion_1():
        raise RuntimeError("criterion 1 broke")

    stub_criteria.setattr(acceptance, "determinism_runs", runs)
    stub_criteria.setattr(acceptance, "criterion_oracle_equivalence", criterion_1)
    with pytest.raises(RuntimeError, match="criterion 1 broke"):
        acceptance.run_all()
    assert finished.is_set()
