import json
import tracemalloc

import numpy as np
import pytest

from reduction_lab import FilterModel, TimeGrid, dynamics, spectral_decompose
from reduction_lab.config import parse_config
from reduction_lab.filtering import closed_form_trajectory, sde_gap
from reduction_lab.harness import path_rngs
from reduction_lab.instances import degenerate
from reduction_lab.reporting import fmt, trajectory_columns, write_csv


def test_sde_and_closed_form_share_one_record():
    # simulate writes either route through the same trajectory_columns
    h, rho0 = degenerate()
    spec = spectral_decompose(h)
    grid = TimeGrid.from_duration(0.1, 1e-2)
    noise = dynamics.sample_noise(grid, np.random.default_rng(5))
    sde = dynamics.simulate_sme(rho0, spec, 1.0, 1.0, grid, noise)
    model = FilterModel(rho0, spec, 1.0, 1.0)
    closed = closed_form_trajectory(model, grid, 1, noise)
    assert type(sde) is type(closed) is dynamics.Trajectory
    assert closed.states is None and closed.repairs == 0
    assert sde.states.shape == (grid.n_steps + 1, 3, 3)
    sde_columns, closed_columns = trajectory_columns(sde, spec), trajectory_columns(closed, spec)
    assert list(sde_columns) == list(closed_columns)
    assert list(sde_columns) == ["t", "H_t", "V_t", "purity", "xi", "W", "pi_1", "pi_2", "R_12"]


def test_write_csv_matches_per_value_formatting(tmp_path):
    # the row template must print exactly what fmt prints, value by value,
    # and the ROW_BLOCK-row blocks must neither drop, repeat nor reorder a
    # row: the special values sit at both ends and astride every block edge
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
               -1e-310, 1e308, -1.7976931348623157e308, 1.0 / 3.0, 0.1, 1e16, 123456789.0]
    half = len(special) // 2
    for n in (2500, 9001):
        rng = np.random.default_rng(0)
        first = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        first[:len(special)] = special
        first[-len(special):] = special
        for edge in range(dynamics.ROW_BLOCK, n, dynamics.ROW_BLOCK):
            first[edge - half:edge + half] = special
        columns = {
            "values": first,
            "ints": np.arange(n),
            "view": np.arange(2 * n, dtype=float)[::2] / 7.0,
        }
        path = tmp_path / f"{n}.csv"
        write_csv(path, columns)
        expected = ",".join(columns) + "\n" + "".join(
            ",".join(fmt(x) for x in row) + "\n" for row in zip(*columns.values())
        )
        assert path.read_bytes() == expected.encode(), n


@pytest.mark.parametrize("lengths", [(1024, 1500), (1500, 1024), (3, 2)])
def test_write_csv_rejects_columns_of_unequal_length(tmp_path, lengths):
    # blocks of a row range that one column ends inside must not drop its tail
    # and the lengths are compared before the file is opened, so none is left
    columns = {f"c{i}": np.zeros(n) for i, n in enumerate(lengths)}
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"'c0': {lengths[0]}, 'c1': {lengths[1]}"):
        write_csv(path, columns)
    assert not path.exists()


class TestSdeBothMemory:
    """Memory gates on the sde_both grid (three_level, t_max 20, dt 1e-3,
    20 001 points), path 0 of seed 1 as `simulate` draws it. The one
    (20 001, 3, 3) stack of SDE states is 2.9 MB; a whole-grid temporary of
    that shape costs as much again."""

    @pytest.fixture(scope="class")
    def path(self):
        cfg = parse_config(json.dumps(
            {"instance": "three_level", "grid": {"t_max": 20.0, "dt": 1e-3}}), seed=1)
        model, grid = cfg.resolve()
        rng = path_rngs(cfg.seed, 0, 1)[0]
        level = model.draw_level(rng.random())
        return model, closed_form_trajectory(model, grid, level, dynamics.sample_noise(grid, rng))

    def test_sde_gap_holds_one_stack_of_states(self, path):
        model, closed = path
        tracemalloc.start()
        try:
            sde_gap(model, closed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    def test_write_csv_builds_no_whole_table(self, path, tmp_path):
        model, closed = path
        columns = trajectory_columns(closed, model.spec)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "trajectory.csv", columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak
