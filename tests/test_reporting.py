import numpy as np

from reduction_lab import FilterModel, TimeGrid, dynamics, spectral_decompose
from reduction_lab.filtering import closed_form_trajectory
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
    # across the 4 096-row batches
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
               -1e-310, 1e308, -1.7976931348623157e308, 1.0 / 3.0, 0.1, 1e16, 123456789.0]
    n = 9001
    rng = np.random.default_rng(0)
    first = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    first[:len(special)] = special
    first[-len(special):] = special
    columns = {
        "values": first,
        "ints": np.arange(n),
        "view": np.arange(2 * n, dtype=float)[::2] / 7.0,
    }
    path = tmp_path / "out.csv"
    write_csv(path, columns)
    expected = ",".join(columns) + "\n" + "".join(
        ",".join(fmt(x) for x in row) + "\n" for row in zip(*columns.values())
    )
    assert path.read_bytes() == expected.encode()
