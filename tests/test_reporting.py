import numpy as np

from reduction_lab.reporting import fmt, write_csv


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
