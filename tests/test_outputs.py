"""The CSV writer against np.savetxt, which stays the oracle for its bytes."""

import numpy as np
import pytest

from hyperbulk.outputs import write_csv

WIDE = np.random.default_rng(5).normal(size=(7, 2560))


@pytest.mark.parametrize(
    "header, columns",
    [
        pytest.param(["index", "value"], [np.arange(6), np.array([1.0, -2.5, 5e-324, 1e300, -1e-300, -0.0])],
                     id="mixed"),
        pytest.param(["index", "count"], [np.arange(4), np.array([0, -3, 2**53 + 1, 7])], id="integer"),
        pytest.param(["energy", "value"], [np.array([-0.1]), np.array([np.pi])], id="one-row"),
        pytest.param(["value"], [np.array([1 / 3, -2.0, 2.2250738585072014e-308])], id="one-column"),
        pytest.param(["index", "w1", "w2", "w3"] + [f"e{i}" for i in range(WIDE.shape[1])],
                     [np.arange(7), [(1.0, 0.0, 0.0), (0.5, 0.5, 0.0)] * 3 + [(1.0, 0.0, 0.0)], WIDE], id="flow"),
        pytest.param(["index", "eigenvalue"], [np.arange(0), np.zeros(0)], id="no-rows"),
    ],
)
def test_csv_bytes_equal_savetxt(tmp_path, header, columns):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(str(got), header, columns)
    np.savetxt(str(want), np.column_stack(columns), fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    assert got.read_bytes() == want.read_bytes()
