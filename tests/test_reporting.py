import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socave.integrator import Termination, Trajectory
from socave.reporting import read_trajectory_csv, write_trajectory_csv

SPECIAL = [-0.0, 5e-324, 1e-300, 0.1, 1 / 3, float(2**53 + 1), 1e22, -1e300,
           0.0, -2.5e-310, 1.7976931348623157e308, np.inf, -np.inf, np.nan]


def _reference_csv(path, traj):
    """The writer as it was: csv.writer, one format(v, ".17g") per cell."""
    n = traj.states.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i + 1}" for i in range(n)] + ["residual_norm"])
        for t, x, r in zip(traj.times, traj.states, traj.residual_norms):
            writer.writerow([format(t, ".17g")] + [format(v, ".17g") for v in x]
                            + [format(r, ".17g")])


def _trajectory(times, states, res):
    return Trajectory(times=np.asarray(times, dtype=float),
                      states=np.asarray(states, dtype=float),
                      residual_norms=np.asarray(res, dtype=float),
                      termination=Termination.REACHED_TF,
                      n_accepted=len(times) - 1, n_rejected=0)


def _special_trajectory(n):
    rows = len(SPECIAL)
    values = [SPECIAL[(i + j) % rows] for i in range(rows) for j in range(n)]
    return _trajectory(SPECIAL, np.reshape(values, (rows, n)), SPECIAL[::-1])


def _assert_same_bytes(tmp_path, traj):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_trajectory_csv(new, traj)
    _reference_csv(ref, traj)
    data = new.read_bytes()
    assert data == ref.read_bytes()
    return data


class TestTrajectoryCsv:
    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_bytes_match_csv_writer(self, tmp_path, n):
        data = _assert_same_bytes(tmp_path, _special_trajectory(n))
        lines = data.split(b"\r\n")
        assert lines[-1] == b""  # every line, the last too, ends in CRLF
        assert len(lines) == len(SPECIAL) + 2
        assert not any(b"\n" in line or b"\r" in line for line in lines)
        assert lines[0].startswith(b"t,x_1,") and lines[0].endswith(b",residual_norm")
        assert b"-0," in lines[1] and b"4.9406564584124654e-324" in data

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=30))
    def test_bytes_match_csv_writer_on_any_doubles(self, tmp_path_factory, values):
        rows = len(values) // 3
        traj = _trajectory(values[:rows], np.reshape(values[rows:2 * rows], (rows, 1)),
                           values[2 * rows:3 * rows])
        _assert_same_bytes(tmp_path_factory.mktemp("csv"), traj)

    def test_round_trip_is_lossless(self, tmp_path):
        traj = _special_trajectory(3)
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, traj)
        times, states, res = read_trajectory_csv(path)
        for got, want in ((times, traj.times), (states, traj.states), (res, traj.residual_norms)):
            assert got.tobytes() == want.tobytes()
