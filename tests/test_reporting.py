import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socave.dynamics import DynamicsConfig
from socave.integrator import IntegratorOptions, Termination, Trajectory, integrate
from socave.problems import example_tridiag
from socave.reporting import CSV_CHUNK_VALUES, read_trajectory_csv, write_trajectory_csv

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


# NaNs with other payloads and sign bits (a signalling one too), infinities,
# signed zeros and subnormals: the values a key by float would get wrong
SPECIAL_BITS = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFF40000000ABCDE], dtype=np.uint64).view(np.float64)
POOL_SPECIAL = [0.0, -0.0, *SPECIAL_BITS.tolist(), np.inf, -np.inf, 5e-324, -2.5e-310]


def _distinct_shares(traj):
    """Per chunk of the writer, the share of its values that are distinct
    bit patterns."""
    width = traj.states.shape[1] + 2
    step = max(1, CSV_CHUNK_VALUES // width)
    table = np.column_stack((traj.times, traj.states, traj.residual_norms))
    return [np.unique(table[k:k + step].view(np.int64)).size / table[k:k + step].size
            for k in range(0, len(table), step)]


def _pooled_trajectory(rows, n, pool, free_share, seed):
    """rows x (n + 2) values, each drawn from pool or, with probability
    free_share, as a random 64-bit pattern."""
    rng = np.random.default_rng(seed)
    size = rows * (n + 2)
    table = np.asarray(pool, dtype=float)[rng.integers(len(pool), size=size)]
    free = rng.random(size) < free_share
    table[free] = rng.integers(-2**63, 2**63, size=int(free.sum()), dtype=np.int64).view(np.float64)
    table = table.reshape(rows, n + 2)
    return _trajectory(table[:, 0], table[:, 1:-1], table[:, -1])


class TestDistinctValueWriter:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(0, 300), n=st.integers(1, 60),
           pool=st.lists(st.one_of(st.sampled_from(POOL_SPECIAL), st.floats()),
                         min_size=1, max_size=8),
           free_share=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_bytes_match_csv_writer(self, tmp_path_factory, rows, n, pool, free_share,
                                    seed):
        traj = _pooled_trajectory(rows, n, pool, free_share, seed)
        _assert_same_bytes(tmp_path_factory.mktemp("csv"), traj)

    @pytest.mark.parametrize("n", [1000, 2])
    def test_chunks_taking_each_branch(self, tmp_path, n):
        step = CSV_CHUNK_VALUES // (n + 2)
        # chunk 0 repeats one pool, chunk 1 is random bits, chunk 2 (a part
        # chunk) repeats another pool
        parts = [_pooled_trajectory(step, n, POOL_SPECIAL, 0.0, 1),
                 _pooled_trajectory(step, n, [0.0], 1.0, 2),
                 _pooled_trajectory(step // 2 + 1, n, [1 / 3, -1 / 3, 0.1], 0.0, 3)]
        traj = _trajectory(np.concatenate([p.times for p in parts]),
                           np.concatenate([p.states for p in parts]),
                           np.concatenate([p.residual_norms for p in parts]))
        shares = _distinct_shares(traj)
        assert len(shares) == 3 and shares[0] <= 0.5 < shares[1] and shares[2] <= 0.5
        data = _assert_same_bytes(tmp_path, traj)
        assert data.count(b"\r\n") == len(traj.times) + 1

    def test_a_chunk_exactly_half_distinct(self, tmp_path):
        # 1024 rows of 4 values per chunk: 2048 distinct, each twice
        values = np.arange(2048, dtype=float) - 1024.5
        table = np.repeat(values, 2).reshape(1024, 4)
        traj = _trajectory(table[:, 0], table[:, 1:-1], table[:, -1])
        assert _distinct_shares(traj) == [0.5]
        _assert_same_bytes(tmp_path, traj)

    def test_suite_tridiag_run(self, tmp_path):
        p, _ = example_tridiag(1000)
        traj = integrate(p, DynamicsConfig(50.0), np.zeros(1000), (0.0, 0.1),
                         IntegratorOptions())
        assert max(_distinct_shares(traj)) <= 0.5  # repeats dominate every chunk
        _assert_same_bytes(tmp_path, traj)
