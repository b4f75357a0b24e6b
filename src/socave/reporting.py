"""Trajectory CSV files: writing and reading them back.

CSV schema: header ``t,x_1,...,x_n,residual_norm``, then one row per
recorded state: the values printed with ``%.17g`` (17 significant digits,
so doubles round-trip losslessly) joined by commas. Lines end in CRLF.
"""

from __future__ import annotations

import csv

import numpy as np

from .integrator import Trajectory


def write_trajectory_csv(path, traj: Trajectory) -> None:
    n = traj.states.shape[1]
    # one % per row; the bytes are those of csv.writer with format(v, ".17g")
    row = ",".join(["%.17g"] * (n + 2)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", *(f"x_{i + 1}" for i in range(n)), "residual_norm"]) + "\r\n")
        for t, x, r in zip(traj.times.tolist(), traj.states, traj.residual_norms.tolist()):
            fh.write(row % (t, *x.tolist(), r))


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, states, residual_norms) as stored; termination is not persisted."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n = len(header) - 2
        times, states, res = [], [], []
        for row in reader:
            times.append(float(row[0]))
            states.append([float(v) for v in row[1 : n + 1]])
            res.append(float(row[-1]))
    return np.asarray(times), np.asarray(states), np.asarray(res)

