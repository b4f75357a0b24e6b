"""Every file the package reads or writes: JSON in and out, trajectory CSVs.

CSV schema: header ``t,x_1,...,x_n,residual_norm``, then one row per
recorded state: the values printed with ``%.17g`` (17 significant digits,
so doubles round-trip losslessly) joined by commas. Lines end in CRLF.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .integrator import Trajectory


def read_json(path, parse):
    """parse(the JSON value in the file at path); any error in reading or
    parsing it is a ValueError "<path>: <reason>"."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON: {e}") from e
    except (ValueError, TypeError, RecursionError) as e:  # RecursionError: nested too deep
        raise ValueError(f"{path}: {e}") from e


def write_json(path, obj) -> None:
    """obj as strict JSON (RFC 8259), indented by 2, with a final newline; a
    nan or inf in it raises ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


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
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 0], table[:, 1:-1], table[:, -1]
