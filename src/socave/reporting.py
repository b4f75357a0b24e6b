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


# values per chunk: small enough that the sort stays cheap in memory
CSV_CHUNK_VALUES = 4096


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """traj as CSV (schema above). The table goes out in chunks of about
    CSV_CHUNK_VALUES values, and each distinct bit pattern of a chunk is
    formatted once; a chunk whose values are more than half distinct is
    formatted row by row instead, counted on a sort before any lookup is
    built. Either way the bytes are those of one "%.17g" per value."""
    n = traj.states.shape[1]
    width = n + 2
    # one % per row; the bytes are those of csv.writer with format(v, ".17g")
    row = ",".join(["%.17g"] * width) + "\r\n"
    step = max(1, CSV_CHUNK_VALUES // width)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", *(f"x_{i + 1}" for i in range(n)), "residual_norm"]) + "\r\n")
        for k in range(0, len(traj.times), step):
            chunk = np.column_stack((traj.times[k:k + step], traj.states[k:k + step],
                                     traj.residual_norms[k:k + step]))
            # keyed by bit pattern: a float key would merge -0.0 with 0.0
            bits = chunk.astype(np.float64, copy=False).view(np.int64).ravel()
            keys = np.sort(bits)
            first = np.empty(keys.size, dtype=bool)  # the first of each run of equal keys
            first[:1] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            if 2 * np.count_nonzero(first) > bits.size:
                fh.writelines([row % tuple(r) for r in chunk.tolist()])
                continue
            keys = keys[first]
            text = ["%.17g" % v for v in keys.view(np.float64).tolist()]
            words = np.asarray(text, dtype=object)[np.searchsorted(keys, bits)]
            words = words.reshape(-1, width).tolist()
            fh.writelines([",".join(r) + "\r\n" for r in words])


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, states, residual_norms) as stored; termination is not persisted."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 0], table[:, 1:-1], table[:, -1]
