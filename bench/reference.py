"""Time a fixed CPU task, to tell how fast the host runs right now.

Usage: python3 reference.py

The benchmark runs this in a fresh interpreter, with the CLI's BLAS
threads, before the first timed CLI run and after each, and divides the
median CLI wall time by the mean of these times. On a shared VM whose
Python speed switches between two levels about 1.7x apart, staying at
one for seconds to minutes, that ratio follows the program more closely
than the raw time does. The task mixes the kinds of work socave does,
in about equal time: a pure-Python loop, numpy calls on 2-vectors, and
dense 1000 x 1000 matrix-vector products. It runs no socave code, so a
change to socave leaves it alone. Only the task is timed, not the
interpreter's start or the numpy import. Prints {"reference_s": seconds}
as JSON.
"""

import json
import time

import numpy as np


def task() -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1000, 1000))
    x = rng.standard_normal(1000)
    v = np.ones(2)
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(1_000_000):
        total += i * i
        table[i & 1023] = total
    for _ in range(40_000):
        v = np.abs(v) + np.sqrt(v @ v) * 0.0
    for _ in range(500):
        a @ x
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(json.dumps({"reference_s": task()}))
