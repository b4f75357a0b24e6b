"""The reference Euclidean norm that the test modules share."""

import math

import numpy as np


def reference_norm(v):
    """np.linalg.norm of v, and math.hypot of it where the sum of squares
    overflows, with no warning: the norm of every reference form, which
    linalg.vector_norm must match bit for bit."""
    with np.errstate(over="ignore"):
        s = float(np.linalg.norm(v))
    return math.hypot(*v) if s == math.inf else s
