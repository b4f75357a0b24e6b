"""The reference Euclidean norm that the test modules share."""

import math

import numpy as np

# the least norm whose square is a normal float: sqrt(sys.float_info.min)
NORMAL_NORM_MIN = 2.0**-511


def reference_norm(v):
    """np.linalg.norm of v, and math.hypot of it where the sum of squares is
    not a normal float, as it overflows or is below the least normal float,
    0 included, with no warning: the norm of every reference form, which
    linalg.vector_norm must match bit for bit."""
    with np.errstate(over="ignore", under="ignore"):
        s = float(np.linalg.norm(v))
    return math.hypot(*v) if s == math.inf or s < NORMAL_NORM_MIN else s
