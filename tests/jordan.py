"""Jordan-algebra oracles of the second-order cone, block by block, for the
tests of |x| and P_K: the block slices, the Jordan product, the
eigenvalues, the spectral decomposition and the membership test. socave
computes none of them; each tail norm is reference_norm, whose bits
linalg.vector_norm matches."""

from itertools import accumulate

import numpy as np

from norm_reference import reference_norm


def slices(cone):
    """The slice of each block of cone, in order."""
    return [slice(end - b, end) for b, end in zip(cone.blocks, accumulate(cone.blocks))]


def jordan_product(x, y, cone):
    """x o y = (<x, y>, y1*x2 + x1*y2), block by block."""
    out = np.empty_like(x)
    for sl in slices(cone):
        xb, yb = x[sl], y[sl]
        out[sl][0] = float(xb @ yb)
        out[sl][1:] = yb[0] * xb[1:] + xb[0] * yb[1:]
    return out


def eigenvalues(xb):
    """(lam1, lam2) = x1 -/+ ||x2|| of one block; for size 1, both equal x1."""
    s = reference_norm(xb[1:])
    return float(xb[0]) - s, float(xb[0]) + s


def spectral_decompose(xb):
    """(lam1, lam2, u1, u2) of one block of size >= 2, with
    xb = lam1*u1 + lam2*u2 and u1, u2 = (1, -/+w)/2 for w = x2/||x2||. A zero
    tail takes the first tail axis as w."""
    x1, x2 = float(xb[0]), xb[1:]
    s = reference_norm(x2)
    w = x2 / s if s > 0.0 else np.eye(1, x2.size)[0]
    return x1 - s, x1 + s, 0.5 * np.concatenate(([1.0], -w)), 0.5 * np.concatenate(([1.0], w))


def in_cone(x, cone, tol=1e-10):
    """True if every block has lam1 >= -tol, for a tol >= 0: each block lies
    in K, or on its boundary, to within tol."""
    return all(eigenvalues(x[sl])[0] >= -tol for sl in slices(cone))
