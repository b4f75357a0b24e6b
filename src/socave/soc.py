"""Jordan-algebra operations on (products of) second-order cones.

A second-order cone K^m = {(x1, x2) in R x R^{m-1} : ||x2|| <= x1}; K^1 is
the nonnegative reals. A ConeStructure partitions R^n into an ordered list
of such blocks and every operation here is applied blockwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_vector

# below this, the tail of a block is treated as exactly zero (both branch
# limits of the spectral formulas agree there)
TAIL_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class ConeStructure:
    """Ordered SOC block sizes partitioning R^n."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))
        if not self.blocks:
            raise ValueError("at least one block required")
        if any(b < 1 for b in self.blocks):
            raise ValueError("block sizes must be positive")
        # built once for the hot kernels: per block (slice, head index, tail
        # slice or None for a size-1 block)
        parts, start = [], 0
        for b in self.blocks:
            parts.append((slice(start, start + b), start,
                          slice(start + 1, start + b) if b > 1 else None))
            start += b
        object.__setattr__(self, "_parts", tuple(parts))

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    def slices(self) -> list[slice]:
        return [sl for sl, _, _ in self._parts]


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues and Jordan frame of one SOC block: x = lam1*u1 + lam2*u2."""

    lam1: float
    lam2: float
    u1: np.ndarray
    u2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.lam1 * self.u1 + self.lam2 * self.u2


class Membership(enum.Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    OUTSIDE_CONE = "OutsideCone"
    INSIDE_NEGATIVE_CONE = "InsideNegativeCone"
    NEITHER = "Neither"


def _tail_norm(xb: np.ndarray) -> float:
    s = float(np.linalg.norm(xb[1:]))
    return 0.0 if s < TAIL_ZERO_TOL else s


def eigenvalues(xb: np.ndarray) -> tuple[float, float]:
    """(lam1, lam2) = x1 -/+ ||x2|| of one block; for size 1, both equal x1."""
    s = _tail_norm(xb) if xb.shape[0] > 1 else 0.0
    return float(xb[0]) - s, float(xb[0]) + s


def spectral_decompose(xb: np.ndarray) -> SpectralDecomp:
    """Spectral decomposition of one block of size >= 2.

    When the tail vanishes the frame direction is fixed to the first
    coordinate axis, so the result is deterministic.
    """
    xb = as_vector(xb)
    m = xb.shape[0]
    if m < 2:
        raise ValueError("spectral decomposition needs block size >= 2")
    s = _tail_norm(xb)
    w = np.zeros(m - 1)
    if s > 0.0:
        w = xb[1:] / s
    else:
        w[0] = 1.0
    u1 = 0.5 * np.concatenate(([1.0], -w))
    u2 = 0.5 * np.concatenate(([1.0], w))
    return SpectralDecomp(float(xb[0]) - s, float(xb[0]) + s, u1, u2)


def jordan_product(x, y, cone: ConeStructure) -> np.ndarray:
    """Blockwise Jordan product (<x,y>, y1*x2 + x1*y2)."""
    x = as_vector(x, cone.dim)
    y = as_vector(y, cone.dim)
    out = np.empty_like(x)
    for sl in cone.slices():
        xb, yb = x[sl], y[sl]
        out[sl][0] = float(xb @ yb)
        out[sl][1:] = yb[0] * xb[1:] + xb[0] * yb[1:]
    return out


def soc_abs(x, cone: ConeStructure) -> np.ndarray:
    """Jordan-algebra absolute value sqrt(x o x), blockwise closed form."""
    return abs_kernel(as_vector(x, cone.dim), cone)


def abs_kernel(x: np.ndarray, cone: ConeStructure) -> np.ndarray:
    """soc_abs without input validation, for the integrator's hot path: x
    must be a float vector of dimension cone.dim; non-finite entries give
    non-finite output instead of an error.

    The head is a Python float and the tail norm is sqrt(tail . tail), the
    arithmetic of np.linalg.norm for a real vector, so the result is that
    of the _tail_norm form bit for bit."""
    out = np.empty_like(x)
    for _, i, tail in cone._parts:
        x1 = float(x[i])
        if tail is None:
            out[i] = abs(x1)
            continue
        xt = x[tail]
        s = math.sqrt(xt.dot(xt))
        if s < TAIL_ZERO_TOL:
            out[i] = abs(x1)
            out[tail] = 0.0
        else:
            lo = abs(x1 - s)
            hi = abs(x1 + s)
            out[i] = 0.5 * (lo + hi)
            np.multiply(0.5 * (hi - lo) / s, xt, out=out[tail])
    return out


def project_cone(x, cone: ConeStructure) -> np.ndarray:
    """Euclidean projection onto the cone, blockwise."""
    x = as_vector(x, cone.dim)
    out = np.empty_like(x)
    for sl in cone.slices():
        xb = x[sl]
        if xb.shape[0] == 1:
            out[sl] = max(xb[0], 0.0)
            continue
        s = _tail_norm(xb)
        if xb[0] >= s:  # x in K
            out[sl] = xb
        elif xb[0] <= -s:  # x in -K
            out[sl] = 0.0
        else:
            t = 0.5 * (xb[0] + s)
            out[sl][0] = t
            out[sl][1:] = (t / s) * xb[1:]
    return out


def in_cone(x, cone: ConeStructure, tol: float = 1e-10) -> bool:
    """True if every block has lam1 >= -tol."""
    x = as_vector(x, cone.dim)
    return all(eigenvalues(x[sl])[0] >= -tol for sl in cone.slices())


def cone_membership(x, cone: ConeStructure, tol: float = 1e-10) -> list[Membership]:
    """Classify each block against K / -K with a tolerance band around zero.

    lam1 <= lam2 are the block eigenvalues. Interior/Boundary refer to K;
    InsideNegativeCone means strictly inside -K, OutsideCone on the boundary
    of -K (outside K), Neither is in neither cone.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    x = as_vector(x, cone.dim)
    out = []
    for sl in cone.slices():
        lam1, lam2 = eigenvalues(x[sl])
        if lam1 > tol:
            out.append(Membership.INTERIOR)
        elif lam1 >= -tol and lam2 >= -tol:
            out.append(Membership.BOUNDARY)
        elif lam2 < -tol:
            out.append(Membership.INSIDE_NEGATIVE_CONE)
        elif lam2 <= tol:
            out.append(Membership.OUTSIDE_CONE)
        else:
            out.append(Membership.NEITHER)
    return out


def complementarity_residual(s, t, cone: ConeStructure) -> float:
    """||(s + t) - |s - t||| -- zero iff s, t in K and <s, t> = 0."""
    s = as_vector(s, cone.dim)
    t = as_vector(t, cone.dim)
    return float(np.linalg.norm((s + t) - soc_abs(s - t, cone)))
