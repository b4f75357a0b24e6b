"""Benchmark problem constructors: the four reference instances and seeded
random instances with certified unique solvability."""

from __future__ import annotations

import math

import numpy as np

from .linalg import TridiagToeplitz, as_count, as_positive, as_vector, quoted, vector_norm
from .model import AveProblem
from .rng import SplitMix64
from .soc import ConeStructure, soc_abs

# initial_grid's sphere radius, and the seed of its directions when n > 2
GRID_RADIUS = 3.0
GRID_SEED = 12345

TOY_RHS = {
    "multi": (0.0, 0.0),
    "unique": (-1.0, -1.0),
    "none": (1.0, 1.0),
}


def example_tridiag(n: int) -> tuple[AveProblem, np.ndarray]:
    """tridiag(-1, 4, -1) instance with known solution (-1, 1, -1, 1, ...).

    A is kept banded (TridiagToeplitz), so n = 10^5 needs no n-by-n array.
    b is built as A x* - |x*| so the residual at x* vanishes by
    construction. The whole space is one SOC block.
    """
    n = as_count(n, "n")
    if n % 2:
        raise ValueError(f"n must be even, got {n}")
    A = TridiagToeplitz(n, -1.0, 4.0, -1.0)
    x_star = np.tile([-1.0, 1.0], n // 2)
    cone = ConeStructure((n,))
    b = A.matvec(x_star) - soc_abs(x_star, cone)
    return AveProblem(A, b, cone, name=f"tridiag(n={n})"), x_star


def example_toy(name: str) -> AveProblem:
    """2-d instances with A = diag(1, -1): infinitely many solutions
    ('multi'), the unique solution (0, 1) ('unique'), or none ('none')."""
    if name not in TOY_RHS:
        raise ValueError(f"unknown toy problem {quoted(name)}")
    A = np.diag([1.0, -1.0])
    b = np.array(TOY_RHS[name])
    return AveProblem(A, b, ConeStructure((2,)), name=name)


def _qr_orthogonal(rng: SplitMix64, n: int) -> np.ndarray:
    """Orthogonal factor of a seeded gaussian matrix, sign-fixed for determinism."""
    G = np.array(rng.gaussians(n * n)).reshape(n, n)
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diag(R))


def random_unique(n: int, blocks: ConeStructure, margin: float,
                  seed: int) -> tuple[AveProblem, np.ndarray]:
    """Seeded instance with sigma_min(A) >= 1 + margin and known solution.

    A = Q1 D Q2^T with orthogonal factors from gaussian QR and singular
    values uniform in [1 + margin, 3 + margin]; x* is standard gaussian and
    b = A x* - |x*|.
    """
    n = as_count(n, "n")
    as_positive(margin, "margin")
    if blocks.dim != n:
        raise ValueError("blocks must partition R^n")
    rng = SplitMix64(seed)
    q1 = _qr_orthogonal(rng, n)
    q2 = _qr_orthogonal(rng, n)
    d = np.array([rng.uniform(1.0 + margin, 3.0 + margin) for _ in range(n)])
    A = (q1 * d) @ q2.T
    x_star = np.array(rng.gaussians(n))
    b = A @ x_star - soc_abs(x_star, blocks)
    p = AveProblem(A, b, blocks, name=f"random_unique(n={n},seed={seed})")
    return p, x_star


def initial_grid(center, k: int) -> np.ndarray:
    """k deterministic start points on the sphere of radius GRID_RADIUS about center.

    In 2-d the points are equally spaced on the circle starting at angle 0;
    in higher dimensions directions come from a fixed seeded gaussian
    stream, normalized.
    """
    center = as_vector(center)
    n = center.shape[0]
    k = as_count(k, "k")
    pts = np.empty((k, n))
    if n == 2:
        for j in range(k):
            theta = 2.0 * math.pi * j / k
            pts[j] = center + GRID_RADIUS * np.array([math.cos(theta), math.sin(theta)])
    else:
        rng = SplitMix64(GRID_SEED)
        for j in range(k):
            d = np.array(rng.gaussians(n))
            d /= vector_norm(d)
            pts[j] = center + GRID_RADIUS * d
    return pts
