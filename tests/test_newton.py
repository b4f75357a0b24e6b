"""A generalized Newton method as an oracle independent of the ODE path.

For A x - |x| = b, Newton's step with V_k an element of the generalized
Jacobian of |x| at x_k is x_{k+1} = (A - V_k)^{-1} b, because |x| is
positively homogeneous, so V_k x_k = |x_k| (Hu, Huang & Zhang 2011,
J. Comput. Appl. Math. 235:1490). Per block (x1, x2) with s = ||x2|| and
w = x2 / s, V is I inside K, -I inside -K, and [[0, w^T], [w, (x1/s)(I - w w^T)]]
between the two cones. It needs only numpy, the dense A, b and the block
slices: no soc kernel and no integrator.
"""

import numpy as np
import pytest

from jordan import slices
from socave.dynamics import DynamicsConfig
from socave.integrator import IntegratorOptions, Termination, integrate
from socave.problems import random_unique
from socave.soc import ConeStructure, soc_abs

CONES = [(1, 2, 4, 1, 3, 2), (3, 1, 1, 2), (5, 2, 1), (2, 2, 2, 1, 1)]


def abs_jacobian(x, cone):
    """A generalized Jacobian of the cone absolute value at x, block-diagonal."""
    V = np.zeros((x.size, x.size))
    for sl in slices(cone):
        x1, x2 = x[sl][0], x[sl][1:]
        s = np.linalg.norm(x2)
        if x1 >= s:
            V[sl, sl] = np.eye(x2.size + 1)
        elif x1 <= -s:
            V[sl, sl] = -np.eye(x2.size + 1)
        else:
            w = x2 / s
            block = np.zeros((x2.size + 1, x2.size + 1))
            block[0, 1:] = w
            block[1:, 0] = w
            block[1:, 1:] = (x1 / s) * (np.eye(w.size) - np.outer(w, w))
            V[sl, sl] = block
    return V


def newton(p, max_iter=50):
    """Generalized Newton from x = A^{-1} b (V = 0), until an iterate moves
    by at most 1e-13."""
    A = p.A.to_dense()
    x = np.linalg.solve(A, p.b)
    for _ in range(max_iter):
        x_new = np.linalg.solve(A - abs_jacobian(x, p.cone), p.b)
        if np.max(np.abs(x_new - x)) <= 1e-13:
            return x_new
        x = x_new
    raise AssertionError("generalized Newton did not converge")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_jacobian_matches_central_differences(seed):
    # heads at 0.5, 0.5, 2 and -2 times the tail norm put the 2- and 4-blocks
    # between the cones, the 3-block in K and the last 2-block in -K
    cone = ConeStructure(CONES[0])
    rng = np.random.default_rng(seed)
    x, d = rng.standard_normal(cone.dim), rng.standard_normal(cone.dim)
    tails = [sl for sl in slices(cone) if sl.stop - sl.start > 1]
    for sl, c in zip(tails, (0.5, 0.5, 2.0, -2.0)):
        x[sl.start] = c * np.linalg.norm(x[sl][1:])
    eps = 1e-6
    fd = (soc_abs(x + eps * d, cone) - soc_abs(x - eps * d, cone)) / (2 * eps)
    assert np.allclose(abs_jacobian(x, cone) @ d, fd, rtol=0, atol=1e-8)


@pytest.mark.parametrize("seed, blocks", list(enumerate(CONES, start=1)))
def test_newton_reaches_the_known_solution(seed, blocks):
    cone = ConeStructure(blocks)
    p, x_star = random_unique(cone.dim, cone, 0.5, seed)
    assert np.max(np.abs(newton(p) - x_star)) <= 1e-10


@pytest.mark.parametrize("seed, blocks", list(enumerate(CONES, start=1)))
def test_integrate_lands_on_the_newton_solution(seed, blocks):
    cone = ConeStructure(blocks)
    p, _ = random_unique(cone.dim, cone, 0.5, seed)
    opts = IntegratorOptions(rtol=1e-9, atol=1e-12, stop_on_residual=1e-8)
    traj = integrate(p, DynamicsConfig(1.0), np.zeros(p.n), (0.0, 100.0), opts)
    assert traj.termination is Termination.RESIDUAL_EVENT
    assert np.max(np.abs(traj.final_state - newton(p))) <= 1e-6
