"""Metamorphic tests: exact symmetries of the flow dx/dt = gamma * A^T (b + |x| - Ax)
check whole trajectories without a second implementation.

- Time rescaling: the field is gamma * F(x), so gamma is a rescaling of time,
  and (gamma, (0, T)) and (1, (0, gamma * T)) trace the same states. The
  initial step is a fixed share of the span, so the runs take the same steps.
- Positive homogeneity: |c x| = c |x| for c > 0, so the problem (A, c b)
  from c x0 with atol scaled by c traces c times the states of (A, b) from x0.

With c and gamma powers of two every scaling is exact in floating point, so
both relations hold bit for bit, step counts included.
"""

import numpy as np
import pytest

from socave.dynamics import DynamicsConfig
from socave.integrator import IntegratorOptions, integrate
from socave.model import AveProblem
from socave.problems import example_tridiag, random_unique
from socave.soc import ConeStructure


def mixed_blocks():
    cone = ConeStructure((1, 2, 3, 4))
    return random_unique(cone.dim, cone, 0.5, 7)[0]


def assert_same_steps(traj, ref):
    assert (traj.termination, traj.n_accepted, traj.n_rejected) == \
        (ref.termination, ref.n_accepted, ref.n_rejected)


@pytest.mark.parametrize("problem, gamma, tf", [
    (lambda: example_tridiag(1000)[0], 64.0, 0.25),
    (mixed_blocks, 8.0, 1.0),
], ids=["tridiag_1000", "mixed-blocks"])
def test_gamma_rescales_time_exactly(problem, gamma, tf):
    p = problem()
    x0 = np.zeros(p.n)
    fast = integrate(p, DynamicsConfig(gamma), x0, (0.0, tf))
    slow = integrate(p, DynamicsConfig(1.0), x0, (0.0, gamma * tf))
    assert_same_steps(fast, slow)
    assert np.array_equal(fast.states, slow.states)
    assert np.array_equal(fast.residual_norms, slow.residual_norms)
    assert np.array_equal(gamma * fast.times, slow.times)


def test_scaling_b_and_x0_scales_the_trajectory():
    c = 8.0
    p = mixed_blocks()
    x0 = np.linspace(-1.0, 1.0, p.n)
    opts = IntegratorOptions()
    ref = integrate(p, DynamicsConfig(1.0), x0, (0.0, 5.0), opts)
    scaled = integrate(AveProblem(p.A, c * p.b, p.cone), DynamicsConfig(1.0), c * x0,
                       (0.0, 5.0), IntegratorOptions(atol=c * opts.atol))
    assert_same_steps(scaled, ref)
    assert np.array_equal(scaled.states, c * ref.states)
    assert np.array_equal(scaled.times, ref.times)
    assert np.array_equal(scaled.residual_norms, c * ref.residual_norms)
