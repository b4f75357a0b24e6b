"""scipy's RK23 as a second implementation of the integrator.

solve_ivp(method="RK23") uses the same Bogacki-Shampine pair but its own
initial step, error norm and step control, so final states that agree to
well below the tolerances check integrate's stepping, not a shared bug.
scipy is not a dependency of the package: without it these tests skip.
"""

import numpy as np
import pytest

from socave.dynamics import DynamicsConfig, rhs
from socave.integrator import IntegratorOptions, Termination, integrate
from socave.problems import example_toy, initial_grid, random_unique
from socave.soc import ConeStructure

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

RTOL, ATOL = 1e-8, 1e-10
# both runs are accurate to about RTOL; on these cases they differ by at most
# 2e-8, and a relative error of 1e-6 in the step's weights moves them 3e-7 apart
BOUND = 1e-7
# short spans: the final states are still 0.17 to 1.1 from x*, so they test
# the stepping, not only the equilibrium both runs converge to


def assert_final_states_agree(p, gamma, x0, tspan):
    cfg = DynamicsConfig(gamma)
    traj = integrate(p, cfg, x0, tspan, IntegratorOptions(rtol=RTOL, atol=ATOL))
    assert traj.termination is Termination.REACHED_TF
    ref = solve_ivp(lambda t, x: rhs(p, cfg, x), tspan, x0, method="RK23",
                    rtol=RTOL, atol=ATOL)
    assert ref.success
    assert np.max(np.abs(traj.final_state - ref.y[:, -1])) <= BOUND


@pytest.mark.parametrize("j", range(8))
def test_unique_toy_from_each_grid_start(j):
    x0 = initial_grid([0.0, 1.0], 8)[j]
    assert_final_states_agree(example_toy("unique"), 2.0, x0, (0.0, 1.0))


@pytest.mark.parametrize("seed", [1, 2])
def test_random_unique_over_mixed_blocks(seed):
    cone = ConeStructure((1, 2, 3, 4))
    p, _ = random_unique(cone.dim, cone, 0.5, seed)
    assert_final_states_agree(p, 1.0, np.zeros(cone.dim), (0.0, 0.5))
