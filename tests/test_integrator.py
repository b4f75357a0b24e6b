import math

import numpy as np
import pytest

from socave.dynamics import DynamicsConfig, lyapunov_value
from socave.integrator import (
    IntegratorOptions,
    Termination,
    integrate,
    integrate_ode,
    rk23_step,
    time_to_tolerance,
)
from socave.model import AveProblem
from socave.problems import example_toy, example_tridiag
from socave.soc import ConeStructure


class TestRk23Step:
    def test_constant_solution(self):
        x = np.array([1.0, -2.0])
        x_high, err = rk23_step(lambda t, y: np.zeros(2), 0.0, x, 0.5)
        assert np.array_equal(x_high, x)
        assert err == 0.0

    def test_exponential_decay(self):
        x_high, err = rk23_step(lambda t, y: -y, 0.0, np.array([1.0]), 0.1,
                                rtol=1e-3, atol=1e-6)
        assert x_high[0] == pytest.approx(math.exp(-0.1), abs=1e-5)
        assert err < 1.0

    def test_pure_drift_integrated_exactly(self):
        x_high, err = rk23_step(lambda t, y: np.ones(1), 0.0, np.zeros(1), 0.3)
        assert x_high[0] == pytest.approx(0.3, abs=1e-16)
        assert err == 0.0

    def test_nonfinite_stage_reports_failure(self):
        def f(t, y):
            return y * 1e200
        _, err = rk23_step(f, 0.0, np.array([1e200]), 1.0)
        assert err == math.inf


class TestOptions:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            IntegratorOptions(rtol=0.0)
        with pytest.raises(ValueError):
            IntegratorOptions(atol=-1.0)
        with pytest.raises(ValueError):
            IntegratorOptions(record_stride=0)


class TestIntegrate:
    def test_toy_unique_converges(self):
        p = example_toy("unique")
        traj = integrate(p, DynamicsConfig(2.0), [2.0, -2.0], (0.0, 5.0))
        assert traj.termination is Termination.REACHED_TF
        assert np.linalg.norm(traj.final_state - [0.0, 1.0]) <= 1e-3

    def test_tridiag_converges_from_zero(self):
        p, _ = example_tridiag(100)
        traj = integrate(p, DynamicsConfig(100.0), np.zeros(100), (0.0, 0.1))
        assert traj.termination is Termination.REACHED_TF
        assert traj.residual_norms[-1] <= 1e-4

    def test_equilibrium_is_fixed_point(self):
        p, x_star = example_tridiag(4)
        traj = integrate(p, DynamicsConfig(2.0), x_star, (0.0, 1.0))
        assert np.max(np.abs(traj.states - x_star)) <= 1e-9

    def test_rejects_bad_tspan(self):
        p = example_toy("unique")
        with pytest.raises(ValueError):
            integrate(p, DynamicsConfig(1.0), [0.0, 0.0], (1.0, 1.0))

    def test_residual_event_stops_early(self):
        p = example_toy("unique")
        opts = IntegratorOptions(stop_on_residual=1e-2)
        traj = integrate(p, DynamicsConfig(2.0), [2.0, -2.0], (0.0, 50.0), opts)
        assert traj.termination is Termination.RESIDUAL_EVENT
        assert traj.times[-1] < 50.0
        assert traj.residual_norms[-1] <= 1e-2

    def test_max_steps_reported(self):
        p = example_toy("none")
        opts = IntegratorOptions(max_steps=5)
        traj = integrate(p, DynamicsConfig(2.0), [1.0, 1.0], (0.0, 10.0), opts)
        assert traj.termination is Termination.MAX_STEPS

    def test_trajectory_invariants(self):
        from socave.model import residual

        p = example_toy("unique")
        traj = integrate(p, DynamicsConfig(2.0), [3.0, 0.0], (0.0, 2.0))
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.times) == len(traj.states) == len(traj.residual_norms)
        for x, r in zip(traj.states, traj.residual_norms):
            assert r == pytest.approx(np.linalg.norm(residual(p, x)), rel=1e-12)

    def test_record_stride(self):
        p = example_toy("unique")
        full = integrate(p, DynamicsConfig(2.0), [3.0, 0.0], (0.0, 2.0))
        strided = integrate(p, DynamicsConfig(2.0), [3.0, 0.0], (0.0, 2.0),
                            IntegratorOptions(record_stride=5))
        assert len(strided.times) < len(full.times)
        assert strided.times[-1] == full.times[-1]
        assert np.array_equal(strided.final_state, full.final_state)

    def test_determinism_bit_identical(self):
        p, _ = example_tridiag(10)
        a = integrate(p, DynamicsConfig(5.0), np.zeros(10), (0.0, 1.0))
        b = integrate(p, DynamicsConfig(5.0), np.zeros(10), (0.0, 1.0))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.residual_norms, b.residual_norms)

    def test_lyapunov_monotone_under_certificate(self):
        p, x_star = example_tridiag(20)
        traj = integrate(p, DynamicsConfig(5.0), np.zeros(20), (0.0, 1.0))
        vals = [lyapunov_value(x, x_star) for x in traj.states]
        for prev, cur in zip(vals, vals[1:]):
            assert cur <= prev + 1e-8

    def test_nonfinite_stages_reject_the_step(self):
        # the first stage already overflows: 1e100 * 1e150 * 1e150
        p = AveProblem(1e150 * np.eye(2), np.zeros(2), ConeStructure((2,)))
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(p, DynamicsConfig(1e100), [1.0, 0.0], (0.0, 1.0))
        assert traj.termination in (Termination.STEP_UNDERFLOW, Termination.MAX_STEPS)
        assert traj.n_rejected > 0

    def test_validates_x0(self):
        p = example_toy("unique")
        with pytest.raises(ValueError):
            integrate(p, DynamicsConfig(2.0), [math.nan, 1.0], (0.0, 1.0))
        with pytest.raises(ValueError):
            integrate(p, DynamicsConfig(2.0), [1.0, 0.0, 0.0], (0.0, 1.0))

    def test_no_solution_x1_monotone_increasing(self):
        p = example_toy("none")
        traj = integrate(p, DynamicsConfig(2.0), [-2.0, 3.0], (0.0, 10.0))
        assert np.all(np.diff(traj.states[:, 0]) > 0)


class TestGenericOde:
    def test_third_order_error_scaling(self):
        # on dx/dt = -x the global error at t=1 tracks the tolerance
        errs = []
        for rtol in (1e-4, 1e-6, 1e-8):
            opts = IntegratorOptions(rtol=rtol, atol=rtol * 1e-3)
            traj = integrate_ode(lambda t, y: -y, np.array([1.0]), (0.0, 1.0), opts)
            errs.append(abs(traj.final_state[0] - math.exp(-1.0)))
        ratio1 = errs[0] / errs[1]
        ratio2 = errs[1] / errs[2]
        # tolerance drops 100x per decade pair; error should follow suit
        assert 10 < ratio1 < 1000
        assert 10 < ratio2 < 1000


class TestTimeToTolerance:
    def test_start_at_solution(self):
        p = example_toy("unique")
        traj = integrate(p, DynamicsConfig(2.0), [0.0, 1.0], (0.0, 1.0))
        assert time_to_tolerance(traj, 1e-6) == 0.0

    def test_absent_for_unsolvable_problem(self):
        p = example_toy("none")
        traj = integrate(p, DynamicsConfig(2.0), [0.0, 0.0], (0.0, 10.0))
        assert time_to_tolerance(traj, 1e-3) is None

    def test_larger_gamma_is_faster(self):
        p, _ = example_tridiag(100)
        times = []
        for gamma in (50.0, 100.0, 200.0):
            traj = integrate(p, DynamicsConfig(gamma), np.zeros(100), (0.0, 0.1))
            times.append(time_to_tolerance(traj, 1e-4))
        assert all(t is not None for t in times)
        assert times[0] > times[1] > times[2]

    def test_rejects_bad_tol(self):
        p = example_toy("unique")
        traj = integrate(p, DynamicsConfig(2.0), [0.0, 1.0], (0.0, 1.0))
        with pytest.raises(ValueError):
            time_to_tolerance(traj, 0.0)
