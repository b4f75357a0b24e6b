import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socave.dynamics
import socave.integrator
from norm_reference import reference_norm
from socave.dynamics import DynamicsConfig, lyapunov_value, rhs, rhs_and_residual
from socave.integrator import (
    H_MIN,
    IntegratorOptions,
    Termination,
    integrate,
    integrate_many,
    rk23_step,
    time_to_tolerance,
)
from socave.model import AveProblem, residual_kernel
from socave.problems import example_toy, example_tridiag, random_unique
from socave.soc import ConeStructure


def _step(f, x, h, rtol=1e-6, atol=1e-9):
    """rk23_step for a plain field f(x) -> dx/dt: (x_high, err)."""
    return rk23_step(lambda y: (f(y), None), x, h, rtol, atol, f(x))[:2]


def _decay(n):
    """A = 2I, b = 0 over n size-1 blocks, at gamma 0.5: while x > 0 the field
    is -x exactly, r(x) = x and the recorded residual norm is ||x||."""
    p = AveProblem(2.0 * np.eye(n), np.zeros(n), ConeStructure((1,) * n))
    return p, DynamicsConfig(0.5)


def _decay_run(x0, tspan, opts=IntegratorOptions()):
    """integrate on _decay(len(x0)): the run of dx/dt = -x."""
    p, cfg = _decay(len(x0))
    return integrate(p, cfg, x0, tspan, opts)


class TestRk23Step:
    def test_constant_solution(self):
        x = np.array([1.0, -2.0])
        x_high, err = _step(lambda y: np.zeros(2), x, 0.5)
        assert np.array_equal(x_high, x)
        assert err == 0.0

    def test_exponential_decay(self):
        x_high, err = _step(lambda y: -y, np.array([1.0]), 0.1, rtol=1e-3, atol=1e-6)
        assert x_high[0] == pytest.approx(math.exp(-0.1), abs=1e-5)
        assert err < 1.0

    def test_pure_drift_integrated_exactly(self):
        x_high, err = _step(lambda y: np.ones(1), np.zeros(1), 0.3)
        assert x_high[0] == pytest.approx(0.3, abs=1e-16)
        assert err == 0.0

    def test_nonfinite_stage_reports_failure(self):
        # a direct caller handles the overflow warnings itself
        with np.errstate(over="ignore", invalid="ignore"):
            _, err = _step(lambda y: y * 1e200, np.array([1e200]), 1.0)
        assert err == math.inf

    def test_overflowing_state_with_finite_error_is_inf(self):
        # every stage is 1e300, so err_vec is exactly 0, while x_high
        # overflows: only the test of x_high makes err inf
        with np.errstate(over="ignore", invalid="ignore"):
            x_high, err = _step(lambda y: np.full(1, 1e300), np.array([1.7e308]), 1e7)
        assert x_high[0] == math.inf
        assert err == math.inf

    def test_nonfinite_stage_emits_no_warning(self):
        # at gamma 1e200 the field at x0 = 1e200 is already -inf
        p, _ = _decay(1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = integrate(p, DynamicsConfig(1e200), [1e200], (0.0, 1.0))
        assert traj.termination is Termination.STEP_UNDERFLOW
        assert traj.n_rejected_nonfinite == traj.n_rejected > 0
        assert [str(w.message) for w in caught] == []


class TestOptions:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            IntegratorOptions(rtol=0.0)
        with pytest.raises(ValueError):
            IntegratorOptions(atol=-1.0)
        with pytest.raises(ValueError):
            IntegratorOptions(record_stride=0)

    @pytest.mark.parametrize("kwargs", [
        {"rtol": math.nan}, {"atol": math.nan}, {"rtol": math.inf},
        {"stop_on_residual": -1.0}, {"stop_on_residual": 0.0},
        {"stop_on_residual": math.nan},
    ])
    def test_rejects_nonfinite_or_nonpositive_tolerances(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorOptions(**kwargs)

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_rejects_max_steps_below_one(self, max_steps):
        with pytest.raises(ValueError):
            IntegratorOptions(max_steps=max_steps)

    @pytest.mark.parametrize("name", ["record_stride", "max_steps"])
    @pytest.mark.parametrize("value", [1.5, True, math.nan, math.inf, "2"])
    def test_counts_are_integers(self, name, value):
        # a nan max_steps would be no limit: n >= nan is never true
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            IntegratorOptions(**{name: value})

    def test_integer_valued_float_counts_become_ints(self):
        opts = IntegratorOptions(record_stride=5.0, max_steps=1e6)
        assert (opts.record_stride, opts.max_steps) == (5, 10**6)
        assert type(opts.record_stride) is int and type(opts.max_steps) is int

    def test_int_past_the_float_range_is_a_value_error(self):
        # float() raises OverflowError on it, which the validators turn into ValueError
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            DynamicsConfig(10**400)
        with pytest.raises(ValueError, match="rtol must be finite and > 0"):
            IntegratorOptions(rtol=10**400)
        with pytest.raises(ValueError, match="tspan must be two finite times"):
            integrate(example_toy("unique"), DynamicsConfig(1.0), [0.0, 0.0], (0, 10**400),
                      IntegratorOptions(max_steps=10))


def test_integrate_steps_through_the_module_global(monkeypatch):
    # a tracer that rebinds socave.integrator.rk23_step sees every attempt
    calls = []
    step = socave.integrator.rk23_step

    def counting(*args):
        calls.append(args[1])
        return step(*args)

    monkeypatch.setattr(socave.integrator, "rk23_step", counting)
    traj = integrate(example_toy("unique"), DynamicsConfig(2.0), [2.0, -2.0], (0.0, 5.0))
    assert traj.n_rejected > 0
    assert len(calls) == traj.n_accepted + traj.n_rejected


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

    @pytest.mark.parametrize("tspan", [(0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0),
                                       (0.0,), (0.0, 0.5, 1.0),
                                       5.0, None, np.float64(5.0), np.array(5.0)])
    def test_rejects_nonfinite_or_malformed_tspan(self, tspan):
        # an infinite tf would reject every step until max_steps
        with pytest.raises(ValueError, match="tspan must be two finite times"):
            integrate(example_toy("unique"), DynamicsConfig(1.0), [0.0, 0.0], tspan,
                      IntegratorOptions(max_steps=10))

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
        assert traj.n_rejected_nonfinite == traj.n_rejected

    def test_error_norm_rejections_are_not_counted_as_nonfinite(self):
        traj = integrate(example_toy("none"), DynamicsConfig(2.0), [-2.0, 3.0], (0.0, 10.0))
        assert traj.n_rejected > 0
        assert traj.n_rejected_nonfinite == 0

    def test_validates_x0(self):
        p = example_toy("unique")
        for x0, message in [([math.nan, 1.0], "finite number"), ([1.0, 0.0, 0.0], "dimension 3")]:
            with pytest.raises(ValueError, match=message):
                integrate(p, DynamicsConfig(2.0), x0, (0.0, 1.0))

    def test_no_solution_x1_monotone_increasing(self):
        p = example_toy("none")
        traj = integrate(p, DynamicsConfig(2.0), [-2.0, 3.0], (0.0, 10.0))
        assert np.all(np.diff(traj.states[:, 0]) > 0)


class TestGenericOde:
    """The step loop's behaviour as an ODE solver, on _decay's dx/dt = -x."""

    @pytest.mark.parametrize("x0", [[[1.0, 2.0]], 1.0, [math.nan], [math.inf, 0.0]])
    def test_validates_x0(self, x0):
        # the problem has as many blocks as x0 has entries, so only the
        # shape or the finiteness of x0 can be at fault
        p, cfg = _decay(np.size(x0))
        with pytest.raises(ValueError, match="ndim=1, got ndim|finite number"):
            integrate(p, cfg, x0, (0.0, 1.0))

    def test_third_order_error_scaling(self):
        # on dx/dt = -x the global error at t=1 tracks the tolerance
        errs = []
        for rtol in (1e-4, 1e-6, 1e-8):
            opts = IntegratorOptions(rtol=rtol, atol=rtol * 1e-3)
            traj = _decay_run([1.0], (0.0, 1.0), opts)
            _assert_same_run(traj, _seed_integrate_ode(lambda t, y: -y, [1.0], (0.0, 1.0), opts))
            errs.append(abs(traj.final_state[0] - math.exp(-1.0)))
        ratio1 = errs[0] / errs[1]
        ratio2 = errs[1] / errs[2]
        # tolerance drops 100x per decade pair; error should follow suit
        assert 10 < ratio1 < 1000
        assert 10 < ratio2 < 1000

    @pytest.mark.parametrize("width", [1e7, 65536.0, 16384.0])
    @pytest.mark.parametrize("b", [0.0, 1.0], ids=["decay", "zero"])
    def test_a_step_that_cannot_move_t_is_not_taken(self, b, width):
        # the ulp of 1e20 is 16384: a step under half of it leaves t where it
        # was, and the initial step of the two narrower spans is one. With
        # b = 1 the start x = 1 is the equilibrium, where the field is zero
        p, cfg = _decay(2)
        traj = integrate(AveProblem(p.A, np.full(2, b), p.cone), cfg, np.ones(2),
                         (1e20, 1e20 + width), IntegratorOptions(max_steps=1000))
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.termination in (Termination.STEP_UNDERFLOW, Termination.REACHED_TF)


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

    def test_rejects_a_strided_trajectory(self):
        p, _ = example_tridiag(100)
        traj = integrate(p, DynamicsConfig(100.0), np.zeros(100), (0.0, 0.1),
                         IntegratorOptions(record_stride=50))
        with pytest.raises(ValueError, match="every accepted step"):
            time_to_tolerance(traj, 1e-3)

    def test_rejects_bad_tol(self):
        p = example_toy("unique")
        traj = integrate(p, DynamicsConfig(2.0), [0.0, 1.0], (0.0, 1.0))
        with pytest.raises(ValueError):
            time_to_tolerance(traj, 0.0)
        with pytest.raises(ValueError):
            time_to_tolerance(traj, math.nan)


def _seed_rk23_step(f, t, x, h, rtol, atol, k1):
    """The Bogacki-Shampine step as it was before FSAL reuse: the reference."""
    with np.errstate(over="ignore", invalid="ignore"):
        k2 = f(t + 0.5 * h, x + (0.5 * h) * k1)
        k3 = f(t + 0.75 * h, x + (0.75 * h) * k2)
        x_high = x + h * ((2.0 * k1 + 3.0 * k2 + 4.0 * k3) / 9.0)
        k4 = f(t + h, x_high)
        err_vec = (h / 72.0) * (-5.0 * k1 + 6.0 * k2 + 8.0 * k3 - 9.0 * k4)
    if not (np.all(np.isfinite(x_high)) and np.all(np.isfinite(err_vec))):
        return x_high, math.inf
    scale = atol + rtol * np.maximum(np.abs(x), np.abs(x_high))
    return x_high, float(np.max(np.abs(err_vec) / scale))


def _seed_integrate_ode(f, x0, tspan, opts, residual_fn=None):
    """The step loop as it was before FSAL reuse: it evaluates f(t, x) again
    after each accepted step and records residual_fn(x) separately.
    Returns (times, states, residual_norms, termination, accepted, rejected)."""
    t0, tf = tspan
    x = np.array(x0, dtype=float)
    h = max(0.01 * (tf - t0), H_MIN)

    def res_norm(state, field_val):
        if residual_fn is not None:
            return float(residual_fn(state))
        return reference_norm(field_val)

    fx = f(t0, x)
    t = t0
    times, states, res_norms = [t0], [x.copy()], [res_norm(x, fx)]
    n_acc = n_rej = 0
    term = None
    if opts.stop_on_residual is not None and res_norms[0] <= opts.stop_on_residual:
        term = Termination.RESIDUAL_EVENT
    while term is None:
        if n_acc + n_rej >= opts.max_steps:
            term = Termination.MAX_STEPS
            break
        h_trial = min(h, tf - t)
        x_new, err = _seed_rk23_step(f, t, x, h_trial, opts.rtol, opts.atol, fx)
        if err <= 1.0:
            t = t + h_trial
            x = x_new
            fx = f(t, x)
            n_acc += 1
            rnorm = res_norm(x, fx)
            if opts.stop_on_residual is not None and rnorm <= opts.stop_on_residual:
                term = Termination.RESIDUAL_EVENT
            elif (tf - t) <= 1e-13 * (tf - t0):
                term = Termination.REACHED_TF
            if term is not None or n_acc % opts.record_stride == 0:
                times.append(t)
                states.append(x.copy())
                res_norms.append(rnorm)
        else:
            n_rej += 1
        h = h_trial * min(5.0, max(0.2, 0.9 * err ** (-1.0 / 3.0))) if err else h_trial * 5.0
        if term is None and h < H_MIN:
            term = Termination.STEP_UNDERFLOW
    if times[-1] < t:
        times.append(t)
        states.append(x.copy())
        res_norms.append(res_norm(x, fx))
    return (np.asarray(times), np.asarray(states), np.asarray(res_norms),
            term, n_acc, n_rej)


def _assert_same_run(traj, ref):
    times, states, res_norms, term, n_acc, n_rej = ref
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()
    assert traj.residual_norms.tobytes() == res_norms.tobytes()
    assert (traj.termination, traj.n_accepted, traj.n_rejected) == (term, n_acc, n_rej)


def _many_block_problem():
    cone = ConeStructure((3,) * 10 + (2,))
    p, _ = random_unique(cone.dim, cone, 0.1, 3)
    return p


class TestFsalStepLoop:
    """The loop reuses k4 as the next k1 and takes the recorded residual norm
    from the k4 evaluation; both are exact, so runs must match the reference
    loop bit for bit."""

    @pytest.mark.parametrize("case", ["unique", "none", "tridiag", "many_block"])
    def test_bitwise_equal_to_reference_loop(self, case):
        opts = IntegratorOptions()
        if case in ("unique", "none"):
            p, gamma, x0, tspan = example_toy(case), 2.0, np.array([2.0, -2.0]), (0.0, 10.0)
        elif case == "tridiag":
            p, gamma, x0, tspan = example_tridiag(100)[0], 100.0, np.zeros(100), (0.0, 0.1)
        else:
            p = _many_block_problem()
            gamma, x0, tspan = 5.0, np.ones(p.n), (0.0, 50.0)
            opts = IntegratorOptions(stop_on_residual=1e-6, record_stride=3)
        cfg = DynamicsConfig(gamma)
        traj = integrate(p, cfg, x0, tspan, opts)
        ref = _seed_integrate_ode(lambda t, x: rhs(p, cfg, x), x0, tspan, opts,
                                  lambda x: np.linalg.norm(residual_kernel(p, x)))
        _assert_same_run(traj, ref)
        if case == "many_block":
            assert traj.termination is Termination.RESIDUAL_EVENT

    def test_nonfinite_stages_match_reference_loop(self):
        # every stage overflows from the first: all steps are rejected
        p = AveProblem(1e150 * np.eye(2), np.zeros(2), ConeStructure((2,)))
        cfg = DynamicsConfig(1e100)
        x0, tspan, opts = np.array([1.0, 0.0]), (0.0, 1.0), IntegratorOptions()
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(p, cfg, x0, tspan, opts)
            ref = _seed_integrate_ode(lambda t, x: rhs(p, cfg, x), x0, tspan, opts,
                                      lambda x: np.linalg.norm(residual_kernel(p, x)))
        _assert_same_run(traj, ref)
        assert traj.termination is Termination.STEP_UNDERFLOW
        assert traj.n_rejected_nonfinite == traj.n_rejected > 0

    def test_overflowing_state_with_finite_error_is_rejected(self, monkeypatch):
        # the paper's field is non-finite at a non-finite x_high, so a
        # constant field of 1e300 stands in for it: all stages are equal, so
        # err_vec is exactly 0 while x_high overflows near the top of the
        # float range, and only the test of x_high rejects those steps
        def constant(p, cfg, y, b=None):
            v = np.full_like(y, 1e300)
            return v, v

        monkeypatch.setattr(socave.integrator, "rhs_and_residual", constant)
        p, cfg = _decay(1)
        x0, tspan, opts = np.array([1.7e308]), (0.0, 1e9), IntegratorOptions(max_steps=300)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(p, cfg, x0, tspan, opts)
            ref = _seed_integrate_ode(lambda t, y: np.full(1, 1e300), x0, tspan, opts)
        _assert_same_run(traj, ref)
        assert np.all(np.isfinite(traj.states))
        assert traj.n_rejected_nonfinite == traj.n_rejected > 0

    def test_a_residual_whose_sum_of_squares_overflows_is_recorded_finite(self):
        # ||r|| on A = 3I from x0 = (1e300, 1e300) is past 1.34e154, so the
        # sum of squares of r overflows, but the norm is finite and falls
        # below stop_on_residual
        p = AveProblem(np.diag([3.0, 3.0]), np.zeros(2), ConeStructure((1, 1)))
        opts = IntegratorOptions(stop_on_residual=1e299)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = integrate(p, DynamicsConfig(1.0), [1e300, 1e300], (0.0, 1.0), opts)
        assert traj.termination is Termination.RESIDUAL_EVENT
        assert np.all(np.isfinite(traj.residual_norms))
        assert traj.residual_norms[-1] <= 1e299 < traj.residual_norms[0]
        expected = [reference_norm(residual_kernel(p, x)) for x in traj.states]
        assert traj.residual_norms.tobytes() == np.array(expected).tobytes()

    def test_counting_field_runs_three_times_per_attempt(self, monkeypatch):
        calls = []

        def counting(p, cfg, y, b=None):
            calls.append(1)
            return rhs_and_residual(p, cfg, y, b)

        monkeypatch.setattr(socave.integrator, "rhs_and_residual", counting)
        traj = _decay_run([1.0], (0.0, 5.0))
        attempts = traj.n_accepted + traj.n_rejected
        assert len(calls) == traj.n_rhs_evals == 1 + 3 * attempts

    @pytest.mark.parametrize("case", ["tridiag", "nonfinite"])
    def test_residual_computed_only_inside_field_evaluations(self, case, monkeypatch):
        calls = []

        def counting_kernel(p, x, b=None):
            calls.append(1)
            return residual_kernel(p, x, b)

        monkeypatch.setattr(socave.dynamics, "residual_kernel", counting_kernel)
        if case == "tridiag":
            p, _ = example_tridiag(100)
            traj = integrate(p, DynamicsConfig(100.0), np.zeros(100), (0.0, 0.1))
        else:
            p = AveProblem(1e150 * np.eye(2), np.zeros(2), ConeStructure((2,)))
            with np.errstate(over="ignore", invalid="ignore"):
                traj = integrate(p, DynamicsConfig(1e100), [1.0, 0.0], (0.0, 1.0))
            assert traj.n_rejected > 0
        assert len(calls) == traj.n_rhs_evals == 1 + 3 * (traj.n_accepted + traj.n_rejected)


def _assert_same_trajectory(got, expected):
    for name in ("times", "states", "residual_norms"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    for name in ("termination", "n_accepted", "n_rejected", "n_rejected_nonfinite"):
        assert getattr(got, name) == getattr(expected, name), name


# a start this large makes the field of the first steps overflow at gamma = 1e4
OVERFLOWING_START = 1e305


class TestIntegrateMany:
    """Each row of a batch has its own step size, error test, counters,
    records and termination, so it is the run from that start alone."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_each_row_is_the_single_start_run(self, data):
        blocks = ConeStructure(tuple(data.draw(st.lists(st.integers(1, 5), min_size=1,
                                                        max_size=4))))
        p, x_star = random_unique(blocks.dim, blocks, 0.5, data.draw(st.integers(1, 10**6)))
        entry = st.floats(-5.0, 5.0, allow_subnormal=False)
        starts = [np.array(data.draw(st.lists(entry, min_size=p.n, max_size=p.n)))
                  for _ in range(data.draw(st.integers(1, 5)))]
        # the solution itself ends on the residual event before any step, and
        # the overflowing start rejects non-finite steps while the others accept
        extra = data.draw(st.sampled_from([None, x_star, np.full(p.n, OVERFLOWING_START)]))
        if extra is not None:
            starts.insert(data.draw(st.integers(0, len(starts))), extra)
        gamma = data.draw(st.sampled_from([1.0, 1e4]))
        tspan = (0.0, data.draw(st.sampled_from([0.2, 1.0, 5.0])))
        opts = IntegratorOptions(stop_on_residual=data.draw(st.sampled_from([None, 1e-2, 1.0])),
                                 record_stride=data.draw(st.integers(1, 4)),
                                 max_steps=data.draw(st.integers(1, 60)))
        cfg = DynamicsConfig(gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the batch raises no warning either
            trajs = integrate_many(p, cfg, starts, tspan, opts)
        assert len(trajs) == len(starts)
        for x0, traj in zip(starts, trajs):
            _assert_same_trajectory(traj, integrate(p, cfg, x0, tspan, opts))

    def test_an_overflowing_row_leaves_the_others_alone(self):
        cone = ConeStructure((1, 2, 3))
        p, x_star = random_unique(cone.dim, cone, 0.5, 7)
        starts = [np.ones(p.n), np.full(p.n, OVERFLOWING_START), -np.ones(p.n), x_star]
        cfg, tspan = DynamicsConfig(1e4), (0.0, 1e-3)
        opts = IntegratorOptions(stop_on_residual=1e-8, record_stride=3)
        trajs = integrate_many(p, cfg, starts, tspan, opts)
        for x0, traj in zip(starts, trajs):
            _assert_same_trajectory(traj, integrate(p, cfg, x0, tspan, opts))
        ones, overflowing, minus_ones, solution = trajs
        assert overflowing.n_rejected_nonfinite > 0
        for traj in (ones, minus_ones):
            assert traj.n_rejected_nonfinite == 0 and traj.n_accepted > 0
        assert solution.termination is Termination.RESIDUAL_EVENT
        assert solution.n_accepted + solution.n_rejected == 0

    def test_rows_that_leave_early_keep_their_own_records(self):
        # the toy rows finish at different attempts, so the batch shrinks
        p, cfg = example_toy("unique"), DynamicsConfig(2.0)
        starts = [[2.0, -2.0], [0.0, 1.0 + 1e-9], [3.0, 1.0], [-1.0, 4.0]]
        opts = IntegratorOptions(stop_on_residual=1e-6)
        trajs = integrate_many(p, cfg, starts, (0.0, 5.0), opts)
        lengths = {traj.n_accepted + traj.n_rejected for traj in trajs}
        assert len(lengths) > 1
        for x0, traj in zip(starts, trajs):
            _assert_same_trajectory(traj, integrate(p, cfg, x0, (0.0, 5.0), opts))

    def test_every_row_stops_at_max_steps_together(self):
        p, cfg = example_toy("none"), DynamicsConfig(2.0)
        trajs = integrate_many(p, cfg, [[0.0, 0.0], [1.0, 2.0]], (0.0, 100.0),
                               IntegratorOptions(max_steps=7))
        for traj in trajs:
            assert traj.termination is Termination.MAX_STEPS
            assert traj.n_accepted + traj.n_rejected == 7

    @pytest.mark.parametrize("max_steps", [1, 2, 1000])
    def test_a_batch_that_ends_each_row_its_own_way_is_each_row_alone(self, max_steps):
        # one row starts at the solution and one where a step cannot move t
        # (the ulp of 1e20 is 16384); the other three are cut by max_steps 1
        # and 2, and at 1000 two of them reach tf off the record stride
        cone, stride = ConeStructure((1, 2, 3)), 3
        p, x_star = random_unique(cone.dim, cone, 0.5, 7)
        cfg = DynamicsConfig(1.0)
        starts = [x_star, np.ones(p.n), np.ones(p.n), -np.ones(p.n), 2.0 * np.ones(p.n)]
        spans = [(0.0, 10.0), (1e20, 1e20 + 1e5), (0.0, 100.0), (0.0, 0.3), (0.0, 10.0)]
        opts = IntegratorOptions(stop_on_residual=1e-8, record_stride=stride,
                                 max_steps=max_steps)
        trajs = integrate_many(p, cfg, starts, spans, opts)
        for x0, tspan, traj in zip(starts, spans, trajs):
            _assert_same_trajectory(traj, integrate(p, cfg, x0, tspan, opts))
        at_start, cannot_move, *moving = trajs
        assert at_start.termination is Termination.RESIDUAL_EVENT
        assert cannot_move.termination is Termination.STEP_UNDERFLOW
        for traj in (at_start, cannot_move):
            assert traj.n_accepted + traj.n_rejected == 0 and len(traj.times) == 1
        for traj in moving:
            if max_steps < 1000:
                assert traj.termination is Termination.MAX_STEPS
                assert traj.n_accepted + traj.n_rejected == max_steps
            else:
                assert traj.termination is Termination.REACHED_TF
            # every stride-th accepted state, and the last one off the stride
            assert len(traj.times) == 1 + math.ceil(traj.n_accepted / stride)
        assert any(traj.n_accepted % stride for traj in moving)

    def test_a_batch_of_several_problems_is_each_row_alone(self):
        # the suite's three toys share A and the cone; each row has its own
        # b and span, and the rows leave the batch at different attempts
        cfg, opts = DynamicsConfig(2.0), IntegratorOptions(record_stride=2)
        rows = [("multi", [3.0, 0.0], (0.0, 5.0)), ("none", [0.0, -3.0], (0.0, 10.0)),
                ("unique", [-3.0, 1.0], (0.0, 5.0)), ("multi", [-1.0, 2.0], (0.0, 5.0)),
                ("none", [1.0, 1.0], (1.0, 3.0))]
        problems = {name: example_toy(name) for name in ("multi", "unique", "none")}
        trajs = integrate_many([problems[name] for name, _, _ in rows], cfg,
                               [x0 for _, x0, _ in rows], [tspan for _, _, tspan in rows], opts)
        assert len({traj.n_accepted + traj.n_rejected for traj in trajs}) > 1
        for (name, x0, tspan), traj in zip(rows, trajs):
            _assert_same_trajectory(traj, integrate(example_toy(name), cfg, x0, tspan, opts))

    def test_a_batch_of_several_problems_must_share_a_and_the_cone(self):
        cfg, toy = DynamicsConfig(2.0), example_toy("unique")
        other_a = AveProblem(np.diag([1.0, -2.0]), toy.b, toy.cone)
        other_cone = AveProblem(toy.A, toy.b, ConeStructure((1, 1)))
        for other in (other_a, other_cone):
            with pytest.raises(ValueError, match="share A and the cone"):
                integrate_many([toy, other], cfg, [[0.0, 1.0], [1.0, 0.0]], (0.0, 1.0))
        with pytest.raises(ValueError, match="1 problems for 2 starts"):
            integrate_many([toy], cfg, [[0.0, 1.0], [1.0, 0.0]], (0.0, 1.0))
        with pytest.raises(ValueError, match="3 spans for 2 starts"):
            integrate_many(toy, cfg, [[0.0, 1.0], [1.0, 0.0]], [(0.0, 1.0)] * 3)
        with pytest.raises(ValueError, match="tspan must be"):
            integrate_many(toy, cfg, [[0.0, 1.0], [1.0, 0.0]], [(0.0, 1.0), (1.0, 0.0)])

    @pytest.mark.parametrize("tspan", [[[0.0, 1.0], [0.0]], [(0.0, 1.0), (0.0, 1.0, 2.0)],
                                       [np.array([0.0, 1.0]), [math.nan, 1.0]], []],
                             ids=["short", "long", "nan", "empty"])
    def test_a_span_per_start_is_decided_by_the_first(self, tspan):
        # a ragged list is a list of spans, each checked by the tspan rule
        p, cfg = example_toy("unique"), DynamicsConfig(2.0)
        with pytest.raises(ValueError, match="tspan must be two finite times"):
            integrate_many(p, cfg, [[0.0, 1.0], [1.0, 0.0]], tspan)

    def test_each_start_is_validated(self):
        p, cfg = example_toy("unique"), DynamicsConfig(2.0)
        with pytest.raises(ValueError, match="dimension 3, expected 2"):
            integrate_many(p, cfg, [[0.0, 1.0], [0.0, 1.0, 2.0]], (0.0, 1.0))
        with pytest.raises(ValueError, match="finite number"):
            integrate_many(p, cfg, [[0.0, 1.0], [math.nan, 1.0]], (0.0, 1.0))
        with pytest.raises(ValueError, match="at least one start"):
            integrate_many(p, cfg, [], (0.0, 1.0))


class _LiveArrays:
    """Weak references to every array a field is evaluated at (the base of a
    view), and the most of them alive at any one evaluation."""

    def __init__(self):
        self.refs, self.most = [], 0

    def see(self, y):
        self.refs.append(weakref.ref(y if y.base is None else y.base))
        self.most = max(self.most, sum(ref() is not None for ref in self.refs))


class TestRecording:
    """Each run copies a recorded state into the next row of one array it
    owns, which doubles when full: no step's array outlives its step, and the
    records are those of the reference loop, bit for bit, on either side of
    each growth."""

    def test_no_step_array_outlives_its_step(self, monkeypatch):
        live = _LiveArrays()

        def seeing(p, cfg, x, b=None):
            live.see(x)
            return rhs_and_residual(p, cfg, x, b)

        monkeypatch.setattr(socave.integrator, "rhs_and_residual", seeing)
        traj = _decay_run(np.ones(3), (0.0, 20.0))
        assert traj.n_accepted > 100
        # the current state, the last attempt's x_high and the array evaluated
        assert live.most <= 3

    def test_no_step_array_of_a_batch_outlives_its_step(self, monkeypatch):
        live = _LiveArrays()

        def seeing(p, cfg, x, b=None):
            live.see(x)
            return rhs_and_residual(p, cfg, x, b)

        monkeypatch.setattr(socave.integrator, "rhs_and_residual", seeing)
        p, cfg = example_toy("unique"), DynamicsConfig(2.0)
        starts = [[2.0, -2.0], [0.0, 1.0 + 1e-9], [3.0, 1.0], [-1.0, 4.0]]
        opts = IntegratorOptions(stop_on_residual=1e-6, record_stride=3)
        trajs = integrate_many(p, cfg, starts, (0.0, 5.0), opts)
        # the rows reject at different attempts, so some steps take only some rows
        assert len({traj.n_rejected for traj in trajs}) > 1
        assert sum(len(traj.times) for traj in trajs) > 20
        assert live.most <= 3  # as for one row

    @pytest.mark.parametrize("stride, extra", [(1, 0), (1, 1), (3, 0), (3, 1)],
                             ids=["full", "one-more", "full-by-the-last", "one-more-by-the-last"])
    def test_records_on_either_side_of_the_first_growth(self, stride, extra):
        # recorded rows: x0, every stride-th accepted state, and the last
        # accepted state if not yet recorded; dx/dt = -x over (0, 2) rejects
        # no step in the first 60
        rows = socave.integrator.RECORD_ROWS + extra
        n_accepted = rows - 1 if stride == 1 else stride * (rows - 2) + 1
        opts = IntegratorOptions(max_steps=n_accepted, record_stride=stride)
        traj = _decay_run(np.ones(3), (0.0, 2.0), opts)
        assert (traj.n_accepted, traj.n_rejected, len(traj.times)) == (n_accepted, 0, rows)
        _assert_same_run(traj, _seed_integrate_ode(lambda t, y: -y, np.ones(3), (0.0, 2.0), opts))

    def test_records_through_several_growths(self):
        traj = _decay_run(np.ones(3), (0.0, 20.0))
        assert len(traj.times) > 8 * socave.integrator.RECORD_ROWS
        _assert_same_run(traj, _seed_integrate_ode(lambda t, y: -y, np.ones(3), (0.0, 20.0),
                                                   IntegratorOptions()))
        assert traj.states.flags.c_contiguous and traj.states.dtype == np.float64

    def test_a_batch_records_each_row_as_its_own_run(self):
        # the rows end at different attempts, with records on both sides of
        # the first growth
        p, cfg = example_toy("unique"), DynamicsConfig(2.0)
        starts = [[2.0, -2.0], [0.0, 1.0 + 1e-9], [3.0, 1.0], [-1.0, 4.0], [0.0, 1.0]]
        opts = IntegratorOptions(stop_on_residual=1e-6)
        trajs = integrate_many(p, cfg, starts, (0.0, 5.0), opts)
        rows = sorted(len(traj.times) for traj in trajs)
        assert rows[0] <= socave.integrator.RECORD_ROWS < rows[-1]
        assert len({traj.n_accepted + traj.n_rejected for traj in trajs}) > 2
        for x0, traj in zip(starts, trajs):
            _assert_same_trajectory(traj, integrate(p, cfg, x0, (0.0, 5.0), opts))
            ref = _seed_integrate_ode(lambda t, x: rhs(p, cfg, x), x0, (0.0, 5.0), opts,
                                      lambda x: np.linalg.norm(residual_kernel(p, x)))
            _assert_same_run(traj, ref)
            assert traj.states.flags.c_contiguous and traj.states.shape == (len(traj.times), 2)
