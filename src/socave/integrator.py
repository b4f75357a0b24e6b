"""Adaptive embedded Runge-Kutta 2(3) initial-value solver.

Uses the Bogacki-Shampine 3(2) pair (the method behind MATLAB's ode23)
with standard proportional step control: accept when the scaled error
estimate is <= 1, step factor 0.9 * err^(-1/3) clamped to [0.2, 5].
Trajectories record every accepted step and can stop early on a residual
event.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsConfig, rhs_and_residual
from .linalg import as_count, as_positive, as_tspan, as_vector
from .model import AveProblem


# the step-size floor: a step size below it ends the run in STEP_UNDERFLOW
H_MIN = 1e-14


class Termination(enum.Enum):
    REACHED_TF = "ReachedTf"
    RESIDUAL_EVENT = "ResidualEvent"
    MAX_STEPS = "MaxSteps"
    STEP_UNDERFLOW = "StepUnderflow"


@dataclass(frozen=True)
class IntegratorOptions:
    rtol: float = 1e-6
    atol: float = 1e-9
    max_steps: int = 1_000_000
    stop_on_residual: float | None = None
    record_stride: int = 1

    def __post_init__(self):
        as_positive(self.rtol, "rtol")
        as_positive(self.atol, "atol")
        if self.stop_on_residual is not None:
            as_positive(self.stop_on_residual, "stop_on_residual")
        for name in ("max_steps", "record_stride"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    residual_norms: np.ndarray
    termination: Termination
    n_accepted: int
    n_rejected: int
    # of n_rejected, the steps whose error estimate was infinite: a
    # non-finite stage, or an error past the float range
    n_rejected_nonfinite: int = 0

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def n_rhs_evals(self) -> int:
        """Vector-field evaluations: one at x0, then three per step attempt."""
        return 1 + 3 * (self.n_accepted + self.n_rejected)


def rk23_step(field, t, x, h, rtol, atol, k1):
    """One Bogacki-Shampine step for a field(t, x) -> (dx/dt, aux), with
    k1 = field(t, x)[0] and x finite: (x_high, err, k4, aux4).

    err is the infinity norm of (x_high - x_low) divided componentwise by
    atol + rtol * max(|x|, |x_high|), and inf after a non-finite stage, so
    the caller rejects the step. The pair is FSAL: k4, aux4 = field(t + h,
    x_high), the next step's k1. _integrate runs under np.errstate; a direct
    caller handles overflow and invalid-value warnings itself.
    """
    k2 = field(t + 0.5 * h, x + (0.5 * h) * k1)[0]
    k3 = field(t + 0.75 * h, x + (0.75 * h) * k2)[0]
    # integer-weight forms keep the estimate exactly zero when all stages agree
    x_high = x + h * ((2.0 * k1 + 3.0 * k2 + 4.0 * k3) / 9.0)
    k4, aux4 = field(t + h, x_high)
    err_vec = (h / 72.0) * (-5.0 * k1 + 6.0 * k2 + 8.0 * k3 - 9.0 * k4)
    scale = atol + rtol * np.maximum(np.abs(x), np.abs(x_high))
    err = float(np.max(np.abs(err_vec) / scale)) if x.size else 0.0
    # inf and nan in err_vec survive the division by scale > 0 and np.max,
    # so these are the steps that separate tests of x_high and err_vec reject
    if not (math.isfinite(err) and np.isfinite(x_high).all()):
        return x_high, math.inf, k4, aux4
    return x_high, err, k4, aux4


def _step_factor(err: float) -> float:
    if err == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * err ** (-1.0 / 3.0)))


def integrate_ode(f, x0, tspan, opts: IntegratorOptions = IntegratorOptions()) -> Trajectory:
    """Integrate dx/dt = f(t, x) over tspan with adaptive stepping.

    The recorded residual norms, which also drive the stop_on_residual
    event, are the norms of the vector field itself. x0 is validated here.
    """
    x0 = as_vector(x0)

    def field(t, x):
        v = f(t, x)
        return v, v

    return _integrate(field, x0, tspan, opts)


# non-finite values are not errors here, from x0 on: a non-finite stage is
# a rejected step
@np.errstate(over="ignore", invalid="ignore")
def _integrate(field, x0, tspan, opts: IntegratorOptions) -> Trajectory:
    """The step loop of integrate_ode for a field(t, x) -> (dx/dt, aux).

    The recorded norm is ||aux|| of the evaluation at the recorded state.
    The field runs 1 + 3 * (accepted + rejected) times.
    """
    t0, tf = as_tspan(tspan)
    x = np.array(x0, dtype=float)

    h = max(0.01 * (tf - t0), H_MIN)
    fx, aux = field(t0, x)
    t = t0
    rnorm = math.sqrt(aux.dot(aux))  # np.linalg.norm's arithmetic
    # states are never mutated: x is rebound to a fresh x_high on each step
    times = [t0]
    states = [x]
    res_norms = [rnorm]
    n_accepted = 0
    n_rejected = 0
    n_rejected_nonfinite = 0
    termination = None

    if opts.stop_on_residual is not None and rnorm <= opts.stop_on_residual:
        termination = Termination.RESIDUAL_EVENT

    while termination is None:
        if n_accepted + n_rejected >= opts.max_steps:
            termination = Termination.MAX_STEPS
            break
        h_trial = min(h, tf - t)
        x_new, err, k4, aux4 = rk23_step(field, t, x, h_trial, opts.rtol, opts.atol, fx)
        if err <= 1.0:
            t = t + h_trial
            x, fx = x_new, k4
            n_accepted += 1
            rnorm = math.sqrt(aux4.dot(aux4))
            event = (opts.stop_on_residual is not None
                     and rnorm <= opts.stop_on_residual)
            # robust endpoint test: floating accumulation can leave t a few
            # ulps short of tf after the final truncated step
            done = (tf - t) <= 1e-13 * (tf - t0)
            if event:
                termination = Termination.RESIDUAL_EVENT
            elif done:
                termination = Termination.REACHED_TF
            if n_accepted % opts.record_stride == 0:
                times.append(t)
                states.append(x)
                res_norms.append(rnorm)
        else:
            n_rejected += 1
            if err == math.inf:
                n_rejected_nonfinite += 1
        h = h_trial * _step_factor(err)
        if termination is None and h < H_MIN:
            termination = Termination.STEP_UNDERFLOW

    if n_accepted % opts.record_stride:  # the last accepted state, if not yet recorded
        times.append(t)
        states.append(x)
        res_norms.append(rnorm)

    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        residual_norms=np.asarray(res_norms),
        termination=termination,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_rejected_nonfinite=n_rejected_nonfinite,
    )


def integrate(p: AveProblem, cfg: DynamicsConfig, x0, tspan,
              opts: IntegratorOptions = IntegratorOptions()) -> Trajectory:
    """Integrate the projection dynamical system for a SOCAVE problem.

    x0 is validated here, once; the stages are not (see rhs_and_residual).
    The recorded residual norms come from the field evaluations themselves.
    """
    x0 = as_vector(x0, p.n)
    return _integrate(lambda t, x: rhs_and_residual(p, cfg, x), x0, tspan, opts)


def time_to_tolerance(traj: Trajectory, tol: float) -> float | None:
    """First time with residual norm <= tol, or None. It needs every
    accepted step recorded (record_stride 1): a ValueError otherwise."""
    as_positive(tol, "tol")
    if len(traj.times) != traj.n_accepted + 1:
        raise ValueError(f"time_to_tolerance needs every accepted step recorded; "
                         f"{len(traj.times)} rows for {traj.n_accepted} steps")
    hits = np.nonzero(traj.residual_norms <= tol)[0]
    if hits.size == 0:
        return None
    return float(traj.times[hits[0]])
