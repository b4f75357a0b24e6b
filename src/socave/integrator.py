"""Adaptive embedded Runge-Kutta 2(3) integration of the projection flow.

Uses the Bogacki-Shampine 3(2) pair (the method behind MATLAB's ode23)
with standard proportional step control: accept when the scaled error
estimate is <= 1, step factor 0.9 * err^(-1/3) clamped to [0.2, 5]. The
flow is autonomous, so no field call takes a time. Trajectories record
every accepted step and can stop early on a residual event.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsConfig, rhs_and_residual
from .linalg import as_count, as_positive, as_tspan, as_vector, silent, vector_norm
from .model import AveProblem


# the step-size floor: a step size below it, or one that would not move t,
# ends the run in STEP_UNDERFLOW
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


def rk23_step(field, x, h, rtol, atol, k1):
    """One Bogacki-Shampine step for an autonomous field(x) -> (dx/dt, aux),
    with k1 = field(x)[0] and x finite: (x_high, err, k4, aux4).

    x is a state, or a (k, n) batch of states with h a float or a (k, 1)
    column. The arithmetic is elementwise, so each row takes the IEEE
    operations of a step from that row alone, and err has one entry per row.
    err is the infinity norm of (x_high - x_low) divided componentwise by
    atol + rtol * max(|x|, |x_high|), and inf after a non-finite stage, so
    the caller rejects the step. The pair is FSAL: k4, aux4 = field(x_high),
    the next step's k1. _integrate runs it under linalg.silent; a direct
    caller handles overflow and invalid-value warnings itself.
    """
    k2 = field(x + (0.5 * h) * k1)[0]
    k3 = field(x + (0.75 * h) * k2)[0]
    # x_high = x + h * ((2 k1 + 3 k2 + 4 k3) / 9), and below
    # err_vec = (h / 72) * (-5 k1 + 6 k2 + 8 k3 - 9 k4) and
    # scale = atol + rtol * max(|x|, |x_high|): each is accumulated in place,
    # operation by operation as written, so with fewer temporaries. The
    # integer-weight forms keep the estimate exactly zero when all stages agree
    x_high = 2.0 * k1
    x_high += 3.0 * k2
    x_high += 4.0 * k3
    x_high /= 9.0
    x_high *= h
    x_high += x
    k4, aux4 = field(x_high)
    err_vec = -5.0 * k1
    err_vec += 6.0 * k2
    err_vec += 8.0 * k3
    err_vec -= 9.0 * k4
    err_vec *= h / 72.0
    scale = np.maximum(np.abs(x), np.abs(x_high))
    scale *= rtol
    scale += atol
    # x_high - x_high is 0 where x_high is finite and nan elsewhere. That nan,
    # and an inf or nan from a non-finite stage, survive the division by
    # scale > 0 and the max, and fmin makes a nan inf
    ratio = np.abs(err_vec)
    ratio /= scale
    ratio += x_high - x_high
    err = np.fmin(np.maximum.reduce(ratio, axis=-1, initial=0.0), math.inf)
    return x_high, err, k4, aux4


def _step_factor(err: float) -> float:
    if err == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * err ** (-1.0 / 3.0)))


# a run's recorded states go into one array that it owns, of RECORD_ROWS
# rows at first, which doubles each time it is full
RECORD_ROWS = 16


class _Run:
    """The state of one row of the step loop, its span, and what it records.

    Each recorded state is copied into the next row of the run's own array
    when it is recorded, so no step's array outlives its step."""

    __slots__ = ("t", "tf", "near_tf", "h", "rnorm", "times", "states", "res_norms",
                 "n_accepted", "n_rejected", "n_rejected_nonfinite", "termination")

    def __init__(self, tspan, x, rnorm, stop, max_steps):
        t0, self.tf = tspan
        self.h = max(0.01 * (self.tf - t0), H_MIN)
        # robust endpoint test: floating accumulation can leave t a few ulps
        # short of tf after the final truncated step
        self.near_tf = 1e-13 * (self.tf - t0)
        self.states = np.empty((RECORD_ROWS, x.size))
        self.times, self.res_norms = [], []
        self.n_accepted = self.n_rejected = self.n_rejected_nonfinite = 0
        self.t, self.rnorm = t0, rnorm
        self.record(x)
        self.termination = self.end(stop, max_steps)

    def end(self, stop, max_steps):
        """The run's termination, or None while it runs, from its own state,
        tested in this order: its residual norm at most stop, its t at tf,
        its next step below H_MIN or unable to move t, and its own count of
        accepted and rejected steps at max_steps."""
        if stop is not None and self.rnorm <= stop:
            return Termination.RESIDUAL_EVENT
        if self.tf - self.t <= self.near_tf:
            return Termination.REACHED_TF
        if self.h < H_MIN or self.t + self.h == self.t:
            return Termination.STEP_UNDERFLOW
        if self.n_accepted + self.n_rejected == max_steps:
            return Termination.MAX_STEPS
        return None

    def record(self, x):
        """Record x, the state at self.t with residual norm self.rnorm."""
        if len(self.times) == len(self.states):
            # in place: no view of the array exists while the run records
            self.states.resize((2 * len(self.states), x.size), refcheck=False)
        self.states[len(self.times)] = x
        self.times.append(self.t)
        self.res_norms.append(self.rnorm)

    def trajectory(self) -> Trajectory:
        self.states.resize((len(self.times), self.states.shape[1]), refcheck=False)
        return Trajectory(
            times=np.asarray(self.times),
            states=self.states,
            residual_norms=np.asarray(self.res_norms),
            termination=self.termination,
            n_accepted=self.n_accepted,
            n_rejected=self.n_rejected,
            n_rejected_nonfinite=self.n_rejected_nonfinite,
        )


def _running(runs: list[_Run], *rows):
    """The runs not yet terminated, and the matching rows of each array."""
    keep = [i for i, run in enumerate(runs) if run.termination is None]
    return [runs[i] for i in keep], *(a[keep] for a in rows)


# non-finite values are not errors here, from x0 on: a non-finite stage is
# a rejected step. The loop's one policy covers rk23_step, rhs_and_residual
# and residual_kernel, which take none of their own
@silent
def _integrate(p: AveProblem, cfg: DynamicsConfig, b: np.ndarray, x0: np.ndarray,
               tspans: list, opts: IntegratorOptions) -> list[Trajectory]:
    """The step loop: one trajectory per row of the (k, n) batch x0, the row
    i over the validated span tspans[i], for the field rhs_and_residual of
    p with b[i] in place of p.b.

    The rows still running are stepped together, but each has its own t,
    span, step size, error test, counters, records and termination, and
    leaves the batch when it terminates: each trajectory is the one its row
    gives as a batch of one. _Run.end decides how each run ends, at its start
    and after every attempt of its own. h goes to rk23_step as a float for
    one row, whose scalar arithmetic is cheaper, and as a (k, 1) column for
    more. The recorded norm is ||r|| of the evaluation at the recorded
    state. The field runs once on x0, then three times per attempt on the
    rows still running.
    """
    x = np.array(x0, dtype=float)
    # b is looked up at each call, so the stages see it filtered
    field = lambda y: rhs_and_residual(p, cfg, y, b)
    fx, aux = field(x)
    stop, max_steps, stride = opts.stop_on_residual, opts.max_steps, opts.record_stride
    runs = [_Run(tspan, row, vector_norm(a), stop, max_steps)
            for tspan, row, a in zip(tspans, x, aux)]
    live, x, fx, b = _running(runs, x, fx, b)

    while live:
        h_trials = [min(run.h, run.tf - run.t) for run in live]
        h = h_trials[0] if len(live) == 1 else np.array(h_trials)[:, None]
        x_new, err, k4, aux4 = rk23_step(field, x, h, opts.rtol, opts.atol, fx)
        errs = err.tolist()
        n_took = 0
        for i, run in enumerate(live):
            e, h_trial = errs[i], h_trials[i]
            if e <= 1.0:
                n_took += 1
                run.t += h_trial
                run.n_accepted += 1
                run.rnorm = vector_norm(aux4[i])
                if run.n_accepted % stride == 0:
                    run.record(x_new[i])
            else:
                run.n_rejected += 1
                if e == math.inf:
                    run.n_rejected_nonfinite += 1
            run.h = h_trial * _step_factor(e)
            run.termination = run.end(stop, max_steps)
            if run.termination and run.n_accepted % stride:  # the last state is not yet recorded
                run.record(x_new[i] if e <= 1.0 else x[i])
        if n_took == len(live):
            x, fx = x_new, k4
        elif n_took:
            took = (err <= 1.0)[:, None]
            x, fx = np.where(took, x_new, x), np.where(took, k4, fx)
        if any(run.termination for run in live):
            live, x, fx, b = _running(live, x, fx, b)

    return [run.trajectory() for run in runs]


def integrate_many(p, cfg: DynamicsConfig, starts, tspan,
                   opts: IntegratorOptions = IntegratorOptions()) -> list[Trajectory]:
    """integrate from each of starts, stepped as one batch: one trajectory
    per start, each bit-identical to integrate from that start.

    p is one problem, or a list of one problem per start; problems that do
    not share A and the cone raise ValueError, and each row subtracts its
    own b. tspan is one span, or a list of one span per start, which its
    first entry tells apart. Each start and span is validated here, once;
    the stages are not (see rhs_and_residual).
    """
    starts = list(starts)
    if not starts:
        raise ValueError("integrate_many needs at least one start")
    if isinstance(p, AveProblem):
        p = [p] * len(starts)
    problems = _one_per_start(p, len(starts), "problems")
    p = problems[0]
    if any(q is not p and (q.A != p.A or q.cone != p.cone) for q in problems):
        raise ValueError("the problems of one batch must share A and the cone")
    b = np.array([q.b for q in problems])
    x0 = np.array([as_vector(x, p.n) for x in starts])
    if np.iterable(tspan) and len(tspan) and np.ndim(tspan[0]):
        tspans = [as_tspan(s) for s in _one_per_start(tspan, len(starts), "spans")]
    else:
        tspans = [as_tspan(tspan)] * len(starts)
    return _integrate(p, cfg, b, x0, tspans, opts)


def _one_per_start(items, k: int, what: str) -> list:
    items = list(items)
    if len(items) != k:
        raise ValueError(f"{len(items)} {what} for {k} starts")
    return items


def integrate(p: AveProblem, cfg: DynamicsConfig, x0, tspan,
              opts: IntegratorOptions = IntegratorOptions()) -> Trajectory:
    """Integrate the projection dynamical system for a SOCAVE problem: a
    batch of one start (see integrate_many).

    The recorded residual norms come from the field evaluations themselves.
    """
    return integrate_many(p, cfg, [x0], tspan, opts)[0]


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
