"""Right-hand side and stability diagnostics of the projection dynamical system.

The flow is dx/dt = gamma * A^T (b + |x| - Ax), whose equilibria coincide
with the roots of Ax - |x| - b when A is nonsingular. The Lyapunov
diagnostics monitor V(x) = exp(||x - x*||^2) - 1 along trajectories; they
are never used to step the ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_positive, as_vector, silent
from .model import AveProblem, known_solution, residual, residual_kernel

# exp() overflows shortly past 709 in double precision
EXP_OVERFLOW = 700.0


@dataclass(frozen=True)
class DynamicsConfig:
    gamma: float

    def __post_init__(self):
        as_positive(self.gamma, "gamma")


@silent
def rhs(p: AveProblem, cfg: DynamicsConfig, x: np.ndarray) -> np.ndarray:
    """gamma * A^T (b + |x| - Ax), computed as -gamma * A^T r(x).

    x is not validated (see residual_kernel), so a non-finite x yields a
    non-finite field.
    """
    return rhs_and_residual(p, cfg, x)[0]


def rhs_and_residual(p: AveProblem, cfg: DynamicsConfig, x: np.ndarray,
                     b: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(rhs(x), r(x)): the field and the residual it was computed from, of a
    state x or of each row of a (k, n) batch x; b, if given, replaces p.b
    row by row (see residual_kernel).

    The integrator's hot path: it records ||r|| of each accepted state from
    the evaluation it already made, so r is never computed twice. x is not
    validated, so a non-finite stage yields a rejected step.
    """
    r = residual_kernel(p, x, b)
    return -cfg.gamma * p.A.rmatvec(r), r


def lipschitz_bound(p: AveProblem, cfg: DynamicsConfig) -> float:
    """Global Lipschitz constant gamma*||A||*(||A|| + 1) of the vector field."""
    norm_a = p.A.norm()
    return cfg.gamma * norm_a * (norm_a + 1.0)


@silent
def lyapunov_value(x, x_star) -> float:
    """exp(||x - x*||^2) - 1; +inf once the exponent would overflow."""
    x = as_vector(x)
    x_star = as_vector(x_star, x.shape[0])
    d = x - x_star
    d2 = float(np.vdot(d, d))
    if d2 > EXP_OVERFLOW:
        return math.inf
    return math.expm1(d2)


@silent
def lyapunov_rate(p: AveProblem, cfg: DynamicsConfig, x, x_star) -> float:
    """dV/dt along the flow: -2*gamma*exp(||x - x*||^2)*(x - x*)^T A^T r(x);
    x_star goes through known_solution."""
    x = as_vector(x, p.n)
    x_star = known_solution(p, x_star)
    d = x - x_star
    d2 = float(np.vdot(d, d))
    inner = float(d @ p.A.rmatvec(residual(p, x)))
    if d2 > EXP_OVERFLOW:
        return -math.inf if inner > 0 else (math.inf if inner < 0 else 0.0)
    return -2.0 * cfg.gamma * math.exp(d2) * inner
