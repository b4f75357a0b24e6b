"""Solver toolkit for absolute value equations over second-order cones.

Solves Ax - |x| - b = 0 (Jordan-algebra absolute value over a product of
second-order cones) by integrating a projection-type dynamical system and
verifies candidates through the equivalent cone-complementarity residual.
"""

from .dynamics import DynamicsConfig, lipschitz_bound, lyapunov_rate, lyapunov_value, rhs
from .integrator import (
    IntegratorOptions,
    Termination,
    Trajectory,
    integrate,
    integrate_many,
    rk23_step,
    time_to_tolerance,
)
from .linalg import DenseOperator, TridiagToeplitz
from .model import (
    AveProblem,
    Solvability,
    SolvabilityCertificate,
    contraction_gap,
    is_solution,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    qf_maps,
    residual,
    residual_projection_form,
    save_problem,
    solvability_certificate,
)
from .problems import example_toy, example_tridiag, initial_grid, random_unique
from .soc import (
    ConeStructure,
    Membership,
    SpectralDecomp,
    complementarity_residual,
    cone_membership,
    in_cone,
    jordan_product,
    project_cone,
    soc_abs,
    spectral_decompose,
)

__version__ = "0.1.0"
