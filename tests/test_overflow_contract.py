"""The package's overflow rule: every public function of socave.soc,
socave.model and socave.dynamics, and every function that socave exports,
called on finite inputs, returns its value, with inf or nan where the input
overflows, and neither warns nor raises. Three pieces of the step loop are
exempt by name: they run under the loop's own policy."""

import inspect
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import socave
from socave import dynamics, model, soc
from socave.dynamics import DynamicsConfig
from socave.integrator import IntegratorOptions, integrate
from socave.model import AveProblem
from socave.soc import ConeStructure

CONES = [ConeStructure(blocks) for blocks in ((2,), (1, 1), (3, 2))]
MAGNITUDES = (0.0, 1e-320, 1.0, 1e154, 1e200, 1e308, 1.7e308)
ENTRIES = sorted({sign * m for m in MAGNITUDES for sign in (1.0, -1.0)})

# each cone's problem A = 3I, b = 0, whose one solution is 0
PROBLEMS = {cone: AveProblem(3.0 * np.eye(cone.dim), np.zeros(cone.dim), cone) for cone in CONES}
CFG = DynamicsConfig(1.0)
# a short run: from a start that overflows, each step is rejected
TSPAN, OPTS = (0.0, 0.01), IntegratorOptions(max_steps=20)

# the step loop's pieces, which take no policy of their own: they run under
# _integrate's linalg.silent, as rk23_step's docstring says
EXEMPT = {
    "rk23_step": "the loop's step",
    "rhs_and_residual": "the loop's field",
    "residual_kernel": "the field's residual",
}

# the arguments of each function in scope, made from a case c: its cone, x
# and y (finite vectors of dimension c.cone.dim), the cone's problem p, its
# solution c.zero and a scratch file path. The kernels take a batch of two
# rows, the grouped path
CALLS = {
    # soc
    "soc_abs": lambda c: (c.x, c.cone),
    "abs_kernel": lambda c: (np.stack((c.x, c.y)), c.cone),
    "project_cone": lambda c: (c.x, c.cone),
    "project_kernel": lambda c: (np.stack((c.x, c.y)), c.cone),
    # model
    "residual": lambda c: (c.p, c.x),
    "qf_maps": lambda c: (c.p, c.x),
    "residual_projection_form": lambda c: (c.p, c.x),
    "is_solution": lambda c: (c.p, c.x, 1e-8),
    "known_solution": lambda c: (c.p, c.x),
    "solvability_certificate": lambda c: (c.p,),
    "contraction_gap": lambda c: (c.p, c.x, c.zero),
    "problem_to_dict": lambda c: (c.p, c.x),
    "problem_from_dict": lambda c: (model.problem_to_dict(c.p, c.x),),
    "save_problem": lambda c: (c.path, c.p, c.x),
    "load_problem": lambda c: (model.save_problem(c.path, c.p, c.x) or c.path,),
    # dynamics
    "rhs": lambda c: (c.p, CFG, c.x),
    "lipschitz_bound": lambda c: (c.p, CFG),
    "lyapunov_value": lambda c: (c.x, c.y),
    "lyapunov_rate": lambda c: (c.p, CFG, c.x, c.zero),
    # the rest of what socave exports
    "integrate": lambda c: (c.p, CFG, c.x, TSPAN, OPTS),
    "integrate_many": lambda c: (c.p, CFG, [c.x, c.y], TSPAN, OPTS),
    "time_to_tolerance": lambda c: (integrate(c.p, CFG, c.x, TSPAN, OPTS), 1e-8),
    "example_toy": lambda c: ("unique",),
    "example_tridiag": lambda c: (2 * c.cone.dim,),
    "initial_grid": lambda c: (c.x, 3),
    "random_unique": lambda c: (c.cone.dim, c.cone, 0.5, 1),
}

# the one documented error a finite input may meet: x is a solution of its
# problem only where it is about 0
REJECTS = {"known_solution": "x_star is not a solution of the problem"}


def _functions_in_scope() -> list:
    """(name, function) of each public function of soc, model and dynamics
    and each function that socave exports."""
    pairs = [(name, obj) for module in (soc, model, dynamics) for name, obj in vars(module).items()
             if inspect.isfunction(obj) and obj.__module__ == module.__name__
             and not name.startswith("_")]
    return pairs + [(name, obj) for name, obj in vars(socave).items() if inspect.isfunction(obj)]


FUNCTIONS = dict(_functions_in_scope())


def test_the_table_has_every_function_in_scope():
    # one function per name, so that a row names one function
    assert len(FUNCTIONS) == len({(name, id(f)) for name, f in _functions_in_scope()})
    assert not set(CALLS) & set(EXEMPT)
    assert set(FUNCTIONS) == set(CALLS) | set(EXEMPT)


@st.composite
def finite_points(draw):
    cone = draw(st.sampled_from(CONES))
    vector = st.lists(st.sampled_from(ENTRIES), min_size=cone.dim, max_size=cone.dim)
    return cone, np.array(draw(vector)), np.array(draw(vector))


def _silently(f, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "problem.json"


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=150, deadline=None)
@given(point=finite_points())
# x1 + ||x2|| and x - y each overflow
@example(point=(CONES[0], np.array([1e308, 1e308]), np.array([-1e308, 1e308])))
@example(point=(CONES[0], np.array([-1e308, 1e308]), np.array([1e308, 0.0])))
# an overflowed tail factor meets a zero tail entry
@example(point=(CONES[2], np.array([1e308, 1e308, 0.0, 1.0, 1.0]), np.zeros(5)))
def test_a_finite_input_returns_without_a_warning(name, point, path):
    cone, x, y = point
    case = SimpleNamespace(cone=cone, x=x, y=y, p=PROBLEMS[cone], zero=np.zeros(cone.dim),
                           path=path)
    try:
        _silently(FUNCTIONS[name], *CALLS[name](case))
    except ValueError as e:
        if str(e) != REJECTS.get(name):
            raise


@pytest.mark.parametrize("x, expected", [
    ([1e308, 1e308], [1e308, 1e308]),  # x1 + s overflows: |x| of a point of K is x
    ([-1e308, 1e308], [1e308, -1e308]),  # x1 - s overflows: of a point of -K, -x
    ([1e308, 1.0], [1e308, 1.0]),  # x1 +/- s is finite, but the head's sum of the two is not
])
def test_abs_of_a_finite_point_is_finite_on_both_paths(x, expected):
    assert _silently(soc.soc_abs, x, CONES[0]).tolist() == expected
    assert _silently(soc.abs_kernel, np.array([x, x]), CONES[0]).tolist() == [expected] * 2


def test_the_projection_of_a_finite_point_has_a_finite_head():
    # x1 + s = 2.5e308 overflows; the exact P_K head is (x1 + s) / 2
    for got in (_silently(soc.project_cone, [1e308, 1.5e308], CONES[0]),
                *_silently(soc.project_kernel, np.array([[1e308, 1.5e308]] * 2), CONES[0])):
        assert got[0] == 1.25e308
        assert math.isclose(got[1], 1.25e308, rel_tol=1e-15)
