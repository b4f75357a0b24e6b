"""The overflow rule of the cone layer: every public function of socave.soc,
called on finite inputs, returns its value, with inf or nan where the input
overflows, and neither warns nor raises."""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socave import soc
from socave.soc import ConeStructure, Membership

CONES = [ConeStructure(blocks) for blocks in ((2,), (1, 1), (3, 2))]
MAGNITUDES = (0.0, 1e-320, 1.0, 1e154, 1e200, 1e308, 1.7e308)
ENTRIES = sorted({sign * m for m in MAGNITUDES for sign in (1.0, -1.0)})

# the arguments of each public function, made from (cone, x, y), with
# x and y finite vectors of dimension cone.dim; the one-block functions take
# x as one block, and the kernels a batch of two rows, the grouped path
CALLS = {
    "eigenvalues": lambda cone, x, y: (x,),
    "spectral_decompose": lambda cone, x, y: (x,),
    "jordan_product": lambda cone, x, y: (x, y, cone),
    "soc_abs": lambda cone, x, y: (x, cone),
    "abs_kernel": lambda cone, x, y: (np.stack((x, y)), cone),
    "project_cone": lambda cone, x, y: (x, cone),
    "project_kernel": lambda cone, x, y: (np.stack((x, y)), cone),
    "in_cone": lambda cone, x, y: (x, cone),
    "cone_membership": lambda cone, x, y: (x, cone),
    "complementarity_residual": lambda cone, x, y: (x, y, cone),
}


def test_the_table_has_every_public_function_of_soc():
    public = {name for name, obj in vars(soc).items()
              if inspect.isfunction(obj) and obj.__module__ == soc.__name__
              and not name.startswith("_")}
    assert public == set(CALLS)


@st.composite
def finite_points(draw):
    cone = draw(st.sampled_from(CONES))
    vector = st.lists(st.sampled_from(ENTRIES), min_size=cone.dim, max_size=cone.dim)
    return cone, np.array(draw(vector)), np.array(draw(vector))


def _silently(f, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=150, deadline=None)
@given(point=finite_points())
# x1 + ||x2||, <x, y> and s - t each overflow
@example(point=(CONES[0], np.array([1e308, 1e308]), np.array([-1e308, 1e308])))
@example(point=(CONES[0], np.array([-1e308, 1e308]), np.array([1e308, 0.0])))
# an overflowed tail factor meets a zero tail entry
@example(point=(CONES[2], np.array([1e308, 1e308, 0.0, 1.0, 1.0]), np.zeros(5)))
def test_a_finite_input_returns_without_a_warning(name, point):
    cone, x, y = point
    _silently(getattr(soc, name), *CALLS[name](cone, x, y))


def test_eigenvalues_of_an_overflowing_head_plus_tail():
    assert _silently(soc.eigenvalues, np.array([1e308, 1e308])) == (0.0, math.inf)


def test_membership_of_an_overflowing_boundary_point():
    assert _silently(soc.cone_membership, [1e308, 1e308], CONES[0]) == [Membership.BOUNDARY]


def test_an_overflowing_difference_is_an_inf_residual_not_a_value_error():
    # s - t = [inf, 0] is not re-validated as an input of soc_abs
    assert _silently(soc.complementarity_residual,
                     [1e308, 0.0], [-1e308, 0.0], CONES[0]) == math.inf
