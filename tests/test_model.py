import json
import math
import re
import warnings

import numpy as np
import pytest

from socave.linalg import vector_norm
from socave.model import (
    AveProblem,
    Solvability,
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
from socave.problems import example_toy, example_tridiag
from socave.soc import ConeStructure, soc_abs


@pytest.fixture
def unique():
    return example_toy("unique")


@pytest.fixture
def multi():
    return example_toy("multi")


def test_a_must_be_square():
    with pytest.raises(ValueError, match="A must be square"):
        AveProblem(np.ones((2, 3)), [0.0, 0.0], ConeStructure((2,)))


def test_a_problem_equals_itself_alone_and_hashes():
    # a field-wise == would compare the arrays of b, whose truth is ambiguous
    p, q = example_toy("unique"), example_toy("unique")
    assert p == p and p != q
    assert len({p, q, p}) == 2


class TestResidual:
    def test_zero_at_unique_solution(self, unique):
        assert residual(unique, [0.0, 1.0]).tolist() == [0, 0]

    def test_zero_at_tridiag_solution(self):
        p, x_star = example_tridiag(6)
        assert np.max(np.abs(residual(p, x_star))) == 0.0

    def test_nonsolution_value(self, unique):
        assert residual(unique, [1.0, 0.0]).tolist() == [1, 1]

    def test_dimension_mismatch(self, unique):
        with pytest.raises(ValueError):
            residual(unique, [1.0, 0.0, 0.0])


class TestQfMaps:
    def test_at_unique_solution(self, unique):
        q, f = qf_maps(unique, [0.0, 1.0])
        assert q.tolist() == [1, 1]
        assert f.tolist() == [1, -1]
        assert float(q @ f) == 0.0

    def test_at_origin_both_equal_minus_b(self, unique):
        q, f = qf_maps(unique, [0.0, 0.0])
        assert q.tolist() == (-unique.b).tolist()
        assert f.tolist() == (-unique.b).tolist()

    def test_multi_problem(self, multi):
        q, f = qf_maps(multi, [1.0, 0.0])
        assert q.tolist() == [2, 0]
        assert f.tolist() == [0, 0]

    def test_q_minus_f_is_2x(self, unique):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(2)
            q, f = qf_maps(unique, x)
            assert np.max(np.abs((q - f) - 2 * x)) <= 1e-15 * max(1, np.max(np.abs(q)))


class TestProjectionForm:
    def test_at_solution(self, unique):
        assert residual_projection_form(unique, [0.0, 1.0]).tolist() == [0, 0]

    def test_x_in_cone_case(self, unique):
        assert residual_projection_form(unique, [1.0, 0.0]).tolist() == [1, 1]

    def test_outside_both_cones_case(self, multi):
        out = residual_projection_form(multi, [0.0, 2.0])
        assert out.tolist() == [-2, -2]
        assert np.array_equal(out, residual(multi, [0.0, 2.0]))

    def test_forms_agree_randomly(self):
        rng = np.random.default_rng(1)
        p, _ = example_tridiag(8)
        for _ in range(200):
            x = rng.standard_normal(8) * 3
            a = residual(p, x)
            b = residual_projection_form(p, x)
            assert np.max(np.abs(a - b)) <= 1e-10


class TestIsSolution:
    def test_true_at_solution(self, unique):
        assert is_solution(unique, [0.0, 1.0], 1e-8)

    def test_false_elsewhere(self, unique):
        assert not is_solution(unique, [1.0, 0.0], 1e-8)

    @pytest.mark.parametrize("a", [0.0, 1.0, 7.3])
    def test_multi_equilibrium_ray(self, multi, a):
        assert is_solution(multi, [a, 0.0], 1e-8)

    def test_a_residual_whose_sum_of_squares_overflows_is_silent(self):
        # ||r|| = 2.83e200 on A = 3I: finite, though its sum of squares overflows
        p = AveProblem(np.diag([3.0, 3.0]), np.zeros(2), ConeStructure((1, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_solution(p, [1e200, 1e200], 1.0)
            assert is_solution(p, [1e200, 1e200], 3e200)

    def test_rejects_bad_tol(self, unique):
        with pytest.raises(ValueError):
            is_solution(unique, [0.0, 1.0], 0.0)

    def test_rejects_nan_tol(self, unique):
        with pytest.raises(ValueError):
            is_solution(unique, [0.0, 1.0], math.nan)


class TestSolvabilityCertificate:
    def test_tridiag_unique(self):
        p, _ = example_tridiag(4)
        cert = solvability_certificate(p)
        assert cert.verdict is Solvability.UNIQUE_GUARANTEED
        assert cert.sigma_min > 2

    def test_toy_boundary(self, unique):
        cert = solvability_certificate(unique)
        assert cert.verdict is Solvability.BOUNDARY_REGIME
        assert cert.sigma_min == pytest.approx(1.0, abs=1e-12)

    def test_not_certified(self):
        p = AveProblem(0.5 * np.eye(2), np.zeros(2), ConeStructure((2,)))
        assert solvability_certificate(p).verdict is Solvability.NOT_CERTIFIED


class TestContractionGap:
    def test_hand_value(self, unique):
        assert contraction_gap(unique, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_zero_at_solution(self, unique):
        assert contraction_gap(unique, [0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_nonnegative_under_certificate(self):
        p, x_star = example_tridiag(4)
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.standard_normal(4) * 4
            assert contraction_gap(p, x, x_star) >= -1e-10

    def test_rejects_fake_solution(self, unique):
        with pytest.raises(ValueError):
            contraction_gap(unique, [1.0, 0.0], [5.0, 5.0])


def test_complementarity_at_solutions(unique):
    # ||(q + f) - |q - f||| is zero iff q, f in K and <q, f> = 0
    q, f = qf_maps(unique, [0.0, 1.0])
    assert vector_norm((q + f) - soc_abs(q - f, unique.cone)) <= 1e-8


class TestJsonSchema:
    def test_round_trip(self, tmp_path, unique):
        path = tmp_path / "p.json"
        save_problem(path, unique, x_star=[0.0, 1.0])
        p, x_star = load_problem(path)
        assert np.array_equal(p.A.to_dense(), unique.A.to_dense())
        assert np.array_equal(p.b, unique.b)
        assert p.cone == unique.cone
        assert x_star.tolist() == [0, 1]

    def test_save_rejects_a_non_finite_x_star(self, tmp_path, unique):
        path = tmp_path / "p.json"
        with pytest.raises(ValueError):
            save_problem(path, unique, x_star=[math.nan, 1.0])
        assert not path.exists()

    def test_tridiag_kind(self):
        d = {
            "n": 4,
            "cone_blocks": [4],
            "A": {"kind": "tridiag", "sub": -1, "diag": 4, "sup": -1},
            "b": [0, 0, 0, 0],
        }
        p, x_star = problem_from_dict(d)
        A = p.A.to_dense()
        assert A[1, 0] == -1 and A[1, 1] == 4 and A[1, 2] == -1
        assert x_star is None

    def test_dict_has_schema_fields(self, unique):
        d = problem_to_dict(unique)
        assert set(d) >= {"n", "cone_blocks", "A", "b"}
        assert d["A"]["kind"] == "dense"

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_problem(path)
        with pytest.raises(ValueError):
            problem_from_dict({"n": 2})

    def test_dimension_disagreement_raises(self):
        d = {"n": 2, "cone_blocks": [3],
             "A": {"kind": "dense", "entries": [[1, 0], [0, 1]]}, "b": [0, 0]}
        with pytest.raises(ValueError):
            problem_from_dict(d)

    def test_dense_n_must_match_a(self):
        d = {"n": 5, "cone_blocks": [2],
             "A": {"kind": "dense", "entries": [[1, 0], [0, 1]]}, "b": [0, 0]}
        with pytest.raises(ValueError, match="shape"):
            problem_from_dict(d)

    @pytest.mark.parametrize("name", [None, [1, 2], 7, True, {}])
    def test_name_must_be_a_string(self, unique, name):
        d = problem_to_dict(unique)
        d["name"] = name
        message = f"name must be a string, got {re.escape(repr(name))}"
        with pytest.raises(ValueError, match=message):
            problem_from_dict(d)
        with pytest.raises(ValueError, match=message):  # so save_problem never writes one
            AveProblem(unique.A, unique.b, unique.cone, name=name)

    def test_a_string_name_round_trips(self, tmp_path, unique):
        path = tmp_path / "p.json"
        save_problem(path, AveProblem(unique.A, unique.b, unique.cone, name="toy [1, 2]"))
        assert load_problem(path)[0].name == "toy [1, 2]"
        d = problem_to_dict(unique)
        del d["name"]
        assert problem_from_dict(d)[0].name == ""

    def test_dense_b_must_match_n(self):
        d = {"n": 2, "cone_blocks": [2],
             "A": {"kind": "dense", "entries": [[1, 0], [0, 1]]}, "b": [0, 0, 0]}
        with pytest.raises(ValueError):
            problem_from_dict(d)

    @pytest.mark.parametrize("field", ["sub", "diag", "sup"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_tridiag_coefficients_must_be_finite(self, field, bad):
        spec = {"kind": "tridiag", "sub": -1, "diag": 4, "sup": -1, field: bad}
        d = {"n": 4, "cone_blocks": [4], "A": spec, "b": [0, 0, 0, 0]}
        with pytest.raises(ValueError, match="finite"):
            problem_from_dict(d)

    def test_tridiag_nan_in_json_file(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 2, "cone_blocks": [2], "b": [0, 0], '
                        '"A": {"kind": "tridiag", "sub": NaN, "diag": 4, "sup": -1}}')
        with pytest.raises(ValueError):
            load_problem(path)

    def test_banded_round_trip_at_n_1e5(self, tmp_path):
        p, x_star = example_tridiag(10 ** 5)
        path = tmp_path / "big.json"
        save_problem(path, p, x_star)
        q, x_star2 = load_problem(path)
        assert q.A == p.A
        assert np.array_equal(q.b, p.b)
        assert np.array_equal(x_star2, x_star)
        assert json.loads(path.read_text())["A"]["kind"] == "tridiag"
