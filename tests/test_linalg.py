import math
import numbers
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from socave.dynamics import DynamicsConfig
from socave.integrator import integrate
from socave.linalg import (DenseOperator, TridiagToeplitz, as_array, as_count, as_numbers,
                           as_positive, as_tspan, as_vector, vector_norm)
from socave.model import AveProblem, problem_from_dict, problem_to_dict
from socave.problems import example_toy, example_tridiag, random_unique
from socave.soc import ConeStructure

SIZES = (1, 2, 3, 10, 101)
# (sub, diag, sup); the last two are not symmetric
COEFFS = ((-1.0, 4.0, -1.0), (0.5, -3.0, 0.5), (1.5, 1.0, 1.5), (-0.7, 4.0, -1.3), (2.0, 0.5, -3.0))
SYMMETRIC = COEFFS[:3]


def dense(n, sub, diag, sup):
    return TridiagToeplitz(n, sub, diag, sup).to_dense()


class TestBuildTridiag:
    def test_three_by_three(self):
        expected = [[4, -1, 0], [-1, 4, -1], [0, -1, 4]]
        assert dense(3, -1, 4, -1).tolist() == expected

    def test_size_one_has_no_off_diagonals(self):
        assert dense(1, -1, 4, -1).tolist() == [[4]]

    def test_identity_case(self):
        assert dense(2, 0, 1, 0).tolist() == [[1, 0], [0, 1]]

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            dense(0, 1, 1, 1)


class TestValidators:
    @pytest.mark.parametrize("v", [1e-300, 2, 2.5, np.float64(3.0)])
    def test_positive_accepts_finite_positive_numbers(self, v):
        assert as_positive(v, "v") == float(v)

    @pytest.mark.parametrize("v", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, "2", None])
    def test_positive_rejects_the_rest(self, v):
        with pytest.raises(ValueError, match="v must be finite and > 0"):
            as_positive(v, "v")

    @pytest.mark.parametrize("v", [10**400, -10**400, True, False])
    def test_positive_rejects_huge_ints_and_bools(self, v):
        with pytest.raises(ValueError, match="v must be finite and > 0"):
            as_positive(v, "v")

    @pytest.mark.parametrize("tspan", [(0, 10**400), (-10**400, 0), (False, True), ("0", "1")])
    def test_tspan_rejects_huge_ints_bools_and_strings(self, tspan):
        with pytest.raises(ValueError, match="tspan must be two finite times"):
            as_tspan(tspan)

    def test_numbers_checks_each_entry_of_nested_lists(self):
        assert as_numbers([[1, 2.5], [np.float64(3)]], "m") == [[1.0, 2.5], [3.0]]
        assert as_numbers(-4, "m") == -4.0
        for bad in (["1"], [[0, True]], [None], [{}], [10**400], [math.nan], [[-math.inf]]):
            with pytest.raises(ValueError, match="m must be a finite number"):
                as_numbers(bad, "m")

    @pytest.mark.parametrize("v", [1, 7, 2.0, np.int64(3), np.float64(4.0),
                                   pytest.param(10**400, id="10**400")])
    def test_count_accepts_integers_and_integer_valued_floats(self, v):
        n = as_count(v, "v")
        assert n == v and type(n) is int

    @pytest.mark.parametrize("v", [0, -1, 0.0, 1.5, True, False, math.nan, math.inf, 1e400,
                                   "2", None, np.bool_(True)])
    def test_count_rejects_the_rest(self, v):
        with pytest.raises(ValueError, match="v must be an integer >= 1"):
            as_count(v, "v")

    def test_tspan_accepts_two_increasing_finite_times(self):
        assert as_tspan([np.float64(-1.0), 2]) == (-1.0, 2.0)

    @pytest.mark.parametrize("tspan", [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (math.nan, 1.0),
                                       (-math.inf, 0.0), (), (0.0,), (0.0, 1.0, 2.0),
                                       5.0, None, np.float64(5.0), np.array(5.0)])
    def test_tspan_rejects_the_rest(self, tspan):
        with pytest.raises(ValueError, match="tspan must be two finite times"):
            as_tspan(tspan)

    @pytest.mark.parametrize("tspan", [(-1e308, 1e308), (-1.7e308, 0.2e308)])
    def test_tspan_rejects_a_width_past_the_float_range(self, tspan):
        # with tf - t0 = inf the first step is inf, so every attempt fails, and
        # the endpoint tolerance 1e-13 * (tf - t0) is inf, so t0 would pass as tf
        with pytest.raises(ValueError, match="tf - t0 finite"):
            as_tspan(tspan)
        assert as_tspan((-0.8e308, 0.8e308)) == (-0.8e308, 0.8e308)


# numbers, and values that are not finite real numbers or are bools; and the
# numpy dtypes whose arrays the rule takes whole (float32, int64) or entry by
# entry (the rest)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2**53, 2**53)
ANY = (st.floats() | st.integers(-10**400, 10**400) | st.booleans() | st.text(max_size=3)
       | st.complex_numbers() | st.none())
DTYPES = ("bool", "complex128", "float32", "int64", "object", "<U3")


def number_inputs(scalars):
    """Scalars, numpy arrays of DTYPES (objects drawn from scalars) and
    nested lists and tuples of both."""
    arrays = st.sampled_from(DTYPES).flatmap(lambda dt: npst.arrays(
        dt, npst.array_shapes(max_dims=3, max_side=3),
        elements=scalars if dt == "object" else None))
    return st.recursive(scalars | arrays, lambda inner: st.lists(inner, min_size=1, max_size=3)
                        | st.lists(inner, min_size=1, max_size=3).map(tuple), max_leaves=8)


def floats_of(v, ndim):
    """float() of each number in v, nested ndim deep, or None unless v is a
    rectangular nesting, ndim deep, of finite real numbers that are not bools."""
    if ndim == 0:
        if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
            return None
        try:
            x = float(v)
        except OverflowError:
            return None
        return x if math.isfinite(x) else None
    if not isinstance(v, (list, tuple, np.ndarray)):
        return None
    rows = [floats_of(e, ndim - 1) for e in v]
    if any(r is None for r in rows) or len({len(r) for r in rows if isinstance(r, list)}) > 1:
        return None
    return rows


class TestVectorNorm:
    @pytest.mark.parametrize("v, norm", [([3e200, 4e200], 5e200), ([-1e300], 1e300),
                                         ([1e308, 1e308], 1e308 * math.sqrt(2)),
                                         ([1.7e308, 1.7e308], math.inf)])
    def test_a_sum_of_squares_past_the_float_range_is_scaled(self, v, norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert vector_norm(np.array(v, dtype=float)) == pytest.approx(norm, rel=1e-15)

    def test_a_subnormal_sum_of_squares_takes_hypot(self):
        # np.vdot gives 4.999972167879245e-160, from a subnormal 2.5e-319
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert vector_norm(np.array([3e-160, 4e-160])) == 5e-160

    def test_a_vector_whose_squares_underflow_takes_hypot(self):
        # np.vdot gives 0; one vector and a stack of them give 1e-170
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert vector_norm(np.array([1e-170])) == 1e-170
            assert vector_norm(np.array([[1e-170], [1e-170]])).tolist() == [1e-170, 1e-170]

    @given(npst.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(0, 4)),
                       elements=st.sampled_from([sign * m for m in (0.0, 5e-324, 1e-170, 1.0, 1e200)
                                                 for sign in (1.0, -1.0)])))
    def test_the_norm_is_zero_only_for_a_zero_vector(self, stack):
        # each vector of a stack has the norm it has alone; a stack runs
        # under its callers' silent
        with np.errstate(over="ignore"):
            norms = vector_norm(stack)
        for v, norm in zip(stack, norms):
            assert norm == vector_norm(v)
            assert (norm == 0.0) == (not v.any())

    # as np.linalg.norm: a nan in the sum of squares is not an overflow
    @pytest.mark.parametrize("v, norm", [([math.inf, 1.0], math.inf), ([math.nan, 1.0], None),
                                         ([math.inf, math.nan], None)])
    def test_a_non_finite_entry_gives_a_non_finite_norm(self, v, norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = vector_norm(np.array(v))
        assert got == norm if norm is not None else math.isnan(got)


class TestOneNumberRule:
    """as_array decides every number that enters the package, so a library
    caller gets the rule of a problem file: finite real numbers, no bools,
    strings or complex numbers, and a ValueError naming the value otherwise."""

    @pytest.mark.parametrize("call, label", [
        (lambda: as_vector(["0", "1"]), "vector"),
        (lambda: integrate(example_toy("unique"), DynamicsConfig(2.0), ["0", "1"], (0, 1)),
         "vector"),
        (lambda: as_vector([True, 2.5]), "vector"),
        (lambda: as_vector(np.array([True, False])), "vector"),
        (lambda: AveProblem(np.eye(2), ["-1", True], ConeStructure((2,))), "b"),
        (lambda: DenseOperator([["1", "0"], ["0", True]]), "A entries"),
        (lambda: DenseOperator(np.array([[1 + 1j]])), "A entries"),
        (lambda: as_vector(np.array([1 + 1j, 2])), "vector"),
        (lambda: as_vector([10**400, 0]), "vector"),
        (lambda: DenseOperator([[10**400]]), "A entries"),
        (lambda: as_vector([1 + 2j]), "vector"),
    ], ids=["strings", "integrate-strings", "bool", "bool-array", "problem-b", "dense-strings",
            "dense-complex-array", "complex-array", "huge-int", "dense-huge-int", "complex"])
    def test_a_library_caller_gets_the_file_rule(self, call, label):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{label} must be a finite number, got "):
                call()

    @pytest.mark.parametrize("v", [np.array([1.5, -2.0], dtype=np.float32),
                                   np.array([3, -4], dtype=np.int64), (1.5, -2),
                                   [np.float64(1.5), np.float64(-2.0)]],
                             ids=["float32", "int64", "tuple", "np.float64-list"])
    def test_valid_inputs_keep_their_values(self, v):
        expected = [float(e) for e in v]
        assert as_vector(v).dtype == np.float64 and as_vector(v).tolist() == expected
        assert AveProblem(np.eye(2), v, ConeStructure((2,))).b.tolist() == expected
        assert DenseOperator([v, v]).array.tolist() == [expected, expected]

    def test_a_float64_vector_comes_back_uncopied(self):
        x = np.array([1.0, 2.0])
        assert as_vector(x) is x and as_array(x, 1, "x") is x

    def test_a_non_finite_array_gets_the_message_of_a_list(self):
        for v in ([1.0, math.nan], np.array([1.0, math.nan]), np.array([1.0, math.nan], dtype=object)):
            with pytest.raises(ValueError, match="^vector must be a finite number, got nan$"):
                as_vector(v)

    def test_shape_errors_name_the_value(self):
        with pytest.raises(ValueError, match="^vector must have ndim=1, got ndim=2$"):
            as_vector([[0, 1]])
        with pytest.raises(ValueError, match="^x_star has dimension 2, expected 3$"):
            as_vector([0, 1], 3, "x_star")
        with pytest.raises(ValueError, match="^A entries must have ndim=2, got ndim=1$"):
            DenseOperator([1, 2])
        with pytest.raises(ValueError, match="^b has dimension 3, expected 2$"):
            AveProblem(np.eye(2), [0, 0, 0], ConeStructure((2,)))

    def test_numbers_walks_tuples_and_arrays(self):
        assert as_numbers((1, [2.5, np.int64(3)]), "m") == [1.0, [2.5, 3.0]]
        assert as_numbers(np.array([[1, 2]], dtype=np.int64), "m") == [[1.0, 2.0]]
        with pytest.raises(ValueError, match="m must be a finite number, got True"):
            as_numbers(np.array([True]), "m")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_entry_point_returns_finite_floats_or_raises_value_error(self, data):
        v = data.draw(number_inputs(data.draw(st.sampled_from([FINITE, ANY]))))
        n = len(v) if isinstance(v, (list, tuple, np.ndarray)) else 1
        entry_points = [(1, as_vector, lambda x: x), (2, DenseOperator, lambda op: op.array),
                        (1, lambda b: AveProblem(np.eye(n), b, ConeStructure((n,))),
                         lambda p: p.b)]
        for ndim, make, array_of in entry_points:
            expected = floats_of(v, ndim)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if expected is None:
                    with pytest.raises(ValueError):
                        make(v)
                    continue
                got = array_of(make(v))
            assert got.dtype == np.float64 and np.isfinite(got).all()
            assert got.tolist() == expected


class TestSpectralNorm:
    def test_identity(self):
        assert DenseOperator(np.eye(3)).norm() == pytest.approx(1.0, rel=1e-12)

    def test_tridiag_known_eigenvalues(self):
        # eigenvalues of tridiag(-1,4,-1), n=3 are 4 - 2cos(k*pi/4)
        A = DenseOperator(dense(3, -1, 4, -1))
        assert A.norm() == pytest.approx(4 + math.sqrt(2), rel=1e-10)

    def test_sign_diagonal(self):
        assert DenseOperator(np.diag([1.0, -1.0])).norm() == pytest.approx(1.0, rel=1e-12)

    def test_zero_matrix(self):
        assert DenseOperator(np.zeros((4, 4))).norm() == 0.0


class TestMinSingularValue:
    def test_tridiag_known_eigenvalues(self):
        A = DenseOperator(dense(3, -1, 4, -1))
        assert A.sigma_min() == pytest.approx(4 - math.sqrt(2), rel=1e-10)

    def test_sign_diagonal(self):
        assert DenseOperator(np.diag([1.0, -1.0])).sigma_min() == pytest.approx(1.0, rel=1e-12)

    def test_singular_matrix(self):
        assert DenseOperator(np.zeros((2, 2))).sigma_min() == 0.0


class TestExtremalProperties:
    def test_norm_dominates_random_products(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((12, 12))
        bound = DenseOperator(A).norm()
        for _ in range(1000):
            x = rng.standard_normal(12)
            assert bound * np.linalg.norm(x) >= np.linalg.norm(A @ x) * (1 - 1e-8)

    def test_min_le_max(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            A = DenseOperator(rng.standard_normal((6, 6)))
            assert A.sigma_min() <= A.norm()

    def test_orthogonal_diagonal_construction(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            d = rng.uniform(0.1, 5.0, n)
            A = DenseOperator((q * d) @ q.T)
            assert A.norm() == pytest.approx(d.max(), rel=1e-8)
            assert A.sigma_min() == pytest.approx(d.min(), rel=1e-8)


class TestDenseOperator:
    def test_keeps_the_array_arithmetic(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((7, 7))
        op = DenseOperator(A)
        x = rng.standard_normal(7)
        assert np.array_equal(op.matvec(x), A @ x)
        assert np.array_equal(op.rmatvec(x), A.T @ x)
        assert op.size == 49
        sv = np.linalg.svd(A, compute_uv=False)
        assert op.sigma_min() == sv[-1]
        assert op.norm() == sv[0]

    def test_problem_wraps_arrays(self):
        p = AveProblem(np.eye(2), np.zeros(2), example_tridiag(2)[0].cone)
        assert isinstance(p.A, DenseOperator)
        assert not p.A.to_dense().flags.writeable

    def test_problem_freezes_copies_not_the_callers_arrays(self):
        A, b = np.eye(2), np.zeros(2)
        p = AveProblem(A, b, example_tridiag(2)[0].cone)
        A[0, 0], b[0] = 3.0, 5.0
        assert p.A.array.tolist() == [[1.0, 0.0], [0.0, 1.0]] and p.b.tolist() == [0.0, 0.0]
        assert not p.A.array.flags.writeable and not p.b.flags.writeable


class TestTridiagToeplitz:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("coeffs", COEFFS)
    def test_products_match_dense(self, n, coeffs):
        op = TridiagToeplitz(n, *coeffs)
        A = op.to_dense()
        sub, diag, sup = coeffs
        expected = (np.diag(np.full(n, diag)) + np.diag(np.full(n - 1, sub), -1)
                    + np.diag(np.full(n - 1, sup), 1))
        assert np.array_equal(A, expected)
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = rng.standard_normal(n)
            assert np.allclose(op.matvec(x), A @ x, rtol=1e-14, atol=1e-14)
            assert np.allclose(op.rmatvec(x), A.T @ x, rtol=1e-14, atol=1e-14)

    @given(st.data())
    def test_products_match_tuple_kernel_convolution(self, data):
        # the products are those of np.convolve with a kernel built from a
        # tuple on every call, bit for bit, non-finite entries included
        coeff = st.floats(-1e300, 1e300)
        op = TridiagToeplitz(data.draw(st.integers(1, 12)), data.draw(coeff),
                             data.draw(coeff), data.draw(coeff))
        x = np.array(data.draw(st.lists(st.floats(width=64), min_size=op.n,
                                        max_size=op.n)), dtype=float)
        with np.errstate(all="ignore"):
            pairs = [(op.matvec(x), np.convolve(x, (op.sup, op.diag, op.sub))[1:-1]),
                     (op.rmatvec(x), np.convolve(x, (op.sub, op.diag, op.sup))[1:-1])]
        for got, expected in pairs:
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("coeffs", SYMMETRIC)
    def test_closed_form_matches_svd(self, n, coeffs):
        op = TridiagToeplitz(n, *coeffs)
        sv = np.linalg.svd(op.to_dense(), compute_uv=False)
        assert op.sigma_min() == pytest.approx(sv[-1], rel=1e-12)
        assert op.norm() == pytest.approx(sv[0], rel=1e-12)

    @pytest.mark.parametrize("n", SIZES)
    def test_nonsymmetric_falls_back_to_svd(self, n):
        op = TridiagToeplitz(n, 2.0, 0.5, -3.0)
        sv = np.linalg.svd(op.to_dense(), compute_uv=False)
        assert op.sigma_min() == sv[-1]
        assert op.norm() == sv[0]

    def test_nonsymmetric_singular_values_are_not_eigenvalue_moduli(self):
        # why the fallback exists: |d + 2*sqrt(sub*sup)*cos(k*pi/(n+1))|
        # are the |eigenvalues|, but for sub != sup not the singular values
        n, sub, diag, sup = 10, -0.5, 4.0, -2.0
        k = np.arange(1, n + 1)
        eig = np.abs(diag + 2 * math.sqrt(sub * sup) * np.cos(k * math.pi / (n + 1)))
        op = TridiagToeplitz(n, sub, diag, sup)
        assert abs(op.norm() - eig.max()) > 1e-3

    def test_nonsymmetric_past_the_dense_limit_raises_at_once(self, monkeypatch):
        def no_dense(self):
            raise AssertionError("an n-by-n array was built")

        monkeypatch.setattr(TridiagToeplitz, "to_dense", no_dense)
        op = TridiagToeplitz(2002, -0.7, 4, -1.3)
        for method in (op.sigma_min, op.norm):
            with pytest.raises(ValueError, match="n <= 2000.*sub == sup"):
                method()

    def test_size_counts_stored_nonzeros(self):
        assert TridiagToeplitz(1, -1, 4, -1).size == 1
        assert TridiagToeplitz(10 ** 5, -1, 4, -1).size == 3 * 10 ** 5 - 2

    def test_banded_at_n_1e5(self):
        op = TridiagToeplitz(10 ** 5, -1.0, 4.0, -1.0)
        x = np.tile([-1.0, 1.0], 5 * 10 ** 4)
        y = op.matvec(x)
        assert y[0] == -5.0 and y[-1] == 5.0 and np.all(np.abs(y[1:-1]) == 6.0)
        assert op.sigma_min() == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_coefficients(self, bad):
        for coeffs in ((bad, 4, -1), (-1, bad, -1), (-1, 4, bad)):
            with pytest.raises(ValueError):
                TridiagToeplitz(3, *coeffs)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            TridiagToeplitz(0, -1, 4, -1)

    @pytest.mark.parametrize("n", [2.5, True, math.nan])
    def test_size_is_a_count(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            TridiagToeplitz(n, -1, 4, -1)

    def test_integer_valued_float_size_becomes_an_int(self):
        op = TridiagToeplitz(3.0, -1, 4, -1)
        assert op.shape == (3, 3) and type(op.n) is int


class TestBatchedProducts:
    """matvec and rmatvec of a (k, n) batch are those of each row, bit for
    bit: the batched step loop relies on it."""

    @staticmethod
    def _assert_rowwise(op, X):
        for product in (op.matvec, op.rmatvec):
            batch = product(X)
            assert batch.shape == X.shape
            for row, got in zip(X, batch):
                assert got.tobytes() == product(row).tobytes()

    @pytest.mark.parametrize("blocks", [(1, 2, 3, 3, 3), (3,) * 66 + (2,), (5, 7, 1, 20), (40,)])
    @pytest.mark.parametrize("k", [1, 3])
    def test_dense(self, blocks, k):
        cone = ConeStructure(blocks)
        p, _ = random_unique(cone.dim, cone, 0.5, 1)
        X = np.random.default_rng(len(blocks)).standard_normal((k, cone.dim))
        self._assert_rowwise(p.A, X)

    @pytest.mark.parametrize("n", (*SIZES, 1000))
    @pytest.mark.parametrize("coeffs", COEFFS)
    @pytest.mark.parametrize("k", [1, 3])
    def test_tridiag(self, n, coeffs, k):
        X = np.random.default_rng(n).standard_normal((k, n))
        op = TridiagToeplitz(n, *coeffs)
        self._assert_rowwise(op, X)
        # a strided one-row view: the contiguous row's bits, and a view of
        # its one correlation of n + 2 entries
        strided = np.repeat(X[:1], 2, axis=1)[:, ::2]
        for product in (op.matvec, op.rmatvec):
            got = product(strided)
            assert got.shape == (1, n)
            assert got.tobytes() == product(X[:1]).tobytes()
            assert got.base.shape == (n + 2,)

    def test_a_non_finite_row_stays_in_its_row(self):
        X = np.array([[1.0, 2.0, 3.0], [np.inf, 0.0, 1.0], [np.nan, 1.0, -1.0]])
        for op in (TridiagToeplitz(3, -1.0, 4.0, -1.0), DenseOperator(np.eye(3) + 0.5)):
            with np.errstate(invalid="ignore"):
                self._assert_rowwise(op, X)
                assert np.isfinite(op.matvec(X)[0]).all()


class TestOperatorSchema:
    def test_tridiag_kind_round_trips(self):
        p, x_star = example_tridiag(6)
        d = problem_to_dict(p, x_star)
        assert d["A"] == {"kind": "tridiag", "sub": -1.0, "diag": 4.0, "sup": -1.0}
        q, _ = problem_from_dict(d)
        assert q.A == p.A
        assert np.array_equal(q.b, p.b)

    def test_dense_kind_round_trips(self):
        p = AveProblem(np.array([[2.0, 1.0], [0.0, 3.0]]), np.ones(2), example_tridiag(2)[0].cone)
        d = problem_to_dict(p)
        assert d["A"]["kind"] == "dense"
        q, _ = problem_from_dict(d)
        assert isinstance(q.A, DenseOperator)
        assert np.array_equal(q.A.to_dense(), p.A.to_dense())
