import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from norm_reference import NORMAL_NORM_MIN, reference_norm
from socave import soc
from socave.linalg import vector_norm
from socave.model import AveProblem
from socave.soc import (
    ConeStructure,
    abs_kernel,
    Membership,
    complementarity_residual,
    project_kernel,
    cone_membership,
    eigenvalues,
    in_cone,
    jordan_product,
    project_cone,
    soc_abs,
    spectral_decompose,
)

K2 = ConeStructure((2,))
K3 = ConeStructure((3,))


def finite_vectors(dim, max_mag=1e3):
    return arrays(np.float64, dim,
                  elements=st.floats(-max_mag, max_mag, allow_nan=False))


def random_structure(rng, max_dim=12):
    blocks = []
    remaining = int(rng.integers(1, max_dim + 1))
    while remaining > 0:
        b = int(rng.integers(1, remaining + 1))
        blocks.append(b)
        remaining -= b
    return ConeStructure(tuple(blocks))


class TestConeStructure:
    def test_dim_and_slices(self):
        cone = ConeStructure((2, 3, 1))
        assert cone.dim == 6
        assert cone.slices() == [slice(0, 2), slice(2, 5), slice(5, 6)]

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            ConeStructure(())
        with pytest.raises(ValueError):
            ConeStructure((2, 0))
        # a malformed cone is a ValueError naming it, as any malformed input
        with pytest.raises(ValueError, match="non-empty sequence, got 5$"):
            ConeStructure(5)
        with pytest.raises(ValueError, match=r"cone must be a ConeStructure, got \(2,\)$"):
            AveProblem(np.eye(2), [0.0, 0.0], (2,))


class TestSpectralDecompose:
    def test_generic_vector(self):
        d = spectral_decompose(np.array([1.0, 2.0]))
        assert (d.lam1, d.lam2) == (-1.0, 3.0)
        assert d.u1.tolist() == [0.5, -0.5]
        assert d.u2.tolist() == [0.5, 0.5]
        assert np.allclose(d.reconstruct(), [1.0, 2.0], atol=1e-12)

    def test_zero_tail_uses_fixed_frame(self):
        d = spectral_decompose(np.array([3.0, 0.0, 0.0]))
        assert (d.lam1, d.lam2) == (3.0, 3.0)
        assert d.u1.tolist() == [0.5, -0.5, 0.0]
        assert d.u2.tolist() == [0.5, 0.5, 0.0]

    def test_zero_vector(self):
        d = spectral_decompose(np.zeros(2))
        assert (d.lam1, d.lam2) == (0.0, 0.0)

    def test_rejects_a_block_of_size_1(self):
        with pytest.raises(ValueError, match="block size >= 2"):
            spectral_decompose(np.array([1.0]))

    @pytest.mark.parametrize("xb, match", [
        (np.array([]), "size >= 1"),
        (np.array([[1.0, 0.0]]), "ndim=1"),
        (np.array([1.0, math.nan]), "finite number"),
        ("12", "finite number"),
    ], ids=["empty", "2-d", "nan", "string"])
    def test_eigenvalues_validate_their_block(self, xb, match):
        with pytest.raises(ValueError, match=match):
            eigenvalues(xb)

    def test_eigenvalues_of_a_list(self):
        assert eigenvalues([1, 3, 4]) == (-4.0, 6.0)

    @given(finite_vectors(4))
    # the tail's sum of squares is subnormal: math.hypot keeps the frame unit
    @example(np.full(4, 7.85e-158))
    def test_reconstruction_and_frame_invariants(self, x):
        d = spectral_decompose(x)
        assert d.lam1 <= d.lam2
        assert np.allclose(d.u1 + d.u2, [1, 0, 0, 0], atol=1e-15)
        assert np.linalg.norm(d.u1) == pytest.approx(2**-0.5, rel=1e-12)
        assert np.max(np.abs(d.reconstruct() - x)) <= 1e-12 * max(1, np.max(np.abs(x)))


class TestJordanProduct:
    def test_square(self):
        assert jordan_product([1, 2], [1, 2], K2).tolist() == [5, 4]

    def test_identity_element(self):
        out = jordan_product([1, 0, 0], [2.5, -1.0, 0.5], K3)
        assert out.tolist() == [2.5, -1.0, 0.5]

    def test_orthogonal_boundary_pair(self):
        assert jordan_product([1, 1], [1, -1], K2).tolist() == [0, 0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            jordan_product([1, 2, 3], [1, 2], K2)


class TestSocAbs:
    @pytest.mark.parametrize("x,expected", [
        ([-2, 0], [2, 0]),
        ([0, 2], [2, 0]),
        ([1, 2], [2, 1]),
        ([3, 1], [3, 1]),
        # a tail is zero only when its sum of squares is: these are exact
        ([3, 1e-15], [3, 1e-15]),
        ([-2, -1e-15], [2, 1e-15]),
        ([1e-20, -9e-15], [9e-15, -1e-20]),
        ([1e-16, 1e-15], [1e-15, 1e-16]),
        # every square of the block underflows, but its tail is not zero
        ([1e-170, 1e-169], [1e-169, 1e-170]),
    ])
    def test_known_values(self, x, expected):
        # one row takes the blocks one by one, a batch the grouped pass
        assert soc_abs(np.array(x, dtype=float), K2).tolist() == expected
        assert abs_kernel(np.array([x, x], dtype=float), K2).tolist() == [expected, expected]

    def test_scalar_blocks_are_componentwise(self):
        cone = ConeStructure((1, 1, 1))
        assert soc_abs(np.array([-1.0, 2.0, -3.0]), cone).tolist() == [1, 2, 3]

    @pytest.mark.parametrize("blocks, x, expected", [
        # x is in K, so |x| is x, though x1 + s overflows
        ((2,), [1.7e308, 1e150], [1.7e308, 1e150]),
        # the tail's square overflows: the tail norm of one row must be as
        # silent as that of the grouped pass of a batch. The tail of |x| is
        # exact: |x| o |x| has the tail 2 * x1 * x2 = 2e200
        ((2,), [1.0, 1e200], [1e200, 1.0]),
        ((2, 1, 2), [1.0, 1e200, 3.0, 1.0, 2.0], [1e200, 1.0, 3.0, 2.0, 1.0]),
    ], ids=["head", "tail", "tail of three blocks"])
    def test_overflow_on_finite_input_is_silent(self, blocks, x, expected):
        # a finite x1 + s can overflow, or the tail's sum of squares can;
        # neither warns, and |x| is finite
        cone = ConeStructure(blocks)
        assert cone._row_by_block  # one row goes block by block, through _abs_into
        batch = np.array([x, x[::-1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = soc_abs(x, cone)
            rows = abs_kernel(batch, cone)
            alone = [soc_abs(row, cone) for row in batch]
        assert _bits(got) == _bits(np.array(expected))
        for row, single in zip(rows, alone):
            assert _bits(row) == _bits(single)

    def test_eigenvalues_and_membership_of_an_overflowing_tail_are_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eigenvalues(np.array([1.0, 1e200])) == (-1e200, 1e200)
            assert cone_membership([1.0, 1e200], K2) == [Membership.NEITHER]

    @given(finite_vectors(3))
    def test_square_consistency(self, x):
        ax = soc_abs(x, K3)
        lhs = jordan_product(ax, ax, K3)
        rhs = jordan_product(x, x, K3)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, float(x @ x))

    @given(finite_vectors(3), finite_vectors(3))
    def test_nonexpansive(self, x, y):
        dist = np.linalg.norm(soc_abs(x, K3) - soc_abs(y, K3))
        assert dist <= np.linalg.norm(x - y) + 1e-12 * max(1, np.max(np.abs(x)), np.max(np.abs(y)))

    @given(finite_vectors(4))
    def test_result_in_cone(self, x):
        cone = ConeStructure((4,))
        assert eigenvalues(soc_abs(x, cone))[0] >= -1e-12


class TestOverflowingTailNorm:
    """A finite tail whose sum of squares overflows has a finite norm, from
    math.hypot, on every path; a finite tail norm keeps its bits."""

    # each lies in K, and the sum of squares of each tail overflows; their
    # spectral values round to x, so |x| = P_K(x) = x exactly
    IN_K = [[1e200, 1e200], [2e200, 1e200], [3 * 2.0**700, 0.0, -2.0**700],
            [1e300, -6e299, 8e299]]

    @pytest.mark.parametrize("x", IN_K)
    def test_a_point_of_k_is_its_own_abs_and_projection(self, x):
        cone = ConeStructure((len(x),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got in (soc_abs(x, cone), project_cone(x, cone), abs_kernel(np.array(x), cone),
                        project_kernel(np.array(x), cone)):
                assert got.tolist() == x
            assert cone_membership(x, cone) in ([Membership.INTERIOR], [Membership.BOUNDARY])
            assert in_cone(x, cone)

    def test_eigenvalues_and_frame(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eigenvalues(np.array([2e200, 1e200])) == (1e200, 3e200)
            assert eigenvalues(np.array([1e300, -6e299, 8e299])) == (0.0, 2e300)
            d = spectral_decompose(np.array([1e300, -6e299, 8e299]))
            assert (d.lam1, d.lam2) == (0.0, 2e300)
            assert d.u2.tolist() == [0.5, -0.3, 0.4]
            assert cone_membership([2e200, 1e200], K2) == [Membership.INTERIOR]
            assert cone_membership([-2e200, 1e200], K2) == [Membership.INSIDE_NEGATIVE_CONE]
            assert cone_membership([0.0, 1e200], K2) == [Membership.NEITHER]
            assert not in_cone([0.0, 1e200], K2)

    @pytest.mark.parametrize("kernel", [abs_kernel, project_kernel], ids=["abs", "project"])
    def test_rows_of_a_batch_are_the_rows_alone(self, kernel):
        x = np.array([[1e200, 1e200], [-2e200, 1e200], [0.5, 1e200], [3.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = kernel(x, K2)
            for row, alone in zip(rows, x):
                assert _bits(row) == _bits(kernel(alone, K2))
        assert np.isfinite(rows).all()

    @pytest.mark.parametrize("kernel", [abs_kernel, project_kernel], ids=["abs", "project"])
    def test_the_grouped_pass_of_one_row(self, kernel):
        # 16 blocks of two sizes: one row takes the grouped pass, and each
        # block of it is that block alone
        cone = ConeStructure((2, 3) * 8)
        assert not cone._row_by_block
        x = np.random.default_rng(5).standard_normal(cone.dim)
        x[:5] = [2e200, 1e200, 1e300, -6e299, 8e299]  # the first two blocks
        x[5:7] = [0.5, 1e200]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel(x, cone)
            for b, sl in zip(cone.blocks, cone.slices()):
                assert _bits(got[sl]) == _bits(kernel(x[sl], ConeStructure((b,))))
        assert got[:5].tolist() == x[:5].tolist()
        assert np.isfinite(got).all()


class TestAbsKernelPath:
    """One row of few blocks per size group with tails takes _abs_into,
    block by block; a batch, or a row of many blocks, takes the grouped pass.
    The fork pays for itself: sending few-block rows through the grouped pass
    made the 3-start dense solves 2.35x slower on (1, 2, 3, 3, 3) and 2.74x
    slower on (5, 3, 2, 1, 5), with the same bits."""

    @staticmethod
    def _calls(monkeypatch, blocks, shape):
        calls = []
        real = soc._abs_into
        monkeypatch.setattr(soc, "_abs_into", lambda *args: calls.append(args) or real(*args))
        cone = ConeStructure(blocks)
        x = np.random.default_rng(len(blocks)).standard_normal((*shape, cone.dim))
        abs_kernel(x, cone)
        return len(calls)

    @pytest.mark.parametrize("blocks", [(1, 2, 3, 3, 3), (5, 3, 2, 1, 5), (1000,), (2,)])
    @pytest.mark.parametrize("shape", [(), (1,)], ids=["vector", "one row"])
    def test_one_row_of_few_blocks_takes_it(self, monkeypatch, blocks, shape):
        assert self._calls(monkeypatch, blocks, shape) == 1

    @pytest.mark.parametrize("blocks, shape", [
        ((1, 2, 3, 3, 3), (2,)), ((2,), (2,)),
        ((3,) * 66 + (2,), ()), ((3,) * 66 + (2,), (1,)), ((1,) * 2000, (1,)),
    ])
    def test_a_batch_or_a_row_of_many_blocks_does_not(self, monkeypatch, blocks, shape):
        assert self._calls(monkeypatch, blocks, shape) == 0


class TestProjectCone:
    @pytest.mark.parametrize("x,expected", [
        ([3, 1], [3, 1]),     # inside K
        ([-3, 1], [0, 0]),    # inside -K
        ([0, 2], [1, 1]),     # neither
        ([1e-16, 1e-15], [5.500000000000001e-16, 5.500000000000001e-16]),  # neither
        ([1e-170, 1e-169], [5.5e-170, 5.500000000000001e-170]),  # neither, squares underflow
    ])
    def test_known_values(self, x, expected):
        assert project_cone(np.array(x, dtype=float), K2).tolist() == expected
        assert project_kernel(np.array([x, x], dtype=float), K2).tolist() == [expected, expected]

    def test_scalar_blocks(self):
        cone = ConeStructure((1, 1))
        assert project_cone(np.array([-2.0, 3.0]), cone).tolist() == [0, 3]

    @given(finite_vectors(3))
    def test_moreau_decomposition(self, x):
        pos = project_cone(x, K3)
        neg = project_cone(-x, K3)
        scale = max(1.0, float(np.max(np.abs(x))))
        assert np.max(np.abs(x - (pos - neg))) <= 1e-10 * scale
        assert abs(float(pos @ neg)) <= 1e-10 * scale**2

    def test_projection_characterization(self):
        # <u - P(u), v - P(u)> <= 0 for all v in the cone
        rng = np.random.default_rng(3)
        cone = ConeStructure((3, 2))
        for _ in range(300):
            u = rng.standard_normal(5) * 3
            w = project_cone(u, cone)
            v = project_cone(rng.standard_normal(5) * 3, cone)
            assert float((u - w) @ (v - w)) <= 1e-10


class TestMembership:
    @pytest.mark.parametrize("x,expected", [
        ([2, 1], Membership.INTERIOR),
        ([1, 1], Membership.BOUNDARY),
        ([0, 2], Membership.NEITHER),
        ([-2, 1], Membership.INSIDE_NEGATIVE_CONE),
        ([-2, 2], Membership.OUTSIDE_CONE),
    ])
    def test_classification(self, x, expected):
        assert cone_membership(np.array(x, dtype=float), K2, 1e-12) == [expected]

    def test_a_tail_whose_squares_underflow_is_not_zero(self):
        # (1e-170, 1e-169) lies between K and -K
        x = np.array([1e-170, 1e-169])
        assert eigenvalues(x) == (-9e-170, 1.1e-169)
        assert cone_membership(x, K2, 0.0) == [Membership.NEITHER]
        assert not in_cone(x, K2, 0.0)

    def test_per_block(self):
        cone = ConeStructure((2, 2))
        out = cone_membership(np.array([2.0, 1.0, 0.0, 2.0]), cone, 1e-12)
        assert out == [Membership.INTERIOR, Membership.NEITHER]

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3, "0", True, None])
    def test_tol_is_a_finite_number_at_least_zero(self, tol):
        # a nan tol would label an interior point Neither
        for test in (cone_membership, in_cone):
            with pytest.raises(ValueError, match="tol must be"):
                test(np.array([1.0, 0.0]), K2, tol)

    @given(finite_vectors(3))
    def test_consistent_with_eigenvalue_signs(self, x):
        (label,) = cone_membership(x, K3, 1e-10)
        lam1, lam2 = eigenvalues(x)
        if label in (Membership.INTERIOR, Membership.BOUNDARY):
            assert lam1 >= -1e-10
        if label in (Membership.INSIDE_NEGATIVE_CONE, Membership.OUTSIDE_CONE):
            assert lam2 <= 1e-10
        if label is Membership.NEITHER:
            assert lam1 < 0 < lam2


class TestComplementarityResidual:
    def test_boundary_pair(self):
        assert complementarity_residual([1, 1], [1, -1], K2) == pytest.approx(0.0, abs=1e-15)

    def test_zero_complements_anything(self):
        assert complementarity_residual([0, 0], [5, 3], K2) == pytest.approx(0.0, abs=1e-15)

    def test_nonorthogonal_pair(self):
        assert complementarity_residual([1, 0], [1, 0], K2) == pytest.approx(2.0)

    def test_frame_constructions_both_directions(self):
        rng = np.random.default_rng(11)
        cone = ConeStructure((4,))
        for _ in range(200):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            e1 = 0.5 * np.concatenate(([1.0], -d))
            e2 = 0.5 * np.concatenate(([1.0], d))
            lam = rng.uniform(0.5, 3.0)
            mu = rng.uniform(0.5, 3.0)
            s = lam * e2   # lam1 = 0 complements mu1 = mu
            t = mu * e1
            assert complementarity_residual(s, t, cone) <= 1e-10
            assert in_cone(s, cone) and in_cone(t, cone)
            assert abs(float(s @ t)) <= 1e-12
            # break complementarity: both frame coefficients positive
            s_bad = s + 0.1 * e1
            assert complementarity_residual(s_bad, t, cone) > 1e-6
            # break membership: s outside K
            s_out = s - 0.1 * e1
            assert complementarity_residual(s_out, t, cone) > 1e-6


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_blockwise_matches_per_block(seed):
    # product-cone operations agree with applying each block separately
    rng = np.random.default_rng(seed)
    cone = random_structure(rng)
    x = rng.standard_normal(cone.dim) * 2
    full = soc_abs(x, cone)
    for b, sl in zip(cone.blocks, cone.slices()):
        single = soc_abs(x[sl], ConeStructure((b,)))
        assert np.allclose(full[sl], single, atol=1e-14)


def _reference_abs_kernel(x, cone):
    """|x| block by block in closed form, with numpy-scalar heads and
    reference_norm tails: |x1| for a block of size 1, else x in K, -x in -K
    and (s, (x1/s)*x2) between them. The reference the kernel must match bit
    for bit."""
    out = np.empty_like(x)
    for sl in cone.slices():
        xb = x[sl]
        if xb.shape[0] == 1:
            out[sl] = abs(xb[0])
            continue
        s = reference_norm(xb[1:])
        if xb[0] >= s:
            out[sl] = xb
        elif xb[0] <= -s:
            out[sl] = -xb
        else:
            out[sl][0] = s
            out[sl][1:] = (xb[0] / s) * xb[1:]
    return out


def _reference_project_cone(x, cone):
    """project_kernel as it was, block by block with reference_norm tails
    and numpy-scalar heads: the reference its groups must match bit for bit.
    A finite block whose x1 + s overflows takes the head 0.5*x1 + 0.5*s."""
    out = np.empty_like(x)
    for sl in cone.slices():
        xb = x[sl]
        if xb.shape[0] == 1:
            out[sl] = max(xb[0], 0.0)
            continue
        s = reference_norm(xb[1:])
        if xb[0] >= s:
            out[sl] = xb
        elif xb[0] <= -s:
            out[sl] = 0.0
        else:
            t = 0.5 * (xb[0] + s)
            if t == math.inf and s < math.inf:
                t = 0.5 * xb[0] + 0.5 * s
            out[sl][0] = t
            out[sl][1:] = (t / s) * xb[1:]
    return out


def _reference_jordan_product(x, y, cone):
    """jordan_product as it was, block by block: the reference its groups
    must match bit for bit."""
    out = np.empty_like(x)
    for sl in cone.slices():
        xb, yb = x[sl], y[sl]
        out[sl][0] = float(xb @ yb)
        out[sl][1:] = yb[0] * xb[1:] + xb[0] * yb[1:]
    return out


def _bits(a):
    """The bytes of a with every NaN made the same NaN: equal bits means the
    same values, signed zeros and NaN positions included."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


BELOW_NORMAL = float(np.nextafter(NORMAL_NORM_MIN, 0.0))
# squares that are normal (1e-15, NORMAL_NORM_MIN), subnormal (BELOW_NORMAL,
# 3e-160) or 0 (1e-170, 1e-300)
SPECIAL = [0.0, -0.0, 1.0, -2.5, 1e-15, -1e-15, NORMAL_NORM_MIN, BELOW_NORMAL, 3e-160, -3e-160,
           1e-170, 1e-300, 1e308, -1e308, math.inf, -math.inf, math.nan]
entries = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL))


@st.composite
def cone_and_vector(draw):
    cone = ConeStructure(draw(st.lists(st.integers(1, 5), min_size=1, max_size=6)))
    x = draw(st.lists(entries, min_size=cone.dim, max_size=cone.dim))
    return cone, np.array(x, dtype=float)


def _case(blocks, x):
    return ConeStructure(blocks), np.array(x, dtype=float)


@st.composite
def cone_and_batch(draw):
    """A cone of 1-10 blocks of mixed sizes 1-6 and a (k, dim) batch, k = 1-5."""
    cone = ConeStructure(draw(st.lists(st.integers(1, 6), min_size=1, max_size=10)))
    k = draw(st.integers(1, 5))
    x = draw(st.lists(entries, min_size=k * cone.dim, max_size=k * cone.dim))
    return cone, np.array(x, dtype=float).reshape(k, cone.dim)



# the kernels that take a (k, n) batch, each with its one-row reference
BATCH_KERNELS = pytest.mark.parametrize("kernel, reference", [
    (abs_kernel, _reference_abs_kernel),
    (project_kernel, _reference_project_cone),
], ids=["abs", "project"])


class TestAbsKernelBitwise:
    """abs_kernel keeps every IEEE operation of the reference form."""

    @settings(max_examples=300)
    @given(cone_and_vector())
    @example(_case((1, 1, 1), [-0.0, -3.0, math.nan]))  # size-1 blocks
    @example(_case((3, 2), [-2.0, 0.0, 0.0, 5.0, -0.0]))  # zero tails
    # tails whose sum of squares is normal, subnormal and 0; the last is
    # subnormal too, and its norm, from math.hypot, is 5e-160 exactly
    @example(_case((2, 2, 2, 3), [1.0, 1e-15, -1.0, BELOW_NORMAL, 0.5, -1e-170,
                                  0.0, 3e-160, 4e-160]))
    @example(_case((3, 3, 2), [math.inf, 1.0, 2.0, 1.0, -math.inf, 0.0, math.nan, 1.0]))
    @example(_case((2, 3), [-math.inf, math.inf, 1.0, math.nan, 0.0]))
    @example(_case((3,), [1e308, 1e308, -1e308]))  # the tail norm overflows
    def test_matches_reference(self, case):
        cone, x = case
        with np.errstate(all="ignore"):
            expected = _reference_abs_kernel(x, cone)
            got = abs_kernel(x, cone)
        assert _bits(got) == _bits(expected)

    @BATCH_KERNELS
    @settings(max_examples=300)
    @given(case=cone_and_batch())
    # 4-entry tails, gathered from a batch: with x[..., idx] they would have
    # a stride of 40 bytes, and a strided ddot rounds differently
    @example((ConeStructure((2, 1, 4, 2, 1, 5)),
              np.random.default_rng(11).standard_normal((5, 15)).round(3)))
    @example(_case((1, 1, 1), [[-0.0, 2.0, math.nan], [3.0, -math.inf, 0.0]]))
    # one row, but enough blocks for the grouped pass
    @example(_case((2,) * 8, [[1.0, BELOW_NORMAL, -1.0, NORMAL_NORM_MIN, 0.5, -1e-170, -0.0, 0.0,
                               math.inf, 1.0, 2.0, math.nan, 1e308, 1e308, -2.5, 3e-160]]))
    @example(_case((3, 3), [[1.0, 3e-160, 4e-160, -1.0, 0.0, BELOW_NORMAL],
                             [math.inf, 1.0, 2.0, 1e308, 1e308, -1e308]]))
    def test_batch_rows_match_reference(self, kernel, reference, case):
        cone, x = case
        with np.errstate(all="ignore"):
            got = kernel(x, cone)
            for row, expected in zip(got, x):
                assert _bits(row) == _bits(reference(expected, cone))

    @BATCH_KERNELS
    def test_a_subnormal_tail_in_a_batch_is_silent(self, kernel, reference):
        # its square underflows to 0 in matmul, so the tail is zero, and the
        # tail's quotient would divide by its norm 0
        x = np.array([[1.0, 5e-324], [1.0, 5e-324]])
        with np.errstate(all="ignore"):
            expected = np.array([reference(row, K2) for row in x])
        with np.errstate(all="raise"):
            got = kernel(x, K2)
        assert _bits(got) == _bits(expected)

    @given(st.lists(entries, min_size=1, max_size=40))
    def test_tail_norm_is_the_arithmetic_of_linalg_norm(self, values):
        tail = np.array([0.0, *values])[1:]  # a view at an offset, as in the kernel
        with np.errstate(all="ignore"):
            assert _bits(np.array(math.sqrt(np.vdot(tail, tail)))) == \
                _bits(np.array(float(np.linalg.norm(tail))))
            assert _bits(np.array(vector_norm(tail))) == _bits(np.array(reference_norm(tail)))


# The parent forms of the functions that share one block split, kept here
# as references the split must match bit for bit: reference_norm tails,
# numpy-scalar heads and the size-1 branches they had.
def _reference_eigenvalues(xb):
    s = reference_norm(xb[1:]) if xb.shape[0] > 1 else 0.0
    return float(xb[0]) - s, float(xb[0]) + s


def _reference_cone_membership(x, cone, tol):
    out = []
    for sl in cone.slices():
        lam1, lam2 = _reference_eigenvalues(x[sl])
        if lam1 > tol:
            out.append(Membership.INTERIOR)
        elif lam1 >= -tol and lam2 >= -tol:
            out.append(Membership.BOUNDARY)
        elif lam2 < -tol:
            out.append(Membership.INSIDE_NEGATIVE_CONE)
        elif lam2 <= tol:
            out.append(Membership.OUTSIDE_CONE)
        else:
            out.append(Membership.NEITHER)
    return out


finite_entries = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([v for v in SPECIAL if math.isfinite(v)]))


@st.composite
def finite_cone_and_vector(draw):
    cone = ConeStructure(draw(st.lists(st.integers(1, 5), min_size=1, max_size=6)))
    x = draw(st.lists(finite_entries, min_size=cone.dim, max_size=cone.dim))
    return cone, np.array(x, dtype=float)


@st.composite
def finite_cone_and_pair(draw):
    cone, x = draw(finite_cone_and_vector())
    y = draw(st.lists(finite_entries, min_size=cone.dim, max_size=cone.dim))
    return cone, x, np.array(y, dtype=float)


# size-1 blocks with signed zeros; zero tails; tails whose sum of squares is
# normal, subnormal or 0; a head on the boundary of K and of -K
FINITE_CASES = [
    _case((1, 1, 1, 1), [-0.0, 0.0, -3.0, 2.0]),
    _case((3, 2, 2), [-2.0, 0.0, -0.0, 5.0, -0.0, -0.0, 0.0]),
    _case((2, 2, 2, 3), [1.0, 1e-15, -1.0, BELOW_NORMAL, 0.5, -1e-170,
                         0.0, 3e-160, 4e-160]),
    _case((2, 2, 2, 2), [BELOW_NORMAL, BELOW_NORMAL, -NORMAL_NORM_MIN, NORMAL_NORM_MIN,
                         1e-170, -0.0, -0.0, 1e-170]),
    _case((3, 2), [5.0, 3.0, 4.0, -5.0, 5.0]),
    _case((3,), [1e308, 1e308, -1e308]),  # the tail norm overflows
]


def _with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


class TestSplitBitwise:
    """eigenvalues, project_cone, jordan_product and cone_membership keep
    every IEEE operation and every branch outcome of their reference forms."""

    @settings(max_examples=300)
    @given(cone_and_vector())
    @_with_examples(FINITE_CASES + [
        _case((1, 1, 1), [-0.0, -3.0, math.nan]),
        _case((3, 3, 2), [math.inf, 1.0, 2.0, 1.0, -math.inf, 0.0, math.nan, 1.0]),
        _case((2, 3), [-math.inf, math.inf, 1.0, math.nan, 0.0]),
    ])
    def test_eigenvalues(self, case):
        # a block with a nan or an inf is an invalid input, as it is for
        # spectral_decompose
        cone, x = case
        with np.errstate(all="ignore"):
            for sl in cone.slices():
                if not np.isfinite(x[sl]).all():
                    with pytest.raises(ValueError, match="must be a finite number"):
                        eigenvalues(x[sl])
                    continue
                assert _bits(np.array(eigenvalues(x[sl]))) == \
                    _bits(np.array(_reference_eigenvalues(x[sl])))

    @settings(max_examples=300)
    @given(finite_cone_and_vector())
    @_with_examples(FINITE_CASES)
    def test_project_cone(self, case):
        cone, x = case
        with np.errstate(all="ignore"):
            assert _bits(project_cone(x, cone)) == _bits(_reference_project_cone(x, cone))

    @settings(max_examples=300)
    @given(cone_and_vector())
    @_with_examples(FINITE_CASES + [_case((1, 2, 3), [math.nan, 1.0, math.inf,
                                                      -math.inf, 2.0, math.nan])])
    def test_project_kernel_on_any_input(self, case):
        cone, x = case
        with np.errstate(all="ignore"):
            assert _bits(project_kernel(x, cone)) == _bits(_reference_project_cone(x, cone))

    @settings(max_examples=300)
    @given(finite_cone_and_pair())
    @_with_examples([(cone, x, x[::-1].copy()) for cone, x in FINITE_CASES] + [
        # 8 blocks of sizes 1-5, 4-entry tails among them: their heads are
        # 5-entry ddots, which round unlike a plain sum of the products
        (ConeStructure((5, 1, 3, 5, 2, 4, 1, 5)),
         *np.random.default_rng(5).standard_normal((2, 26))),
    ])
    def test_jordan_product(self, case):
        cone, x, y = case
        with np.errstate(all="ignore"):
            assert _bits(jordan_product(x, y, cone)) == \
                _bits(_reference_jordan_product(x, y, cone))

    @settings(max_examples=300)
    @given(finite_cone_and_vector())
    @_with_examples(FINITE_CASES)
    def test_cone_membership(self, case):
        cone, x = case
        with np.errstate(all="ignore"):
            for tol in (0.0, 1e-14, 1e-10, 1.0):
                assert cone_membership(x, cone, tol) == \
                    _reference_cone_membership(x, cone, tol)


@settings(max_examples=300)
@given(finite_cone_and_vector())
@_with_examples(FINITE_CASES)
def test_in_cone_is_lam1_at_least_minus_tol(case):
    # in_cone reads cone_membership's labels; for tol >= 0 that is this test
    cone, x = case
    with np.errstate(all="ignore"):
        for tol in (0.0, 1e-14, 1e-10, 1.0):
            assert in_cone(x, cone, tol) == all(
                _reference_eigenvalues(x[sl])[0] >= -tol for sl in cone.slices())


@st.composite
def blocks_in_k_or_minus_k(draw):
    """A cone of 1-10 blocks of sizes 1-6, a (k, dim) batch, k = 1-4, whose
    every block lies in K or in -K, and the (k, dim) array that is +1 on the
    blocks in K and -1 on those in -K. Each block with a tail has s > 0, and
    each of size 1 a head other than 0, so no block lies in both."""
    cone = ConeStructure(draw(st.lists(st.integers(1, 6), min_size=1, max_size=10)))
    k = draw(st.integers(1, 4))
    magnitude = st.floats(1e-3, 1e300)
    entry = st.one_of(magnitude, magnitude.map(lambda v: -v), st.sampled_from([0.0, -0.0]))
    x, side = np.empty((k, cone.dim)), np.empty((k, cone.dim))
    for row in range(k):
        for sl in cone.slices():
            m = sl.stop - sl.start
            tail = np.array([draw(magnitude), *draw(st.lists(entry, min_size=m - 2, max_size=m - 2))]
                            if m > 1 else [])
            gap = draw(st.one_of(st.just(0.0), magnitude) if m > 1 else magnitude)
            head = draw(st.floats(1.0, 4.0)) * reference_norm(tail) + gap  # >= s
            side[row, sl] = draw(st.sampled_from([1.0, -1.0]))
            x[row, sl] = side[row, sl] * np.array([head, *tail])
    return cone, x, side


@st.composite
def blocks_and_scale(draw):
    """A cone of 1-10 blocks of sizes 1-6, a (k, dim) batch, k = 1-4, of
    entries 0 or of magnitude 2**-200 to 4, and c = 2**-j, j = 0-100: every
    entry of c*x and every square of one stays a normal float, so that
    scaling by c is exact."""
    cone = ConeStructure(draw(st.lists(st.integers(1, 6), min_size=1, max_size=10)))
    k = draw(st.integers(1, 4))
    magnitude = st.floats(2.0**-200, 4.0)
    entry = st.one_of(magnitude, magnitude.map(lambda v: -v), st.sampled_from([0.0, -0.0]))
    x = draw(st.lists(entry, min_size=k * cone.dim, max_size=k * cone.dim))
    return cone, np.array(x).reshape(k, cone.dim), 2.0 ** -draw(st.integers(0, 100))


class TestClosedForms:
    """|x| is x in K, -x in -K and (s, (x1/s)*x2) between them; P_K is x in
    K and 0 in -K. One row, block by block or grouped, and a batch give the
    same bits."""

    @settings(max_examples=200)
    @given(blocks_in_k_or_minus_k())
    @example((ConeStructure((3, 1, 2)),
              np.array([[1e5, 1e-9, 0.0, -2.0, -1.0, -1.0]]), np.array([[1, 1, 1, -1, -1, -1.0]])))
    def test_a_block_in_k_or_minus_k_is_exact(self, case):
        cone, x, side = case
        expected_abs = side * x
        expected_project = np.where(side > 0, x, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _bits(abs_kernel(x, cone)) == _bits(expected_abs)
            assert _bits(project_kernel(x, cone)) == _bits(expected_project)
            for row, a, p in zip(x, expected_abs, expected_project):
                for got in (abs_kernel(row, cone), soc_abs(row, cone)):
                    assert _bits(got) == _bits(a)
                for got in (project_kernel(row, cone), project_cone(row, cone)):
                    assert _bits(got) == _bits(p)

    @settings(max_examples=200)
    @given(blocks_and_scale())
    @example((K2, np.array([[1e-16, 1e-15]]), 1.0))
    @example((ConeStructure((1, 2, 3, 4)), np.linspace(-1.0, 1.0, 10)[None], 2.0**-60))
    # the squares of c*x underflow: its tail is still not zero
    @example((K2, np.array([[1.0, 1e-15], [1.0, 1e-15]]), 2.0**-500))
    def test_abs_and_projection_are_positively_homogeneous(self, case):
        # |cx| = c|x| and P_K(cx) = c P_K(x) for c > 0, bit for bit at a power
        # of two, on one row and on a batch; and P_K(x) lies in K to rounding
        cone, x, c = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in (abs_kernel, project_kernel):
                assert _bits(kernel(c * x, cone)) == _bits(c * kernel(x, cone))
                for row in x:
                    assert _bits(kernel(c * row, cone)) == _bits(c * kernel(row, cone))
            for row in project_kernel(x, cone):
                for sl in cone.slices():
                    lam1, lam2 = eigenvalues(row[sl])
                    assert lam1 >= -1e-15 * lam2

    # a tail is zero only when it is zero: a tail whose squares underflow
    # keeps its bits in K and in -K, and gives (s, (x1/s)*x2) between them
    @pytest.mark.parametrize("x, expected", [
        ([-2.0, -1e-170], [2.0, 1e-170]),  # in -K
        ([3.0, -0.0], [3.0, -0.0]),  # in K
        ([-0.0, -0.0], [-0.0, -0.0]),  # in K and in -K: x
        ([1e-20, -9e-170], [1e-20, -9e-170]),  # in K
        ([0.0, -5e-324], [5e-324, -0.0]),  # neither
    ])
    def test_a_zero_or_underflowing_tail_takes_the_closed_form(self, x, expected):
        # on the block-by-block path and the grouped pass
        assert K2._row_by_block
        for got in (abs_kernel(np.array(x), K2), *abs_kernel(np.array([x, x]), K2)):
            assert _bits(got) == _bits(np.array(expected))

    @pytest.mark.parametrize("x, expected", [
        ([math.nan, 1.0], [1.0, math.nan]),  # neither: the head is s
        ([1.0, math.nan], [math.nan, math.nan]),
        ([math.nan, 0.0], [0.0, math.nan]),  # neither: the head is s = 0
        ([math.inf, 1.0], [math.inf, 1.0]),  # in K
        ([-math.inf, 1.0], [math.inf, -1.0]),  # in -K
        ([math.inf, math.inf], [math.inf, math.inf]),
        ([-math.inf, math.inf], [math.inf, -math.inf]),
        ([1.0, math.inf], [math.inf, math.nan]),  # neither: 0 * inf
        ([-math.inf, -1e-15], [math.inf, 1e-15]),  # in -K
    ])
    def test_a_nan_or_inf_gives_the_same_bits_on_both_paths(self, x, expected):
        assert K2._row_by_block
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = [abs_kernel(np.array(x), K2), *abs_kernel(np.array([x, x]), K2)]
        for got in rows:
            assert _bits(got) == _bits(np.array(expected))
