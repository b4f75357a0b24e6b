"""Metamorphic tests: exact symmetries of the flow dx/dt = gamma * A^T (b + |x| - Ax)
check whole trajectories without a second implementation.

- Time rescaling: the field is gamma * F(x), so gamma is a rescaling of time,
  and (gamma, (0, T)) and (1, (0, gamma * T)) trace the same states. The
  initial step is a fixed share of the span, so the runs take the same steps.
- Positive homogeneity: |c x| = c |x| for c > 0, so the problem (A, c b)
  from c x0 with atol scaled by c traces c times the states of (A, b) from x0.

With c and gamma powers of two every scaling is exact in floating point, so
both relations hold bit for bit, step counts included; only a residual norm
below 2**-511, whose sum of squares is subnormal, may round one ulp apart.

- Block permutation: the cone kernels act on each block alone, so moving
  blocks of x among the places of blocks of the same size moves the blocks
  of |x| and P_K(x) the same way, bit for bit, since every block keeps
  its arithmetic wherever it sits. The problem (P A P^T, P b) from P x0
  then flows along P x(t), to a tolerance, as the matvecs sum in another order.
- Cone automorphisms: R = diag(1, Q) on each block, with Q orthogonal, maps
  each cone block onto itself, so |Rx| = R|x| and P_K(Rx) = R P_K(x), and the
  problem (R A R^T, R b) from R x0 flows along R x(t). Rounding differs, and
  so do the step counts (the error norm is not rotation-invariant), so these
  hold to a tolerance.
"""

import numpy as np
import pytest

from jordan import slices
from socave.dynamics import DynamicsConfig
from socave.integrator import IntegratorOptions, Termination, integrate
from socave.model import AveProblem
from socave.problems import example_tridiag, random_unique
from socave.soc import ConeStructure, abs_kernel, project_kernel


def mixed_blocks():
    cone = ConeStructure((1, 2, 3, 4))
    return random_unique(cone.dim, cone, 0.5, 7)[0]


def assert_same_steps(traj, ref):
    assert (traj.termination, traj.n_accepted, traj.n_rejected) == \
        (ref.termination, ref.n_accepted, ref.n_rejected)


@pytest.mark.parametrize("problem, gamma, tf", [
    (lambda: example_tridiag(1000)[0], 64.0, 0.25),
    (mixed_blocks, 8.0, 1.0),
], ids=["tridiag_1000", "mixed-blocks"])
def test_gamma_rescales_time_exactly(problem, gamma, tf):
    p = problem()
    x0 = np.zeros(p.n)
    fast = integrate(p, DynamicsConfig(gamma), x0, (0.0, tf))
    slow = integrate(p, DynamicsConfig(1.0), x0, (0.0, gamma * tf))
    assert_same_steps(fast, slow)
    assert np.array_equal(fast.states, slow.states)
    assert np.array_equal(fast.residual_norms, slow.residual_norms)
    assert np.array_equal(gamma * fast.times, slow.times)


# from 2**-60 on, the cone tails of c * x lie far below 1e-14: the relation
# holds only if a tail counts as zero where its sum of squares is 0 alone
@pytest.mark.parametrize("c", [8.0, 2.0**-30, 2.0**-60, 2.0**-500],
                         ids=["8", "2^-30", "2^-60", "2^-500"])
def test_scaling_b_and_x0_scales_the_trajectory(c):
    p = mixed_blocks()
    x0 = np.linspace(-1.0, 1.0, p.n)
    opts = IntegratorOptions()
    ref = integrate(p, DynamicsConfig(1.0), x0, (0.0, 5.0), opts)
    scaled = integrate(AveProblem(p.A, c * p.b, p.cone), DynamicsConfig(1.0), c * x0,
                       (0.0, 5.0), IntegratorOptions(atol=c * opts.atol))
    assert_same_steps(scaled, ref)
    assert np.array_equal(scaled.states, c * ref.states)
    assert np.array_equal(scaled.times, ref.times)
    # a norm below 2**-511 has a subnormal sum of squares, so it is
    # math.hypot's, which may round one ulp away from c times the norm
    normal = scaled.residual_norms >= 2.0**-511
    assert np.array_equal(scaled.residual_norms[normal], c * ref.residual_norms[normal])
    np.testing.assert_allclose(scaled.residual_norms, c * ref.residual_norms, rtol=2**-52, atol=0)


# 17 blocks of sizes 3, 2 and 1 in mixed order: enough blocks for abs_kernel
# to take one row through its groups, not block by block
PERMUTED_CONE = ConeStructure((3, 1, 2, 3, 2, 1, 3, 2, 2, 3, 1, 2, 3, 2, 3, 2, 2))


def block_permutation(cone):
    """Indices that put at each block's place the previous block of its size
    (the last block of a size goes to the first): a cycle in each size, which
    does not commute with reversing the order of the blocks."""
    blocks = np.array(cone.blocks)
    heads = np.cumsum(blocks) - blocks
    source = np.arange(blocks.size)
    for m in set(cone.blocks):
        same = np.flatnonzero(blocks == m)
        source[same] = np.roll(same, 1)
    return np.concatenate([heads[j] + np.arange(blocks[j]) for j in source])


def permutation_inputs(rows):
    """x of rows rows (one vector if rows is None) with blocks in K, in -K,
    with zero tails and neither, from normal draws."""
    cone = PERMUTED_CONE
    shape = (cone.dim,) if rows is None else (rows, cone.dim)
    x = np.random.default_rng(3).standard_normal(shape)
    x[..., 0] += 4.0  # the first block in K
    x[..., 6] -= 4.0  # the second 3-block in -K
    x[..., 5] = 0.0  # the first 2-block with a zero tail
    return cone, x


@pytest.mark.parametrize("rows", [None, 4], ids=["one-row", "batch"])
@pytest.mark.parametrize("kernel", [abs_kernel, project_kernel], ids=["abs", "project"])
def test_permuting_equal_size_blocks_commutes_with_the_kernel(kernel, rows):
    cone, x = permutation_inputs(rows)
    perm = block_permutation(cone)
    assert not np.array_equal(perm, np.arange(cone.dim))
    assert kernel(x[..., perm], cone).tobytes() == kernel(x, cone)[..., perm].tobytes()


def test_permuting_equal_size_blocks_permutes_the_trajectory():
    # P x = x[perm] and P A P^T = A[perm][:, perm]: the problem (P A P^T, P b)
    # from P x0 flows along P x(t). The matvecs sum in another order, so the
    # relation holds to a tolerance; one row of this cone takes the groups
    cone = PERMUTED_CONE
    p, _ = random_unique(cone.dim, cone, 0.5, 10)
    perm = block_permutation(cone)
    permuted = AveProblem(p.A.array[np.ix_(perm, perm)], p.b[perm], cone)
    x0 = np.linspace(-2.0, 2.0, p.n)
    cfg, tspan, opts = DynamicsConfig(1.0), (0.0, 2.0), IntegratorOptions(rtol=1e-8)
    ref = integrate(p, cfg, x0, tspan, opts)
    traj = integrate(permuted, cfg, x0[perm], tspan, opts)
    assert ref.termination is traj.termination is Termination.REACHED_TF
    np.testing.assert_allclose(traj.final_state, ref.final_state[perm], rtol=0.0, atol=1e-7)


def block_rotation(cone, seed):
    """R = diag(1, Q_b) over the blocks b of cone, with each Q_b orthogonal,
    from the QR of a seeded normal matrix."""
    rng = np.random.default_rng(seed)
    R = np.zeros((cone.dim, cone.dim))
    for sl in slices(cone):
        m = sl.stop - sl.start
        R[sl.start, sl.start] = 1.0
        if m > 1:
            R[sl.start + 1:sl.stop, sl.start + 1:sl.stop] = \
                np.linalg.qr(rng.standard_normal((m - 1, m - 1)))[0]
    return R


# few blocks, so one row takes abs_kernel block by block (_abs_into), and a
# batch takes every row through the groups
ROTATED_CONE = ConeStructure((1, 2, 3, 4, 5))


def rotation_inputs(rows):
    """x of rows rows (one vector if rows is None) with blocks in K, in -K,
    with a zero tail and neither."""
    cone = ROTATED_CONE
    shape = (cone.dim,) if rows is None else (rows, cone.dim)
    x = np.random.default_rng(5).standard_normal(shape)
    x[..., 1] = 0.0  # the 2-block with a zero tail
    x[..., 3] += 4.0  # the 3-block in K
    x[..., 6] -= 4.0  # the 4-block in -K
    return cone, x


@pytest.mark.parametrize("rows", [None, 4], ids=["one-row", "batch"])
@pytest.mark.parametrize("kernel", [abs_kernel, project_kernel], ids=["abs", "project"])
def test_a_cone_automorphism_commutes_with_the_kernel(kernel, rows):
    cone, x = rotation_inputs(rows)
    R = block_rotation(cone, 6)
    assert not np.allclose(R, np.eye(cone.dim))
    np.testing.assert_allclose(kernel(x @ R.T, cone), kernel(x, cone) @ R.T,
                               rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("blocks", [(1, 2, 3, 4, 5), (3,) * 9 + (1,)],
                         ids=["by-block", "grouped"])
def test_a_cone_automorphism_rotates_the_trajectory(blocks):
    # (1, 2, 3, 4, 5) takes abs_kernel block by block, nine 3-blocks take
    # one grouped pass
    cone = ConeStructure(blocks)
    p, _ = random_unique(cone.dim, cone, 0.5, 8)
    R = block_rotation(cone, 9)
    rotated = AveProblem(R @ p.A.array @ R.T, R @ p.b, cone)
    x0 = np.linspace(-2.0, 2.0, p.n)
    cfg, tspan, opts = DynamicsConfig(1.0), (0.0, 2.0), IntegratorOptions(rtol=1e-8)
    ref = integrate(p, cfg, x0, tspan, opts)
    traj = integrate(rotated, cfg, R @ x0, tspan, opts)
    assert ref.termination is traj.termination is Termination.REACHED_TF
    np.testing.assert_allclose(traj.final_state, R @ ref.final_state, rtol=0.0, atol=1e-7)
