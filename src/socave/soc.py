"""The Jordan-algebra absolute value |x| and the projection P_K on (products
of) second-order cones: the two cone maps of the flow and of its residual.

A second-order cone K^m = {(x1, x2) in R x R^{m-1} : ||x2|| <= x1}; K^1 is
the nonnegative reals. A ConeStructure partitions R^n into an ordered list
of such blocks and every operation here is applied blockwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_count, as_vector, quoted, silent, vector_norm

# one grouped pass over the blocks of one size with tails costs about as much
# as this many blocks taken one by one (about 12 and 1.5 us on a 2-vCPU
# Xeon), so abs_kernel takes one row with fewer blocks block by block
ROW_BLOCKS_PER_GROUP = 8


@dataclass(frozen=True)
class ConeStructure:
    """Ordered SOC block sizes partitioning R^n."""

    blocks: tuple[int, ...]
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(self.blocks) if np.iterable(self.blocks) else ()
        if not blocks:
            raise ValueError(f"cone blocks must be a non-empty sequence, got {quoted(self.blocks)}")
        object.__setattr__(self, "blocks", tuple(as_count(b, "block size") for b in blocks))
        # built once for the kernels: per block (head index, tail slice), the
        # tail of a size-1 block empty; and per block size m, the (blocks, m)
        # indices of the blocks of that size, or None when every block has
        # that size and a reshape of x stacks them
        parts, start = [], 0
        for b in self.blocks:
            parts.append((start, slice(start + 1, start + b)))
            start += b
        object.__setattr__(self, "dim", start)
        object.__setattr__(self, "_parts", tuple(parts))
        sizes = sorted(set(self.blocks))
        if len(sizes) == 1:
            groups = ((sizes[0], None),)
        else:
            heads = np.array([i for i, _ in parts])
            blocks = np.array(self.blocks)
            groups = tuple((m, heads[blocks == m][:, None] + np.arange(m)) for m in sizes)
        object.__setattr__(self, "_groups", groups)
        passes = sum(m > 1 for m in sizes)
        object.__setattr__(self, "_row_by_block",
                           len(self.blocks) < ROW_BLOCKS_PER_GROUP * passes)


def soc_abs(x, cone: ConeStructure) -> np.ndarray:
    """Jordan-algebra absolute value sqrt(x o x), blockwise closed form."""
    return abs_kernel(as_vector(x, cone.dim), cone)


@silent
def abs_kernel(x: np.ndarray, cone: ConeStructure) -> np.ndarray:
    """soc_abs without input validation, for the integrator's hot path: x
    must be a float vector of dimension cone.dim, or a (k, cone.dim) batch
    of them, one per row; non-finite entries give non-finite output instead
    of an error or a warning.

    One row of few blocks takes the scalar arithmetic of _abs_into, block
    by block. Otherwise each group of equal-size blocks is one pass over
    every row at once, with the same IEEE operations per block.
    """
    if cone._row_by_block and x.size == cone.dim:
        out = np.empty_like(x)
        _abs_into(x.ravel(), cone, out.ravel())
        return out
    return _blockwise(_abs_blocks, cone, x)


def _blockwise(kernel, cone: ConeStructure, x: np.ndarray) -> np.ndarray:
    """kernel of each size group of the blocks of x (a vector or a
    (k, cone.dim) batch), called with their C-contiguous (..., blocks, m)
    stack; its result goes back in their place."""
    if len(cone._groups) == 1:
        g = np.ascontiguousarray(x).reshape(*x.shape[:-1], len(cone.blocks), cone.blocks[0])
        return kernel(g).reshape(x.shape)
    out = np.empty_like(x)
    for m, idx in cone._groups:
        # np.take makes a C-contiguous copy: x[..., idx] of a batch would give
        # strided tails, whose ddot rounds differently
        out[..., idx] = kernel(np.take(x, idx, axis=-1))
    return out


def _abs_into(x: np.ndarray, cone: ConeStructure, out: np.ndarray) -> None:
    """abs_kernel of the vector x, block by block, written into out. The
    head x1 and the tail norm s are Python floats, whose arithmetic costs
    less than numpy's on one block."""
    for i, tail in cone._parts:
        x1, xt = float(x[i]), x[tail]
        s = vector_norm(xt)
        if not xt.size:  # K^1, the nonnegative reals, as _abs_blocks takes it
            out[i] = abs(x1)
        elif x1 >= s:  # in K
            out[i] = x1
            out[tail] = xt
        elif x1 <= -s:  # in -K
            out[i] = -x1
            np.negative(xt, out=out[tail])
        else:  # neither, or a nan
            out[i] = s
            # s is 0 here only for a nan x1, where the float x1 / s raises
            np.multiply(x1 / s if s else x1, xt, out=out[tail])


def _abs_blocks(g: np.ndarray) -> np.ndarray:
    """|x| of the blocks (x1, x2) stacked in g: x in K, -x in -K, and
    (s, (x1/s)*x2) between them; |x1| for blocks of size 1."""
    if g.shape[-1] == 1:
        return np.abs(g)
    x1, x2 = g[..., 0], g[..., 1:]
    s = vector_norm(x2)
    out = np.empty_like(g)
    out[..., 0] = s
    np.multiply((x1 / s)[..., None], x2, out=out[..., 1:])
    np.negative(g, out=out, where=(x1 <= -s)[..., None])  # in -K
    np.copyto(out, g, where=(x1 >= s)[..., None])  # in K
    return out


def project_cone(x, cone: ConeStructure) -> np.ndarray:
    """Euclidean projection onto the cone, blockwise."""
    return project_kernel(as_vector(x, cone.dim), cone)


@silent
def project_kernel(x: np.ndarray, cone: ConeStructure) -> np.ndarray:
    """project_cone without input validation: x must be a float vector of
    dimension cone.dim, or a (k, cone.dim) batch of them, one per row;
    non-finite entries give non-finite output."""
    return _blockwise(_project_blocks, cone, x)


def _project_blocks(g: np.ndarray) -> np.ndarray:
    """P_K of the blocks (x1, x2) stacked in g: x in K, 0 in -K, and
    (h, (h/s)*x2) with h = 0.5*x1 + 0.5*s between them, which rounds as
    0.5*(x1 + s) wherever that sum is finite. Size 1 too: np.maximum(-0.0, 0)
    is 0.0, but -0.0 in K projects to -0.0."""
    x1, x2 = g[..., 0], g[..., 1:]
    s = vector_norm(x2)
    out = np.empty_like(g)
    head = out[..., 0]
    np.multiply(0.5, x1, out=head)
    head += 0.5 * s
    np.multiply((head / s)[..., None], x2, out=out[..., 1:])
    np.copyto(out, 0.0, where=(x1 <= -s)[..., None])  # in -K
    np.copyto(out, g, where=(x1 >= s)[..., None])  # in K, which wins where both hold
    return out
