"""Jordan-algebra operations on (products of) second-order cones.

A second-order cone K^m = {(x1, x2) in R x R^{m-1} : ||x2|| <= x1}; K^1 is
the nonnegative reals. A ConeStructure partitions R^n into an ordered list
of such blocks and every operation here is applied blockwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_count, as_finite, as_vector, quoted, silent, vector_norm

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

    def slices(self) -> list[slice]:
        return [slice(i, tail.stop) for i, tail in self._parts]


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues and Jordan frame of one SOC block: x = lam1*u1 + lam2*u2."""

    lam1: float
    lam2: float
    u1: np.ndarray
    u2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.lam1 * self.u1 + self.lam2 * self.u2


class Membership(enum.Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    OUTSIDE_CONE = "OutsideCone"
    INSIDE_NEGATIVE_CONE = "InsideNegativeCone"
    NEITHER = "Neither"


def _split(x: np.ndarray, i: int, tail: slice):
    """(x1, s, x2) of the block of x with head index i: x2 = x[tail] and
    s = vector_norm(x2). x1 and s are Python floats, so x1 -/+ s gives inf
    or nan with no warning where it overflows."""
    x2 = x[tail]
    return float(x[i]), vector_norm(x2), x2


def eigenvalues(xb: np.ndarray) -> tuple[float, float]:
    """(lam1, lam2) = x1 -/+ ||x2|| of one block; for size 1, both equal x1."""
    xb = as_vector(xb)
    if xb.shape[0] < 1:
        raise ValueError("eigenvalues need a block of size >= 1")
    x1, s, _ = _split(xb, 0, slice(1, None))
    return x1 - s, x1 + s


def spectral_decompose(xb: np.ndarray) -> SpectralDecomp:
    """Spectral decomposition of one block of size >= 2.

    When the tail is zero the frame direction is fixed to the first
    coordinate axis, so the result is deterministic.
    """
    xb = as_vector(xb)
    if xb.shape[0] < 2:
        raise ValueError("spectral decomposition needs block size >= 2")
    x1, s, x2 = _split(xb, 0, slice(1, None))
    w = x2 / s if s > 0.0 else np.eye(1, x2.size)[0]
    u1 = 0.5 * np.concatenate(([1.0], -w))
    u2 = 0.5 * np.concatenate(([1.0], w))
    return SpectralDecomp(x1 - s, x1 + s, u1, u2)


def jordan_product(x, y, cone: ConeStructure) -> np.ndarray:
    """Blockwise Jordan product (<x,y>, y1*x2 + x1*y2)."""
    return _blockwise(_jordan_blocks, cone, as_vector(x, cone.dim), as_vector(y, cone.dim))


@silent
def _jordan_blocks(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    out = np.empty_like(gx)
    # one ddot per block, the call of a block's xb @ yb
    out[..., 0] = np.matmul(gx[..., None, :], gy[..., :, None])[..., 0, 0]
    out[..., 1:] = gy[..., :1] * gx[..., 1:] + gx[..., :1] * gy[..., 1:]
    return out


def soc_abs(x, cone: ConeStructure) -> np.ndarray:
    """Jordan-algebra absolute value sqrt(x o x), blockwise closed form."""
    return abs_kernel(as_vector(x, cone.dim), cone)


@silent
def abs_kernel(x: np.ndarray, cone: ConeStructure) -> np.ndarray:
    """soc_abs without input validation, for the integrator's hot path: x
    must be a float vector of dimension cone.dim, or a (k, cone.dim) batch
    of them, one per row; non-finite entries give non-finite output instead
    of an error or a warning.

    One row of few blocks takes the scalar arithmetic of _split, block by
    block. Otherwise each group of equal-size blocks is one pass over every
    row at once, with the same IEEE operations per block.
    """
    if cone._row_by_block and x.size == cone.dim:
        out = np.empty_like(x)
        _abs_into(x.ravel(), cone, out.ravel())
        return out
    return _blockwise(_abs_blocks, cone, x)


def _blockwise(kernel, cone: ConeStructure, *xs: np.ndarray) -> np.ndarray:
    """kernel of each size group of the blocks of xs (vectors or (k, cone.dim)
    batches of one shape), called with their C-contiguous (..., blocks, m)
    stacks; its result goes back in their place."""
    if len(cone._groups) == 1:
        shape = xs[0].shape
        gs = [np.ascontiguousarray(x).reshape(*shape[:-1], -1, cone.blocks[0]) for x in xs]
        return kernel(*gs).reshape(shape)
    out = np.empty_like(xs[0])
    for m, idx in cone._groups:
        # np.take makes a C-contiguous copy: x[..., idx] of a batch would give
        # strided tails, whose ddot rounds differently
        out[..., idx] = kernel(*(np.take(x, idx, axis=-1) for x in xs))
    return out


def _abs_into(x: np.ndarray, cone: ConeStructure, out: np.ndarray) -> None:
    """abs_kernel of the vector x, block by block, written into out."""
    for i, tail in cone._parts:
        x1, s, xt = _split(x, i, tail)
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


def in_cone(x, cone: ConeStructure, tol: float = 1e-10) -> bool:
    """True if every block is Interior or Boundary, i.e. has lam1 >= -tol."""
    return all(m in (Membership.INTERIOR, Membership.BOUNDARY)
               for m in cone_membership(x, cone, tol))


def cone_membership(x, cone: ConeStructure, tol: float = 1e-10) -> list[Membership]:
    """Classify each block against K / -K with a tolerance band around zero.

    lam1 <= lam2 are the block eigenvalues. Interior/Boundary refer to K;
    InsideNegativeCone means strictly inside -K, OutsideCone on the boundary
    of -K (outside K), Neither is in neither cone. tol is a finite number >= 0.
    """
    if as_finite(tol, "tol") < 0:
        raise ValueError(f"tol must be >= 0, got {quoted(tol)}")
    x = as_vector(x, cone.dim)
    out = []
    for i, tail in cone._parts:
        x1, s, _ = _split(x, i, tail)
        lam1, lam2 = x1 - s, x1 + s
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


@silent
def complementarity_residual(s, t, cone: ConeStructure) -> float:
    """||(s + t) - |s - t||| -- zero iff s, t in K and <s, t> = 0."""
    s = as_vector(s, cone.dim)
    t = as_vector(t, cone.dim)
    return vector_norm((s + t) - abs_kernel(s - t, cone))
