"""Linear algebra: input validation, the one overflow policy, the one
Euclidean norm of a vector, and the linear operators that hold a problem's
matrix, with their extremal singular values.

Vectors are plain float64 numpy arrays throughout the package. A problem's
matrix is a linear operator: a DenseOperator around a stored array, or a
TridiagToeplitz that keeps only its three diagonal values, so tridiagonal
problems never allocate an n-by-n array.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# the largest n whose non-symmetric TridiagToeplitz takes a dense SVD: an
# n-by-n array and O(n^3) work (3.7 s at n = 2000 on a 2-vCPU Xeon)
DENSE_SVD_MAX_N = 2000

# an error message quotes at most this many characters of a value's repr
QUOTE_CHARS = 80


def silent(func):
    """func run under np.errstate(all="ignore"), the package's one spelling
    of its overflow policy: on finite inputs func returns its value, with
    inf or nan where they overflow, and no warning. Each decorated function
    gets an errstate of its own, as numpy 1.x keeps the saved state on the
    instance, so one instance shared by two functions would not nest."""
    return np.errstate(all="ignore")(func)


def quoted(v) -> str:
    """repr(v) for an error message, cut to its first QUOTE_CHARS characters
    and "..." where it is longer, so the message stays one short line
    whatever an input file holds."""
    r = repr(v)
    return r if len(r) <= QUOTE_CHARS else f"{r[:QUOTE_CHARS]}... ({len(r)} characters)"


def as_count(v, what: str) -> int:
    """Validate and return a count: an int (not a bool) or integer-valued float >= 1."""
    integral = isinstance(v, numbers.Integral) and not isinstance(v, bool)
    if not (integral or isinstance(v, float) and v.is_integer()) or v < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {quoted(v)}")
    return int(v)


def _finite(v) -> float | None:
    """v as a float if it is a finite real number, else None. A bool or a
    string is not a number, and an int past the float range is not finite
    (float() raises OverflowError on it)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return None
    try:
        x = float(v)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def as_finite(v, what: str) -> float:
    """Validate and return a finite real number, as a float."""
    x = _finite(v)
    if x is None:
        raise ValueError(f"{what} must be a finite number, got {quoted(v)}")
    return x


def as_numbers(v, what: str):
    """v, a number or a (nested) list or tuple of numbers as JSON holds them,
    or a numpy array, with each number through as_finite: the rule for every
    number that enters the package."""
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return [as_numbers(e, what) for e in v]
    return as_finite(v, what)


def as_array(v, ndim: int, what: str) -> np.ndarray:
    """v as a float64 array of ndim dimensions whose every entry is a finite
    real number, and not a bool, a string or a complex number. A real numpy
    array with finite entries is taken whole, without a copy if it is
    float64; anything else goes entry by entry through as_numbers."""
    if isinstance(v, np.ndarray) and v.dtype.kind in "fiu" and np.isfinite(v).all():
        a = v.astype(float, copy=False)
    else:
        a = np.array(as_numbers(v, what), dtype=float)
    if a.ndim != ndim:
        raise ValueError(f"{what} must have ndim={ndim}, got ndim={a.ndim}")
    return a


def as_vector(x, dim: int | None = None, what: str = "vector") -> np.ndarray:
    """as_array(x, 1, what), optionally of dimension dim."""
    x = as_array(x, 1, what)
    if dim is not None and x.shape[0] != dim:
        raise ValueError(f"{what} has dimension {x.shape[0]}, expected {dim}")
    return x


def as_positive(v, what: str) -> float:
    """Validate and return a finite real number > 0, as a float."""
    x = _finite(v)
    if x is None or x <= 0:
        raise ValueError(f"{what} must be finite and > 0, got {quoted(v)}")
    return x


def as_tspan(tspan) -> tuple[float, float]:
    """Validate and return a time span (t0, tf): finite, t0 < tf, tf - t0 finite."""
    t = [_finite(v) for v in tspan] if np.iterable(tspan) else []  # a number or None
    if not (len(t) == 2 and None not in t and 0.0 < t[1] - t[0] < math.inf):
        raise ValueError(f"tspan must be two finite times t0 < tf, tf - t0 finite, got {quoted(tspan)}")
    return t[0], t[1]


def vector_norm(v: np.ndarray):
    """||v||, the package's one Euclidean norm: a float for a vector v, or
    the norms of the vectors stacked along v's last axis, each as it is
    alone. It is the square root of one ddot per vector (np.vdot, or a stack
    of (1, m) @ (m, 1) matmul products of unit-stride rows), np.linalg.norm's
    call without its floating-point check. Where the sum of squares is not a
    normal float (a norm past about 1.34e154 or below 2**-511, 0 included),
    it is math.hypot, precise over the float range, so the norm is 0 only
    for a zero vector. A stack runs under its callers' silent, as matmul
    warns where a square overflows."""
    if v.ndim > 1:
        ss = np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]
        s = np.sqrt(ss)
        # ss is >= 0 or nan, so a normal least ss and a finite sum show in
        # two calls that every one is normal; a stack of no vectors, or of
        # empty ones, whose norms are the zeros s holds, has none to mend
        if ss.size and v.shape[-1] and not (ss.min() >= sys.float_info.min
                                            and math.isfinite(ss.sum())):
            off = ~((ss >= sys.float_info.min) & (ss < math.inf))
            s[off] = [vector_norm(row) for row in v[off]]
        return s
    ss = float(np.vdot(v, v))
    # a nan sum is neither, so nan does not reach hypot, where hypot(inf, nan)
    # is inf; hypot takes Python floats, which unpack faster than numpy's
    return math.hypot(*v.tolist()) if ss < sys.float_info.min or ss == math.inf else math.sqrt(ss)


class DenseOperator:
    """A stored matrix; matvec and rmatvec are A @ x and A.T @ x, of a vector
    x or of each row of a (k, n) batch x."""

    def __init__(self, A):
        A = as_array(A, 2, "A entries").copy()  # a copy: the caller's array stays writable
        A.setflags(write=False)
        self.array = A

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    @property
    def size(self) -> int:
        """Number of stored entries."""
        return self.array.size

    # a stack of (n, 1) columns: one gemv per row, as A @ row takes, where
    # x @ A.T would be one gemm that sums in another order
    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.matmul(self.array, x[..., None])[..., 0]

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return np.matmul(self.array.T, x[..., None])[..., 0]

    def to_dense(self) -> np.ndarray:
        return self.array

    def __eq__(self, other):
        """The same stored matrix, bit for bit: the same products."""
        return (isinstance(other, DenseOperator) and self.shape == other.shape
                and self.array.tobytes() == other.array.tobytes())

    def sigma_min(self) -> float:
        return float(np.linalg.svd(self.array, compute_uv=False)[-1])

    def norm(self) -> float:
        return float(np.linalg.svd(self.array, compute_uv=False)[0])


def _correlate_rows(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Entries 1..n of the full correlation with kernel (of length 3) of a
    vector x, or of each row of a (k, n) batch x. A vector or a batch of one
    row is a view of its one correlation, with no copy."""
    if x.ndim == 1 or len(x) == 1:
        return np.correlate(x.ravel(), kernel, "full")[1:-1].reshape(x.shape)
    return np.stack([np.correlate(row, kernel, "full")[1:-1] for row in x])


@dataclass(frozen=True)
class TridiagToeplitz:
    """n-by-n matrix with constant sub-, main and super-diagonal entries,
    applied in O(n) without storing it."""

    n: int
    sub: float
    diag: float
    sup: float

    def __post_init__(self):
        object.__setattr__(self, "n", as_count(self.n, "n"))
        for name in ("sub", "diag", "sup"):
            object.__setattr__(self, name, as_finite(getattr(self, name), f"tridiag {name}"))
        # the correlation kernels of matvec and rmatvec, built once
        object.__setattr__(self, "_kernel", np.array([self.sub, self.diag, self.sup]))
        object.__setattr__(self, "_rkernel", np.array([self.sup, self.diag, self.sub]))

    def __eq__(self, other):
        """The same n and coefficients, bit for bit: the same products."""
        return (isinstance(other, TridiagToeplitz) and self.n == other.n
                and self._kernel.tobytes() == other._kernel.tobytes())

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def size(self) -> int:
        """Number of stored nonzeros of the band, 3n - 2."""
        return 3 * self.n - 2

    # (A x)[i] = sub*x[i-1] + diag*x[i] + sup*x[i+1] is entry i + 1 of the
    # full correlation of x with (sub, diag, sup); A^T swaps sub and sup.
    # One pass into one array, where three shifted vector ops would also
    # allocate two temporaries. np.convolve with the reversed kernel does
    # the same arithmetic through a slower wrapper
    def matvec(self, x: np.ndarray) -> np.ndarray:
        return _correlate_rows(x, self._kernel)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return _correlate_rows(x, self._rkernel)

    def to_dense(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        np.fill_diagonal(A, self.diag)
        idx = np.arange(self.n - 1)
        A[idx + 1, idx] = self.sub
        A[idx, idx + 1] = self.sup
        return A

    def _singular_values(self) -> np.ndarray:
        """Unordered singular values. With sub == sup the matrix is symmetric,
        so they are the |eigenvalues| d + 2*sub*cos(k*pi/(n+1)), k = 1..n
        (Noschese, Pasquini & Reichel 2013), taken exactly as |d|, |d + sub|
        and |d - sub| at k/(n+1) = 1/2, 1/3 and 2/3, where the rounded cosine
        misses 0, 0.5 and -0.5; otherwise they are not, and the dense SVD
        answers, up to n = DENSE_SVD_MAX_N."""
        if self.sub != self.sup:
            if self.n > DENSE_SVD_MAX_N:
                raise ValueError(
                    f"the singular values of a tridiagonal A with sub != sup take a dense "
                    f"SVD, limited to n <= {DENSE_SVD_MAX_N}, got n = {self.n} "
                    f"(with sub == sup they have a closed form)")
            return np.linalg.svd(self.to_dense(), compute_uv=False)
        k = np.arange(1, self.n + 1)
        sv = np.abs(self.diag + 2.0 * self.sub * np.cos(k * math.pi / (self.n + 1)))
        for num, den, exact in ((1, 2, self.diag), (1, 3, self.diag + self.sub),
                                (2, 3, self.diag - self.sub)):
            if (self.n + 1) % den == 0:
                sv[num * (self.n + 1) // den - 1] = abs(exact)
        return sv

    def sigma_min(self) -> float:
        return float(self._singular_values().min())

    def norm(self) -> float:
        return float(self._singular_values().max())
