"""mpmath as an oracle of the cone absolute value.

The oracle is the spectral definition |x| = |lam1|*u1 + |lam2|*u2 of each
block, with lam1, lam2 = x1 -/+ s and s = ||x2||, taken in 60 digits from
the block's float entries. abs_kernel takes a closed form instead, chosen
by where the block lies against K; the float64 spectral formula, which it
replaced, is the second reference: abs_kernel must be no less accurate. A
block in K or in -K has the exact value x or -x, and abs_kernel must return
it. mpmath is not a dependency of the package: without it these tests skip.
"""

import math

import numpy as np
import pytest

from norm_reference import reference_norm
from socave.soc import ConeStructure, abs_kernel

mp = pytest.importorskip("mpmath").mp
mp.dps = 60

CONE = ConeStructure((4,))
BLOCKS = 3000
TINY = 300


def _draw_blocks(seed: int) -> np.ndarray:
    """(BLOCKS + TINY, 4) blocks: tails of magnitudes 1e-3 to 1e3, each head
    drawn generic, in K, in -K, or within 1e-8 of the boundary of K or of
    -K; then TINY blocks between K and -K whose tails, of about 1e-170, have
    squares that underflow."""
    rng = np.random.default_rng(seed)
    tails = rng.standard_normal((BLOCKS, 3)) * 10.0 ** rng.uniform(-3, 3, (BLOCKS, 1))
    s = np.sqrt((tails * tails).sum(axis=1))
    heads = np.choose(rng.integers(0, 5, BLOCKS), [
        rng.standard_normal(BLOCKS) * s,
        s * (1.0 + rng.exponential(1.0, BLOCKS)),
        -s * (1.0 + rng.exponential(1.0, BLOCKS)),
        s * (1.0 + 1e-8 * rng.standard_normal(BLOCKS)),
        -s * (1.0 + 1e-8 * rng.standard_normal(BLOCKS)),
    ])
    unit = rng.standard_normal((TINY, 3))
    tiny = np.column_stack((rng.uniform(-1, 1, TINY) * np.sqrt((unit * unit).sum(axis=1)), unit))
    return np.vstack((np.column_stack((heads, tails)), 1e-170 * tiny))


def _spectral_abs(xb: np.ndarray) -> np.ndarray:
    """|x| of one block by the float64 spectral formula."""
    x1, x2 = float(xb[0]), xb[1:]
    s = reference_norm(x2)
    lo, hi = abs(x1 - s), abs(x1 + s)
    return np.array([0.5 * (lo + hi), *((0.5 * (hi - lo) / s) * x2)])


def _oracle_abs(xb: np.ndarray) -> list:
    x1, x2 = mp.mpf(float(xb[0])), [mp.mpf(float(v)) for v in xb[1:]]
    s = mp.sqrt(mp.fsum(v * v for v in x2))
    lo, hi = abs(x1 - s), abs(x1 + s)
    return [(lo + hi) / 2, *(((hi - lo) / (2 * s)) * v for v in x2)]


def _normwise_error(got: np.ndarray, exact: list) -> float:
    diff = mp.sqrt(mp.fsum((mp.mpf(float(g)) - e) ** 2 for g, e in zip(got, exact)))
    return float(diff / mp.sqrt(mp.fsum(e * e for e in exact)))


@pytest.mark.parametrize("seed", [0, 1])
def test_abs_kernel_is_no_less_accurate_than_the_spectral_formula(seed):
    x = _draw_blocks(seed)
    got = abs_kernel(x, CONE)
    assert np.array_equal(got[:5], np.array([abs_kernel(xb, CONE) for xb in x[:5]]))
    worst_kernel = worst_spectral = 0.0
    for xb, g in zip(x, got):
        exact = _oracle_abs(xb)
        worst_kernel = max(worst_kernel, _normwise_error(g, exact))
        worst_spectral = max(worst_spectral, _normwise_error(_spectral_abs(xb), exact))
    assert worst_kernel <= worst_spectral
    assert worst_kernel < 4 * 2.0 ** -53


@pytest.mark.parametrize("seed", [0, 1])
def test_a_block_in_k_or_minus_k_is_exact(seed):
    x = _draw_blocks(seed)
    got = abs_kernel(x, CONE)
    exact_blocks = 0
    for xb, g in zip(x, got):
        x1, s = mp.mpf(float(xb[0])), mp.sqrt(mp.fsum(mp.mpf(float(v)) ** 2 for v in xb[1:]))
        if abs(x1) >= s:  # x in K or in -K, so |x| is x or -x
            exact_blocks += 1
            # exact to the oracle's 60 digits
            assert _normwise_error(g, _oracle_abs(xb)) < 1e-40
            assert g.tolist() == [math.copysign(1.0, xb[0]) * v for v in xb]
    assert exact_blocks > BLOCKS // 3
