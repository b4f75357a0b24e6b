import math
import warnings

import numpy as np
import pytest

from socave.dynamics import (
    DynamicsConfig,
    lipschitz_bound,
    lyapunov_rate,
    lyapunov_value,
    rhs,
)
from socave.experiments import multi_sign_violation, toy_region
from socave.model import AveProblem, residual
from socave.problems import example_toy, example_tridiag, initial_grid
from socave.soc import ConeStructure

GAMMA2 = DynamicsConfig(2.0)


class TestConfig:
    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            DynamicsConfig(0.0)
        with pytest.raises(ValueError):
            DynamicsConfig(-1.0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_rejects_nonfinite_gamma(self, gamma):
        with pytest.raises(ValueError):
            DynamicsConfig(gamma)


class TestRhs:
    def test_multi_region_a(self):
        p = example_toy("multi")
        assert rhs(p, GAMMA2, np.array([2.0, 1.0])).tolist() == [0, -4]

    def test_unique_equilibrium(self):
        p = example_toy("unique")
        assert rhs(p, GAMMA2, np.array([0.0, 1.0])).tolist() == [0, 0]

    def test_none_region_c(self):
        p = example_toy("none")
        assert rhs(p, GAMMA2, np.array([-2.0, 0.0])).tolist() == [10, -2]

    def test_matches_negative_transposed_residual(self):
        p, _ = example_tridiag(6)
        cfg = DynamicsConfig(3.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal(6) * 2
            expected = cfg.gamma * (p.A.to_dense().T @ -residual(p, x))
            assert np.array_equal(rhs(p, cfg, x), expected)

    def test_vanishes_exactly_at_solutions_of_nonsingular_problems(self):
        p, x_star = example_tridiag(4)
        assert np.max(np.abs(rhs(p, GAMMA2, x_star))) == 0.0
        # conversely: rhs = 0 forces residual = 0 since A is nonsingular
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(4)
            if np.linalg.norm(rhs(p, GAMMA2, x)) < 1e-12:
                assert np.linalg.norm(residual(p, x)) < 1e-10


class TestLipschitzBound:
    def test_identity(self):
        p = AveProblem(np.eye(3), np.zeros(3), ConeStructure((3,)))
        assert lipschitz_bound(p, DynamicsConfig(1.0)) == pytest.approx(2.0)

    def test_sign_diagonal(self):
        assert lipschitz_bound(example_toy("multi"), GAMMA2) == pytest.approx(4.0)

    def test_tridiag(self):
        p = AveProblem(np.array([[4., -1, 0], [-1, 4, -1], [0, -1, 4]]),
                       np.zeros(3), ConeStructure((3,)))
        expected = 2 * (4 + math.sqrt(2)) * (5 + math.sqrt(2))
        assert lipschitz_bound(p, GAMMA2) == pytest.approx(expected, rel=1e-10)

    def test_empirical_bound_holds(self):
        p, _ = example_tridiag(8)
        cfg = DynamicsConfig(1.5)
        bound = lipschitz_bound(p, cfg)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            x = rng.standard_normal(8) * 3
            y = rng.standard_normal(8) * 3
            lhs = np.linalg.norm(rhs(p, cfg, x) - rhs(p, cfg, y))
            assert lhs <= bound * np.linalg.norm(x - y) + 1e-10


class TestLyapunov:
    def test_zero_at_solution(self):
        x = np.array([1.0, 2.0])
        assert lyapunov_value(x, x) == 0.0

    def test_unit_distance(self):
        assert lyapunov_value([1.0, 0.0], [0.0, 0.0]) == pytest.approx(math.e - 1)

    def test_distance_sqrt2(self):
        assert lyapunov_value([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.e**2 - 1)

    def test_overflow_guard(self):
        assert lyapunov_value([30.0, 0.0], [0.0, 0.0]) == math.inf

    def test_an_overflowing_distance_is_silent(self):
        # the square of 1e200 overflows: ||x - x*||^2 is inf, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lyapunov_value([1e200, 0.0], [0.0, 0.0]) == math.inf

    def test_an_overflowing_difference_is_silent(self):
        # 1e308 - (-1e308) overflows to inf in x - x*
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lyapunov_value([1e308], [-1e308]) == math.inf

    def test_rate_zero_at_solution(self):
        p = example_toy("unique")
        assert lyapunov_rate(p, GAMMA2, np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0

    def test_rate_hand_value(self):
        p = example_toy("unique")
        out = lyapunov_rate(p, GAMMA2, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert out == pytest.approx(-8 * math.e**2)

    def test_rate_bound_under_certificate(self):
        # dV/dt <= -gamma * exp(d^2) * ||r||^2 when sigma_min(A) >= 1
        p, x_star = example_tridiag(4)
        cfg = DynamicsConfig(1.0)
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = x_star + rng.standard_normal(4)
            d2 = float(np.sum((x - x_star) ** 2))
            r2 = float(np.sum(residual(p, x) ** 2))
            rate = lyapunov_rate(p, cfg, x, x_star)
            assert rate <= -math.exp(d2) * r2 + 1e-8

    @pytest.mark.parametrize("a, rate", [(2.0, -math.inf), (0.5, math.inf), (0.0, 0.0)])
    def test_rate_past_the_exp_overflow_is_the_sign_of_the_inner_product(self, a, rate):
        # A = [a] on one 1-block, x* = 0 and x = 30 (900 > EXP_OVERFLOW):
        # (x - x*)^T A^T r(x) = 900 a (a - 1) is > 0, < 0 and == 0
        p = AveProblem([[a]], [0.0], ConeStructure((1,)))
        assert lyapunov_rate(p, GAMMA2, np.array([30.0]), np.array([0.0])) == rate

    def test_rate_rejects_fake_solution(self):
        p = example_toy("unique")
        with pytest.raises(ValueError):
            lyapunov_rate(p, GAMMA2, np.array([1.0, 0.0]), np.array([3.0, 3.0]))


class TestRegionSignTables:
    """Componentwise signs of the flow in the three phase-plane regions
    of the 2-d instances."""

    @staticmethod
    def _sample_region(rng, region):
        while True:
            x = rng.uniform(-4, 4, 2)
            # stay clear of the region boundaries
            if toy_region(x) == region and abs(abs(x[0]) - abs(x[1])) > 1e-6:
                return x

    def test_multi(self):
        p = example_toy("multi")
        rng = np.random.default_rng(4)
        for _ in range(200):
            xa = self._sample_region(rng, "a")
            va = rhs(p, GAMMA2, xa)
            assert abs(va[0]) <= 1e-12
            assert va[1] == pytest.approx(-2 * 2.0 * xa[1], rel=1e-9, abs=1e-12)
            xb = self._sample_region(rng, "b")
            vb = rhs(p, GAMMA2, xb)
            assert vb[0] > 0
            assert vb[1] * xb[1] <= 1e-12
            xc = self._sample_region(rng, "c")
            vc = rhs(p, GAMMA2, xc)
            assert vc[0] >= 0
            assert abs(vc[1]) <= 1e-12

    def test_unique(self):
        p = example_toy("unique")
        g = 2.0
        rng = np.random.default_rng(5)
        for _ in range(200):
            xa = self._sample_region(rng, "a")
            va = rhs(p, GAMMA2, xa)
            assert va[0] == pytest.approx(-g, abs=1e-12)
            assert va[1] == pytest.approx(-g * (-1 + 2 * xa[1]), rel=1e-9, abs=1e-10)
            xb = self._sample_region(rng, "b")
            vb = rhs(p, GAMMA2, xb)
            assert vb[0] == pytest.approx(g * (-1 + abs(xb[1]) - xb[0]), rel=1e-9, abs=1e-10)
            xc = self._sample_region(rng, "c")
            vc = rhs(p, GAMMA2, xc)
            assert vc[0] == pytest.approx(g * (-1 - 2 * xc[0]), rel=1e-9, abs=1e-10)
            assert vc[1] == pytest.approx(g, abs=1e-12)

    def test_none(self):
        p = example_toy("none")
        g = 2.0
        rng = np.random.default_rng(6)
        for _ in range(200):
            xa = self._sample_region(rng, "a")
            va = rhs(p, GAMMA2, xa)
            assert va[0] == pytest.approx(g, abs=1e-12)
            assert va[1] == pytest.approx(-g * (1 + 2 * xa[1]), rel=1e-9, abs=1e-10)
            xb = self._sample_region(rng, "b")
            vb = rhs(p, GAMMA2, xb)
            assert vb[0] > 0
            assert vb[0] == pytest.approx(g * (1 + abs(xb[1]) - xb[0]), rel=1e-9, abs=1e-10)
            xc = self._sample_region(rng, "c")
            vc = rhs(p, GAMMA2, xc)
            assert vc[0] == pytest.approx(g * (1 - 2 * xc[0]), rel=1e-9, abs=1e-10)
            assert vc[1] == pytest.approx(-g, abs=1e-12)


def _reference_sign_violation(p, cfg, states):
    """multi_sign_violation as a running Python max over one rhs call per state."""
    worst = 0.0
    for x in states:
        v = rhs(p, cfg, x)
        worst = max(worst, float(x[1]) * float(v[1]))
        if toy_region(x) == "a":
            worst = max(worst, abs(float(v[0])))
        else:
            worst = max(worst, -float(v[0]))
    return worst


class TestMultiSignViolation:
    """One batched field evaluation over the recorded states gives the
    running max of one evaluation per state, bit for bit."""

    def test_matches_the_per_state_loop_on_the_suite_grid(self):
        from socave.integrator import integrate_many

        p = example_toy("multi")
        for traj in integrate_many(p, GAMMA2, initial_grid(np.zeros(2), 7), (0.0, 5.0)):
            got = multi_sign_violation(p, GAMMA2, traj.states)
            assert got == _reference_sign_violation(p, GAMMA2, traj.states)

    @pytest.mark.parametrize("problem", ["multi", "unique", "none"])
    def test_a_nan_term_never_raises_the_worst(self, problem):
        p = example_toy(problem)
        rng = np.random.default_rng(11)
        states = np.vstack([rng.uniform(-3, 3, (40, 2)), [[np.nan, 1.0], [1.0, np.nan],
                                                          [-0.0, 0.0], [0.0, -0.0]]])
        # the last four alone: nan terms and zero fields of either sign
        for rows in (states, states[-4:]):
            with np.errstate(invalid="ignore"):
                got = multi_sign_violation(p, GAMMA2, rows)
                expected = _reference_sign_violation(p, GAMMA2, rows)
            assert not math.isnan(got)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
