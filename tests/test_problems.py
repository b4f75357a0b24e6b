import math

import numpy as np
import pytest

from socave.model import (
    Solvability,
    is_solution,
    residual,
    solvability_certificate,
)
from socave.problems import (
    example_toy,
    example_tridiag,
    initial_grid,
    random_unique,
)
from socave.soc import ConeStructure, soc_abs


class TestExampleTridiag:
    def test_n2_construction(self):
        p, x_star = example_tridiag(2)
        assert p.A.to_dense().tolist() == [[4, -1], [-1, 4]]
        assert x_star.tolist() == [-1, 1]
        assert soc_abs(x_star, p.cone).tolist() == [1, -1]
        assert p.b.tolist() == [-6, 6]
        assert np.max(np.abs(residual(p, x_star))) == 0.0

    def test_large_instance_residual(self):
        p, x_star = example_tridiag(100)
        assert np.linalg.norm(residual(p, x_star)) <= 1e-12

    def test_certificate(self):
        p, _ = example_tridiag(100)
        assert solvability_certificate(p).verdict is Solvability.UNIQUE_GUARANTEED

    def test_single_block_cone(self):
        p, _ = example_tridiag(10)
        assert p.cone.blocks == (10,)

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_rejects_odd_or_tiny(self, n):
        with pytest.raises(ValueError):
            example_tridiag(n)

    @pytest.mark.parametrize("n", [4.5, True, "4"])
    def test_rejects_a_size_that_is_not_a_count(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            example_tridiag(n)

    def test_integer_valued_float_size_is_the_int(self):
        p, x_star = example_tridiag(4.0)
        assert p.n == 4 and x_star.tolist() == [-1, 1, -1, 1]


class TestExampleToy:
    @pytest.mark.parametrize("a", [0.0, 1.0, 7.3])
    def test_multi_equilibria(self, a):
        p = example_toy("multi")
        assert is_solution(p, [a, 0.0], 1e-8)

    def test_unique_solution(self):
        assert is_solution(example_toy("unique"), [0.0, 1.0], 1e-8)

    def test_none_has_no_solution_on_grid(self):
        # brute-force oracle: min ||r|| over [-10, 10]^2, step 0.01
        p = example_toy("none")
        g = np.arange(-10.0, 10.0 + 1e-9, 0.01)
        x1, x2 = np.meshgrid(g, g, indexing="ij")
        s = np.abs(x2)
        # closed-form |x| for 2-d SOC: (max(|x1|,|x2|)-ish via eigenvalues)
        lo = np.abs(x1 - s)
        hi = np.abs(x1 + s)
        abs1 = 0.5 * (lo + hi)
        abs2 = 0.5 * (hi - lo) * np.sign(x2)
        r1 = x1 - abs1 - p.b[0]
        r2 = -x2 - abs2 - p.b[1]
        min_norm = float(np.min(np.hypot(r1, r2)))
        assert min_norm >= 0.5

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            example_toy("bogus")


class TestRandomUnique:
    def test_residual_at_solution(self):
        for seed in (0, 1, 42):
            p, x_star = random_unique(8, ConeStructure((3, 5)), 0.1, seed)
            assert np.linalg.norm(residual(p, x_star)) <= 1e-10

    def test_certificate_and_margin(self):
        p, _ = random_unique(10, ConeStructure((10,)), 0.25, 5)
        assert solvability_certificate(p).verdict is Solvability.UNIQUE_GUARANTEED
        assert np.linalg.svd(p.A.to_dense(), compute_uv=False)[-1] >= 1.25 - 1e-8

    def test_deterministic(self):
        a = random_unique(8, ConeStructure((3, 5)), 0.1, 42)
        b = random_unique(8, ConeStructure((3, 5)), 0.1, 42)
        assert np.array_equal(a[0].A.to_dense(), b[0].A.to_dense())
        assert np.array_equal(a[0].b, b[0].b)
        assert np.array_equal(a[1], b[1])

    def test_seed_changes_instance(self):
        a = random_unique(6, ConeStructure((6,)), 0.1, 1)
        b = random_unique(6, ConeStructure((6,)), 0.1, 2)
        assert not np.array_equal(a[0].A.to_dense(), b[0].A.to_dense())

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            random_unique(4, ConeStructure((4,)), 0.0, 1)

    @pytest.mark.parametrize("n, blocks", [(True, (1,)), (2.5, (2,)), (math.nan, (2,))])
    def test_rejects_a_size_that_is_not_a_count(self, n, blocks):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            random_unique(n, ConeStructure(blocks), 0.5, 1)

    def test_rejects_blocks_that_do_not_partition_r_n(self):
        with pytest.raises(ValueError, match=r"blocks must partition R\^n"):
            random_unique(4, ConeStructure((3,)), 0.5, 1)

    def test_integer_valued_float_size_is_the_int(self):
        (p, x_star), (q, y_star) = (random_unique(n, ConeStructure((2,)), 0.5, 1)
                                    for n in (2.0, 2))
        assert np.array_equal(p.A.to_dense(), q.A.to_dense())
        assert np.array_equal(x_star, y_star) and p.name == q.name


class TestInitialGrid:
    def test_circle_in_2d(self):
        pts = initial_grid([0.0, 1.0], 8)
        assert pts.shape == (8, 2)
        assert np.allclose(np.linalg.norm(pts - [0.0, 1.0], axis=1), 3.0)
        assert np.allclose(pts[0], [3.0, 1.0])

    def test_sphere_in_higher_dim(self):
        pts = initial_grid(np.zeros(5), 10)
        assert pts.shape == (10, 5)
        assert np.allclose(np.linalg.norm(pts, axis=1), 3.0)

    def test_deterministic(self):
        assert np.array_equal(initial_grid(np.zeros(4), 6), initial_grid(np.zeros(4), 6))

    @pytest.mark.parametrize("center", [[math.nan, 0.0], [0.0, math.inf], [[0.0, 1.0]], 1.0])
    def test_rejects_a_center_that_is_not_a_finite_vector(self, center):
        with pytest.raises(ValueError):
            initial_grid(center, 2)

    @pytest.mark.parametrize("k", [2.5, 0, True])
    def test_rejects_a_point_count_that_is_not_a_count(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            initial_grid([0.0, 1.0], k)
