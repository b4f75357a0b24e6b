"""End-to-end acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with pytest -s or on failure)
and asserts at the stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from socave.dynamics import DynamicsConfig, lyapunov_value
from socave.integrator import IntegratorOptions, integrate, time_to_tolerance
from socave.model import AveProblem, contraction_gap, residual, residual_projection_form
from socave.problems import example_tridiag, random_unique
from socave.soc import (
    ConeStructure,
    complementarity_residual,
    in_cone,
    jordan_product,
    project_cone,
    soc_abs,
    spectral_decompose,
)
from socave.experiments import run_toy_experiment, run_tridiag_experiment


def check(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name} failed: {detail}"


def random_structure(rng, max_dim, min_first_block=1):
    first = int(rng.integers(min_first_block, max(min_first_block + 1, max_dim // 2)))
    blocks = [first]
    remaining = int(rng.integers(0, max_dim - first + 1))
    while remaining > 0:
        b = int(rng.integers(1, remaining + 1))
        blocks.append(b)
        remaining -= b
    return ConeStructure(tuple(blocks))


def test_criterion_01_tridiag_reproduction():
    t_start = time.perf_counter()
    out = run_tridiag_experiment(n=1000)
    elapsed = time.perf_counter() - t_start
    times = [r["time_to_tol"] for r in out["runs"]]
    check("criterion 1: tridiag n=1000 final error <= 1e-4",
          out["final_err_ok"], f"err_inf={out['runs'][-1]['final_err_inf']:.2e}")
    check("criterion 1: time-to-tolerance decreases with gamma",
          out["gamma_speedup_ok"], f"times={times}")
    check("criterion 1: runtime <= 60 s", elapsed <= 60.0, f"{elapsed:.1f}s")


def test_criterion_02_infinitely_many_solutions():
    out = run_toy_experiment("multi")
    worst_sign = max(r["sign_violation"] for r in out["runs"])
    check("criterion 2: all trajectories reach the solution ray with clean signs",
          out["all_ok"], f"max sign violation {worst_sign:.2e}")


def test_criterion_03_unique_solution():
    out = run_toy_experiment("unique")
    worst = max(r["dist_to_solution"] for r in out["runs"])
    check("criterion 3: all finals within 1e-3 of (0,1)",
          out["all_ok"], f"max dist {worst:.2e}")


def test_criterion_04_no_solutions():
    out = run_toy_experiment("none")
    min_res = min(r["min_residual_norm"] for r in out["runs"])
    check("criterion 4: x1 strictly increasing, residual >= 0.1",
          out["all_ok"], f"min residual {min_res:.3f}")


def test_criterion_05_residual_form_equivalence():
    rng = np.random.default_rng(2024)
    counts = {"K": 0, "-K": 0, "neither": 0}
    worst = 0.0
    for i in range(1000):
        cone = random_structure(rng, 50, min_first_block=2)
        n = cone.dim
        A = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        p = AveProblem(A, b, cone)
        kind = i % 3
        if kind in (0, 1):
            # force membership: per-block interior point of K (or its negative)
            x = np.empty(n)
            for blk, sl in zip(cone.blocks, cone.slices()):
                tail = rng.standard_normal(blk - 1)
                x[sl][1:] = tail
                x[sl][0] = np.linalg.norm(tail) + rng.uniform(0.1, 2.0)
            if kind == 1:
                x = -x
        else:
            # first block strictly between the cones
            x = rng.standard_normal(n)
            tail = rng.standard_normal(cone.blocks[0] - 1)
            tail *= 2.0 / np.linalg.norm(tail)
            x[1:cone.blocks[0]] = tail
            x[0] = rng.uniform(-1.0, 1.0)
        if in_cone(x, cone):
            counts["K"] += 1
        elif in_cone(-x, cone):
            counts["-K"] += 1
        else:
            counts["neither"] += 1
        diff = np.max(np.abs(residual(p, x) - residual_projection_form(p, x)))
        worst = max(worst, float(diff))
    check("criterion 5: residual forms agree within 1e-10", worst <= 1e-10,
          f"max diff {worst:.2e}")
    check("criterion 5: all membership cases exercised >= 100 times",
          all(c >= 100 for c in counts.values()), str(counts))


def test_criterion_06_complementarity_oracle():
    rng = np.random.default_rng(7)
    worst_good = 0.0
    worst_bad = math.inf
    for _ in range(500):
        cone = random_structure(rng, 12)
        s = np.empty(cone.dim)
        t = np.empty(cone.dim)
        mu_dirs = []  # per block: the frame vector carrying t's coefficient
        for blk, sl in zip(cone.blocks, cone.slices()):
            mu = rng.uniform(0.5, 3.0)
            lam = rng.uniform(0.0, 3.0)
            if blk == 1:
                s[sl] = lam if rng.random() < 0.5 else 0.0
                t[sl] = 0.0 if s[sl][0] > 0 else mu
                mu_dirs.append(np.array([1.0]) if t[sl][0] > 0 else None)
                continue
            d = rng.standard_normal(blk - 1)
            d /= np.linalg.norm(d)
            e1 = 0.5 * np.concatenate(([1.0], -d))
            e2 = 0.5 * np.concatenate(([1.0], d))
            # complementary frame coefficients: s on e2, t on e1
            s[sl] = lam * e2
            t[sl] = mu * e1
            mu_dirs.append(e1)
        res = complementarity_residual(s, t, cone)
        worst_good = max(worst_good, res)
        # perturb s along a frame direction where t has positive weight
        delta = rng.uniform(1e-3, 1e-1)
        s_bad = s.copy()
        for sl, e in zip(cone.slices(), mu_dirs):
            if e is not None:
                s_bad[sl] += delta * e
                break
        else:
            # t is identically zero: push s's first block out of K instead
            s_bad[: cone.blocks[0]] = 0.0
            s_bad[0] = -delta
        worst_bad = min(worst_bad, complementarity_residual(s_bad, t, cone))
    check("criterion 6: constructed pairs have residual <= 1e-10",
          worst_good <= 1e-10, f"max {worst_good:.2e}")
    check("criterion 6: perturbed pairs have residual > 1e-6",
          worst_bad > 1e-6, f"min {worst_bad:.2e}")


def test_criterion_07_contraction_inequality():
    rng = np.random.default_rng(55)
    worst = math.inf
    for seed in range(50):
        n = 5 + seed % 26
        cone = random_structure(rng, n)
        # pad the structure to exactly n
        pad = n - cone.dim
        blocks = cone.blocks + ((pad,) if pad else ())
        cone = ConeStructure(blocks)
        p, x_star = random_unique(n, cone, 0.1, seed)
        for _ in range(100):
            x = x_star + rng.standard_normal(n) * 2
            worst = min(worst, contraction_gap(p, x, x_star))
    check("criterion 7: contraction gap >= -1e-10", worst >= -1e-10,
          f"min gap {worst:.2e}")


def test_criterion_08_lyapunov_monotonicity():
    def monotone(traj, x_star):
        vals = [lyapunov_value(x, x_star) for x in traj.states]
        return all(b <= a + 1e-8 for a, b in zip(vals, vals[1:]))

    p, x_star = example_tridiag(100)
    traj = integrate(p, DynamicsConfig(10.0), np.zeros(100), (0.0, 1.0))
    ok = monotone(traj, x_star)
    rng = np.random.default_rng(8)
    for seed in range(100, 110):
        q, q_star = random_unique(10, ConeStructure((4, 6)), 0.1, seed)
        x0 = q_star + 2 * rng.standard_normal(10)
        traj = integrate(q, DynamicsConfig(5.0), x0, (0.0, 2.0))
        ok = ok and monotone(traj, q_star)
    check("criterion 8: Lyapunov value nonincreasing along trajectories", ok)


def test_criterion_09_jordan_algebra_suite():
    rng = np.random.default_rng(9)
    worst = {"reconstruction": 0.0, "abs_square": 0.0, "nonexpansive": 0.0,
             "moreau": 0.0, "projection_char": 0.0}
    for _ in range(1000):
        cone = random_structure(rng, 10, min_first_block=2)
        n = cone.dim
        x = rng.standard_normal(n) * 2
        y = rng.standard_normal(n) * 2
        for sl in cone.slices():
            if x[sl].shape[0] >= 2:
                d = spectral_decompose(x[sl])
                worst["reconstruction"] = max(
                    worst["reconstruction"], float(np.max(np.abs(d.reconstruct() - x[sl]))))
        ax = soc_abs(x, cone)
        worst["abs_square"] = max(worst["abs_square"], float(np.max(np.abs(
            jordan_product(ax, ax, cone) - jordan_product(x, x, cone)))))
        worst["nonexpansive"] = max(worst["nonexpansive"], float(
            np.linalg.norm(ax - soc_abs(y, cone)) - np.linalg.norm(x - y)))
        pos = project_cone(x, cone)
        neg = project_cone(-x, cone)
        worst["moreau"] = max(worst["moreau"],
                              float(np.max(np.abs(x - (pos - neg)))),
                              abs(float(pos @ neg)))
        v = project_cone(rng.standard_normal(n) * 3, cone)
        worst["projection_char"] = max(worst["projection_char"],
                                       float((x - pos) @ (v - pos)))
    check("criterion 9: spectral reconstruction within 1e-12",
          worst["reconstruction"] <= 1e-12, f"{worst['reconstruction']:.2e}")
    check("criterion 9: |x| o |x| = x o x within 1e-10",
          worst["abs_square"] <= 1e-10, f"{worst['abs_square']:.2e}")
    check("criterion 9: |.| nonexpansive within 1e-12",
          worst["nonexpansive"] <= 1e-12, f"{worst['nonexpansive']:.2e}")
    check("criterion 9: Moreau decomposition within 1e-10",
          worst["moreau"] <= 1e-10, f"{worst['moreau']:.2e}")
    check("criterion 9: projection characterization within 1e-10",
          worst["projection_char"] <= 1e-10, f"{worst['projection_char']:.2e}")


def test_criterion_10_integrator_order():
    # A = [[2]], b = 0 on one size-1 block at gamma 0.5: for x > 0 the field
    # is -x exactly, so x(1) = exp(-1) from x0 = 1
    p = AveProblem(np.array([[2.0]]), np.zeros(1), ConeStructure((1,)))
    errs = []
    tols = (1e-4, 1e-6, 1e-8)
    for rtol in tols:
        opts = IntegratorOptions(rtol=rtol, atol=rtol * 1e-3)
        traj = integrate(p, DynamicsConfig(0.5), [1.0], (0.0, 1.0), opts)
        errs.append(abs(traj.final_state[0] - math.exp(-1.0)))
    slope = (math.log(errs[0]) - math.log(errs[-1])) / (math.log(tols[0]) - math.log(tols[-1]))
    check("criterion 10: global error scales as tol^(1.0 +/- 0.2)",
          0.8 <= slope <= 1.2, f"slope {slope:.3f}, errors {errs}")
