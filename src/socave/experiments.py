"""Reproduction of the reference experiments with machine-checkable assertions.

Each run_* function returns a plain dict of measurements plus pass/fail
flags; run_paper_suite(out_dir) makes and checks its directory, writes a
CSV per trajectory there and sums them up. Everything is deterministic.
"""

from __future__ import annotations

import os
import pickle

import numpy as np

from .dynamics import DynamicsConfig, rhs_and_residual
from .integrator import IntegratorOptions, integrate, integrate_many, time_to_tolerance
from .linalg import vector_norm
from .model import AveProblem
from .problems import TOY_RHS, example_toy, example_tridiag, initial_grid
from .reporting import write_trajectory_csv

TRIDIAG_GAMMAS = (50.0, 100.0, 200.0)
TRIDIAG_TSPAN = (0.0, 0.1)
TRIDIAG_ERR_TOL = 1e-4
TOY_GAMMA = 2.0
TOY_TSPANS = {"multi": (0.0, 5.0), "unique": (0.0, 5.0), "none": (0.0, 10.0)}
TOY_GRID_POINTS = {"multi": 7, "unique": 8, "none": 8}


def multi_sign_violation(p: AveProblem, cfg: DynamicsConfig, states) -> float:
    """Worst violation of the 'multi' problem's per-region derivative signs.

    At every state (a row of states): dx2/dt opposes x2; dx1/dt vanishes in
    region (a) and is nonnegative in regions (b), (c). Returns the largest
    amount by which any of these fails (0 for a clean trajectory); a nan
    amount is not a failure.
    """
    x = np.asarray(states, dtype=float)
    v = rhs_and_residual(p, cfg, x)[0]
    in_a = x[:, 0] >= np.abs(x[:, 1])  # region (a), x1 >= |x2|, row by row
    terms = np.concatenate((x[:, 1] * v[:, 1],  # opposite signs => <= 0
                            np.where(in_a, np.abs(v[:, 0]), -v[:, 0])))
    # only a term > 0 can raise the worst from 0, and a nan is never > 0
    return float(np.max(terms, initial=0.0, where=terms > 0))


def _tridiag_run(p: AveProblem, x_star, gamma: float, out_dir) -> dict:
    """One gamma of run_tridiag_experiment. Its trajectory lives only
    through this call, not through the next gamma's."""
    traj = integrate(p, DynamicsConfig(gamma), np.zeros(p.n), TRIDIAG_TSPAN, IntegratorOptions())
    write_trajectory_csv(os.path.join(out_dir, f"tridiag_n{p.n}_gamma{gamma:g}.csv"), traj)
    return {
        "gamma": gamma,
        "termination": traj.termination.value,
        "final_err_inf": float(np.max(np.abs(traj.final_state - x_star))),
        "time_to_tol": time_to_tolerance(traj, TRIDIAG_ERR_TOL),
    }


def run_tridiag_experiment(n: int, out_dir) -> dict:
    """Tridiagonal instance of dimension n from the zero start, at each of
    TRIDIAG_GAMMAS over TRIDIAG_TSPAN, a CSV per gamma written to out_dir:
    convergence to the known solution and the speed-up from larger gamma."""
    p, x_star = example_tridiag(n)
    runs = [_tridiag_run(p, x_star, gamma, out_dir) for gamma in TRIDIAG_GAMMAS]
    times = [r["time_to_tol"] for r in runs]
    monotone = (all(t is not None for t in times)
                and all(a > b for a, b in zip(times, times[1:])))
    return {
        "n": n,
        "runs": runs,
        "final_err_ok": runs[-1]["final_err_inf"] <= TRIDIAG_ERR_TOL,
        "gamma_speedup_ok": monotone,
    }


def _toy_grid(name: str) -> np.ndarray:
    center = np.array([0.0, 1.0]) if name == "unique" else np.zeros(2)
    return initial_grid(center, TOY_GRID_POINTS[name])


def run_toy_experiment(name: str, out_dir, trajs) -> dict:
    """One of the 2-d instances, judged from trajs, the trajectories from
    its deterministic start grid (run_toy_experiments integrates them), a
    CSV per start written to out_dir."""
    p = example_toy(name)
    cfg = DynamicsConfig(TOY_GAMMA)
    runs = []
    for j, (x0, traj) in enumerate(zip(_toy_grid(name), trajs)):
        xf = traj.final_state
        run = {
            "x0": x0.tolist(),
            "termination": traj.termination.value,
            "final_state": xf.tolist(),
            "final_residual_norm": float(traj.residual_norms[-1]),
        }
        if name == "multi":
            run["sign_violation"] = multi_sign_violation(p, cfg, traj.states)
            run["ok"] = (abs(xf[1]) <= 1e-4 and xf[0] >= -1e-6
                         and run["final_residual_norm"] <= 1e-3
                         and run["sign_violation"] <= 1e-12)
        elif name == "unique":
            run["dist_to_solution"] = vector_norm(xf - [0.0, 1.0])
            run["ok"] = run["dist_to_solution"] <= 1e-3
        else:  # 'none': no equilibria, x1 must grow and the residual stay large
            x1 = traj.states[:, 0]
            run["x1_strictly_increasing"] = bool(np.all(np.diff(x1) > 0))
            run["min_residual_norm"] = float(np.min(traj.residual_norms))
            run["ok"] = (run["x1_strictly_increasing"]
                         and run["min_residual_norm"] >= 0.1)
        runs.append(run)
        write_trajectory_csv(os.path.join(out_dir, f"toy_{name}_{j:02d}.csv"), traj)
    return {"name": name, "runs": runs, "all_ok": all(r["ok"] for r in runs)}


def run_toy_experiments(out_dir) -> dict:
    """{name: run_toy_experiment(name, out_dir, trajs)} for the 2-d instances
    of TOY_RHS, trajs from one batch of the starts of every grid: the
    instances share A and the cone, and each row has its own b and span."""
    problems = {name: example_toy(name) for name in TOY_RHS}
    grids = [_toy_grid(name) for name in TOY_RHS]
    rows = [name for name, grid in zip(TOY_RHS, grids) for _ in grid]
    trajs = integrate_many([problems[name] for name in rows], DynamicsConfig(TOY_GAMMA),
                           np.concatenate(grids), [TOY_TSPANS[name] for name in rows],
                           IntegratorOptions())
    results, k = {}, 0
    for name, grid in zip(TOY_RHS, grids):
        results[name] = run_toy_experiment(name, out_dir, trajs[k:k + len(grid)])
        k += len(grid)
    return results


def _fork_alongside(child, here):
    """(child(), here()), with child run in a forked process while here runs
    in this one.

    The child sends back its result, or any exception it raised (SystemExit
    too), pickled through a pipe, and leaves only through os._exit, so it
    never runs the caller's code. It is reaped on every path. An exception
    from here is raised first; otherwise the child's is raised here, and a
    child that exits without sending a result (say, an unpicklable one)
    gives a RuntimeError.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            try:
                result = (True, child())
            except BaseException as e:
                result = (False, e)
            with open(w, "wb") as fh:
                pickle.dump(result, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        mine = here()
    finally:
        # read to EOF first: a child blocked on a full pipe would never exit
        with open(r, "rb") as fh:
            data = fh.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise RuntimeError(f"the forked child exited with status {status} "
                           "without a result")
    ok, theirs = pickle.loads(data)
    if not ok:
        raise theirs
    return theirs, mine


def run_paper_suite(out_dir) -> dict:
    """Full reference-experiment suite, its CSVs written to out_dir, which it
    makes and checks first; returns summary with per-criterion flags.

    The experiments are independent of each other, so a child forked first
    runs the n = 1000 tridiagonal one and writes its CSVs, while this
    process runs n = 100 and then the toys, all 23 starts as one batch; only
    the child's result dict comes back. The outputs are those of a serial
    run. A failure in the child is raised here.
    """
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK | os.X_OK):
        raise ValueError(f"cannot write {out_dir}: directory is not writable")

    # run_tridiag_experiment is looked up at each call, so a replacement
    # bound in this module before the fork runs in both processes; n goes by
    # keyword, which such a replacement may read
    def here():
        small = run_tridiag_experiment(n=100, out_dir=out_dir)
        return small, run_toy_experiments(out_dir=out_dir)

    tridiag_large, (tridiag_small, toys) = _fork_alongside(
        lambda: run_tridiag_experiment(n=1000, out_dir=out_dir), here)
    criteria = {
        "tridiag_final_error": tridiag_large["final_err_ok"],
        "tridiag_gamma_speedup": tridiag_large["gamma_speedup_ok"],
        "multi_solutions_reached": toys["multi"]["all_ok"],
        "unique_solution_reached": toys["unique"]["all_ok"],
        "no_solution_divergence": toys["none"]["all_ok"],
    }
    return {
        "criteria": criteria,
        "all_ok": all(criteria.values()),
        "tridiag_n100": tridiag_small,
        "tridiag_n1000": tridiag_large,
        "toys": toys,
    }
