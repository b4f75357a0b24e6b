"""The benchmark's workloads: the CLI arguments each one runs, its inputs and
the check of its outputs.

prepare() writes a workload's inputs, if it has any, before timing starts.
Each check returns an Outcome. A run fails on a nonzero exit, a FAIL
criterion, a missing trajectory or a final state out of tolerance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# the paper's criterion on the final state, ||x_f - x*||_inf
ERR_TOL = 1e-4
# residual() and residual_projection_form() are the same map in exact
# arithmetic; at ||x*|| ~ 1 and ||A|| ~ 3 they differ by rounding only
RESIDUAL_AGREE_TOL = 1e-9
OK_TERMINATIONS = ("ReachedTf", "ResidualEvent")


@dataclass
class Outcome:
    trajectories_ok: int
    failures: list[str]
    # must repeat exactly between runs of the same code and seed
    counters: dict = field(default_factory=dict)
    # SHA-256 of each CSV, recorded for information, not compared
    sha256: dict = field(default_factory=dict)


def _csv_files(out_dir: Path, names) -> tuple[list[str], dict, dict]:
    missing, sizes, digests = [], {}, {}
    for name in names:
        path = out_dir / name
        if not path.is_file():
            missing.append(f"missing trajectory {name}")
            continue
        sizes[name] = path.stat().st_size
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        digests[name] = digest.hexdigest()
    return missing, sizes, digests


def _read_json(path: Path, failures: list[str]):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        failures.append(f"cannot read {path.name}: {e}")
        return None


class PaperSuite:
    """The paper's experiment suite, `socave suite --name paper-examples`."""

    name = "paper_suite"
    why = ("ROADMAP's end-to-end run: 29 trajectories, 23 MB of CSV at every step, "
           "23 n=2 toys; the only workload where reporting takes a large share; "
           "fixed tf, no certificate")
    trajectories = 29
    dominant = ("reporting",)

    def __init__(self, tridiag_n: int = 1000):
        # tridiag_n != 1000 shrinks the suite's large run, for the smoke
        # test; only probe_traced.py can do that, so untraced runs cannot
        self.probe_opts = ("--suite-tridiag-n", str(tridiag_n)) if tridiag_n != 1000 else ()

    def prepare(self, work_dir: Path) -> None:
        """The suite's inputs are built in."""

    def argv(self, out_dir: Path) -> list[str]:
        return ["suite", "--name", "paper-examples", "--out-dir", str(out_dir)]

    def check(self, out_dir: Path, exit_code: int) -> Outcome:
        failures = [] if exit_code == 0 else [f"exit code {exit_code}"]
        summary = _read_json(out_dir / "summary.json", failures)
        if summary is None:
            return Outcome(0, failures)
        criteria = summary.get("criteria", {})
        if len(criteria) != 5:
            failures.append(f"expected 5 criteria, got {len(criteria)}")
        failures += [f"criterion {k} FAIL" for k, ok in criteria.items() if not ok]
        names = [f"tridiag_n{summary[key]['n']}_gamma{run['gamma']:g}.csv"
                 for key in ("tridiag_n100", "tridiag_n1000")
                 for run in summary[key]["runs"]]
        names += [f"toy_{toy}_{j:02d}.csv"
                  for toy, result in summary["toys"].items()
                  for j in range(len(result["runs"]))]
        if len(names) != self.trajectories:
            failures.append(f"summary lists {len(names)} trajectories, "
                            f"expected {self.trajectories}")
        missing, sizes, digests = _csv_files(out_dir, names)
        failures += missing
        return Outcome(0 if failures else len(names), failures,
                       {"csv_bytes": sizes}, digests)


class TridiagSolve:
    """`socave solve` on the built-in n = 1000 tridiagonal problem."""

    name = "tridiag_1000"
    probe_opts = ()
    why = ("one dense 1000-dim cone block to a fixed tf: the two matvecs per RHS "
           "(model, dynamics) and the sigma_min certificate dominate; soc and reporting do little")
    trajectories = 1
    dominant = ("model", "dynamics")

    def __init__(self, n: int = 1000):
        self.n = n

    def prepare(self, work_dir: Path) -> None:
        """The problem is built in."""

    def argv(self, out_dir: Path) -> list[str]:
        # fixed tf, not --stop-residual: at gamma = 200 the residual hovers
        # near the rtol level, so an event stop would make the work noisy
        return ["solve", "--builtin", "tridiag", "--n", str(self.n), "--gamma", "200",
                "--tspan", "0,0.3", "--x0", "zeros", "--record-stride", "1000",
                "--out", str(out_dir / "traj.csv"), "--report", str(out_dir / "report.json")]

    def check(self, out_dir: Path, exit_code: int) -> Outcome:
        failures = [] if exit_code == 0 else [f"exit code {exit_code}"]
        report = _read_json(out_dir / "report.json", failures)
        missing, sizes, digests = _csv_files(out_dir, ["traj.csv"])
        failures += missing
        if report is None:
            return Outcome(0, failures)
        # the known solution of example_tridiag, written out independently
        x_star = np.tile([-1.0, 1.0], self.n // 2)
        err = float(np.max(np.abs(np.asarray(report["final_state"]) - x_star)))
        if err > ERR_TOL:
            failures.append(f"||x_f - x*||_inf = {err:.3e} > {ERR_TOL:g}")
        counters = {"steps": [[report["n_accepted"], report["n_rejected"]]], "csv_bytes": sizes}
        return Outcome(0 if failures else 1, failures, counters, digests)


class ManyBlockSolve:
    """`socave solve` from 3 starts on a seeded many-block random_unique instance.

    Three starts keep one CLI run near 4 s (about 1.2 s a start on a 2-vCPU
    Xeon), so that a 30 s benchmark run takes eight or so samples of it.
    """

    name = "manyblock_multistart"
    probe_opts = ()
    why = ("random_unique n=200 over 66 3-blocks and a 2-block, from --instance-seed (default 1), "
           "3 starts, residual-event stop: soc's per-block loops dominate; matvecs, CSV are small")
    trajectories = 3
    dominant = ("soc",)
    starts = 3

    def __init__(self, seed: int = 1, blocks: tuple[int, ...] = (3,) * 66 + (2,)):
        self.seed = seed
        self.blocks = blocks
        self.problem = self.x_star = self.path = None

    def prepare(self, work_dir: Path) -> None:
        from socave.model import save_problem
        from socave.problems import random_unique
        from socave.soc import ConeStructure

        self.problem, self.x_star = random_unique(
            sum(self.blocks), ConeStructure(self.blocks), 0.5, self.seed)
        self.path = work_dir / f"problem_seed{self.seed}.json"
        save_problem(self.path, self.problem, self.x_star)

    def argv(self, out_dir: Path) -> list[str]:
        return ["solve", "--problem", str(self.path), "--gamma", "1", "--tspan", "0,10",
                "--x0", f"grid:{self.starts}", "--stop-residual", "1e-6",
                "--record-stride", "1000",
                "--out", str(out_dir / "traj.csv"), "--report", str(out_dir / "report.json")]

    def check(self, out_dir: Path, exit_code: int) -> Outcome:
        from socave.model import residual, residual_projection_form

        failures = [] if exit_code == 0 else [f"exit code {exit_code}"]
        reports = _read_json(out_dir / "report.json", failures)
        missing, sizes, digests = _csv_files(
            out_dir, [f"traj_{i:03d}.csv" for i in range(self.starts)])
        failures += missing
        if not isinstance(reports, list) or len(reports) != self.starts:
            return Outcome(0, failures + [f"expected {self.starts} reports"])
        ok = 0
        for i, rep in enumerate(reports):
            bad = []
            if rep["termination"] not in OK_TERMINATIONS:
                bad.append(f"termination {rep['termination']}")
            xf = np.asarray(rep["final_state"])
            err = float(np.max(np.abs(xf - self.x_star)))
            if err > ERR_TOL:
                bad.append(f"||x_f - x*||_inf = {err:.3e} > {ERR_TOL:g}")
            gap = float(np.max(np.abs(residual(self.problem, xf)
                                      - residual_projection_form(self.problem, xf))))
            if gap > RESIDUAL_AGREE_TOL:
                bad.append(f"residual forms disagree by {gap:.3e}")
            failures += [f"start {i}: {msg}" for msg in bad]
            ok += not bad
        counters = {"steps": [[r["n_accepted"], r["n_rejected"]] for r in reports],
                    "csv_bytes": sizes}
        return Outcome(0 if missing or exit_code else ok, failures, counters, digests)


WORKLOADS = {w.name: w for w in (PaperSuite, TridiagSolve, ManyBlockSolve)}
