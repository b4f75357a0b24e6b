"""Command-line front end.

Subcommands:
  solve   -- integrate the dynamical system for a problem, write CSV + report
  verify  -- test a candidate solution via the residual
  suite   -- reproduce the reference experiment suite

Exit codes: 0 success, 1 malformed input or an output that cannot be
written, 2 non-convergence / failed suite criterion, 3 verification failure.
main is the one error boundary: a bad input, or an output that cannot be
created or written (in either process of the suite), is one "error:" line on
stderr and exit 1; any other exception is a bug and propagates. run is the
process entry point: it ends the process at main's last write.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from .dynamics import DynamicsConfig
from .integrator import IntegratorOptions, Termination, integrate, time_to_tolerance
from .linalg import as_positive, as_tspan, as_vector, quoted, silent, vector_norm
from .model import (
    load_problem,
    residual,
    residual_projection_form,
    solvability_certificate,
)
from .problems import TOY_RHS, example_toy, example_tridiag, initial_grid
from .reporting import read_json, write_json, write_trajectory_csv


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are ValueErrors: exit 1 with one
    error line, not argparse's usage text and exit 2."""

    def error(self, message):
        raise ValueError(message)


def float_list(text: str) -> list[float]:
    """The comma list of numbers that --tspan and --time-to-tol take. argparse
    names this function when it cannot read a value ("invalid float_list
    value"), so its name has no leading underscore."""
    return [float(v) for v in text.split(",")] if text else []


def _load_cli_problem(args):
    """(problem, known x_star or None) from --problem or --builtin."""
    if args.n is not None and args.builtin != "tridiag":
        raise ValueError("--n applies only to --builtin tridiag")
    if args.problem:
        return load_problem(args.problem)
    if args.builtin == "tridiag":
        if args.n is None:
            raise ValueError("--builtin tridiag requires --n")
        return example_tridiag(args.n)
    return example_toy(args.builtin), None


def _load_vector_file(path, n: int) -> np.ndarray:
    """The vector of dimension n held, as a flat list, in the JSON file at path."""
    return read_json(path, lambda data: as_vector(data, n, "entries"))


def _resolve_starts(spec: str, n: int, x_star) -> np.ndarray:
    """x0 sources: 'zeros', 'grid:<k>', a file path, or a comma list."""
    if spec == "zeros":
        return np.zeros((1, n))
    is_grid = spec.startswith("grid:")
    if not is_grid and os.path.exists(spec):
        return _load_vector_file(spec, n).reshape(1, -1)
    try:
        if is_grid:
            center = x_star if x_star is not None else np.zeros(n)
            return initial_grid(center, int(spec.split(":", 1)[1]))
        return as_vector([float(v) for v in spec.split(",")], n).reshape(1, -1)
    except ValueError as e:
        raise ValueError(f"bad --x0 {quoted(spec)}: {e}") from e


def _finite_or_none(v: float) -> float | None:
    """v, or None (JSON null) when it is not finite: RFC 8259 JSON has no
    inf or nan."""
    return v if math.isfinite(v) else None


def _indexed_path(path: str, idx: int, total: int) -> str:
    if total == 1:
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}_{idx:03d}{ext}"


def _solve_start(p, cfg, x0, tspan, opts, head: dict, report_tols, out_path):
    """Integrate from x0 and write its CSV to out_path: (report, printed line,
    ok). The report starts with head. The trajectory lives only through this
    call."""
    t_start = time.perf_counter()
    traj = integrate(p, cfg, x0, tspan, opts)
    wall = time.perf_counter() - t_start
    rnorm = float(traj.residual_norms[-1])  # the last row is the final state
    report = {
        **head,
        "termination": traj.termination.value,
        "final_state": traj.final_state.tolist(),
        "final_residual_norm": _finite_or_none(rnorm),
        "time_to_tolerance": {format(tol, "g"): time_to_tolerance(traj, tol)
                              for tol in report_tols},
        "wall_time_s": wall,
        "n_accepted": traj.n_accepted,
        "n_rejected": traj.n_rejected,
        "n_rejected_nonfinite": traj.n_rejected_nonfinite,
        "n_rhs_evals": traj.n_rhs_evals,
    }
    line = f"{head['problem']}: termination={traj.termination.value} final_residual={rnorm:.3e}"
    write_trajectory_csv(out_path, traj)
    return report, line, traj.termination in (Termination.REACHED_TF, Termination.RESIDUAL_EVENT)


def cmd_solve(args) -> int:
    p, x_star = _load_cli_problem(args)
    tspan = as_tspan(args.tspan)
    starts = _resolve_starts(args.x0, p.n, x_star)
    cfg = DynamicsConfig(args.gamma)
    opts = IntegratorOptions(rtol=args.rtol, atol=args.atol,
                             stop_on_residual=args.stop_residual,
                             record_stride=args.record_stride)
    report_tols = [as_positive(tol, "--time-to-tol") for tol in args.time_to_tol]
    if len({format(tol, "g") for tol in report_tols}) != len(set(report_tols)):
        raise ValueError(f"--time-to-tol {args.time_to_tol} holds two values with one report key")
    if report_tols and opts.record_stride != 1:
        # time_to_tolerance sees only the recorded rows
        raise ValueError("--time-to-tol needs --record-stride 1")
    cert = solvability_certificate(p)  # a size limit raises ValueError
    head = {"problem": p.name or (args.problem or args.builtin),
            "certificate": {"sigma_min": _finite_or_none(cert.sigma_min),
                            "verdict": cert.verdict.value},
            "gamma": args.gamma,
            "tspan": list(tspan)}

    reports = []
    lines = []
    ok = True
    for i, x0 in enumerate(starts):
        report, line, solved = _solve_start(p, cfg, x0, tspan, opts, head, report_tols,
                                            _indexed_path(args.out, i, len(starts)))
        reports.append(report)
        lines.append(line)
        ok = ok and solved

    write_json(args.report, reports[0] if len(reports) == 1 else reports)
    for line in lines:
        print(line)
    return 0 if ok else 2


@silent  # for r_direct - r_proj: each residual form is silent on its own
def cmd_verify(args) -> int:
    p, _ = _load_cli_problem(args)
    x = _load_vector_file(args.x, p.n)
    tol = as_positive(args.tol, "tol")
    r_direct = residual(p, x)
    r_proj = residual_projection_form(p, x)
    rnorm = vector_norm(r_direct)
    agreement = float(np.max(np.abs(r_direct - r_proj)))
    print(f"residual_norm={rnorm:.17g}")
    print(f"residual_form_agreement={agreement:.3e}")
    if rnorm <= tol:
        print("solution: yes")
        return 0
    print("solution: no")
    return 3


def cmd_suite(args) -> int:
    from .experiments import run_paper_suite

    summary = run_paper_suite(out_dir=args.out_dir)
    path = os.path.join(args.out_dir, "summary.json")
    write_json(path, summary)
    for name, passed in summary["criteria"].items():
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    print(f"summary written to {path}")
    return 0 if summary["all_ok"] else 2


def _add_problem_source(sp):
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", help="problem JSON file")
    group.add_argument("--builtin", choices=["tridiag", *TOY_RHS],
                       help="built-in problem")
    sp.add_argument("--n", type=int, help="dimension for --builtin tridiag")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="socave",
        description="Dynamical-system solver for absolute value equations "
                    "over second-order cones",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="integrate the dynamical system")
    _add_problem_source(sp)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--tspan", type=float_list, required=True, help="T0,TF")
    sp.add_argument("--x0", default="zeros",
                    help="'zeros', 'grid:<k>', comma list, or JSON file")
    sp.add_argument("--rtol", type=float, default=1e-6)
    sp.add_argument("--atol", type=float, default=1e-9)
    sp.add_argument("--stop-residual", type=float, default=None)
    sp.add_argument("--record-stride", type=int, default=1)
    sp.add_argument("--time-to-tol", type=float_list, default="",
                    help="comma list of residual tolerances to time")
    sp.add_argument("--out", required=True, help="trajectory CSV path")
    sp.add_argument("--report", required=True, help="report JSON path")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="check a candidate solution")
    _add_problem_source(sp)
    sp.add_argument("--x", required=True, help="candidate vector JSON file")
    sp.add_argument("--tol", type=float, required=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("suite", help="run the reference experiment suite")
    sp.add_argument("--name", choices=["paper-examples"], required=True)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OSError as e:
        # every read goes through read_json, which makes its OSError a
        # ValueError, so this is an output not created or written (in either
        # process of the suite), or one without a file, say a failed fork
        message = str(e) if e.filename is None else f"cannot write {e.filename}: {e.strerror}"
    except (ValueError, TypeError, OverflowError, MemoryError) as e:
        message = str(e)
    # one line whatever the message holds, e.g. an argument with a newline
    print("error:", " ".join(message.splitlines()), file=sys.stderr)
    return 1


def run() -> None:
    """The entry point of `python -m socave.cli` and of the console script.
    It runs main, flushes stdout and stderr, and ends the process with main's
    code through os._exit. That skips the interpreter's teardown, so no
    atexit handler runs; every file is closed by its `with` before main
    returns. An exception from main, SystemExit from -h among them,
    propagates. A flush that fails, say on a pipe whose reader has gone,
    leaves the exit to the interpreter, which reports it."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
