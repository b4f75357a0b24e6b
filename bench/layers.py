"""What the traced run wraps in socave, and the per-layer metrics derived from it.

Layers are the modules of src/socave. Each traced function gives a span
named "<module>.<function>"; a module's self time is the self time of its
spans, and the cli layer is whatever part of the CLI's main() no top-level
span covers.
"""

from __future__ import annotations

import os
import statistics

from spans import covered, self_times

MODULES = ("cli", "problems", "model", "linalg", "soc", "dynamics",
           "integrator", "reporting", "experiments")


def _count_blocks(tracer, args):
    tracer.add("soc.blocks", len(args[1].blocks))


def _count_matvec(tracer, args):
    # residual() does A @ x and rhs() adds A.T @ r: one dense n-by-n
    # matvec each, 8 n^2 bytes of A read (computed, not measured)
    tracer.add("model.matvecs")
    tracer.add("model.matvec_bytes_computed", 8 * args[0].A.size)


def _count_steps(tracer, args, traj):
    tracer.add("integrator.steps_accepted", traj.n_accepted)
    tracer.add("integrator.steps_rejected", traj.n_rejected)


def _count_csv_bytes(tracer, args, _):
    tracer.add("reporting.csv_bytes", os.path.getsize(args[0]))


# (module, function, on_call, on_return)
TARGETS = (
    ("integrator", "integrate", None, _count_steps),
    ("integrator", "rk23_step", None, None),
    ("dynamics", "rhs", _count_matvec, None),
    ("model", "residual", _count_matvec, None),
    ("soc", "soc_abs", _count_blocks, None),
    ("linalg", "as_vector", None, None),
    ("model", "solvability_certificate", None, None),
    ("model", "load_problem", None, None),
    ("reporting", "write_trajectory_csv", None, _count_csv_bytes),
    ("problems", "example_tridiag", None, None),
    ("problems", "example_toy", None, None),
    ("problems", "initial_grid", None, None),
    ("experiments", "run_paper_suite", None, None),
    ("experiments", "run_tridiag_experiment", None, None),
    ("experiments", "run_toy_experiment", None, None),
    ("experiments", "multi_sign_violation", None, None),
)

# name -> unit of the metrics every workload measures; "count" and "B"
# metrics must repeat exactly between runs
PER_LAYER = {
    "soc.abs_calls": "count",
    "soc.abs_self_s": "s",
    "soc.abs_us_per_block": "us",
    "model.residual_calls": "count",
    "model.residual_self_s": "s",
    "dynamics.rhs_calls": "count",
    "dynamics.rhs_self_s": "s",
    "model.matvecs": "count",
    "model.matvec_bytes_computed": "B",
    "integrator.rhs_per_accepted_step": "ratio",
    "integrator.steps_accepted": "count",
    "integrator.steps_rejected": "count",
    "integrator.accept_ratio": "ratio",
    "integrator.integrate_s": "s",
    "integrator.step_s_p50": "s",
    "integrator.step_s_high": "s",
    "integrator.step_samples": "count",
    "integrator.loop_self_s": "s",
    "linalg.as_vector_calls": "count",
    "linalg.as_vector_s": "s",
    "reporting.csv_write_s": "s",
    "reporting.csv_bytes": "B",
    "reporting.csv_mb_per_s": "MB/s",
    "problems.build_s": "s",
    "cli.import_s": "s",
    "cli.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    **{f"{m}.wall_share": "%" for m in MODULES},
}

# Timings of layers that some workloads never enter (no certificate in the
# suite, no start grid for tridiag_1000, no experiments in `solve`): printed
# and recorded, but not declared, since they read 0 on every such run.
SOME_WORKLOADS = {
    "model.certificate_s": "s",
    "problems.grid_s": "s",
    "experiments.tridiag_s": "s",
    "experiments.toys_s": "s",
    "experiments.sign_check_s": "s",
}

EXACT_UNITS = ("count", "B")

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_pct(n: int) -> float:
    """The highest p in TAIL_LADDER that leaves at least ten of n samples
    above the p-th percentile; 50 when there are too few samples."""
    return next((p for p in TAIL_LADDER if n * (1 - p / 100) >= 10), 50.0)


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    `trace` holds the span lists (names, starts, ends, parents), the
    tracer counters, the window [main_start, main_end] of the CLI's main()
    and import_s; trace.overhead_s is filled in by the caller, which also
    has the untraced runs.
    """
    names, starts, ends, parents = (trace["names"], trace["starts"],
                                    trace["ends"], trace["parents"])
    counters = trace["counters"]
    selfs = self_times(starts, ends, parents)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    in_integrate = []
    rhs_in_integrate = 0
    steps = []
    for i, name in enumerate(names):
        dur = ends[i] - starts[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + selfs[i]
        parent = parents[i]
        inside = name == "integrator.integrate" or (parent >= 0 and in_integrate[parent])
        in_integrate.append(inside)
        if name == "dynamics.rhs" and inside:
            rhs_in_integrate += 1
        elif name == "integrator.rk23_step":
            steps.append(dur)

    main_s = trace["main_end"] - trace["main_start"]
    top = [(starts[i], ends[i]) for i, p in enumerate(parents) if p < 0]
    untraced = main_s - covered(top, trace["main_start"], trace["main_end"])
    accepted = counters.get("integrator.steps_accepted", 0)
    rejected = counters.get("integrator.steps_rejected", 0)
    blocks = counters.get("soc.blocks", 0)
    csv_s = total.get("reporting.write_trajectory_csv", 0.0)
    csv_bytes = counters.get("reporting.csv_bytes", 0)

    m = {
        "soc.abs_calls": calls.get("soc.soc_abs", 0),
        "soc.abs_self_s": own.get("soc.soc_abs", 0.0),
        "soc.abs_us_per_block": 1e6 * own.get("soc.soc_abs", 0.0) / blocks if blocks else 0.0,
        "model.residual_calls": calls.get("model.residual", 0),
        "model.residual_self_s": own.get("model.residual", 0.0),
        "dynamics.rhs_calls": calls.get("dynamics.rhs", 0),
        "dynamics.rhs_self_s": own.get("dynamics.rhs", 0.0),
        "model.matvecs": counters.get("model.matvecs", 0),
        "model.matvec_bytes_computed": counters.get("model.matvec_bytes_computed", 0),
        "model.certificate_s": total.get("model.solvability_certificate", 0.0),
        "integrator.rhs_per_accepted_step": rhs_in_integrate / accepted if accepted else 0.0,
        "integrator.steps_accepted": accepted,
        "integrator.steps_rejected": rejected,
        "integrator.accept_ratio": accepted / (accepted + rejected) if accepted else 0.0,
        "integrator.integrate_s": total.get("integrator.integrate", 0.0),
        "integrator.step_s_p50": statistics.median(steps) if steps else 0.0,
        "integrator.step_s_high": percentile(steps, tail_pct(len(steps))) if steps else 0.0,
        "integrator.step_samples": len(steps),
        "integrator.loop_self_s": own.get("integrator.integrate", 0.0),
        "linalg.as_vector_calls": calls.get("linalg.as_vector", 0),
        "linalg.as_vector_s": total.get("linalg.as_vector", 0.0),
        "reporting.csv_write_s": csv_s,
        "reporting.csv_bytes": csv_bytes,
        "reporting.csv_mb_per_s": csv_bytes / 1e6 / csv_s if csv_s else 0.0,
        "problems.build_s": sum(total.get(k, 0.0) for k in (
            "problems.example_tridiag", "problems.example_toy", "model.load_problem")),
        "problems.grid_s": total.get("problems.initial_grid", 0.0),
        "cli.import_s": trace["import_s"],
        "cli.untraced_s": untraced,
        "experiments.tridiag_s": total.get("experiments.run_tridiag_experiment", 0.0),
        "experiments.toys_s": total.get("experiments.run_toy_experiment", 0.0),
        "experiments.sign_check_s": total.get("experiments.multi_sign_violation", 0.0),
        "trace.spans": len(names),
    }
    shares = dict.fromkeys(MODULES, 0.0)
    shares["cli"] = untraced
    for name, seconds in own.items():
        shares[name.split(".", 1)[0]] += seconds
    for module, seconds in shares.items():
        m[f"{module}.wall_share"] = 100.0 * seconds / main_s if main_s else 0.0
    return m


def dominance(metrics: dict[str, float], expected: tuple[str, ...]) -> tuple[bool, str]:
    """Whether the expected modules' combined wall share beats every other module's."""
    group = sum(metrics[f"{m}.wall_share"] for m in expected)
    others = {m: metrics[f"{m}.wall_share"] for m in MODULES if m not in expected}
    rival = max(others, key=others.get)
    confirmed = group > others[rival]
    text = (f"{'+'.join(expected)} {group:.1f}% vs next {rival} {others[rival]:.1f}%: "
            f"{'confirmed' if confirmed else 'NOT confirmed'}")
    return confirmed, text
