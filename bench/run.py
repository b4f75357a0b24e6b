#!/usr/bin/env python3
"""Benchmark of the socave CLI, end to end and per layer.

    python3 bench/run.py                  # every workload, untraced then traced
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--instance-seed K]

Run from anywhere; it works on the checkout that holds it and builds
nothing (socave runs from src/). Each timed run is a fresh
`python3 -m socave.cli` process, started only after the previous one
exits: a closed loop with one client. --trace 0 gives the end-to-end
metrics: set-up time in fresh interpreters first, then one untimed
warm-up run, then untraced CLI runs for --seconds, with reference.py's
fixed task timed before the first and after each as a yardstick for the
host's speed. --trace 1 gives the per-layer metrics: traced runs of
probe_traced.py alternated with untraced runs, whose difference is
trace.overhead_s. Every run's outputs are checked. Files go to
.bench_runs/ in the checkout. The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from layers import (EXACT_UNITS, MODULES, PER_LAYER, SOME_WORKLOADS, dominance, layer_metrics,
                    percentile, tail_pct)
from workloads import WORKLOADS, ManyBlockSolve, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"

# BLAS threads of every CLI process. One: on a shared 2-vCPU VM two
# OpenBLAS threads busy-wait on each other, and when the host holds one
# vCPU back a 6 s suite run can take 30 to 60 s
BLAS_THREADS = 1
DEFAULT_SECONDS = 50  # run_seconds in BENCHMARK.json
SETUP_REPEATS = 9
TIME_LIMIT_S = 170.0  # every run of this script must end within 180 s
LAST_START_S = 120.0

# wall_vs_ref is the median CLI wall time over the mean time of
# reference.py's fixed task, run before the first timed CLI run and after
# each; solves_per_ref is passing trajectories per reference-task time.
# On a host whose speed swings by 1.5x for minutes at a time they follow
# the program, where the raw times in AS_MEASURED follow the host.
END_TO_END = {
    "wall_vs_ref": "ratio",
    "setup_s": "s",
    "solves_per_ref": "1/ref",
    "peak_rss_mb": "MB",
    "pass_frac": "fraction",
}
AS_MEASURED = {"wall_s": "s", "solves_per_s": "1/s", "reference_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(cmd: list[str], log_dir: Path, timeout: float) -> tuple[int, float, float | None]:
    """(exit code, wall seconds, peak RSS in MB) of one command, run through
    launch.py; stdout and stderr go to log_dir.

    After timeout seconds the launcher's whole process group is killed, and
    the command counts as failed: its wall time is the time up to the kill,
    and its peak RSS is unknown (None).
    """
    result = log_dir / "launch.json"
    t0 = time.perf_counter()
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py"), str(result), "--", *cmd],
                                cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            # the command itself is the launcher's child: wait until it is gone too
            while True:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
    if not result.is_file():
        return proc.returncode or -1, time.perf_counter() - t0, None
    launched = json.loads(result.read_text())
    return launched["exit_code"], launched["wall_s"], launched["peak_rss_mb"]


class Session:
    """One benchmark invocation: a workload, its seed and a time budget."""

    def __init__(self, workload, seed: int, seconds: float, work: Path = WORK):
        self.t_start = time.perf_counter()
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = work / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        workload.prepare(self.dir)
        self.n_runs = 0
        self.failures: list[str] = []
        self.sha256: dict = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def fresh_dir(self, kind: str) -> Path:
        self.n_runs += 1
        run_dir = self.dir / f"{kind}{self.n_runs:03d}"
        (run_dir / "out").mkdir(parents=True)
        return run_dir

    def child(self, cmd: list[str], run_dir: Path) -> tuple[int, float, float | None]:
        return run_child(cmd, run_dir, TIME_LIMIT_S - self.elapsed())

    def setup_time(self) -> float:
        run_dir = self.fresh_dir("setup")
        argv = [sys.executable, str(BENCH / "probe_setup.py"), "--", *self.wl.argv(run_dir / "out")]
        code, wall, _ = self.child(argv, run_dir)
        try:
            setup_s = json.loads((run_dir / "stdout.txt").read_text())["setup_s"]
        except (ValueError, KeyError) as e:
            # a failed set-up counts as a failed run; its time is the probe's wall
            err = (run_dir / "stderr.txt").read_text().strip().splitlines()[-1:]
            self.failures.append(f"{run_dir.name}: set-up probe exit code {code}: {e!r} {err}")
            setup_s = wall
        shutil.rmtree(run_dir)
        return setup_s

    def reference_time(self) -> float:
        """Seconds the host takes, right now, for the fixed task of reference.py."""
        run_dir = self.fresh_dir("reference")
        code, _, _ = self.child([sys.executable, str(BENCH / "reference.py")], run_dir)
        try:
            reference_s = json.loads((run_dir / "stdout.txt").read_text())["reference_s"]
        except (ValueError, KeyError) as e:
            raise RuntimeError(f"the reference task failed, exit code {code}: {e!r}") from e
        shutil.rmtree(run_dir)
        return reference_s

    def check(self, out_dir: Path, exit_code: int) -> Outcome:
        """The workload's check of one run, with its failures recorded."""
        try:
            outcome = self.wl.check(out_dir, exit_code)
        except (KeyError, TypeError, ValueError) as e:
            outcome = Outcome(0, [f"malformed output: {e!r}"])
        if outcome.failures:
            self.failures.append(f"{out_dir.parent.name}: " + "; ".join(outcome.failures[:5]))
        self.sha256 = self.sha256 or outcome.sha256  # the first run's, for information
        return outcome

    def untraced(self) -> dict:
        run_dir = self.fresh_dir("run")
        out_dir = run_dir / "out"
        code, wall, rss = self.child(
            [sys.executable, "-m", "socave.cli", *self.wl.argv(out_dir)], run_dir)
        outcome = self.check(out_dir, code)
        shutil.rmtree(run_dir)
        return {"wall_s": wall, "peak_rss_mb": rss, "ok": not outcome.failures,
                "trajectories_ok": outcome.trajectories_ok, "counters": outcome.counters}

    def traced(self) -> dict:
        run_dir = self.fresh_dir("traced")
        out_dir = run_dir / "out"
        spans = run_dir / "spans.npz"
        code, wall, _ = self.child(
            [sys.executable, str(BENCH / "probe_traced.py"), str(spans), *self.wl.probe_opts,
             "--", *self.wl.argv(out_dir)], run_dir)
        if code != 0:
            # the probe itself failed: a failed run, with no spans
            outcome = self.check(out_dir, code)
            shutil.rmtree(run_dir)
            return {"wall_s": wall, "ok": False, "metrics": None, "counters": outcome.counters}
        meta = json.loads(spans.with_suffix(".json").read_text())
        outcome = self.check(out_dir, meta["exit_code"])
        with np.load(spans) as arrays:
            trace = {
                "names": [meta["names"][i] for i in arrays["name_ids"].tolist()],
                "starts": arrays["starts"].tolist(),
                "ends": arrays["ends"].tolist(),
                "parents": arrays["parents"].tolist(),
            }
        trace.update({k: meta[k] for k in ("counters", "import_s", "main_start", "main_end")})
        # the spans of the last traced run stay on disk
        for suffix in (".npz", ".json"):
            shutil.copy(spans.with_suffix(suffix), self.dir / f"spans{suffix}")
        shutil.rmtree(run_dir)
        return {"wall_s": wall - meta["dump_s"], "ok": not outcome.failures,
                "metrics": layer_metrics(trace), "counters": outcome.counters}

    def rounds(self, one_round) -> list:
        """Repeat one_round() twice, so that counters can be compared, then
        while the next round, as long as the last, would end within --seconds."""
        deadline = time.perf_counter() + self.seconds
        results = []
        while True:
            t0 = time.perf_counter()
            results.append(one_round())
            now = time.perf_counter()
            if len(results) >= 2 and (2 * now - t0 > deadline or self.elapsed() > LAST_START_S):
                return results


def repeat_errors(label: str, values: list) -> list[str]:
    """A benchmark error for each round whose counters differ from the first round's."""
    return [f"{label} of round {i + 1} differ from round 1" for i, v in enumerate(values)
            if v != values[0]]


def end_to_end(session: Session):
    """(metrics, printed lines, benchmark errors, details, runs attempted)."""
    setups = [session.setup_time() for _ in range(SETUP_REPEATS)]
    # one untimed run first: the suite's first run in a session was up to
    # 17 % slower than the rest; it is still checked and counted
    warm_up = session.untraced()
    refs = [session.reference_time()]

    def timed_run() -> dict:
        run = session.untraced()
        refs.append(session.reference_time())
        return run

    runs = session.rounds(timed_run)
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": setups,
        "solves_per_s": [r["trajectories_ok"] / r["wall_s"] if r["wall_s"] > 0 else 0.0
                         for r in runs],
        # a run killed at the time limit has no RSS figure
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs if r["peak_rss_mb"] is not None] or [0.0],
        "reference_s": refs,
    }
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    # the mean, not the median: the reference's time is bimodal, and its
    # mean tracks the share of the run the host spent at each speed
    yardstick = statistics.fmean(refs)
    metrics["wall_vs_ref"] = metrics["wall_s"] / yardstick
    metrics["solves_per_ref"] = metrics["solves_per_s"] * yardstick
    metrics["pass_frac"] = sum(r["ok"] for r in [warm_up, *runs]) / (1 + len(runs))
    lines = [format_line(name, metrics[name], unit, samples.get(name))
             for name, unit in END_TO_END.items()]
    lines.append("  as measured, following the host's speed (not bounded):")
    lines += [format_line(name, metrics[name], unit, samples[name])
              for name, unit in AS_MEASURED.items()]
    errors = repeat_errors("output counters", [r["counters"] for r in [warm_up, *runs]])
    record = {"samples": samples, "counters": runs[0]["counters"]}
    return metrics, lines, errors, record, 1 + len(runs) + len(setups)


def per_layer(session: Session):
    """(metrics, printed lines, benchmark errors, details, runs attempted)."""
    pairs = session.rounds(lambda: (session.untraced(), session.traced()))
    untraced = [u for u, _ in pairs]
    # a traced run whose probe failed is counted as failed and has no spans
    traced = [t for _, t in pairs if t["metrics"] is not None]
    attempted = 2 * len(pairs)
    errors = repeat_errors("output counters", [r["counters"] for r in untraced + traced])
    if not traced:
        metrics = {name: 0.0 for name in PER_LAYER}
        return metrics, ["  no traced run produced spans"], errors, {}, attempted
    exact = [name for name, unit in PER_LAYER.items() if unit in EXACT_UNITS]
    errors += repeat_errors("traced counters",
                            [{k: t["metrics"][k] for k in exact} for t in traced])
    steps = untraced[0]["counters"].get("steps")
    accepted = traced[0]["metrics"]["integrator.steps_accepted"]
    if steps is not None and sum(a for a, _ in steps) != accepted:
        errors.append("traced and untraced runs accepted different numbers of steps")
    metrics = {}
    lines = []
    for name, unit in {**PER_LAYER, **SOME_WORKLOADS}.items():
        if name == "trace.overhead_s":
            continue
        values = [t["metrics"][name] for t in traced]
        metrics[name] = values[0] if unit in EXACT_UNITS else statistics.median(values)
        lines.append(format_line(name, metrics[name], unit,
                                 None if unit in EXACT_UNITS else values))
    lines.append(f"  (integrator.step_s_high is p{tail_pct(metrics['integrator.step_samples']):g} "
                 f"of {metrics['integrator.step_samples']} rk23_step calls)")
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                   - statistics.median(u["wall_s"] for u in untraced))
    lines.append(format_line("trace.overhead_s", metrics["trace.overhead_s"], "s", None))
    shares = sorted(MODULES, key=lambda m: -metrics[f"{m}.wall_share"])
    lines.append("  module shares of the traced CLI wall: "
                 + ", ".join(f"{m} {metrics[f'{m}.wall_share']:.1f}%" for m in shares))
    confirmed, text = dominance(metrics, session.wl.dominant)
    lines.append(f"  dominance on {session.wl.name}: {text}")
    record = {"dominance_confirmed": confirmed, "dominance": text,
              "some_workloads": {name: metrics.pop(name) for name in SOME_WORKLOADS},
              "untraced_wall_s": [u["wall_s"] for u in untraced],
              "traced_wall_s": [t["wall_s"] for t in traced]}
    return metrics, lines, errors, record, attempted


def format_line(name: str, value: float, unit: str, samples) -> str:
    """One metric: its value and, for a median, the sample count and the
    highest percentile with ten samples above it, where there are enough."""
    text = f"  {name:34s} {value:14.6g} {unit}"
    if samples:
        pct = tail_pct(len(samples))
        high = f"p{pct:g}={percentile(samples, pct):.6g}" if len(samples) >= 20 else "p-high n/a"
        text += f"   median of {len(samples)}, {high}"
    return text


def provenance(session: Session) -> dict:
    # machine facts are read, never written, from /proc and /sys
    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    def cache_sizes():
        sizes = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            try:
                level = (index / "level").read_text().strip()
                kind = (index / "type").read_text().strip()
                if kind != "Instruction":
                    sizes[f"L{level}"] = (index / "size").read_text().strip()
            except OSError:
                pass
        return sizes

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "socave").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    caches = cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": src_digest.hexdigest(),
        "seed": session.seed,
        "workload": session.wl.name,
        "why": session.wl.why,
        "argv": ["socave", *session.wl.argv(Path("<out>"))],
        "load": "closed loop, one client",
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def bench(workload, seed: int, seconds: float, trace: bool, work: Path = WORK) -> dict:
    """Measure one workload; print its metrics; return the result object."""
    session = Session(workload, seed, seconds, work)
    measure = per_layer if trace else end_to_end
    metrics, lines, errors, record, attempted = measure(session)
    failed = len(session.failures)
    info = provenance(session)
    units = PER_LAYER if trace else END_TO_END
    print(f"== {workload.name} (seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{attempted} runs, BLAS threads {BLAS_THREADS}) ==")
    print(f"   why: {workload.why}")
    print("   machine: " + ", ".join(f"{k}={info[k]}" for k in (
        "nproc", "cpu_model", "l2", "l3", "python", "numpy", "blas", "blas_threads", "git_commit")))
    print(f"   argv: {' '.join(info['argv'])}")
    for line in lines:
        print(line)
    print(f"  {'fail_frac':34s} {failed / attempted:14.6g} fraction   ({failed} of {attempted})")
    for msg in session.failures:
        print(f"  FAILED {msg}", file=sys.stderr)
    for msg in errors:
        print(f"  BENCHMARK ERROR {msg}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    details = {**result, "provenance": info, "failures": session.failures, "errors": errors,
               "csv_sha256": session.sha256, **record}
    out = work / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(details, indent=1) + "\n")
    print(f"   details: {out}")
    return result


def make_workload(name: str, instance_seed: int):
    return ManyBlockSolve(instance_seed) if name == ManyBlockSolve.name else WORKLOADS[name]()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="recorded with the results; no input depends on it, because "
                             "every workload's inputs are fixed (see --instance-seed)")
    parser.add_argument("--instance-seed", type=int, default=1,
                        help="seed of the manyblock_multistart instance; a held-out seed "
                             "checks a gain on an instance it was not tuned on")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the CLI runs are measured, per workload and mode")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    if not (SRC / "socave" / "cli.py").is_file():
        print(f"error: no socave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = {f"{name}/{'traced' if trace else 'untraced'}":
               bench(make_workload(name, args.instance_seed), args.seed, args.seconds, trace)
               for name in names for trace in modes}
    print(json.dumps(next(iter(results.values())) if len(results) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
