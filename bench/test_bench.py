"""Tests of the benchmark itself: span arithmetic, failure accounting and
reduced-size smoke runs of each workload."""

import json
import sys
import types

import pytest

import layers
import run as bench_run
import spans
import workloads

if str(bench_run.SRC) not in sys.path:
    sys.path.insert(0, str(bench_run.SRC))


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(bench_run, "SETUP_REPEATS", 1)


def test_self_time_subtracts_the_union_of_child_spans():
    # root [0, 10] has children [1, 4], [5, 9] and [8, 9.5]; [1, 4] has [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 9.5]
    parents = [-1, 0, 1, 0, 0]
    assert spans.self_times(starts, ends, parents) == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5])


def test_covered_clips_intervals_to_the_window():
    assert spans.covered([(-1.0, 2.0), (1.0, 3.0), (5.0, 20.0)], 0.0, 10.0) == pytest.approx(8.0)


def test_install_wraps_every_binding_and_records_parents(monkeypatch):
    pkg, a, b = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.a", "fakepkg.b"))
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    exec("def inner(x):\n    return x + 1\n", a.__dict__)
    exec("from fakepkg.a import inner\ndef outer(x):\n    return inner(x) * 2\n", b.__dict__)
    pkg.inner = a.inner
    tracer = spans.Tracer()
    replaced = spans.install(tracer, "fakepkg", [("a", "inner", None, None),
                                                 ("b", "outer", None, None)])
    assert replaced == {"a.inner": 3, "b.outer": 1}
    assert b.outer(1) == 4
    assert [tracer.names[i] for i in tracer.name_ids] == ["b.outer", "a.inner"]
    assert list(tracer.parents) == [-1, 0]


def test_layer_metrics_split_the_main_window_by_self_time():
    spans_ = [  # name, start, end, parent
        ("integrator.integrate", 1.0, 9.0, -1),
        ("dynamics.rhs", 1.5, 2.5, 0),
        ("model.residual", 1.6, 2.2, 1),
        ("soc.soc_abs", 1.7, 1.9, 2),
        ("integrator.rk23_step", 3.0, 8.0, 0),
        ("dynamics.rhs", 3.5, 5.0, 4),
        ("reporting.write_trajectory_csv", 9.2, 9.8, -1),
    ]
    trace = {
        "names": [s[0] for s in spans_], "starts": [s[1] for s in spans_],
        "ends": [s[2] for s in spans_], "parents": [s[3] for s in spans_],
        "counters": {"integrator.steps_accepted": 1, "soc.blocks": 4},
        "main_start": 0.0, "main_end": 10.0, "import_s": 0.1,
    }
    m = layers.layer_metrics(trace)
    expected = {"integrator": 55.0, "dynamics": 19.0, "model": 4.0, "soc": 2.0,
                "reporting": 6.0, "cli": 14.0}
    for module in layers.MODULES:
        assert m[f"{module}.wall_share"] == pytest.approx(expected.get(module, 0.0))
    assert m["integrator.loop_self_s"] == pytest.approx(2.0)
    assert m["integrator.rhs_per_accepted_step"] == 2
    assert m["soc.abs_us_per_block"] == pytest.approx(0.05e6)
    assert set(m) == set(layers.PER_LAYER) - {"trace.overhead_s"} | set(layers.SOME_WORKLOADS)


class WrongFinalState(workloads.TridiagSolve):
    """Moves the reported final state off x* before the usual check."""

    def check(self, out_dir, exit_code):
        path = out_dir / "report.json"
        report = json.loads(path.read_text())
        report["final_state"][0] += 1.0
        path.write_text(json.dumps(report))
        return super().check(out_dir, exit_code)


def test_a_wrong_final_state_counts_as_failed(tmp_path, capsys):
    result = bench_run.bench(WrongFinalState(n=100), 1, 0, False, tmp_path)
    assert not result["correct"]
    # the set-up probe stops before the final state exists, so it passes
    assert result["failed"] == result["attempted"] - bench_run.SETUP_REPEATS >= 2
    assert result["metrics"]["pass_frac"]["value"] == 0
    assert result["metrics"]["solves_per_ref"]["value"] == 0
    assert "||x_f - x*||_inf" in capsys.readouterr().err


class BadArguments(workloads.TridiagSolve):
    """CLI arguments that argparse rejects: every probe and run exits nonzero."""

    def argv(self, out_dir):
        return ["solve", "--no-such-option"]


@pytest.mark.parametrize("trace", [False, True])
def test_a_crashing_run_counts_as_failed(trace, tmp_path):
    result = bench_run.bench(BadArguments(n=100), 1, 0, trace, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


@pytest.mark.parametrize("workload", [
    workloads.TridiagSolve(n=100),
    workloads.ManyBlockSolve(seed=3, blocks=(3,) * 6 + (2,)),
], ids=lambda w: w.name)
def test_smoke_solve_workload(workload, tmp_path):
    e2e = bench_run.bench(workload, 3, 0, False, tmp_path)
    assert e2e["correct"] and e2e["failed"] == 0
    assert set(e2e["metrics"]) == set(bench_run.END_TO_END)
    assert all(v["value"] > 0 for v in e2e["metrics"].values())
    traced = bench_run.bench(workload, 3, 0, True, tmp_path)
    assert traced["correct"]
    assert set(traced["metrics"]) == set(layers.PER_LAYER)
    assert traced["metrics"]["integrator.steps_accepted"]["value"] > 0


def test_smoke_paper_suite_traced(tmp_path):
    session = bench_run.Session(workloads.PaperSuite(tridiag_n=200), 1, 0, tmp_path)
    run = session.traced()
    assert run["ok"], session.failures
    assert run["metrics"]["reporting.csv_bytes"] > 0
    assert run["metrics"]["experiments.toys_s"] > 0
    assert run["counters"]["csv_bytes"]["tridiag_n200_gamma200.csv"] > 0
