"""The CI workflow parses and runs: every `run:` script of
.github/workflows/tests.yml passes `bash -n`, and every inline
`python -c '...'` program in them parses as Python and imports only names
that socave has, so a syntax error or a stale name shows up locally, before
CI runs. `bash -n` does not read inside the quotes. Every step after Install
and Tier-1 also runs as the runner would run it, through a `socave` shim in
place of the installed console script."""

import ast
import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
JOBS = yaml.safe_load(WORKFLOW.read_text())["jobs"]


def _name(step: dict) -> str:
    return step.get("name", step["run"].splitlines()[0])


# (name, script, env) of each step that has a run: script, in workflow
# order, with the job's env merged under the step's own
STEPS = [(_name(step), step["run"], {**job.get("env", {}), **step.get("env", {})})
         for job in JOBS.values() for step in job["steps"] if "run" in step]
RUN_STEPS = [(name, script) for name, script, _ in STEPS]
NOT_RUN = {"Install": "installs the package into the environment",
           "Tier-1 tests": "runs this test suite"}
# a single-quoted shell word holds no single quote, so each program ends at
# the next one
PROGRAMS = [(f"{name} #{i}", program) for name, script in RUN_STEPS
            for i, program in enumerate(re.findall(r"python -c '([^']*)'", script))]


def test_the_workflow_has_run_steps():
    assert len(RUN_STEPS) >= 16


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
@pytest.mark.parametrize("script", [script for _, script in RUN_STEPS],
                         ids=[name for name, _ in RUN_STEPS])
def test_run_script_parses_in_bash(script):
    done = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_the_workflow_has_python_programs():
    assert len(PROGRAMS) >= 10


@pytest.mark.parametrize("program", [program for _, program in PROGRAMS],
                         ids=[name for name, _ in PROGRAMS])
def test_python_program_parses_and_its_socave_names_exist(program):
    for node in ast.walk(ast.parse(program)):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "socave":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "socave":
                    importlib.import_module(alias.name)


class _Workflow:
    """The steps of STEPS run in one directory that links src/, tests/ and
    pyproject.toml, so that they write nothing into the tree, with a
    RUNNER_TEMP of their own and the shim first on PATH. They share the
    directory as they share the runner's checkout: a step that reads an
    earlier step's output (suite_out/) finds it, because every earlier step
    has run, each once, before it, whichever tests were selected."""

    def __init__(self, root: Path):
        self.root = root
        for name in ("src", "tests", "pyproject.toml"):
            (root / name).symlink_to(ROOT / name)
        bin_dir = root / "bin"
        bin_dir.mkdir()
        # the console script's import line, which one step greps for
        (bin_dir / "socave").write_text(
            f"#!{sys.executable}\nimport sys\nfrom socave.cli import run\nsys.exit(run())\n")
        (bin_dir / "python").write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
        for shim in bin_dir.iterdir():
            shim.chmod(0o755)
        (root / "runner_temp").mkdir()
        self.env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
                    "PYTHONPATH": str(root / "src"), "RUNNER_TEMP": str(root / "runner_temp")}
        self.done = {}

    def run(self, index: int) -> subprocess.CompletedProcess:
        for i, (name, script, env) in enumerate(STEPS[:index + 1]):
            if i not in self.done and name not in NOT_RUN:
                path = self.root / "runner_temp" / f"step_{i}.sh"
                path.write_text(script)
                self.done[i] = subprocess.run(
                    ["bash", "-e", str(path)], cwd=self.root, env={**self.env, **env},
                    capture_output=True, text=True, timeout=600)
        return self.done[index]


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    root = tmp_path_factory.mktemp("workflow")
    yield _Workflow(root)
    shutil.rmtree(root)  # about 70 MB, most of it the suite's CSVs


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
@pytest.mark.parametrize("index", range(len(STEPS)), ids=[name for name, _, _ in STEPS])
def test_run_step_passes(workflow, index):
    name = STEPS[index][0]
    if name in NOT_RUN:
        pytest.skip(f"not run here: it {NOT_RUN[name]}")
    done = workflow.run(index)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
