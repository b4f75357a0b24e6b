"""The CI workflow parses: every `run:` script of .github/workflows/tests.yml
passes `bash -n`, and every inline `python -c '...'` program in them parses
as Python and imports only names that socave has, so a syntax error or a
stale name shows up locally, before CI runs. `bash -n` does not read inside
the quotes."""

import ast
import importlib
import re
import shutil
import subprocess
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def _run_steps() -> list[tuple[str, str]]:
    """(name, script) of each step of each job that has a run: script."""
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    return [(step.get("name", step["run"].splitlines()[0]), step["run"])
            for job in jobs.values() for step in job["steps"] if "run" in step]


RUN_STEPS = _run_steps()
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
