"""The CI workflow parses: every `run:` script of .github/workflows/tests.yml
passes `bash -n`, so a shell syntax error shows up locally, before CI runs."""

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


def test_the_workflow_has_run_steps():
    assert len(RUN_STEPS) >= 16


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
@pytest.mark.parametrize("script", [script for _, script in RUN_STEPS],
                         ids=[name for name, _ in RUN_STEPS])
def test_run_script_parses_in_bash(script):
    done = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
