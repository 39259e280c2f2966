"""The CI workflow is a YAML file that a strict parser loads: a file GitHub
cannot parse starts no job at all, and nothing else in the suite reads it."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def test_the_workflow_parses_and_every_step_runs_something():
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = workflow["jobs"]["test"]["steps"]
    assert steps
    for step in steps:
        assert "run" in step or "uses" in step, step


def test_ci_installs_the_test_extra_which_names_every_test_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads(
        (WORKFLOW.parents[2] / "pyproject.toml").read_text(encoding="utf-8")
    )
    extra = pyproject["project"]["optional-dependencies"]["test"]
    assert {"pytest", "hypothesis", "pyyaml"} <= set(extra)
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    install = next(
        step for step in workflow["jobs"]["test"]["steps"]
        if step.get("name", "").startswith("Install test dependencies")
    )
    assert install["run"] == 'python -m pip install ".[test]"'
