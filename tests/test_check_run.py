"""The CI gate on one benchmark run, ``.github/check_run.py``, fed records on stdin."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "check_run.py"
PASSING = {"correct": True, "failed": 0, "attempted": 2}


def gate(stdin: str) -> int:
    """The script's exit status on ``stdin``."""
    return subprocess.run([sys.executable, str(SCRIPT)], input=stdin, capture_output=True,
                          text=True, timeout=60).returncode


@pytest.mark.parametrize("metrics", [{}, {"metrics": {"trace.errors": {"value": 0}}}],
                         ids=["untraced", "traced"])
def test_a_passing_record_exits_0(metrics):
    # only the last line is the record: the run's progress lines come before it
    assert gate("progress\n" + json.dumps(PASSING | metrics) + "\n") == 0


@pytest.mark.parametrize("change", [
    {"failed": 1},
    {"correct": False},
    {"attempted": 1},
    {"metrics": {"trace.errors": {"value": 2}}},
], ids=["failed 1", "correct false", "attempted 1", "trace.errors 2"])
def test_a_failed_gate_exits_nonzero(change):
    assert gate(json.dumps(PASSING | change) + "\n") != 0


def test_empty_input_exits_nonzero():
    assert gate("") != 0
