"""The repo's pytest settings let a failing Hypothesis test fail on its own:
the warning Hypothesis emits while it reports the failure must not end the
session as an INTERNALERROR."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_that_fails(n):
    assert n < 10


def test_after_the_failure():
    pass
"""


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
