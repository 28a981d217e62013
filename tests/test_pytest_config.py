"""The project's pytest settings: a failing test is reported, whatever raised it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_hypothesis_test_ends_as_one_failure(tmp_path):
    # warnings are errors, and Hypothesis's report of a failure imports a
    # module that warns: the run must still end with the failure, not an
    # internal error that hides the other results
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed" in run.stdout and "INTERNALERROR" not in output
