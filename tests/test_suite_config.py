"""The suite's own pytest configuration, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x != x
'''


def test_a_failing_hypothesis_test_is_one_failure(tmp_path):
    # filterwarnings = ["error"] must not turn a warning that hypothesis'
    # failure report raises on import into an INTERNALERROR, which would
    # stop the session and leave every later test unreported.
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout + run.stderr
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
