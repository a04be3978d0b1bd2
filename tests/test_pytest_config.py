"""The repository's pytest settings keep a failing test from hiding the rest."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 0

def test_passes():
    pass
'''


def test_failing_given_test_does_not_stop_the_session(tmp_path):
    # under filterwarnings = error, the report of a failing @given test
    # imports libcst, whose DeprecationWarning used to end the session
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
