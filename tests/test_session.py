"""The test session itself: a failing property test must not end it."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

PAIR = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_leaves_the_rest_running(tmp_path):
    # the pair runs under this suite's pytest settings and conftest
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS), str(ROOT / "src")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), run.stdout[-2000:]
