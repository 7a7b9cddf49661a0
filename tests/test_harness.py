"""The test settings: a failing test is reported and the session goes on."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


@pytest.mark.parametrize("flags", [(), ("-W", "error")], ids=["ini", "W-error"])
def test_a_failing_hypothesis_test_is_reported_and_the_rest_run(flags, tmp_path):
    # the repository's settings, copied beside a probe outside the repository
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *flags, "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
