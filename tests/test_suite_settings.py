"""The suite's own settings: a failing check reports, it does not abort."""

import subprocess
import sys
from pathlib import Path

PROPERTY_TESTS = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_other_warnings_still_fail():
    warnings.warn("still an error", DeprecationWarning)


def test_passes():
    pass
'''


def test_a_failing_property_test_reports_and_the_session_goes_on(tmp_path):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (tmp_path / "pyproject.toml").write_text(pyproject.read_text())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_drawn.py").write_text(PROPERTY_TESTS)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = out.stdout + out.stderr
    assert "INTERNALERROR" not in report, report
    assert "Falsifying example: test_fails(" in report, report
    assert "FAILED tests/test_drawn.py::test_other_warnings_still_fail" in report, report
    assert "2 failed, 1 passed" in report, report
