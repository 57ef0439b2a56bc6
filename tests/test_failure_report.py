"""A failing property test reports its falsifying example under the suite's
own pytest settings, which turn every warning into an error."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10
'''


def test_a_failing_property_test_prints_its_example(tmp_path):
    # Hypothesis's failure report writes the example as a patch, which
    # imports libcst where it is installed: a warning raised by that import
    # must not turn the failure into a pytest internal error (exit code 3)
    (tmp_path / "test_fails.py").write_text(FAILING_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout
