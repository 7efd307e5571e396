"""pyproject.toml turns every warning into an error. A warning raised inside a
plugin's report hook must not hide a failing test's report, so a failing
property test, run under that configuration, still names its example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_property_names_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    # no cache provider: with -c the cache would be written beside pyproject.toml
    cmd = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_fails.py"]
    run = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
