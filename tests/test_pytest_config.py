import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_plain_passes():
    assert True
"""


def test_failing_property_is_reported_not_internal_error(tmp_path):
    """A falsified @given test fails like any other under this repo's pytest
    settings (every warning an error): the run goes on to report the rest."""
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    args = ["-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_probe.py"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
