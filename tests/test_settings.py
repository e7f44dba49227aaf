import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# A property test that fails, then one that passes.
EXAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 3


def test_passes():
    pass
'''


def test_a_failing_property_test_reports_its_example_and_the_session_goes_on(tmp_path):
    # Run with the repository's pytest settings, warnings as errors included.
    (tmp_path / "test_example.py").write_text(EXAMPLE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "1 failed, 1 passed" in output
