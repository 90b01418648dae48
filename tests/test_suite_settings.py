"""The suite's own settings: pytest's in pyproject.toml, and a lint of the library."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    assert True
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # hypothesis formats a failing example through libcst, whose import
    # raises a DeprecationWarning that filterwarnings = error would turn
    # into an INTERNALERROR ending the session before the later tests
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"),
                           "--rootdir", str(tmp_path), "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1]


def test_the_library_has_no_assert_statement():
    # python -O strips assert statements, so a check in src/cflab raises
    # InvariantViolation instead, which the CLI turns into exit 3
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted((ROOT / "src" / "cflab").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {', '.join(found)}"
