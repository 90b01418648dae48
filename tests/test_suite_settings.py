"""The suite's own settings: pytest's in pyproject.toml, and lints of the library."""

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


POOL_MODULES = ("threading", "multiprocessing", "concurrent.futures")


def _imported(node) -> list[str]:
    """The dotted modules an import statement names, with `from a import b` as
    both a and a.b, since b may be a submodule."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_the_library_imports_no_thread_or_process_pool():
    # workers are the caller and bare forked children; the static twin of the
    # check that no montecarlo run loads a pool module
    found = [f"{path.relative_to(ROOT)}:{node.lineno} imports {name}"
             for path in sorted((ROOT / "src" / "cflab").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in _imported(node)
             if any(name == m or name.startswith(m + ".") for m in POOL_MODULES)]
    assert not found, f"pool imports in the library: {', '.join(found)}"
