"""The suite's own settings: pytest's in pyproject.toml, and lints of the library."""

import ast
import subprocess
import sys
from collections import defaultdict
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


CERTIFIER_STATE = ("_certified", "_grow", "_certify")


def test_only_cf_touches_the_certifier_state():
    # every certification goes through DyadicStream.quotient, the span and
    # index perfbench/tracer.py reads
    found = [f"{path.relative_to(ROOT)}:{node.lineno} uses {node.attr}"
             for path in sorted((ROOT / "src" / "cflab").rglob("*.py")) if path.name != "cf.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in CERTIFIER_STATE]
    assert not found, f"certifier state used outside cf.py: {', '.join(found)}"


def _names(node) -> list[str]:
    """The identifiers a node spells: a name, an attribute or an imported name."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    return []


def test_only_stats_computes_in_long_double():
    # the power weights are evaluated in one place, WeightFunction, whose
    # scalar and array powers are tested to round alike
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted((ROOT / "src" / "cflab").rglob("*.py")) if path.name != "stats.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if "longdouble" in _names(node)]
    assert not found, f"longdouble used outside stats.py: {', '.join(found)}"


def test_the_library_imports_no_mpmath():
    # series tails are float Euler-Maclaurin sums; mpmath is the tests' oracle only
    found = [f"{path.relative_to(ROOT)}:{node.lineno} imports {name}"
             for path in sorted((ROOT / "src" / "cflab").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in _imported(node)
             if name == "mpmath" or name.startswith("mpmath.")]
    assert not found, f"mpmath imports in the library: {', '.join(found)}"


REFERENCE_RUN = """
import contextlib
import io
import sys
sys.path.insert(0, sys.argv[1] + "/src")
from cflab import cli, farey, stats
def loaded():
    return " ".join(m for m in ("mpmath", "numpy") if m in sys.modules) or "-"
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["farey-row", "--q", "360"])
print(rc, loaded())
farey.row_sum_exact(2000)
farey.cumulative_expected_count(100)
for g in (stats.WeightFunction.harmonic(), stats.WeightFunction.power(0.25)):
    stats.weight_log_series(g)
    stats.mq_level_expectation(g)
print(loaded())
"""


def test_reference_values_never_load_mpmath():
    # farey-row reads its primes off a pure-Python sieve; the Farey sums and
    # power weights need numpy, and no reference value needs mpmath
    done = subprocess.run([sys.executable, "-c", REFERENCE_RUN, str(ROOT)],
                          check=True, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines() == ["0 -", "numpy"]


# FareyTable.den and .terminal are read by the tests' Farey oracles only; they
# leave src/ with FareyTable itself once perfbench/tracer.py no longer patches
# the table functions by name
UNREAD_ALLOWED = {"FareyTable.den", "FareyTable.terminal"}


def _definitions(tree: ast.Module):
    """(qualified name, name, node) for each top-level function and class, and
    each method and annotated field of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member.name, member
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    yield f"{node.name}.{member.target.id}", member.target.id, member


def _read(node, strings: bool) -> str | None:
    """The name a node reads: a loaded name or attribute, or, where strings
    count, a string constant."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _field_read(node) -> str | None:
    """The field name a node reads: a loaded attribute or a keyword argument, not
    a local variable that happens to share the name."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.keyword):
        return node.arg
    return None


def test_every_library_name_is_read_outside_its_definition():
    # a name of src/cflab that only the tests read belongs in tests/oracles.py;
    # perfbench reads names too, and patches some by their string; dunder
    # methods are called by the interpreter, not by name
    trees = {path: ast.parse(path.read_text(), str(path))
             for top in ("src", "perfbench") for path in sorted((ROOT / top).rglob("*.py"))}
    reads = defaultdict(set)  # name -> ids of the nodes that read it
    field_reads = defaultdict(set)  # the same, for an annotated field of a class
    for path, tree in trees.items():
        strings = path.is_relative_to(ROOT / "perfbench")
        for node in ast.walk(tree):
            if name := _read(node, strings):
                reads[name].add(id(node))
            if name := _field_read(node):
                field_reads[name].add(id(node))
    unread = []
    for path, tree in trees.items():
        if not path.is_relative_to(ROOT / "src" / "cflab"):
            continue
        for qualified, name, definition in _definitions(tree):
            if name.startswith("__") and name.endswith("__") or qualified in UNREAD_ALLOWED:
                continue
            inside = {id(node) for node in ast.walk(definition)}
            read = field_reads if isinstance(definition, ast.AnnAssign) else reads
            if not read[name] - inside:
                unread.append(f"{path.relative_to(ROOT)}:{definition.lineno} {qualified}")
    assert not unread, f"read only by the tests: {', '.join(unread)}"
