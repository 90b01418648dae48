"""Mutation sweep over named functions and classes of one cflab module.

Each mutant changes one thing inside the named definitions: an arithmetic
operator swapped, a comparison moved across its boundary or negated, an
integer constant raised by 1, `and`/`or` swapped, or a `not` dropped.  The
mutant is written into a scratch copy of the repository (the tests read its
README and perfbench too), one at a time, and the test suite runs there
with -x, minus the acceptance criteria that fail by design.  The copy is a
new temporary directory under --scratch (default: the system's), which must
lie outside the repository, and is removed at the end; the repository
itself is never written.  A mutant is killed when the suite fails, hung
when it runs past TIMEOUT seconds, and survives otherwise; a survivor is
either equivalent (no input tells it apart) or a gap in the tests.

    python tools/mutants.py src/cflab/cf.py ContinuedFraction cf_of_rational \\
        parse_stream convergents --scratch /tmp/cflab-mutants

A name is a top-level function or class, or Class.method.  Do not name the worker fork code in
harness.py: a mutant there can fork the test runner itself.  tier-1 does
not collect this file (pytest's testpaths is tests/).
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300  # seconds before a mutant is hung

DESIGNED_FAILURES = [f"tests/test_acceptance.py::test_criterion_{c}" for c in (
    "07_level_count_rate", "08_weighted_count_headline", "11_cumulative_expected_count")]

ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
              ast.FloorDiv: ast.Mult, ast.Div: ast.Mult, ast.Mod: ast.FloorDiv,
              ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
              ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr}
COMPARISON = {ast.Lt: (ast.LtE, ast.GtE), ast.LtE: (ast.Lt, ast.Gt),
              ast.Gt: (ast.GtE, ast.LtE), ast.GtE: (ast.Gt, ast.Lt),
              ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,), ast.Is: (ast.IsNot,),
              ast.IsNot: (ast.Is,), ast.In: (ast.NotIn,), ast.NotIn: (ast.In,)}
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Div: "/",
          ast.Mod: "%", ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&",
          ast.BitOr: "|", ast.BitXor: "^", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
          ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
          ast.In: "in", ast.NotIn: "not in", ast.And: "and", ast.Or: "or"}


def _targets(tree: ast.Module, names: list[str]) -> list[tuple[str, ast.AST]]:
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
            if isinstance(node, ast.ClassDef):
                found.update((f"{node.name}.{m.name}", m) for m in node.body
                             if isinstance(m, ast.FunctionDef))
    missing = [n for n in names if n not in found]
    if missing:
        raise SystemExit(f"not defined in the module: {', '.join(missing)}")
    return [(n, found[n]) for n in names]


def _sites(tree: ast.Module, names: list[str]):
    """(name, line, description, apply) for every mutant, in a fixed order;
    apply() edits the tree in place."""
    out = []
    for name, target in _targets(tree, names):
        start = len(out)
        for node in ast.walk(target):
            line = getattr(node, "lineno", target.lineno)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITHMETIC:
                new = ARITHMETIC[type(node.op)]
                out.append((name, line, f"{SYMBOL[type(node.op)]} -> {SYMBOL[new]}",
                            lambda node=node, new=new: setattr(node, "op", new())))
            elif isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    for new in COMPARISON[type(op)]:
                        out.append((name, line, f"{SYMBOL[type(op)]} -> {SYMBOL[new]}",
                                    lambda node=node, i=i, new=new: node.ops.__setitem__(i, new())))
            elif isinstance(node, ast.BoolOp):
                new = ast.Or if isinstance(node.op, ast.And) else ast.And
                out.append((name, line, f"{SYMBOL[type(node.op)]} -> {SYMBOL[new]}",
                            lambda node=node, new=new: setattr(node, "op", new())))
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                out.append((name, line, f"{node.value} -> {node.value + 1}",
                            lambda node=node: setattr(node, "value", node.value + 1)))
            for field, child in ast.iter_fields(node):
                for i, c in (enumerate(child) if isinstance(child, list) else [(None, child)]):
                    if isinstance(c, ast.UnaryOp) and isinstance(c.op, ast.Not):
                        out.append((name, c.lineno, "drop not", lambda node=node, field=field,
                                    i=i, c=c: _replace(node, field, i, c.operand)))
        out[start:] = sorted(out[start:], key=lambda site: site[1])  # by line, stably
    return out


def _replace(parent: ast.AST, field: str, i: int | None, new: ast.AST):
    if i is None:
        setattr(parent, field, new)
    else:
        getattr(parent, field)[i] = new


def _mutant_source(source: str, names: list[str], index: int) -> str:
    tree = ast.parse(source)
    _sites(tree, names)[index][3]()
    return ast.unparse(tree) + "\n"


def _run_suite(copy: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *(f"--deselect={t}" for t in DESIGNED_FAILURES), "tests"]
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the suite and any worker it forked
        proc.wait()
        return "hung"
    return "survived" if code == 0 else "killed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="module file, relative to the repository root")
    ap.add_argument("names", nargs="+", help="functions, classes or Class.method to mutate")
    ap.add_argument("--scratch", help="directory to make the copy in, outside the repository")
    args = ap.parse_args(argv)

    source = (ROOT / args.module).read_text("utf-8")
    sites = _sites(ast.parse(source), args.names)
    scratch = Path(args.scratch or tempfile.gettempdir()).resolve()
    if scratch == ROOT or ROOT in scratch.parents:
        raise SystemExit(f"--scratch {scratch} lies inside the repository {ROOT}")
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cflab-mutants-", dir=scratch))
    try:
        copy = work / "repo"
        shutil.copytree(ROOT, copy,
                        ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
        target = copy / args.module
        if _run_suite(copy) != "survived":
            raise SystemExit("the unmutated suite fails in the copy; fix that first")
        tally = {"killed": 0, "survived": 0, "hung": 0}
        for i, (name, line, what, _) in enumerate(sites):
            target.write_text(_mutant_source(source, args.names, i), "utf-8")
            start = time.monotonic()
            outcome = _run_suite(copy)
            tally[outcome] += 1
            print(f"{outcome:8} {i} {name}:{line} {what} ({time.monotonic() - start:.0f} s)",
                  flush=True)
    finally:
        shutil.rmtree(work)
    print(" ".join(f"{k} {v}" for k, v in tally.items()), f"of {len(sites)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
