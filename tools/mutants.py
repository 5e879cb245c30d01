"""Sample one-site mutants of chosen functions and run tests against each.

A mutant changes one site: a comparison flipped, `+`/`-` or `and`/`or`
swapped, a 0/1 or True/False constant swapped, a `not` dropped, or an
assignment or call statement replaced by `pass`. The sites are drawn at
random (`--seed`) from the named functions of `--file`. Each mutant is
written into a copy of `src/` and `tests/` in a scratch directory, never into
the working tree, and the tests run on it with `-x`, stopped after TIMEOUT
seconds. A mutant whose tests all pass survived, and its site is printed for
review. The copy goes under the system temp directory (TMPDIR chooses it).

    python tools/mutants.py --file src/rhymesim/sim.py --functions _migrate \\
        --count 30 --seed 7 tests/test_sim.py tests/test_sim_properties.py
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

FLIP = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
        ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Add: ast.Sub, ast.Sub: ast.Add,
        ast.And: ast.Or, ast.Or: ast.And}
DROPPED = (ast.Assign, ast.AugAssign, ast.Expr)
TIMEOUT = 300  # seconds per mutant; a hung one is stopped and counted as caught


def sites(tree: ast.Module, names: set[str]) -> list[tuple[str, ast.AST, str, int]]:
    """Every mutable site of the named functions, in a fixed order."""
    found = []
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef) and func.name in names):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                found += [(func.name, node, "ops", i) for i, op in enumerate(node.ops)
                          if type(op) in FLIP]
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in FLIP:
                found.append((func.name, node, "op", 0))
            elif isinstance(node, ast.Constant) and type(node.value) in (int, bool) \
                    and node.value in (0, 1):
                found.append((func.name, node, "value", 0))
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                found.append((func.name, node, "not", 0))
            for field in ("body", "orelse"):
                stmts = getattr(node, field, None)
                found += [(func.name, node, field, i) for i, stmt in enumerate(stmts)
                          if isinstance(stmt, DROPPED) and not (isinstance(stmt, ast.Expr)
                          and isinstance(stmt.value, ast.Constant))] \
                    if isinstance(stmts, list) else []
    return found


def mutant(source: str, names: set[str], index: int) -> tuple[str, str]:
    """The source with site `index` mutated, and a line naming the change."""
    tree = ast.parse(source)
    func, node, field, i = sites(tree, names)[index]
    target = getattr(node, field)[i] if field in ("body", "orelse") else node
    line, before = target.lineno, ast.unparse(target)
    if field == "ops":
        node.ops[i] = FLIP[type(node.ops[i])]()
    elif field == "op":
        node.op = FLIP[type(node.op)]()
    elif field == "value":
        node.value = not node.value if isinstance(node.value, bool) else 1 - node.value
    elif field == "not":
        node.operand = ast.UnaryOp(ast.Not(), node.operand)  # `not not x` is bool(x)
    else:
        getattr(node, field)[i] = target = ast.copy_location(ast.Pass(), target)
    return ast.unparse(tree), f"{func} line {line}: {before}  ->  {ast.unparse(target)}"


def run_tests(root: Path, tests: list[str]) -> str:
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             *tests], cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        return "survived" if proc.wait(TIMEOUT) == 0 else "killed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "hung"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--file", required=True, help="the module to mutate, from the repo root")
    parser.add_argument("--functions", nargs="+", required=True)
    parser.add_argument("--count", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("tests", nargs="+")
    args = parser.parse_args()
    repo = Path(__file__).resolve().parent.parent
    source, names = (repo / args.file).read_text(), set(args.functions)
    total = len(sites(ast.parse(source), names))
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for part in ("src", "tests", "pyproject.toml"):
            (shutil.copytree if (repo / part).is_dir() else shutil.copy)(repo / part, root / part)
        # The unmutated module, written as each mutant is, must pass.
        (root / args.file).write_text(ast.unparse(ast.parse(source)))
        if run_tests(root, args.tests) != "survived":
            sys.exit("the tests fail on the unmutated code")
        for index in sorted(random.Random(args.seed).sample(range(total), min(args.count, total))):
            text, change = mutant(source, names, index)
            (root / args.file).write_text(text)
            outcomes.append(run_tests(root, args.tests))
            print(f"{outcomes[-1]:8}  {change}", flush=True)
    caught = len(outcomes) - outcomes.count("survived")
    print(f"{caught}/{len(outcomes)} mutants caught ({outcomes.count('hung')} hung) "
          f"of {total} sites")
    return 0

if __name__ == "__main__":
    sys.exit(main())
