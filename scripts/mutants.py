"""Single-site mutants of named functions of the package, run against a
pytest selection.

Usage:
    python3 scripts/mutants.py --targets _divmod poly_div_exact \
        --tests tests/test_poly.py::test_division_refusals [--seed 1] [--timeout 60]

Each target names a function of src/tubes: `name` for a module-level
function, `Class.name` for a method. Every site of these operators in a
target's body is one mutant (DeMillo, Lipton & Sayward, IEEE Computer
11(4), 1978):
- `+` and `-` swapped, in an expression or an augmented assignment;
- `==` and `!=` swapped;
- `and` and `or` swapped;
- a comparison made strict or not: `<` and `<=`, `>` and `>=`;
- an int constant plus 1.

The script copies the checkout, without .git, into a temporary directory
and runs the selection there first, unmutated, which must pass. Then it
writes one mutant at a time into that copy's src/ and runs the
selection against it, with `--hypothesis-seed` set to the seed. A mutant
is killed when the run fails or times out, and survives when it
passes. It prints one line per mutant and the totals. Stdlib only; it
is not part of Tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "tubes"
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
         ast.And: ast.Or, ast.Or: ast.And, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Eq: "==", ast.NotEq: "!=", ast.And: "and",
           ast.Or: "or", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


def _functions(tree: ast.Module):
    """(qualified name, node) of every module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _sites(function: ast.FunctionDef):
    """(node, slot, old, new) for every mutation site of a function, in
    ast.walk order: slot is None for a node's `op`, an index into a
    comparison's `ops`, or "value" for an int constant."""
    for node in ast.walk(function):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            yield node, None, SYMBOLS[type(node.op)], SYMBOLS[SWAPS[type(node.op)]]
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, i, SYMBOLS[type(op)], SYMBOLS[SWAPS[type(op)]]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, "value", str(node.value), str(node.value + 1)


def catalogue(targets):
    """The mutants of the targets: (id, file, function, site index, line,
    old, new), in file and target order."""
    wanted = set(targets)
    found = set()
    out = []
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, function in _functions(tree):
            if name not in wanted:
                continue
            found.add(name)
            for k, (node, _, old, new) in enumerate(_sites(function)):
                out.append((f"{path.stem}.{name}#{k}", path.name, name, k, node.lineno, old, new))
    missing = wanted - found
    if missing:
        sys.exit(f"no function named {sorted(missing)} in {PACKAGE}")
    return out


def mutated_source(path: Path, name: str, k: int) -> str:
    """The source of path with site k of function `name` mutated."""
    tree = ast.parse(path.read_text())
    function = dict(_functions(tree))[name]
    node, slot, _, _ = list(_sites(function))[k]
    if slot is None:
        node.op = SWAPS[type(node.op)]()
    elif slot == "value":
        node.value += 1
    else:
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    return ast.unparse(tree)


def run_selection(copy: Path, tests, seed: int, timeout: float) -> str:
    """"passed", "failed" or "timeout" for the selection run in copy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               f"--hypothesis-seed={seed}", *tests]
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == 5:
        sys.exit(f"the selection collected no tests: {' '.join(tests)}")
    return "passed" if done.returncode == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--targets", nargs="+", required=True,
                        help="function names: name, or Class.name for a method")
    parser.add_argument("--tests", nargs="+", required=True, help="a pytest selection")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=60,
                        help="seconds per run; a run that takes longer kills its mutant")
    args = parser.parse_args(argv)
    mutants = catalogue(args.targets)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench"))
        if run_selection(copy, args.tests, args.seed, args.timeout) != "passed":
            sys.exit("the selection fails on the unmutated copy")
        killed = 0
        for mid, filename, name, k, line, old, new in mutants:
            target = copy / PACKAGE / filename
            original = target.read_text()
            target.write_text(mutated_source(target, name, k))
            try:
                outcome = run_selection(copy, args.tests, args.seed, args.timeout)
            finally:
                target.write_text(original)
            verdict = "survived" if outcome == "passed" else "killed"
            killed += verdict == "killed"
            print(f"{verdict}\t{mid}\tline {line}\t{old} -> {new}"
                  + ("\t(timeout)" if outcome == "timeout" else ""), flush=True)
    print(f"total {len(mutants)}: killed {killed}, survived {len(mutants) - killed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
