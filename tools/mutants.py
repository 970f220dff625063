"""Mutation census: how many small faults in a module its own test file catches.

Usage, from the repository root:

    python tools/mutants.py classifier io

For each named module of ``src/pathsig`` the script lists every mutation
site in source order:

* a binary operator swapped (``+`` and ``-``, ``*`` and ``/``, ``//`` to
  ``*``, ``%`` to ``//``, ``**`` to ``*``, ``@`` to ``*``, ``&`` and ``|``,
  ``^`` to ``&``, ``<<`` and ``>>``);
* a comparison swapped (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``);
* an integer constant plus 1 (``-1`` is a negated constant, so it becomes
  ``-2``).

It samples ``SITES`` of them with ``random.Random(SEED)``, one generator
per module.  Each mutant is one textual edit of the module in a temporary
copy of ``src`` and ``tests``, run as ``pytest -x tests/test_<module>.py``
in that copy: a failing run kills the mutant, a passing one lets it
survive, and a run past ten times the unmutated run's time counts as
killed by a timeout.  The unmutated module must pass first.  The script
prints one line per mutant and a count per module, and uses the standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SITES = 25  # mutants per module
SEED = 20261020

_BINARY = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
           ast.FloorDiv: ("//", "*"), ast.Mod: ("%", "//"), ast.Pow: ("**", "*"),
           ast.MatMult: ("@", "*"), ast.BitAnd: ("&", "|"), ast.BitOr: ("|", "&"),
           ast.BitXor: ("^", "&"), ast.LShift: ("<<", ">>"), ast.RShift: (">>", "<<")}
_COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
            ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}


@dataclass(frozen=True)
class Site:
    """One mutation: replace ``old`` by ``new`` at source line ``line``, column ``col``."""

    line: int
    col: int
    old: str
    new: str


def _offsets(source: str) -> list[int]:
    """Character offset of the start of each line, 1-based by index."""
    starts = [0, 0]
    for text in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(text))
    return starts


def find_sites(source: str) -> list[Site]:
    """Every mutation site of ``source`` outside f-strings, in source order."""
    tree = ast.parse(source)
    ops = [(tok.start, tok.string) for tok in tokenize.generate_tokens(io.StringIO(source).readline)
           if tok.type == tokenize.OP]
    encoded = [line.encode() for line in source.splitlines()]

    def char_col(line: int, byte_col: int) -> int:  # ast columns count UTF-8 bytes
        return len(encoded[line - 1][:byte_col].decode())

    def op_between(before: ast.AST, after: ast.AST, symbol: str):
        lo = (before.end_lineno, char_col(before.end_lineno, before.end_col_offset))
        hi = (after.lineno, char_col(after.lineno, after.col_offset))
        return next(pos for pos, text in ops if lo <= pos < hi and text == symbol)

    in_fstrings = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                   for n in ast.walk(f)}
    sites = []
    for node in ast.walk(tree):
        if id(node) in in_fstrings:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            old, new = _BINARY[type(node.op)]
            sites.append(Site(*op_between(node.left, node.right, old), old, new))
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in _COMPARE:
                    old, new = _COMPARE[type(op)]
                    sites.append(Site(*op_between(left, right, old), old, new))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append(Site(node.lineno, char_col(node.lineno, node.col_offset),
                              ast.get_source_segment(source, node), str(node.value + 1)))
    return sorted(sites, key=lambda s: (s.line, s.col))


def mutate(source: str, site: Site) -> str:
    start = _offsets(source)[site.line] + site.col
    if source[start:start + len(site.old)] != site.old:
        raise ValueError(f"line {site.line}, column {site.col} does not read {site.old!r}")
    return source[:start] + site.new + source[start + len(site.old):]


def run_tests(root: Path, test_file: str, timeout: float | None) -> tuple[str, float]:
    """("passed", "failed" or "timeout", and the seconds) of ``pytest -x test_file``
    run in ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test_file],
            cwd=root, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("passed" if result.returncode == 0 else "failed"), time.perf_counter() - start


def census(module: str) -> list[Site]:
    """Run the sampled mutants of ``module``; returns the survivors."""
    name = f"{module}.py"
    test_file = f"tests/test_{module}.py"
    original = (REPO / "src" / "pathsig" / name).read_text()
    sites = find_sites(original)
    sample = sorted(random.Random(SEED).sample(sites, min(SITES, len(sites))),
                    key=lambda s: (s.line, s.col))
    lines = original.splitlines()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(REPO / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        target = root / "src" / "pathsig" / name
        status, seconds = run_tests(root, test_file, None)
        if status != "passed":
            raise SystemExit(f"{test_file} fails on the unmutated {name}")
        print(f"{name}: {len(sites)} sites, {len(sample)} sampled with seed {SEED}; "
              f"unmutated run {seconds:.1f} s", flush=True)
        timeout = max(60.0, 10 * seconds)
        for site in sample:
            target.write_text(mutate(original, site))
            status, _ = run_tests(root, test_file, timeout)
            if status == "passed":
                survivors.append(site)
            print(f"  {'SURVIVED' if status == 'passed' else 'killed  '} {name}:{site.line}:"
                  f"{site.col}  {site.old} -> {site.new}  ({status})  "
                  f"{lines[site.line - 1].strip()}", flush=True)
    print(f"{name}: {len(sample) - len(survivors)} of {len(sample)} killed by {test_file}",
          flush=True)
    return survivors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module names of src/pathsig, e.g. io")
    args = parser.parse_args(argv)
    survivors = [census(module) for module in args.modules]
    return 1 if any(survivors) else 0


if __name__ == "__main__":
    sys.exit(main())
