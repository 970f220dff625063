"""Line counts of ``src``: total, code, docstring, and blank or comment.

Usage, from the repository root:

    python tools/loc.py [directory ...]

Every ``*.py`` file under each directory (``src`` by default) is counted.
A docstring line is any line of a module, class or function docstring,
blank ones included.  A code line is any other line that is not blank and
does not start with ``#`` once indented; the rest are blank or comment
lines.  The script prints one line per file and a total, and uses the
standard library only.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def split(source: str) -> dict[str, int]:
    """The total, code, docstring and blank-or-comment line counts of ``source``."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    counts = {"total": len(lines), "code": 0, "docstring": len(docstring), "blank_or_comment": 0}
    for lineno, line in enumerate(lines, start=1):
        if lineno not in docstring:
            text = line.strip()
            counts["blank_or_comment" if not text or text.startswith("#") else "code"] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", default=[str(REPO / "src")])
    args = parser.parse_args(argv)
    total = dict.fromkeys(("total", "code", "docstring", "blank_or_comment"), 0)
    for directory in args.dirs:
        for path in sorted(Path(directory).rglob("*.py")):
            counts = split(path.read_text(encoding="utf-8"))
            print(f"{path}: " + ", ".join(f"{counts[k]:,} {k}" for k in total))
            for key in total:
                total[key] += counts[key]
    print("total: " + ", ".join(f"{total[k]:,} {k}" for k in total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
