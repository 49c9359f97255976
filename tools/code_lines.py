"""Count the code lines of src/fedquad, per module and in total.

    python tools/code_lines.py

A code line is a source line that is not blank, not a comment alone and
not part of a docstring (the string that opens a module, class or
function body, found with ast). Run from the root of a checkout; prints
one "count path" line per module, then "count total".
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers every docstring of the tree spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if number not in skip and line.strip()
               and not line.strip().startswith("#"))


def main() -> int:
    total = 0
    for path in sorted(Path("src/fedquad").glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5d} {path}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
