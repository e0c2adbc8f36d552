"""Raw and code lines of each module of ``src/factorlab``, and their totals.

Usage, from the repository root:

    python3 tools/loc.py

A code line holds a token other than a comment, a newline, an indent or a
dedent, and lies outside every module, class and function docstring; a
raw line is any line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "factorlab"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of the module's, each class's and each function's docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """Raw and code lines of a module's ``source``."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main() -> int:
    totals = [0, 0]
    print(f"{'module':<16}{'raw':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        raw, code = count(path.read_text())
        totals[0] += raw
        totals[1] += code
        print(f"{path.name:<16}{raw:>7}{code:>7}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
