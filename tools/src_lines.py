#!/usr/bin/env python3
"""Each critsense module's lines, split into code, docstring, comment and
blank, for tracking the size of `src/` by what its lines hold.

    python3 tools/src_lines.py [DIR]

DIR defaults to this tree's src/critsense. A line inside the opening string
of a module, class or function is a docstring line, blank ones included; a
line whose first character outside a string is `#` is a comment; a line of
whitespace alone is blank; every other line is code, so a line with code
and a trailing comment is code. Prints one row per module, sorted by name,
then their total, whose lines equal `wc -l` of the modules.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PARTS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the module's, each class's and each function's
    opening string."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The number of lines of each part in one module's source."""
    docstrings = docstring_lines(ast.parse(source))
    comments, in_string = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT and not token.line[: token.start[1]].strip():
            comments.add(token.start[0])
        elif token.type == tokenize.STRING:
            in_string.update(range(token.start[0] + 1, token.end[0] + 1))
    counts = dict.fromkeys(PARTS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docstrings:
            part = "docstring"
        elif number in comments:
            part = "comment"
        elif not line.strip() and number not in in_string:
            part = "blank"
        else:
            part = "code"
        counts[part] += 1
    return counts


def table(src: Path) -> list[tuple[str, int, dict[str, int]]]:
    """(module name, its lines, its parts) for each .py file of src."""
    rows = []
    for path in sorted(src.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, len(source.splitlines()), count(source)))
    return rows


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "critsense"
    if len(argv) > 1 or not src.is_dir():
        print("usage: python3 tools/src_lines.py [DIR]", file=sys.stderr)
        return 2
    rows = table(src)
    total = {part: sum(parts[part] for _, _, parts in rows) for part in PARTS}
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{part:>11}" for part in PARTS))
    for name, lines, parts in [*rows, ("total", sum(lines for _, lines, _ in rows), total)]:
        print(f"{name:<16}{lines:>7}" + "".join(f"{parts[part]:>11}" for part in PARTS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
