"""Count the code lines of the streamseq package, per module and in total.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT, DEDENT or the end marker, and no part of it belongs to a module,
class or function docstring.  Blank lines, comment lines and docstrings
are therefore free, and a statement split over several lines counts
each of them.

    python3 tools/code_lines.py

It counts src/streamseq of the checkout that holds it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_FREE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers that a module, class or function docstring spans."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at `path`."""
    source = path.read_text(encoding="utf-8")
    counted = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _FREE:
            counted.update(range(tok.start[0], tok.end[0] + 1))
    return len(counted - docstring_lines(source))


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "streamseq"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
