"""Count each module's lines as code, docstring, comment or blank.

    python3 tools/src_lines.py [DIR]

DIR defaults to src/simplexcut under the repository root; every *.py file
in it is counted, and a total row follows.  A code line holds part of a
token other than a comment or a docstring; a docstring line holds part of
a module, class or function docstring and no code; a comment line holds a
comment and nothing else; a blank line holds only whitespace.  wc -l
counts all four, so a change that deletes docstrings or comments shrinks
it without removing any code; the code column does not move.  Standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each docstring's string token starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of source of each kind in KINDS."""
    docstring_starts = _docstring_starts(ast.parse(source))
    code: set[int] = set()
    docstrings: set[int] = set()
    comments: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        lines = range(token.start[0], token.end[0] + 1)
        if token.type == tokenize.COMMENT:
            comments.update(lines)
        elif token.type == tokenize.STRING and token.start in docstring_starts:
            docstrings.update(lines)
        elif token.type not in _LAYOUT:
            code.update(lines)
    counts = dict.fromkeys(KINDS, 0)
    for number in range(1, len(source.splitlines()) + 1):
        if number in code:
            kind = "code"
        elif number in docstrings:
            kind = "docstring"
        elif number in comments:
            kind = "comment"
        else:  # whitespace, or at most a line continuation
            kind = "blank"
        counts[kind] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src" / "simplexcut"))
    args = parser.parse_args(argv)
    rows = [(p.name, count_lines(p.read_text())) for p in sorted(Path(args.dir).glob("*.py"))]
    totals = {kind: sum(counts[kind] for _name, counts in rows) for kind in KINDS}
    width = max([len("total")] + [len(name) for name, _counts in rows])
    print(f"{'module':<{width}} {'lines':>6}" + "".join(f" {kind:>9}" for kind in KINDS))
    for name, counts in rows + [("total", totals)]:
        cells = "".join(f" {counts[kind]:>9}" for kind in KINDS)
        print(f"{name:<{width}} {sum(counts.values()):>6}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
