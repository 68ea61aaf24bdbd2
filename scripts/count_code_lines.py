"""Count the code lines of the package, of its tests and of its scripts.

A code line is a physical line that holds at least one token other than a
comment, and that is not part of a docstring: the tokenizer drops comments
and blank lines, and the AST drops module, class and function docstrings.

Usage::

    python3 scripts/count_code_lines.py [ROOT]

prints the count of each module in ``src/semsim``, the package total and
the totals for ``tests/`` and ``scripts/``, for the repository at ``ROOT``
(default: the one holding this script).
"""

import ast
import io
import pathlib
import sys
import tokenize

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _count_file(path: pathlib.Path) -> int:
    return count_code_lines(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parent.parent
    modules = {p.stem: _count_file(p) for p in sorted((root / "src" / "semsim").glob("*.py"))}
    for name, count in sorted(modules.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {name:<12} {count:>6,}")
    print(f"src/semsim   {sum(modules.values()):>6,}")
    for directory in ("tests", "scripts"):
        total = sum(_count_file(p) for p in sorted((root / directory).rglob("*.py")))
        print(f"{directory + '/':<12} {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
