"""Count the code lines of Python files: a module, or every one under a directory.

A code line holds at least one token that is not a comment, and is not part
of a module, class or function docstring. Blank lines, comment-only lines and
docstrings do not count; every line of a multi-line statement or string
literal does.

    python tools/code_lines.py src/ans
    python tools/code_lines.py src/ans/server.py src/ans/cli.py

Given one path it prints one number; given several, one ``count path`` line
for each, then ``count total``.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def path_lines(path: pathlib.Path) -> int:
    """The code lines of the module at ``path``, or of every module under it."""
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return sum(code_lines(file.read_text(encoding="utf-8")) for file in files)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: code_lines.py PATH...", file=sys.stderr)
        return 2
    counts = [path_lines(pathlib.Path(arg)) for arg in argv]
    if len(argv) == 1:
        print(counts[0])
        return 0
    for arg, count in zip(argv, counts):
        print(count, arg)
    print(sum(counts), "total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
