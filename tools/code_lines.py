"""Count the code lines of the Python files under a directory.

A code line holds at least one token that is not a comment, and is not part
of a module, class or function docstring. Blank lines, comment-only lines and
docstrings do not count; every line of a multi-line statement or string
literal does.

    python tools/code_lines.py src/ans
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    files = sorted(pathlib.Path(argv[0]).rglob("*.py"))
    print(sum(code_lines(path.read_text(encoding="utf-8")) for path in files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
