"""``tools/code_lines.py``, the code-line counter behind the sizes that
CHANGES.md and ROADMAP.md give for ``src/ans``."""

import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "code_lines.py"

# 8 code lines: the import, both ``def``/``class`` lines, ``value = 1``, and
# two lines each of the string literal and of the bracketed return.
SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment on its own line
def f(x):
    """Function docstring."""
    text = """a string that
    is not a docstring"""
    return (x,
            text)


class C:
    """Class docstring."""

    value = 1
'''


def test_code_lines_counts_code_but_no_blank_comment_or_docstring(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text('x = 1\n\n# end\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "9\n"


def test_code_lines_prints_a_count_per_path_then_the_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text('x = 1\n\n# end\n')
    paths = [str(tmp_path / "pkg"), str(tmp_path / "b.py")]
    out = subprocess.run([sys.executable, str(TOOL), *paths],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == f"8 {paths[0]}\n1 {paths[1]}\n9 total\n"
