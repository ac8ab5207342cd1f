"""The code-line counter that sizes the package: docstrings, comments and
blank lines do not count, every other line a token touches does."""

import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

SNIPPET = '''"""A module docstring
over two lines."""

import math   # a comment after code counts as code

# a comment line


def f(x):
    """A function docstring."""
    text = """a string that is no docstring,
spread over
three lines"""
    return math.sqrt(x) + len(text)


class C:
    """A class docstring,
    two lines."""

    value = ("a",
             "b")
'''


def test_docstrings_and_comments_do_not_count():
    # import, def, the three lines of the string, return, class and the
    # two lines of the tuple
    assert code_lines(SNIPPET) == 9
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_the_counter_runs_on_a_directory(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(Path(__file__).with_name("code_lines.py")),
                          str(tmp_path)], capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1].split() == ["10", "total"]
