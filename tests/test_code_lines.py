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


OPTIONS_SNIPPET = '''from dataclasses import dataclass, field
import dataclasses


def f(a, b=1, *args, c, d=2, **kw):
    def inner(e=3):
        return e
    return inner


@dataclass(frozen=True)
class D:
    x: int
    y: int = 0
    z: list = field(default_factory=list)
    plain = 5

    def method(self, t=0.5):
        return t

    @classmethod
    def make(cls, u, /, v=None):
        return cls(u)


@dataclasses.dataclass
class E:
    w: float = 1.0


class Plain:
    k: int = 1

    def go(self, s=""):
        return s
'''


def test_option_values_are_defaulted_parameters_and_dataclass_fields():
    from code_lines import options
    assert [name for _, name in options(OPTIONS_SNIPPET)] == [
        "f.b", "f.d", "f.inner.e", "D.y", "D.z", "D.method.t", "D.make.v", "E.w",
        "Plain.go.s"]
    assert options("def g(a, *, b):\n    return a\n") == []


def test_the_option_counter_runs_on_a_directory(tmp_path):
    (tmp_path / "a.py").write_text(OPTIONS_SNIPPET)
    out = subprocess.run([sys.executable, str(Path(__file__).with_name("code_lines.py")),
                          "--options", str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0].endswith("a.py:5  f.b")
    assert out[-1].split() == ["9", "option", "values"]
