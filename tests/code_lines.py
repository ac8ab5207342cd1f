"""Count code lines: the lines of Python source that hold a token other than
a comment or a docstring, blank lines aside.

    python tests/code_lines.py src/hyperlab

prints each file's count and the total.  A docstring is a string statement
that opens a module, a class or a function body; every other string counts
on each line it spans.

    python tests/code_lines.py --options src/hyperlab

counts option values instead: it lists every function or method parameter
that has a default and every dataclass field that has one, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers the docstrings of a module span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if (dec.id if isinstance(dec, ast.Name) else getattr(dec, "attr", None)) == "dataclass":
            return True
    return False


def options(source: str) -> list:
    """(line, name) of each option value of source: a parameter of a
    function or method with a default, or a dataclass field with one, named
    by its qualified owner."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = owner + child.name
                a = child.args
                positional = a.posonlyargs + a.args
                found.extend((arg.lineno, f"{name}.{arg.arg}")
                             for arg in positional[len(positional) - len(a.defaults):])
                found.extend((arg.lineno, f"{name}.{arg.arg}")
                             for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    found.extend((f.lineno, f"{owner}{child.name}.{f.target.id}")
                                 for f in child.body
                                 if isinstance(f, ast.AnnAssign) and f.value is not None
                                 and isinstance(f.target, ast.Name))
                visit(child, owner + child.name + ".")
            else:
                visit(child, owner)

    visit(ast.parse(source), "")
    return sorted(found)


def _paths(roots: list):
    for root in roots or ["src/hyperlab"]:
        root = Path(root)
        yield from sorted(root.rglob("*.py")) if root.is_dir() else [root]


def main(argv: list) -> int:
    total = 0
    if argv[:1] == ["--options"]:
        for path in _paths(argv[1:]):
            for line, name in options(path.read_text()):
                total += 1
                print(f"{path}:{line}  {name}")
        print(f"{total:6d}  option values")
        return 0
    for path in _paths(argv):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
