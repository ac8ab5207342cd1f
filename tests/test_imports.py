"""Every module-level import in src/hyperlab is used by its module, every
private name it defines is read somewhere in the package, and every
module's `__all__` lists exactly its public definitions.

The scan reads each module's syntax tree: a name bound by a module-level
`import` or `from ... import` must be read somewhere in the module, as a
name, as the root of an attribute, inside a string annotation, or as an
entry of `__all__`.  `from __future__` imports are exempt.  A module-level
function, class or assignment whose name starts with one underscore, and
a method of a module-level class named so, must be read in some module
of the package, as a name, as an attribute or by a `from ... import`.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperlab"

# module -> imported names kept although the module never reads them
ALLOWED = {
    # deskbench/test_deskbench.py::test_wrappers_replace_every_binding
    # asserts that fhc.apply and matops.apply are the same object as
    # seqspace.apply, and that cli.lp_norm is seqspace.lp_norm (see
    # test_the_benchmark_tracer_installs_against_src)
    "cli": {"lp_norm"},
    "fhc": {"apply"},
    "matops": {"apply"},
}


def imported_names(tree: ast.Module) -> dict:
    """Name bound -> line, for the module-level imports."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree: ast.Module) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        # string annotations such as "WeightSeq" or "ShiftOp | None"
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                expr = ast.parse(const.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_unused_module_level_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = read_names(tree) | ALLOWED.get(path.stem, set())
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported_names(tree).items() if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os, re\nimport sys\nfrom typing import Any, List\n"
                     "x: 'List[int]' = sys.argv\n__all__ = ['Any']\ny = 're'\n")
    names = imported_names(tree)
    assert sorted(n for n in names if n not in read_names(tree)) == ["os", "re"]


def private_definitions(tree: ast.Module) -> dict:
    """Name -> line, for the module-level private functions, classes and
    assignments, and the private methods of module-level classes."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
            if isinstance(node, ast.ClassDef):
                out.update((f.name, f.lineno) for f in node.body
                           if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((n.id, node.lineno) for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name))
    return {name: line for name, line in out.items()
            if name.startswith("_") and not name.endswith("__")}


def names_read(tree: ast.Module) -> set:
    """Every name the module reads, attributes and imported names included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(names_read, trees.values()))
    unread = [f"{name}:{line}: {private}" for name, tree in trees.items()
              for private, line in private_definitions(tree).items() if private not in read]
    assert not unread, "private names never read:\n" + "\n".join(unread)


def test_the_scan_sees_an_unread_private_name():
    tree = ast.parse("_used, _unused = 1, 2\n_bare: int = 3\n"
                     "def _helper():\n    return _used\n"
                     "class _Box:\n    def __init__(self):\n        self._seen = self._read()\n"
                     "    def _read(self):\n        return 0\n    def _dead(self):\n        pass\n")
    defined = private_definitions(tree)
    assert sorted(defined) == ["_Box", "_bare", "_dead", "_helper", "_read", "_unused", "_used"]
    assert sorted(set(defined) - names_read(tree)) == ["_Box", "_bare", "_dead", "_helper",
                                                       "_unused"]


def public_definitions(tree: ast.Module) -> set:
    """Names of the module-level defs and classes that do not start with _."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def test_all_lists_exactly_the_public_definitions():
    problems, checked = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        mod = importlib.import_module(f"hyperlab.{path.stem}")
        listed = getattr(mod, "__all__", None)
        if listed is None:      # cli and gammaratio export no list
            continue
        checked += 1
        problems += [f"{path.name}: __all__ names unbound {name!r}"
                     for name in listed if not hasattr(mod, name)]
        problems += [f"{path.name}: public {name!r} missing from __all__"
                     for name in sorted(public_definitions(tree) - set(listed))]
    assert checked >= 6
    assert not problems, "\n".join(problems)


def test_the_all_scan_sees_a_missing_public_definition():
    tree = ast.parse("def f(): pass\nclass C: pass\ndef _g(): pass\n"
                     "__all__ = ['f']\n")
    assert public_definitions(tree) - {"f"} == {"C"}


def test_the_benchmark_tracer_installs_against_src():
    # deskbench/tracer.py wraps hyperlab names by name, private ones
    # included, and raises when one is gone; deskbench/test_deskbench.py
    # reads matops.apply and fhc.apply as the wrapped seqspace.apply.  This
    # suite does not run the benchmark's own tests, so a rename in src/
    # is caught here.
    code = """
import sys
sys.path[:0] = ["src", "deskbench"]
import hyperlab.cli
from hyperlab import fhc, matops, seqspace
from tracer import Tracer
orig = seqspace.apply
Tracer().install()
assert matops.apply is fhc.apply is seqspace.apply is not orig
assert seqspace.apply.__wrapped__ is orig
"""
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)


def test_the_cli_and_an_eigencheck_load_no_mpmath(tmp_path):
    # only the roots of a rational rule's factors of degree 2 or more, and
    # rules too wide for Stirling's series, use mpmath; only --config reads
    # YAML; only a hardy run loads the kernel layer
    code = f"""
import sys
sys.path[:0] = ["src"]
import hyperlab.cli
assert "mpmath" not in sys.modules, "importing hyperlab.cli loaded mpmath"
assert "yaml" not in sys.modules, "importing hyperlab.cli loaded yaml"
assert "hyperlab.hardy" not in sys.modules, "importing hyperlab.cli loaded hyperlab.hardy"
argv = ["check", "--condition", "growth", "--weights", "w=ratio:1,1|0,1;mu=ratio:1,1|0,1",
        "--q", "2", "--n-max", "64", "--out", {str(tmp_path)!r}]
assert hyperlab.cli.main(argv) == 0
assert "yaml" not in sys.modules, "a check run loaded yaml"
assert "mpmath" not in sys.modules, "a check on a rule of linear factors loaded mpmath"
assert "hyperlab.hardy" not in sys.modules, "a check run loaded hyperlab.hardy"
argv = ["hardy", "--check", "eigen", "--phi", "0,1", "--psi", "0,1", "--z", "0.6",
        "--w", "0.6", "--dim", "64", "--out", {str(tmp_path)!r}]
assert hyperlab.cli.main(argv) == 0
assert "mpmath" not in sys.modules, "an eigencheck loaded mpmath"
"""
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)


def test_the_tracer_counts_every_locus_point(tmp_path):
    # deskbench/tracer.py reads hardy.unimodular_locus_sample.points as
    # len() of the scan's result; a result whose len() is not the point
    # count, or a wrapper that changes the report, shows here
    code = f"""
import json, sys
from pathlib import Path
sys.path[:0] = ["src", "deskbench"]
import hyperlab.cli
from tracer import Tracer
argv = ["hardy", "--check", "locus", "--phi", "0,2", "--psi", "0,1", "--grid-density", "8"]
out = Path({str(tmp_path)!r})
assert hyperlab.cli.main(argv + ["--out", str(out / "plain")]) == 0
tracer = Tracer()
tracer.install()
assert hyperlab.cli.main(argv + ["--out", str(out / "traced")]) == 0
plain, traced = ((out / d / "hardy_report.json").read_bytes() for d in ("plain", "traced"))
assert traced == plain, "tracing changed the report"
count = json.loads(plain)["results"]["count"]
points = tracer.metrics()["hardy.unimodular_locus_sample.points"]
assert count > 0 and points == count, (points, count)
"""
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)


def test_the_tracer_hooks_read_a_construction_and_a_check(tmp_path):
    # installing the tracer checks its targets only; its hooks read the
    # results too (the verifier's hook reads ClassVisitReport.truncated), so
    # run them once on a small construct-fhc and a check of each condition.
    # The check hook counts |I| |J| (r_max + 1) cells a call: a checker the
    # CLI reaches around the traced names leaves its cells out of the sum
    code = f"""
import sys
sys.path[:0] = ["src", "deskbench"]
import hyperlab.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
out = {str(tmp_path)!r}
assert hyperlab.cli.main(["construct-fhc", "--weights", "w=constant:2", "--targets", "0|0,1",
                          "--horizon", "300", "--out", out]) == 0
checks = [  # (argv, exit code, grid cells)
    (["growth", "--q", "2", "--n-max", "64"], 0, 5 * 5 * 33),
    (["bilateral", "--weights", "w=constant:2@Z;mu=constant:2@Z", "--i-range=-1:1",
      "--j-range", "0:1", "--r-max", "2", "--n-max", "16"], 2, 3 * 2 * 3),
    (["schatten", "--i-range", "0:2", "--j-range", "0:0", "--r-max", "1", "--n-max", "16"],
     0, 3 * 1 * 2),
    (["diagonal", "--weights", "lam=constant:2;mu=constant:2", "--i-range", "0:1",
      "--j-range", "0:3", "--r-max", "3", "--n-max", "16"], 0, 2 * 4 * 4),
]
for argv, code, _ in checks:
    assert hyperlab.cli.main(["check", "--condition", *argv, "--out", out]) == code, argv
m = tracer.metrics()
assert m["fhc.verify_q_frequent_visits.times_scanned"] > 0, m
assert m["fhc.verify_q_frequent_visits.truncated_classes"] == 0, m
assert m["checkers.check.grid_cells"] == sum(cells for *_, cells in checks), m
"""
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)
