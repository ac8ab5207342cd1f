"""Checks of the benchmark itself.

    python3 -m pytest deskbench -q

The report-identity test runs every workload twice, so it takes about a
minute.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import SpanClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_is_span_minus_direct_children():
    # a [0, 10]
    #   b [1, 4]
    #     c [2, 3]
    #   b [5, 9]      (second call of b)
    #     c [6, 6.5]
    #     d [7, 8.5]
    # e [11, 12]      a second top-level span
    clock = SpanClock()
    events = [("enter", "a", 0), ("enter", "b", 1), ("enter", "c", 2), ("exit", 3),
              ("exit", 4), ("enter", "b", 5), ("enter", "c", 6), ("exit", 6.5),
              ("enter", "d", 7), ("exit", 8.5), ("exit", 9), ("exit", 10),
              ("enter", "e", 11), ("exit", 12)]
    for ev in events:
        if ev[0] == "enter":
            clock.enter(ev[1], ev[2])
        else:
            clock.exit(ev[1])
    assert clock.self_s == pytest.approx({"a": 10 - 3 - 4, "b": (3 - 1) + (4 - 0.5 - 1.5),
                                          "c": 1.5, "d": 1.5, "e": 1})
    assert dict(clock.calls) == {"a": 1, "b": 2, "c": 2, "d": 1, "e": 1}
    assert clock.covered_s == pytest.approx(11)
    # self times partition the covered time
    assert sum(clock.self_s.values()) == pytest.approx(clock.covered_s)


def test_wrappers_replace_every_binding():
    code = """
import sys
sys.path[:0] = ["src", "deskbench"]
import hyperlab.cli
from hyperlab import cli, density, fhc, matops, seqspace
from tracer import Tracer
orig = seqspace.shift_power_apply, seqspace.lp_norm, seqspace.apply
Tracer().install()
assert fhc.shift_power_apply is seqspace.shift_power_apply is not orig[0]
assert fhc.lp_norm is density.lp_norm is cli.lp_norm is seqspace.lp_norm is not orig[1]
assert matops.apply is fhc.apply is seqspace.apply is not orig[2]
assert seqspace.shift_power_apply.__wrapped__ is orig[0]
"""
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)


@pytest.mark.parametrize("remove, error", [
    ("del seqspace.WeightPrefix", "AttributeError"),
    ("del fhc.BackwardOrbitFamily.inverse_point", "AttributeError"),
    ("del checkers._LogTable", "AttributeError"),
    ("del fhc.find_tail_threshold", "RuntimeError"),      # a hooked function
    ("del matops.shift_matrix", "KeyError"),              # a plain span
])
def test_a_missing_target_fails_install(remove, error):
    code = f"""
import sys
sys.path[:0] = ["src", "deskbench"]
import hyperlab.cli
from hyperlab import checkers, fhc, matops, seqspace
{remove}
from tracer import Tracer
Tracer().install()
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stderr.strip().splitlines()[-1].startswith(error), proc.stderr


def _pass(workload: str, trace: int, outdir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "5",
         "--t0", repr(time.time()), "--trace", str(trace), "--out", str(outdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_reports_are_byte_identical(workload, tmp_path):
    plain = _pass(workload, 0, tmp_path / "plain")
    traced = _pass(workload, 1, tmp_path / "traced")
    digests = [{t["task"]: t.get("digest") for t in p["tasks"]} for p in (plain, traced)]
    assert any(digests[0].values())
    assert digests[0] == digests[1]
    for p in (plain, traced):
        assert all(not t["problems"] for t in p["tasks"]), p["tasks"]
