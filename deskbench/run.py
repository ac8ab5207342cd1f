"""Desk benchmark for hyperlab.

    python3 deskbench/run.py --workload visit-scan|long-jumps|spectral
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; hyperlab is imported from ./src.  One
caller runs the workload's fixed, seed-generated task list back to back (a
closed loop with a single client).  Each pass of the list runs in a fresh
worker process, and passes repeat until --seconds is used up, at least
MIN_PASSES times.  Before each pass, extra fresh processes that stop after
set-up add set-up samples.  BLAS and OpenMP are pinned to one thread.

Times are reported at the reference machine's speed: every worker times a
fixed calibration kernel next to its work, and each of its times is scaled
by REF_CAL_S over that kernel time.  The raw times are in the details line.

With --trace 0 the result holds the end-to-end metrics, each the median
over the run's samples.  With --trace 1 the run alternates untraced and
traced passes and reports the per-layer metrics of the traced ones.  The
last stdout line is the result; the line before it gives sample counts,
quartiles, per-task times and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER_UNITS  # noqa: E402
from worker import CAL_ROUNDS, calibrate  # noqa: E402
from workloads import CLI_SEED_VARIANTS, WORKLOADS  # noqa: E402

MIN_PASSES = 3
WORKER_TIMEOUT_S = 60
# No new pass starts after this, so a run ends inside three minutes.
START_DEADLINE_S = 45

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# numpy asks for transparent huge pages on arrays of 4 MiB and more, and the
# kernel collapses them whenever its background scan gets there, so the peak
# RSS of one pass jumped by 4 MB from pass to pass
WORKER_ENV = {**THREAD_ENV, "NUMPY_MADVISE_HUGEPAGE": "0"}

# Seconds one round of the calibration kernel takes on the reference machine
# (2 vCPUs, Python 3.11.7, numpy 2.4.6) in a quiet stretch.  Timed metrics
# are reported at that speed: the host this was built on runs up to 2x
# slower for stretches from a fraction of a second to longer than a run, and
# the kernel, timed in the same process right next to the work, slows with
# it.
REF_CAL_S = 0.0088

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.uncovered_share": "ratio",
               "cli.report_bytes": "count", "cli.report_bytes_changed": "count"}


class WorkerError(RuntimeError):
    pass


def run_worker(root: Path, outdir: Path, workload: str, seed: int, *extra: str) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    spawn_cal = calibrate(CAL_ROUNDS)
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(outdir), "--t0", repr(t0), *extra],
        cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    doc = json.loads(lines[-1])
    # set-up runs between the parent's calibration and the child's first one
    doc["setup_cal_s"] = (spawn_cal + doc["setup_cal_s"]) / 2
    return doc


def remove_outdir(outdir: Path) -> None:
    """Delete a run's report directory, and its parent once no run uses it."""
    shutil.rmtree(outdir, ignore_errors=True)
    try:
        outdir.parent.rmdir()
    except OSError:
        pass


def at_ref(seconds: float, cal_s: float) -> float:
    """A time measured next to a calibration time, in seconds at the
    reference machine's speed."""
    return seconds * REF_CAL_S / cal_s


def pass_wall(p: dict) -> float:
    """A pass's task time at the reference speed."""
    return sum(at_ref(t["seconds"], t["cal_s"]) for t in p["tasks"])


def quartiles(values: list) -> dict:
    vals = sorted(values)
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
    return {"median": statistics.median(vals), "q1": q[0], "q3": q[2], "n": len(vals)}


def _environment(root: Path, versions: dict) -> dict:
    # the ceiling keeps git from reading repositories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            **versions, "worker_env": WORKER_ENV}


def _recorded_digests(workload: str) -> dict:
    path = HERE / "digests.json"
    return json.loads(path.read_text()).get(workload, {}) if path.is_file() else {}


def measure(root: Path, outdir: Path, workload: str, seed: int, seconds: int,
            trace: bool) -> tuple[dict, dict]:
    """Run the passes; returns (result line, details)."""
    start = time.perf_counter()
    setups, plain, traced = [], [], []
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        done = len(traced) if trace else len(plain)
        enough = done >= (1 if trace else MIN_PASSES)
        if enough and (elapsed + last > seconds or elapsed > START_DEADLINE_S):
            break
        t = time.perf_counter()
        # set-up probes are spread over the run, like the passes
        setups.append(run_worker(root, outdir, workload, seed, "--setup-only"))
        plain.append(run_worker(root, outdir, workload, seed, "--trace", "0"))
        if trace:
            traced.append(run_worker(root, outdir, workload, seed, "--trace", "1"))
        last = time.perf_counter() - t
    passes = plain + traced
    setups += passes

    attempted = sum(len(p["tasks"]) for p in passes)
    failures = {}
    for p in passes:
        for task in p["tasks"]:
            if task["problems"]:
                failures.setdefault(task["task"], task["problems"][0][-300:])
    # tracing must not change a report byte
    want = {t["task"]: t.get("digest") for t in plain[0]["tasks"]}
    for p in traced:
        for task in p["tasks"]:
            if task.get("digest") != want[task["task"]]:
                failures.setdefault(task["task"], "traced report differs from untraced")
                task["problems"].append("traced report differs")
    failed = sum(1 for p in passes for t in p["tasks"] if t["problems"])

    task_samples = {t["task"]: [at_ref(q["seconds"], q["cal_s"]) for p in plain
                                for q in p["tasks"] if q["task"] == t["task"]]
                    for t in plain[0]["tasks"]}
    stats = {
        "setup_s": quartiles([at_ref(p["setup_s"], p["setup_cal_s"]) for p in setups]),
        "peak_rss_mb": quartiles([p["peak_rss_mb"] for p in plain]),
        "raw_setup_s": quartiles([p["setup_s"] for p in setups]),
        "raw_pass_wall_s": quartiles([p["wall_s"] for p in plain]),
        "calibration_s": quartiles([p["setup_cal_s"] for p in setups]),
    }
    # task by task, so a burst of machine noise that slows part of one pass
    # does not move the total
    wall_s = sum(statistics.median(v) for v in task_samples.values())
    if trace:
        metrics = _trace_metrics(workload, seed, plain, traced)
    else:
        values = {"setup_s": stats["setup_s"]["median"], "wall_s": wall_s,
                  "peak_rss_mb": stats["peak_rss_mb"]["median"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    details = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "samples": stats,
        "wall_s": wall_s,
        "fail_frac": failed / attempted,
        "failures": failures,
        "task_seconds": task_samples,
        "environment": _environment(root, plain[0]["versions"]),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def _trace_metrics(workload: str, seed: int, plain: list, traced: list) -> dict:
    recorded = _recorded_digests(workload).get(str(seed % CLI_SEED_VARIANTS), {})
    def scale(p: dict) -> float:
        return pass_wall(p) / p["wall_s"]

    values = {name: statistics.median(
        p["layers"][name] * (scale(p) if unit == "s" else 1) for p in traced)
        for name, unit in PER_LAYER_UNITS.items()}
    values["trace.overhead_s"] = (statistics.median(pass_wall(p) for p in traced)
                                  - statistics.median(pass_wall(p) for p in plain))
    values["trace.uncovered_share"] = statistics.median(
        (p["wall_s"] - p["covered_s"]) / p["wall_s"] for p in traced)
    cli_tasks = [t for t in traced[0]["tasks"] if "digest" in t]
    values["cli.report_bytes"] = sum(t["report_bytes"] for t in cli_tasks)
    values["cli.report_bytes_changed"] = sum(
        1 for t in cli_tasks if recorded.get(t["task"]) != t["digest"])
    units = {**PER_LAYER_UNITS, **TRACE_UNITS}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="desk benchmark for hyperlab")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hyperlab" / "__init__.py").is_file():
        print(f"error: {root} holds no hyperlab sources (src/hyperlab); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    outdir = root / ".deskbench_out" / str(os.getpid())
    try:
        result, details = measure(root, outdir, args.workload, args.seed,
                                  args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        remove_outdir(outdir)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
