"""One measured pass of a desk-benchmark workload, in a fresh process.

    python3 deskbench/worker.py --workload NAME --seed N --t0 EPOCH_SECONDS
                                [--trace 0|1] [--setup-only] --out DIR

Run from the root of a checkout: hyperlab is imported from ./src.  Set-up
time is measured from --t0, the parent's clock reading just before it
started this process, to the moment the first task could start.  A fixed
calibration kernel is timed after set-up and after every task, so the
caller can rescale each time to a reference speed.  The process prints one
JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CAL_ROUNDS = 3


def calibrate(rounds: int) -> float:
    """Median seconds of one round of a fixed mix of interpreter and
    small-numpy work."""
    import numpy as np

    v = np.arange(512, dtype=complex)

    def one_round() -> float:
        t = time.perf_counter()
        table: dict = {}
        for i in range(40_000):
            k = i % 4096
            table[k] = table.get(k, 0.0) + (i ** 0.5) * 1.0000001
        acc = 0.0
        for _ in range(2_000):
            acc += abs(np.vdot(v, v))
        return time.perf_counter() - t

    return statistics.median(one_round() for _ in range(rounds))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = Path.cwd() / "src"
    if not (src / "hyperlab" / "__init__.py").is_file():
        print(f"error: no hyperlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    import hyperlab.cli  # noqa: F401  (imports every layer)
    import workloads

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    tasks = workloads.build_tasks(args.workload, args.seed, outdir)
    setup_s = time.time() - args.t0
    calibrate(1)    # warm-up
    cal = calibrate(CAL_ROUNDS)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cal_s": cal}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    setup_cal = cal
    results = []
    wall = 0.0
    for task in tasks:
        if tracer is not None:
            tracer.start_task()
        t = time.perf_counter()
        try:
            out = task.run()
            error = None
        except Exception:   # a failing task is counted and the pass goes on
            out, error = None, traceback.format_exc(limit=4)
        dt = time.perf_counter() - t
        wall += dt
        cal_after = calibrate(CAL_ROUNDS)
        if error is None:
            try:
                problems = task.check(out)
            except Exception:   # a result the oracle cannot read is wrong
                problems = [traceback.format_exc(limit=4)]
        else:
            problems = [error]
        # the kernel timed on both sides of the task tracks the machine's
        # speed while the task ran
        entry = {"task": task.name, "seconds": dt, "cal_s": (cal + cal_after) / 2,
                 "problems": problems}
        cal = cal_after
        if isinstance(out, workloads.CliResult):
            entry["digest"] = workloads.report_digest(out)
            entry["report_bytes"] = len(out.report or b"")
        results.append(entry)

    import mpmath
    import numpy
    doc = {
        "setup_s": setup_s,
        "setup_cal_s": setup_cal,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tasks": results,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "mpmath": mpmath.__version__},
    }
    if tracer is not None:
        doc["layers"] = tracer.metrics()
        doc["covered_s"] = tracer.clock.covered_s
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
