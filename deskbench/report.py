"""Print every end-to-end metric of every workload in one table.

    python3 deskbench/report.py

Run from the root of a checkout.  Each workload runs RUNS times untraced,
with seeds 1..RUNS and BENCHMARK.json's run_seconds; each metric is given as
the median and quartiles over the runs, with its unit and sample count.
fail_frac is failed over attempted tasks, summed over the runs.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUNS = 3


def main() -> int:
    seconds = json.loads((Path.cwd() / "BENCHMARK.json").read_text())["run_seconds"]
    print(f"{'workload':<11} {'metric':<12} {'unit':<6} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'n':>4}")
    for workload in WORKLOADS:
        results = []
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        for name, unit in END_TO_END_UNITS.items():
            st = quartiles([r["metrics"][name]["value"] for r in results])
            print(f"{workload:<11} {name:<12} {unit:<6} {st['median']:>10.4f} "
                  f"{st['q1']:>10.4f} {st['q3']:>10.4f} {st['n']:>4}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload:<11} {'fail_frac':<12} {'ratio':<6} {failed / attempted:>10.4f} "
              f"{'':>10} {'':>10} {attempted:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
