"""Record the SHA-256 of every CLI report of every workload into digests.json.

    python3 deskbench/record_digests.py

Run from the root of a checkout.  Each workload runs once per CLI seed
variant (the workload seed modulo CLI_SEED_VARIANTS), untraced and with the
benchmark's thread pinning.  The traced run counts the reports whose digest
differs from this record as cli.report_bytes_changed, so re-record only on
purpose, when a change of report bytes has been accepted.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import remove_outdir, run_worker  # noqa: E402
from workloads import CLI_SEED_VARIANTS, WORKLOADS  # noqa: E402


def main() -> int:
    root = Path.cwd()
    outdir = root / ".deskbench_out" / "record"
    record = {}
    try:
        for workload in WORKLOADS:
            record[workload] = {}
            for variant in range(CLI_SEED_VARIANTS):
                doc = run_worker(root, outdir, workload, variant, "--trace", "0")
                bad = [t["task"] for t in doc["tasks"] if t["problems"]]
                if bad:
                    print(f"error: {workload} seed {variant}: failing tasks {bad}",
                          file=sys.stderr)
                    return 1
                record[workload][str(variant)] = {
                    t["task"]: t["digest"] for t in doc["tasks"] if "digest" in t}
                print(workload, variant, file=sys.stderr)
    finally:
        remove_outdir(outdir)
    (HERE / "digests.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
