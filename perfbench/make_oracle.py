"""Write oracle.json: exit code and output sha256 of every pool item.

    python3 perfbench/make_oracle.py [WORKLOAD ...]

Runs every item the plan pools allow (plan.pool_plan) once, through the
same worker as the benchmark, and stores ``{id: [sha256, exit code]}``
per workload. Only regenerate it for a commit whose outputs are known to
be right: it is the reference every later run is compared against.
Items that raise or are killed stop the script without writing.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import plan as plans
from run import BENCH, ORACLE, run_worker

ROUND_TIMEOUT_S = 300.0


def main(argv: list[str]) -> int:
    workloads = argv or list(plans.WORKLOADS)
    oracle = json.loads(ORACLE.read_text()) if ORACLE.is_file() else {}
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        for workload in workloads:
            refs, times = {}, {}
            for round_ in plans.pool_plan(workload)["rounds"]:
                result = run_worker(round_, "run", work, ROUND_TIMEOUT_S)
                for item in round_["items"]:
                    row = result["rows"].get(item["id"])
                    if row is None or "error" in row:
                        print(f"{item['id']}: {row and row['error'] or 'unfinished'}", file=sys.stderr)
                        return 1
                    refs[item["id"]] = [row["sha"], row["code"]]
                    times.setdefault(item["kind"], []).append(row["t"])
            oracle[workload] = dict(sorted(refs.items()))
            for kind, ts in times.items():
                print(f"{workload:<16} {kind:<40} n={len(ts):<3} "
                      f"median={statistics.median(ts):.3f}s max={max(ts):.3f}s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ORACLE.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
