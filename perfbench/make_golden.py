"""Write golden.json: the outputs of one pass of every workload at the default seed.

    python3 perfbench/make_golden.py

Run once, from a commit whose outputs are trusted; run.py compares every
later pass at the default seed against the file.  Nothing is written when
a seed-independent check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        seed = workloads.DEFAULT_SEED
        tasks = workloads.generate(workload, seed)
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
        try:
            snapshot = None
            deadline = time.monotonic() + run.DEADLINE_S
            if workload == "rescan":
                run.run_worker(workload, seed, workdir, "prescan", deadline, only_cached=True)
                snapshot = workdir / "results-prescan"
            outcomes = run.run_worker(
                workload, seed, workdir, "golden", deadline, snapshot=snapshot
            )["outcomes"]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        problems = [p for t, o in zip(tasks, outcomes) for p in workloads.check(t, o)]
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        golden[workload] = {
            "tasks": tasks,
            "outcomes": [workloads.golden_form(o) for o in outcomes],
        }
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
