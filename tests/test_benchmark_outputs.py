"""The benchmark's outputs at its default seed, pinned in perfbench/golden.json.

Each workload's task batch from perfbench/workloads.py runs here in this
process, as one pass of perfbench/run.py runs it in a fresh one, and its
outcomes must equal the golden file and pass the workload's own checks.
A change that moves a benchmark output then fails here, not only in the
benchmark.  perfbench/ is read, never written.
"""

import json

import pytest

from test_benchmark_names import PERFBENCH, load_perfbench

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", list(GOLDEN))
def test_the_benchmark_outputs_match_the_golden_file(workload, monkeypatch, tmp_path):
    workloads = load_perfbench(monkeypatch, "workloads")
    tasks = workloads.generate(workload, workloads.DEFAULT_SEED)
    results = str(tmp_path / "results")
    # as run.py's pre-scan: rescan's cached specs are swept once before the pass
    prescan = [workloads.run_task(task, results) for task in tasks if task.get("cached")]
    outcomes = [workloads.run_task(task, results) for task in tasks]
    assert tasks == GOLDEN[workload]["tasks"]
    assert list(map(workloads.golden_form, outcomes)) == GOLDEN[workload]["outcomes"]
    assert [out for task, out in zip(tasks, outcomes) if task.get("cached")] == prescan
    assert [workloads.check(task, out) for task, out in zip(tasks, outcomes)] == [[]] * len(tasks)
