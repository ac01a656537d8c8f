"""Benchmark of eiscong, driven through the package's public functions.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Each pass runs the workload's task batch once, cold, in a fresh
interpreter (worker.py), as a command-line user would.  Passes repeat
until --seconds have been spent.  Every time is scaled to a host of fixed
speed by a speed probe run inside the pass (see scaled), then reported as
a median over passes or a quantile over the tasks' medians; the unscaled
medians are printed too.  With --trace 1 the
passes alternate between untraced and traced ones, and the per-layer
numbers come from the traced passes (tracer.py); end-to-end numbers
always come from untraced passes.

After the passes every output is checked: against the golden outputs for
the default seed, and by seed-independent checks for every seed.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when a check fails,
2 when the package cannot be found or run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

GOLDEN = HERE / "golden.json"

#: median time of one repetition of worker.SpeedProbe on the reference host
#: (the 2-vCPU Xeon of NOTES.md); scaled times are times on a host this fast
REFERENCE_PROBE_S = 0.0065

#: fewest passes per run; with --trace 1, fewest of each kind
MIN_PASSES = 3
MIN_TRACED = 2
#: no pass starts after this many seconds, whatever --seconds says
HARD_LIMIT_S = 120
#: every pass of a workload must have ended this many seconds after its start
DEADLINE_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("task_p50_s", "s"),
    ("task_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)
LAYER_UNITS = {"calls": "count", "coeff_products": "count", "wide_calls": "count",
               "cells": "count", "bytes_read": "B", "records_appended": "count"}


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def run_worker(workload, seed, workdir: Path, tag: str, deadline: float, trace=False,
               snapshot: Path | None = None, only_cached=False) -> dict:
    """Run one pass in a fresh interpreter and return what it measured."""
    out = workdir / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(out),
        "--results-dir", str(workdir / f"results-{tag}"),
    ]
    if snapshot is not None:
        cmd += ["--snapshot", str(snapshot)]
    if only_cached:
        cmd.append("--only-cached")
    if trace:
        cmd.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    started = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(started)],
        env=env, stdout=subprocess.DEVNULL,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise BenchError(f"pass {tag} of {workload} exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["wall_s"] = time.monotonic() - started
    return result


def run_passes(workload, seed, seconds, trace, workdir: Path, snapshot, deadline):
    """Untraced and (with trace) traced passes until the time is spent."""
    plain, traced = [], []
    begin = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - begin
        short = (len(plain) < MIN_TRACED or len(traced) < MIN_TRACED) if trace \
            else len(plain) < MIN_PASSES
        if not short and (elapsed + last > seconds or elapsed > HARD_LIMIT_S):
            break
        if short and elapsed > HARD_LIMIT_S:
            raise BenchError(f"{workload}: too slow for the fewest passes")
        traced_now = trace and len(traced) < len(plain)
        tag = f"pass-{len(plain) + len(traced)}"
        result = run_worker(workload, seed, workdir, tag, deadline, traced_now, snapshot)
        (traced if traced_now else plain).append(result)
        last = result["wall_s"]
    return plain, traced


def scaled(res) -> dict:
    """One pass's set-up, pass and task times, scaled to the reference host.

    The host is shared and its speed drifts by 20% and more over tens of
    seconds, more than the bounds of BENCHMARK.json allow between two runs
    of the same code.  Each time is multiplied by REFERENCE_PROBE_S over the
    median time of the speed probe taken between the pass's tasks: the time
    the same work takes on a host where the probe takes REFERENCE_PROBE_S.
    The probe runs fixed code outside the package, so a faster package
    shows as a shorter scaled time, while most of the host's drift cancels
    (NOTES.md gives the spreads with and without scaling).
    """
    factor = REFERENCE_PROBE_S / res["probe_s"]
    return {
        "setup_s": res["setup_s"] * factor,
        "pass_s": res["pass_s"] * factor,
        "latencies": [lat * factor for lat in res["latencies"]],
    }


def end_to_end(plain) -> dict:
    passes = [scaled(res) for res in plain]
    per_task = [statistics.median(lats)
                for lats in zip(*(res["latencies"] for res in passes))]
    return {
        "setup_s": statistics.median(res["setup_s"] for res in passes),
        "pass_s": statistics.median(res["pass_s"] for res in passes),
        "task_p50_s": statistics.median(per_task),
        "task_p90_s": tracer.quantile(per_task, 0.9),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in plain),
    }


def per_layer(plain, traced) -> dict:
    per_pass = [
        tracer.layer_metrics(res["trace"], res["pass_s"], res["cache_stats"])
        for res in traced
    ]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_s"] = (
        statistics.median(scaled(res)["pass_s"] for res in traced)
        - statistics.median(scaled(res)["pass_s"] for res in plain)
    )
    return out


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    return LAYER_UNITS.get(last, "ratio")


def check_outcomes(workload, seed, tasks, passes, prescan) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every task of every pass."""
    reference = passes[0]["outcomes"]
    golden = None
    if seed == workloads.DEFAULT_SEED:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)[workload]
    cached = iter(prescan["outcomes"]) if prescan else None
    verdicts = []
    for j, (task, outcome) in enumerate(zip(tasks, reference)):
        problems = workloads.check(task, outcome)
        if golden is not None and (
            golden["tasks"][j] != task
            or workloads.golden_form(outcome) != golden["outcomes"][j]
        ):
            problems.append(f"task {j} ({task}): output differs from the golden output")
        if cached is not None and task.get("cached") and outcome != next(cached):
            problems.append(f"task {j} ({task}): cached output differs from the pre-scan")
        verdicts.append(problems)
    attempted = failed = 0
    problems = []
    for res in passes:
        for j, outcome in enumerate(res["outcomes"]):
            attempted += 1
            bad = verdicts[j] or (
                [f"task {j}: output differs between passes"]
                if outcome != reference[j] else []
            )
            if bad:
                failed += 1
                problems.extend(bad)
    return attempted, failed, sorted(set(problems))


def _results_lines(directory: Path) -> int:
    if not directory.is_dir():
        return 0
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in directory.iterdir())


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    tasks = workloads.generate(workload, seed)
    deadline = time.monotonic() + DEADLINE_S
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        snapshot = prescan = None
        if workload == "rescan":
            prescan = run_worker(workload, seed, workdir, "prescan", deadline,
                                 only_cached=True)
            snapshot = workdir / "results-prescan"
        plain, traced = run_passes(workload, seed, seconds, trace, workdir, snapshot,
                                   deadline)
        growth = None
        if snapshot is not None:
            growth = _results_lines(workdir / "results-pass-0") - _results_lines(snapshot)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, problems = check_outcomes(
        workload, seed, tasks, plain + traced, prescan
    )
    if trace:
        metrics = {name: (value, layer_unit(name))
                   for name, value in per_layer(plain, traced).items()}
    else:
        metrics = {name: (value, unit) for (name, unit), value
                   in zip(END_TO_END, end_to_end(plain).values())}
    print(f"workload {workload}, seed {seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(tasks)} tasks; task quantiles over "
          f"{len(tasks)} per-task medians of {len(plain)} samples each")
    print("  unscaled pass_s x speed factor of each untraced pass: " + " ".join(
        f"{res['pass_s']:.3f}x{REFERENCE_PROBE_S / res['probe_s']:.3f}" for res in plain))
    print(f"  unscaled medians: setup_s "
          f"{statistics.median(res['setup_s'] for res in plain):.4f} s, pass_s "
          f"{statistics.median(res['pass_s'] for res in plain):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':45s} {failed / max(attempted, 1):14.6g} "
          f"({failed} of {attempted} tasks)")
    if growth is not None:
        print(f"  results file grew by {growth} lines in one pass "
              f"(records re-appended for cached specs)")
    for problem in problems:
        print(f"  FAILED: {problem}")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eiscong" / "__init__.py").is_file():
        print(f"error: no eiscong package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prefix = len(names) > 1
    summary = {
        "correct": all(not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
            for w, r in results.items()
            for name, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
