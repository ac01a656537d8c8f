"""One cold pass of a workload, in a fresh interpreter.

Run by run.py, never by hand: a new process per pass is what a user of the
command line pays on every invocation, and it empties the package's
lru_caches between passes.  Set-up (interpreter start, import, inputs,
fixtures) is timed from the moment run.py spawned this process; the
pass is timed from the first task to the last, less the time of the speed
probes run between tasks (SpeedProbe).  The result is written as JSON to
the --out file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import time

import workloads

#: a probe runs before a task when this long has passed since the last one
PROBE_EVERY_S = 0.25
#: repetitions of the probe's work at each probe, and fewest in a pass
PROBE_REPS = 3
MIN_PROBE_REPS = 12


class SpeedProbe:
    """Times a fixed piece of work, to tell how fast the host runs right now.

    The host is shared, and its speed drifts by 20% and more over tens of
    seconds.  Probes taken between the tasks of a pass follow that drift:
    run.py divides the pass's times by the probe's median time (see scaled
    there).  The work touches no package code, so a change to the package
    cannot change the probe.  It is pure interpreter work, a list
    comprehension and a loop of big-integer squarings mod a prime, about
    6.5 ms on the reference host: of the kinds of work tried (dict lookups,
    numpy convolutions, these two), these followed the package's own
    slowdowns best on every workload, and dict lookups worst.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def sample(self, reps: int = PROBE_REPS) -> None:
        begin = time.perf_counter()
        for _ in range(reps):
            t0 = time.perf_counter()
            acc = sum([i * 7 % 1009 for i in range(40_000)])
            for _ in range(6000):
                acc = (acc * acc + 12_345_678_901_234_567) % (10**24 + 7)
            self.samples.append(time.perf_counter() - t0)
        self.spent_s += time.perf_counter() - begin


def _cache_stats() -> dict:
    # monomial_basis is an lru_cache; a later version may drop the cache
    filtration = importlib.import_module("eiscong.filtration")
    info = getattr(filtration.monomial_basis, "cache_info", None)
    return {} if info is None else {"monomial_basis": info()[:2]}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--results-dir")
    parser.add_argument("--snapshot", help="results directory to restore before the pass")
    parser.add_argument("--only-cached", action="store_true",
                        help="run only the rescan tasks that are cached, to build the snapshot")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import eiscong  # noqa: F401  (import is part of set-up)

    tasks = workloads.generate(args.workload, args.seed)
    if args.only_cached:
        tasks = [task for task in tasks if task.get("cached")]
    if args.snapshot:
        shutil.copytree(args.snapshot, args.results_dir)
    setup_s = time.monotonic() - args.spawned_at

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probe = SpeedProbe()
    latencies, outcomes = [], []
    clock = time.perf_counter
    start = last_probe = clock()
    for task in tasks:
        if not probe.samples or clock() - last_probe >= PROBE_EVERY_S:
            probe.sample()
            last_probe = clock()
        t0 = clock()
        try:
            if tracer is None:
                outcome = workloads.run_task(task, args.results_dir)
            else:
                with tracer.task():
                    outcome = workloads.run_task(task, args.results_dir)
        except Exception as exc:  # a failed task is counted, the pass goes on
            outcome = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(clock() - t0)
        outcomes.append(outcome)
    probe.sample(max(PROBE_REPS, MIN_PROBE_REPS - len(probe.samples)))
    pass_s = clock() - start - probe.spent_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "latencies": latencies,
        "probe_s": statistics.median(probe.samples),
        "outcomes": outcomes,
        "peak_rss_mb": peak_rss_mb,
        "cache_stats": _cache_stats(),
        "trace": tracer.dump() if tracer is not None else None,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
