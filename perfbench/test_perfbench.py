"""Tests of the benchmark's own code: the tracer, the input generator and
the scaling of times by the speed probe.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import eiscong  # noqa: E402

scanner = importlib.import_module("eiscong.scanner")
tate = importlib.import_module("eiscong.tate")
eisenstein = importlib.import_module("eiscong.eisenstein")
filtration_module = importlib.import_module("eiscong.filtration")

LRU_TARGETS = ("eisenstein.eisenstein_series", "filtration.monomial_basis")


def _clear_caches():
    eisenstein.eisenstein_series.cache_clear()
    eisenstein._sigma_table.cache_clear()
    filtration_module.monomial_basis.cache_clear()


def _originals():
    out = {}
    for module_name, path, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out[f"{module_name.rsplit('.', 1)[-1]}.{path}"] = vars(owner)[attr]
    return out


def _traced_tiny_sweep():
    """E4*E6 swept to its remark bound 19, traced, with calls counted by a profiler."""
    originals = _originals()
    # an lru_cache runs the function it wraps only on a miss
    by_code = {getattr(fn, "__wrapped__", fn).__code__: name for name, fn in originals.items()}
    profiled = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in by_code:
            profiled[by_code[frame.f_code]] += 1

    _clear_caches()
    t = tracer.Tracer()
    t.install()
    sys.setprofile(profile)
    try:
        with t.task():
            result = eiscong.verify_theorem(eiscong.QuotientSpec(0, 1, 1), use_remark=True)
    finally:
        sys.setprofile(None)
        t.uninstall()
    spans = Counter(name for name, *_ in t.spans)
    return result, spans, profiled


def test_span_counts_equal_known_call_counts():
    result, spans, profiled = _traced_tiny_sweep()
    assert result.bound == 19
    primes = [rep.ell for rep in result.reports + result.sampled_above]
    assert primes == [5, 7, 11, 13, 17, 19, 23, 29, 31]
    # E4*E6 = E10 is 1 mod 11, so theta kills it there and no certificate runs
    methods = {rep.ell: rep.method for rep in result.reports + result.sampled_above}
    certified = [ell for ell, method in methods.items() if method == "rigorous"]
    assert methods[11] == "theta-vanishing" and len(certified) == 8
    assert spans["task"] == 1
    assert spans["scanner.scan_prime"] == 9
    assert spans["eisenstein.replacement_lift"] == 9
    assert spans["tate.theta_vanishes"] == 9
    assert spans["tate.certified_residues"] == 8
    # one theta per prime in scan_prime, (ell+1)/2 in each certificate
    assert spans["series.TruncatedSeries.theta"] == 9 + sum((p + 1) // 2 for p in certified)
    for name in ("filtration.filtration", "filtration.represent", "linalg.solve_mod_prime",
                 "tate.tate_cycle", "scanner.ResultsCache.get", "cli.main"):
        assert spans[name] == 0
    # every plain function: one span per call the profiler saw
    for name, count in profiled.items():
        if name not in LRU_TARGETS:
            assert spans[name] == count, name
    assert spans["series.TruncatedSeries.mul"] > 0


def test_lru_spans_count_hits_and_misses():
    _, spans, profiled = _traced_tiny_sweep()
    info = eisenstein.eisenstein_series.cache_info()
    assert spans["eisenstein.eisenstein_series"] == info.hits + info.misses
    assert profiled["eisenstein.eisenstein_series"] == info.misses


def test_every_binding_is_patched_and_restored():
    originals = _originals()
    t = tracer.Tracer()
    t.install()
    try:
        bound_by_value = (
            (scanner, "replacement_lift", "eisenstein.replacement_lift"),
            (scanner, "certified_residues", "tate.certified_residues"),
            (scanner, "theta_vanishes", "tate.theta_vanishes"),
            (tate, "filtration", "filtration.filtration"),
            (eiscong, "filtration", "filtration.filtration"),
            (eiscong, "verify_table", None),
        )
        for module, attr, name in bound_by_value:
            value = getattr(module, attr)
            if name is None:
                assert not hasattr(value, "__wrapped__")
            else:
                assert value is not originals[name]
                assert value.__wrapped__ is originals[name]
        # the lru_cache interface survives the wrapper
        wrapped = eisenstein.eisenstein_series
        assert wrapped.cache_info == originals["eisenstein.eisenstein_series"].cache_info
        wrapped.cache_clear()
        assert wrapped.cache_info().currsize == 0
        wrapped(4, 7, 10)
        assert filtration_module.eisenstein_series(4, 7, 10) is wrapped(4, 7, 10)
        assert wrapped.cache_info().hits == 2
    finally:
        t.uninstall()
    assert _originals() == originals
    assert scanner.replacement_lift is originals["eisenstein.replacement_lift"]
    assert tate.filtration is originals["filtration.filtration"]


def test_self_and_outermost_time():
    spans = [
        ["task", 0.0, 10.0, -1],
        ["pow", 1.0, 7.0, 0],
        ["pow", 2.0, 6.0, 1],
        ["mul", 3.0, 5.0, 2],
        ["mul", 8.0, 9.0, 0],
    ]
    per = tracer._durations(spans)
    assert per["task"] == [(10.0, 3.0, True)]
    assert per["pow"] == [(6.0, 2.0, True), (4.0, 2.0, False)]
    assert [d for d, _, _ in per["mul"]] == [2.0, 1.0]
    assert tracer._under(spans, "mul", "pow") == 1
    metrics = tracer.layer_metrics({"spans": spans, "counters": {}}, 10.0, {})
    assert metrics["trace.top_span_share"] == 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_come_from_the_seed(workload):
    assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
    batches = {repr(workloads.generate(workload, seed)) for seed in range(8)}
    assert len(batches) > 1


def test_cells_hold_specs_of_equal_cost():
    for r, s, t in workloads.SWEEP_CELLS:
        cell = workloads.sweep_cell(r, s, t)
        assert (r, s, t) in cell and len(cell) > 1
        bounds = {scanner.theorem_bound(eiscong.QuotientSpec(*spec)) for spec in cell}
        assert len(bounds) == 1
    for ell, r, total in workloads.TATE_CELLS:
        cell = workloads.tate_cell(r, total)
        assert cell
        weights = {eiscong.lift_weight(eiscong.QuotientSpec(*spec), ell) for spec in cell}
        assert len(weights) == 1
    for low, high in (workloads.RESCAN_BOUNDS, (0, workloads.RESCAN_MISS_BOUND)):
        for spec in workloads.rescan_pool(low, high):
            assert low <= scanner.remark_bound(eiscong.QuotientSpec(*spec)) <= high
    tasks = workloads.generate("rescan", 3)
    cached = [task for task in tasks if task["cached"]]
    assert len(cached) == workloads.RESCAN_STRATA * workloads.RESCAN_PER_STRATUM
    misses = sorted(tuple(task["spec"]) for task in tasks if not task["cached"])
    assert misses == sorted(workloads.rescan_pool(0, workloads.RESCAN_MISS_BOUND))


def test_times_scale_by_the_probe():
    res = {"setup_s": 0.5, "pass_s": 3.0, "latencies": [1.0, 2.0],
           "probe_s": 2 * run.REFERENCE_PROBE_S}
    assert run.scaled(res) == {"setup_s": 0.25, "pass_s": 1.5, "latencies": [0.5, 1.0]}
    metrics = run.end_to_end([res | {"peak_rss_mb": 70.0}])
    assert metrics["pass_s"] == 1.5 and metrics["task_p50_s"] == 0.75


def test_speed_probe_runs_no_package_code():
    probe = worker.SpeedProbe()
    traced = tracer.Tracer()
    traced.install()
    try:
        probe.sample(2)
    finally:
        traced.uninstall()
    assert len(probe.samples) == 2 and all(t > 0 for t in probe.samples)
    assert probe.spent_s >= sum(probe.samples)
    assert not traced.dump()["spans"]
