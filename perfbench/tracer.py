"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces each traced function by a wrapper wherever it is
bound: in its defining module, in every module that imported it by value
(scanner imports replacement_lift and certified_residues that way, tate
imports filtration), and on its class for methods.  Spans stay in memory
as [name, start, end, parent] and are written once, at the end of a pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

#: the int64 bound under which series._convolve uses numpy
INT64_LIMIT = 2**63 - 1


def _count_mul(counts, args, kwargs, result):
    a, b = args[0].coeffs, args[1].coeffs
    counts["coeff_products"] += len(a) * len(b)
    if a and b and min(len(a), len(b)) * (args[0].modulus - 1) ** 2 > INT64_LIMIT:
        counts["wide_calls"] += 1


def _count_solve(counts, args, kwargs, result):
    matrix = args[0]
    counts["cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _count_get(counts, args, kwargs, result):
    cache, spec = args[0], args[1]
    path = cache.path_for(spec)
    counts["bytes_read"] += path.stat().st_size if path.exists() else 0
    counts["hits"] += result is not None


def _count_put(counts, args, kwargs, result):
    scan = args[1]
    counts["records_appended"] += len(scan.reports) + len(scan.sampled_above)


#: (module, attribute path, counter) of every traced boundary; the span
#: name is the module's last component and the attribute path
TARGETS = (
    ("eiscong.series", "TruncatedSeries.mul", _count_mul),
    ("eiscong.series", "TruncatedSeries.invert", None),
    ("eiscong.series", "TruncatedSeries.pow", None),
    ("eiscong.series", "TruncatedSeries.theta", None),
    ("eiscong.eisenstein", "eisenstein_series", None),
    ("eiscong.eisenstein", "eisenstein_power_product", None),
    ("eiscong.eisenstein", "replacement_lift", None),
    ("eiscong.filtration", "monomial_basis", None),
    ("eiscong.filtration", "represent", None),
    ("eiscong.filtration", "filtration", None),
    ("eiscong.linalg", "solve_mod_prime", _count_solve),
    ("eiscong.tate", "theta_vanishes", None),
    ("eiscong.tate", "certified_residues", None),
    ("eiscong.tate", "tate_cycle", None),
    ("eiscong.scanner", "scan_prime", None),
    ("eiscong.scanner", "ResultsCache.get", _count_get),
    ("eiscong.scanner", "ResultsCache.put", _count_put),
    ("eiscong.cli", "main", None),
)

#: the span the benchmark opens around each task of a pass
TASK = "task"


class Tracer:
    """Wraps the targets while installed and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def task(self):
        """One top-level task span."""
        span = self._open(TASK)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, original, count):
        tracer = self
        counts = self.counters[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        for keep in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(original, keep):
                setattr(wrapper, keep, getattr(original, keep))
        return wrapper

    def install(self) -> None:
        """Patch every binding of every target in the loaded modules."""
        for module_name, path, count in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{path}"
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, count)
            for holder, key in _bindings(original, owner, attr):
                self._patched.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": {name: dict(c) for name, c in self.counters.items() if c},
        }


def _bindings(original, owner, attr):
    """(holder, key) for every name bound to original in a loaded module."""
    found = [(owner, attr)]
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or module is owner:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                found.append((module, key))
    return found


# ----------------------------------------------------------------------
# per-layer numbers from the spans of one pass


def _durations(spans):
    """Per-name lists of (duration, self time, outermost) for each span."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(list)
    for i, (name, start, end, parent) in enumerate(spans):
        outer = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][3]
        out[name].append((end - start, end - start - child_time[i], outer))
    return out


def _under(spans, name, ancestor):
    """Number of spans called name that run inside a span called ancestor."""
    total = 0
    for span in spans:
        if span[0] != name:
            continue
        p = span[3]
        while p >= 0:
            if spans[p][0] == ancestor:
                total += 1
                break
            p = spans[p][3]
    return total


def quantile(values, q):
    """The q-quantile of values, interpolated; 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(trace: dict, pass_s: float, cache_stats: dict) -> dict[str, float]:
    """Every per-layer metric of one traced pass."""
    spans, counters = trace["spans"], trace["counters"]
    per = _durations(spans)

    def calls(name):
        return len(per.get(name, ()))

    def self_s(name):
        return sum(s for _, s, _ in per.get(name, ()))

    def total_s(name):
        return sum(d for d, _, outer in per.get(name, ()) if outer)

    def counter(name, key):
        return counters.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    scans = sorted(d for d, _, _ in per.get("scanner.scan_prime", ()))
    hits, misses = cache_stats.get("monomial_basis", (0, 0))
    m = {
        "series.mul.calls": calls("series.TruncatedSeries.mul"),
        "series.mul.self_s": self_s("series.TruncatedSeries.mul"),
        "series.mul.coeff_products": counter("series.TruncatedSeries.mul", "coeff_products"),
        "series.mul.wide_calls": counter("series.TruncatedSeries.mul", "wide_calls"),
        "series.invert.calls": calls("series.TruncatedSeries.invert"),
        "series.invert.self_s": self_s("series.TruncatedSeries.invert"),
        "series.pow.calls": calls("series.TruncatedSeries.pow"),
        "series.pow.total_s": total_s("series.TruncatedSeries.pow"),
        "series.theta.calls": calls("series.TruncatedSeries.theta"),
        "series.theta.self_s": self_s("series.TruncatedSeries.theta"),
        "eisenstein.replacement_lift.total_s": total_s("eisenstein.replacement_lift"),
        "eisenstein.eisenstein_power_product.total_s":
            total_s("eisenstein.eisenstein_power_product"),
        "eisenstein.eisenstein_series.self_s": self_s("eisenstein.eisenstein_series"),
        "tate.certified_residues.calls": calls("tate.certified_residues"),
        "tate.certified_residues.total_s": total_s("tate.certified_residues"),
        "tate.theta_per_certificate": ratio(
            _under(spans, "series.TruncatedSeries.theta", "tate.certified_residues"),
            calls("tate.certified_residues"),
        ),
        "tate.theta_vanishes.total_s": total_s("tate.theta_vanishes"),
        "tate.tate_cycle.total_s": total_s("tate.tate_cycle"),
        "filtration.filtration.calls": calls("filtration.filtration"),
        "filtration.filtration.total_s": total_s("filtration.filtration"),
        "filtration.represent.calls": calls("filtration.represent"),
        "filtration.represent.total_s": total_s("filtration.represent"),
        "filtration.represent_per_filtration": ratio(
            _under(spans, "filtration.represent", "filtration.filtration"),
            calls("filtration.filtration"),
        ),
        "filtration.monomial_basis.calls": calls("filtration.monomial_basis"),
        "filtration.monomial_basis.self_s": self_s("filtration.monomial_basis"),
        "filtration.monomial_basis.hit_ratio": ratio(hits, hits + misses),
        "linalg.solve_mod_prime.calls": calls("linalg.solve_mod_prime"),
        "linalg.solve_mod_prime.self_s": self_s("linalg.solve_mod_prime"),
        "linalg.solve_mod_prime.cells": counter("linalg.solve_mod_prime", "cells"),
        "scanner.scan_prime.calls": len(scans),
        "scanner.scan_prime.total_s": total_s("scanner.scan_prime"),
        "scanner.scan_prime.p50_s": quantile(scans, 0.5),
        "scanner.scan_prime.p90_s": quantile(scans, 0.9),
        "scanner.ResultsCache.get.calls": calls("scanner.ResultsCache.get"),
        "scanner.ResultsCache.get.total_s": total_s("scanner.ResultsCache.get"),
        "scanner.ResultsCache.get.hit_ratio": ratio(
            counter("scanner.ResultsCache.get", "hits"), calls("scanner.ResultsCache.get")
        ),
        "scanner.ResultsCache.get.bytes_read": counter("scanner.ResultsCache.get", "bytes_read"),
        "scanner.ResultsCache.put.calls": calls("scanner.ResultsCache.put"),
        "scanner.ResultsCache.put.records_appended":
            counter("scanner.ResultsCache.put", "records_appended"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.top_span_share": ratio(total_s(TASK), pass_s),
    }
    return m
