"""The package names that the benchmark in perfbench/ patches and reads.

perfbench/tracer.py wraps each of its TARGETS by name, and
perfbench/worker.py reads `eiscong.filtration.monomial_basis` on every
untraced pass; a rename in the package breaks the benchmark, and shows
here first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import eiscong.filtration

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    # a module of perfbench/ from its file, without writing bytecode there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound(module_name, path):
    # the object a target's (module, attribute path) names
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_the_tracer_wraps_every_target_and_restores_it(monkeypatch):
    tracer = load_perfbench(monkeypatch, "tracer")
    targets = [(module, path) for module, path, _ in tracer.TARGETS]
    originals = [bound(*target) for target in targets]
    spans = tracer.Tracer()
    spans.install()
    try:
        for target, original in zip(targets, originals):
            assert bound(*target).__wrapped__ is original, target
    finally:
        spans.uninstall()
    assert [bound(*target) for target in targets] == originals
    # read by the worker on every untraced pass, where nothing is patched
    assert callable(eiscong.filtration.monomial_basis)
