import importlib.util
from pathlib import Path

from eiscong.eisenstein import QuotientSpec
from eiscong.scanner import verify_theorem

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep_times.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("sweep_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_times_prints_one_line_per_quotient(capsys):
    assert load_tool().main(["--spec", "0,-12,1", "--spec", "0,1,1", "--repeat", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    specs = [QuotientSpec(0, -12, 1), QuotientSpec(0, 1, 1)]
    assert [line.split(" to ")[0] for line in lines] == list(map(str, specs))
    for line, spec in zip(lines, specs):
        bound, rest = line.split(" to ")[1].split(": ")
        primes, seconds = rest.split(", ")
        result = verify_theorem(spec)
        assert int(bound) == result.bound
        assert primes == f"{len(result.reports) + len(result.sampled_above)} primes"
        assert seconds.endswith(" ms") and float(seconds[:-3]) >= 0
