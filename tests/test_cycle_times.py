import importlib.util
from pathlib import Path

from eiscong.eisenstein import QuotientSpec
from eiscong.filtration import _lift_polynomial
from eiscong.tate import tate_cycle

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cycle_times.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cycle_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cycle_times_prints_one_line_per_quotient_and_prime(capsys):
    assert load_tool().main(["--spec", "0,-12,1", "--spec", "1,6,5", "--ell", "13",
                             "--repeat", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "E2^0 * E4^-12 * E6^1 mod 13", "E2^1 * E4^6 * E6^5 mod 13"
    ]
    specs = [QuotientSpec(0, -12, 1), QuotientSpec(1, 6, 5)]
    for line, spec in zip(lines, specs):
        falls, seconds = line.split(": falls ")[1].split(", ")
        profile = tate_cycle(_lift_polynomial(spec, 13))
        assert tuple(map(int, falls.split())) == profile.falls
        assert seconds.endswith(" s") and float(seconds[:-2]) >= 0
