"""Time Tate cycles on the replacement lift's polynomial.

For each quotient and prime, prints the cycle's falls and the best of N
runs of the CPU time (`time.process_time`) of
`tate_cycle(_lift_polynomial(spec, ell), cap=CAP)`, after the lift's
polynomial is built and A~, B~, the root of A~'s x-part and the inverses
of powers of A~ are cached by a first untimed cycle.

    python3 tools/cycle_times.py [--spec R,S,T ...] [--ell ELL ...]
                                 [--repeat N] [--cap CAP]

A spec R,S,T is the quotient E2^R E4^S E6^T.  The defaults are E6/E4^12
and E2 E4^6 E6^5 at ell = 101, 199 and 397, best of 3, with cap 400.
Prints one line per pair: the quotient, the prime, the falls after the
cycle's high points (in divisions by A~) and the seconds, as in

    E2^1 * E4^6 * E6^5 mod 397: falls 343 55, 1.2563 s
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eiscong.eisenstein import QuotientSpec  # noqa: E402
from eiscong.filtration import _lift_polynomial  # noqa: E402
from eiscong.tate import tate_cycle  # noqa: E402


def cycle_seconds(
    spec: QuotientSpec, ell: int, repeat: int, cap: int
) -> tuple[tuple[int, ...], float]:
    """The falls of the lift's cycle mod ell, and the least CPU time of `repeat` cycles."""
    poly = _lift_polynomial(spec, ell)
    falls = tate_cycle(poly, cap=cap).falls
    best = float("inf")
    for _ in range(repeat):
        start = time.process_time()
        tate_cycle(poly, cap=cap)
        best = min(best, time.process_time() - start)
    return falls, best


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--spec", action="append", metavar="R,S,T",
        type=lambda text: QuotientSpec(*map(int, text.split(","))),
    )
    parser.add_argument("--ell", nargs="+", type=int, default=[101, 199, 397])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--cap", type=int, default=400)
    args = parser.parse_args(argv)
    for spec in args.spec or [QuotientSpec(0, -12, 1), QuotientSpec(1, 6, 5)]:
        for ell in args.ell:
            falls, seconds = cycle_seconds(spec, ell, args.repeat, args.cap)
            print(f"{spec} mod {ell}: falls {' '.join(map(str, falls))}, {seconds:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
