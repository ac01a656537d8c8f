"""Time prime sweeps against the theorem bound, in process.

For each quotient, prints the number of primes the sweep reports, its
bound and the best of N runs of the CPU time (`time.process_time`) of
`verify_theorem(spec)` with no results cache, after a first untimed
sweep has filled the per-process caches (the sigma tables, the
logarithmic derivatives, the lift polynomials).

    python3 tools/sweep_times.py [--spec R,S,T ...] [--repeat N]

A spec R,S,T is the quotient E2^R E4^S E6^T.  The defaults are E6/E4^12
and E4^-30 E6^2, best of 20.  Prints one line per quotient: the quotient,
the bound, the primes swept (the sample above the bound included) and
the milliseconds, as in

    E2^0 * E4^-12 * E6^1 to 129: 32 primes, 0.7198 ms
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eiscong.eisenstein import QuotientSpec  # noqa: E402
from eiscong.scanner import verify_theorem  # noqa: E402


def sweep_seconds(spec: QuotientSpec, repeat: int) -> tuple[int, int, float]:
    """The sweep's bound and prime count, and the least CPU time of `repeat` sweeps."""
    result = verify_theorem(spec)
    best = float("inf")
    for _ in range(repeat):
        start = time.process_time()
        verify_theorem(spec)
        best = min(best, time.process_time() - start)
    return result.bound, len(result.reports) + len(result.sampled_above), best


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--spec", action="append", metavar="R,S,T",
        type=lambda text: QuotientSpec(*map(int, text.split(","))),
    )
    parser.add_argument("--repeat", type=int, default=20)
    args = parser.parse_args(argv)
    for spec in args.spec or [QuotientSpec(0, -12, 1), QuotientSpec(0, -30, 2)]:
        bound, primes, seconds = sweep_seconds(spec, args.repeat)
        print(f"{spec} to {bound}: {primes} primes, {seconds * 1000:.4f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
