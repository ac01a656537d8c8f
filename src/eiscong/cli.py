"""Command line surface.  Every number printed is an exact integer.

Exit codes: 0 success, also when the reader closes the output early,
1 mathematical counterexample, 2 usage error, 3 precision or storage
error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .eisenstein import QuotientSpec, eisenstein_power_product, quotient_series, require_lift
from .filtration import _lift_polynomial, compute_a_tilde, filtration
from .primes import require_prime
from .scanner import (
    RESULTS_DIR_ENV,
    CounterexampleError,
    ResultsCache,
    report_to_record,
    scan_prime,
    table_rows,
    theorem_bound,
    verify_table,
    verify_theorem,
)
from .series import PrecisionError
from .tate import (
    METHOD_HEURISTIC,
    TATE_CYCLE_CAP,
    CongruenceReport,
    heuristic_simple_congruences,
    require_cycle_cap,
    tate_cycle,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3


def _spec_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--r", type=int, required=True, help="exponent of E2")
    sub.add_argument("--s", type=int, required=True, help="exponent of E4")
    sub.add_argument("--t", type=int, required=True, help="exponent of E6")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eiscong",
        description="Exact congruence scanning for quotients of Eisenstein series",
    )
    parser.add_argument(
        "--output", choices=("table", "json", "csv"), default="table",
        help="output format (default: table)",
    )
    parser.add_argument(
        "--results-dir", default=None,
        help=f"directory for scan records (default: env {RESULTS_DIR_ENV} or ./results)",
    )
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    parser.add_argument("--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="q-expansion of E2^r E4^s E6^t mod m")
    _spec_arguments(p)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--terms", type=int, default=20)
    p.set_defaults(run=_cmd_series, iterations=0)

    p = sub.add_parser("theta", help="iterated theta operator applied to an expansion")
    _spec_arguments(p)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--terms", type=int, default=20)
    p.add_argument("--iterations", type=int, default=1)
    p.set_defaults(run=_cmd_series)

    p = sub.add_parser("filtration", help="filtration of the lifted quotient mod ell")
    _spec_arguments(p)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(run=_cmd_filtration)

    p = sub.add_parser("tate-cycle", help="filtration profile of the theta iterates")
    _spec_arguments(p)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--cap", type=int, default=TATE_CYCLE_CAP, help="largest prime profiled")
    p.set_defaults(run=_cmd_tate_cycle)

    p = sub.add_parser("find-congruences", help="residues c with a(ell n + c) = 0 mod ell")
    _spec_arguments(p)
    p.add_argument("--ell", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--rigorous", action="store_true", default=True,
                      help="finite certificate (default)")
    mode.add_argument("--heuristic", action="store_true",
                      help="window scan of the expansion instead")
    p.add_argument("--window", type=int, default=None,
                   help="terms scanned by --heuristic (default max(50*ell, 100))")
    p.set_defaults(run=_cmd_find_congruences)

    p = sub.add_parser("verify-theorem", help="sweep all primes up to the bound")
    _spec_arguments(p)
    p.add_argument("--remark", action="store_true", help="use the sharper bound")
    p.add_argument("--sample-above", type=int, default=3, metavar="K",
                   help="primes above the bound to test for consistency")
    p.add_argument("--no-cache", action="store_true", help="do not read or write records")
    p.set_defaults(run=_cmd_verify_theorem)

    p = sub.add_parser("verify-table", help="check the Berndt and Yee congruence table")
    p.add_argument("--row", default="all", help='quotient name, e.g. "E2^2/E6", or "all"')
    p.add_argument("--terms", type=int, default=3000)
    p.set_defaults(run=_cmd_verify_table)

    p = sub.add_parser("a-tilde", help="weight ell-1 polynomial in Q, R with value 1")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(run=_cmd_a_tilde)

    return parser


def _emit(args, payload: dict, table_lines: list[str], csv_rows: list[dict] | None = None):
    # the views each subparser's `run` returns; CSV rows default to [payload]
    if args.output == "json":
        print(json.dumps(payload, indent=2))
    elif args.output == "csv":
        import csv  # only CSV output loads it

        rows = csv_rows if csv_rows is not None else [payload]
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: " ".join(map(str, v)) if isinstance(v, (list, tuple)) else v
                 for k, v in row.items()}
            )
    else:
        for line in table_lines:
            print(line)


def _residues_field(residues) -> str:
    return "residues: " + (" ".join(map(str, residues)) if residues else "(none)")


def _cmd_series(args):
    if args.iterations < 0:
        raise ValueError(f"--iterations must be nonnegative, got {args.iterations}")
    series = eisenstein_power_product(args.r, args.s, args.t, args.modulus, args.terms)
    for _ in range(args.iterations):
        series = series.theta()
    payload = {"modulus": series.modulus, "valuation": series.valuation,
               "precision": series.precision, "coefficients": list(series.coeffs)}
    return payload, [str(series)]


def _cmd_filtration(args):
    form = _lift_polynomial(QuotientSpec(args.r, args.s, args.t), args.ell)
    value = filtration(form)
    payload = {"r": args.r, "s": args.s, "t": args.t, "ell": args.ell,
               "weight": form.weight, "filtration": value}
    return payload, [f"filtration = {value} (lift weight {form.weight})"]


def _cmd_tate_cycle(args):
    spec = QuotientSpec(args.r, args.s, args.t)
    # refuse a prime above the cap before the lift is built
    require_lift(spec, args.ell)
    require_cycle_cap(args.ell, args.cap)
    profile = tate_cycle(_lift_polynomial(spec, args.ell), cap=args.cap)
    fall_of = dict(zip(profile.low_points, profile.falls))
    lines = [
        f"prime {profile.prime}, lift weight {profile.base_weight}, "
        f"base filtration {profile.base_filtration}",
        "i\tfiltration\tpoint\tfall",
    ]
    csv_rows = []
    for i, w in enumerate(profile.filtrations, start=1):
        high, low, fall = i in profile.high_points, i in profile.low_points, fall_of.get(i, "")
        mark = "high" if high else ("low" if low else "")
        lines.append(f"{i}\t{w}\t{mark}\t{fall}")
        csv_rows.append({"i": i, "filtration": w, "high": high, "low": low, "fall": fall})
    payload = {
        "ell": profile.prime,
        "weight": profile.base_weight,
        "base_filtration": profile.base_filtration,
        "filtrations": list(profile.filtrations),
        "high_points": list(profile.high_points),
        "low_points": list(profile.low_points),
        "falls": list(profile.falls),
    }
    return payload, lines, csv_rows


def _cmd_find_congruences(args):
    spec = QuotientSpec(args.r, args.s, args.t)
    ell = args.ell
    if args.window is not None and not args.heuristic:
        raise ValueError("--window sets the terms scanned by --heuristic only")
    if args.heuristic:
        require_prime(ell, 2)
        window = max(50 * ell, 100) if args.window is None else args.window
        series = quotient_series(spec, ell, window)
        residues = tuple(sorted(heuristic_simple_congruences(series, ell)))
        report = CongruenceReport(spec, ell, METHOD_HEURISTIC, residues,
                                  weight=None, precision=window)
    else:
        report = scan_prime(spec, ell)
    record = report_to_record(report, bound=theorem_bound(spec))
    lines = [f"{spec} mod {ell}: method={report.method}", _residues_field(report.residues)]
    return record, lines


def _cmd_verify_theorem(args):
    spec = QuotientSpec(args.r, args.s, args.t)
    results_dir = args.results_dir or os.environ.get(RESULTS_DIR_ENV) or "results"
    cache = None if args.no_cache else ResultsCache(results_dir)
    result = verify_theorem(
        spec,
        use_remark=args.remark,
        sample_above=args.sample_above,
        cache=cache,
        jobs=args.jobs,
    )
    lines = [
        f"{spec}: theorem bound {result.theorem_bound}, remark bound "
        f"{result.remark_bound}, scanned to the {result.bound_kind} bound "
        f"{result.bound}",
    ]
    if result.identity_quotient:
        lines.append("identity quotient: the bound statement excludes r = s = t = 0")
    for prefix, reps in (("", result.reports), ("above bound ", result.sampled_above)):
        for rep in reps:
            lines.append(f"{prefix}ell={rep.ell}\t{rep.method}\t{_residues_field(rep.residues)}")
    payload = result.to_json()
    return payload, lines, payload["reports"] + payload["sampled_above"]


def _cmd_verify_table(args):
    rows = table_rows(args.row)
    summaries = verify_table(rows, terms=args.terms)
    lines = [
        f"{s['name']}: a(n) = 0 mod {s['modulus']} for n = {s['residue']} "
        f"mod {s['step']}, checked {s['checked']} coefficients below {s['terms']}"
        for s in summaries
    ]
    lines.append(f"all {len(summaries)} claims hold")
    return {"rows": summaries}, lines, summaries


def _cmd_a_tilde(args):
    poly = compute_a_tilde(args.ell)
    triples = [[a, b, c] for a, b, c in poly.terms]
    lines = [f"weight {poly.weight} polynomial mod {poly.prime}: {poly}"]
    lines += [f"Q^{a} R^{b}: {c}" for a, b, c in poly.terms]
    csv_rows = [{"a": a, "b": b, "coefficient": c} for a, b, c in poly.terms]
    return {"ell": args.ell, "weight": poly.weight, "terms": triples}, lines, csv_rows


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # each call logs at its own level to the stderr of the moment; the root
    # logger's handlers and level are restored on the way out
    root, level = logging.getLogger(), logging.getLogger().level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
    root.addHandler(handler)
    root.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        _emit(args, *args.run(args))
        return EXIT_OK
    except CounterexampleError as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except BrokenPipeError:
        # a reader that stops early is no failure; devnull takes the flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (PrecisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        root.removeHandler(handler)
        root.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
