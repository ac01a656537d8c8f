"""Prime sweeps against the non-existence bounds, table checks, and result caching.

For a quotient E2^r E4^s E6^t with r >= 0, a simple congruence
a(ell*n + c) = 0 mod ell can only exist for ell <= 2r + 8|s| + 12|t| + 21
(or for the identity quotient).  The sweep certifies, prime by prime up
to that bound, exactly which residues carry congruences, and samples a
few primes above the bound as a consistency check.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import namedtuple
from functools import partial
from itertools import count, islice
from pathlib import Path

from . import __version__
from .eisenstein import (
    QuotientSpec,
    admits_lift,
    eisenstein_power_product,
    lift_weight,
    quotient_prefix,
    quotient_series,
    require_lift,
)
from .filtration import _lift_polynomial, sturm
from .primes import PSI_12, is_prime, require_prime
from .series import PrecisionError, TruncatedSeries
from .tate import (
    METHOD_BELOW_BOUND,
    METHOD_RIGOROUS,
    METHOD_THETA_VANISHING,
    METHOD_TRIVIAL_PRIME,
    CongruenceReport,
    certificate_terms,
    congruence_scan,
    theta_zero_congruences_hold,
)

log = logging.getLogger(__name__)

RESULTS_DIR_ENV = "EISCONG_RESULTS_DIR"
#: terms of the quotient the certificate scan reads before its whole window
FIRST_WINDOW = 16
#: every field of a results record, in record order, with its exact JSON types
#: (a bool is no int, a float no int); each entry of residues is an int
RECORD_FIELDS = {
    "r": (int,), "s": (int,), "t": (int,), "ell": (int,), "method": (str,),
    "residues": (list,), "weight": (int, type(None)), "precision": (int, type(None)),
    "bound": (int,), "version": (str,),
}


class CounterexampleError(Exception):
    """A claim that is supposed to hold was refuted by computation."""


def theorem_bound(spec: QuotientSpec) -> int:
    """Primes with simple congruences satisfy ell <= 2r + 8|s| + 12|t| + 21."""
    return 2 * spec.r + 8 * abs(spec.s) + 12 * abs(spec.t) + 21


def remark_bound(spec: QuotientSpec) -> int:
    """The sharper bound, split on the sign of w = r + 4s + 6t.

    For w > 0 the binding inequality is ell <= 2w - 1; for w <= 0 it is
    ell <= 21 - 8s - 12t.  Either way primes below |s|, |t| or 12 are
    never excluded.  The bound is tight: E4*E6 has w = 10 and carries
    congruences at exactly ell = 19 = 2w - 1.
    """
    shared = (abs(spec.s) - 1, abs(spec.t) - 1, 11)
    total = spec.r + 4 * spec.s + 6 * spec.t
    if total > 0:
        return max(*shared, 2 * total - 1)
    return max(*shared, 21 - 8 * spec.s - 12 * spec.t)


def certificate_precision(spec: QuotientSpec, ell: int) -> int:
    """Series length the congruence certificate at ell reads: its whole Sturm window."""
    return certificate_terms(lift_weight(spec, ell), ell)


def profile_precision(spec: QuotientSpec, ell: int) -> int:
    """Series length needed to profile the full Tate cycle of the lift.

    The cycle reads the lift only once, when `represent` reads its
    polynomial off the first sturm(k) + 1 terms at the lift weight k;
    every later step is polynomial arithmetic.
    """
    require_lift(spec, ell)
    return sturm(lift_weight(spec, ell)) + 1


def scan_prime(spec: QuotientSpec, ell: int) -> CongruenceReport:
    """Full congruence analysis of one prime, certified to `certificate_precision`.

    All that the prime decides before a coefficient is read is
    `_before_scan`'s.  Where that gives a weight, one coefficient scan
    of the quotient settles every nonzero residue by the finite
    certificate for the lift, and theta kills the lift exactly when the
    scan returns all of them; that answer is checked exactly on the
    lift's polynomial (`_lift_polynomial`), whose theta image must be
    zero.  The scan reads the quotient in place of the lift: they differ
    by E2^(a-r) E4^(b-s) E6^(c-t), with (a, b, c) the lift's exponents
    (`lift_exponents`), a unit series in q^ell mod ell (at present
    (E4*E6)(q^ell)), which maps each residue class of exponents to
    itself by a unitriangular transform, so a class vanishes through
    any index on one side exactly when it does on the other.

    Every call expands the first `FIRST_WINDOW` integer coefficients of
    the quotient (`quotient_prefix`), which only a prime with a weight
    reads.  The scan reads them reduced mod ell, and expands the
    quotient mod ell to `certificate_precision` only when those leave
    it undecided.  A nonzero a(n) in both quadratic classes settles "no
    congruence" on a short prefix; a theta-killed or congruence-carrying
    prime reads the whole Sturm range.  The report's precision is always
    `certificate_precision`, the window the certificate stands on; the
    log line also gives the window actually read.  This is
    `verify_theorem`'s scan of one prime: the same prefix, report and
    log line.
    """
    require_prime(ell, 2)
    return _scan(spec, quotient_prefix(*spec, FIRST_WINDOW), ell)[0]


def _before_scan(spec: QuotientSpec, ell: int) -> tuple:
    # what a scan at the prime ell decides before reading a coefficient, as (method,
    # residues as a range, weight, precision): the report at 2, 3 and where no lift
    # exists, the theta-killed one at a certified prime
    if ell in (2, 3):
        return METHOD_TRIVIAL_PRIME, range(1, ell), None, None
    if not admits_lift(spec, ell):
        return METHOD_BELOW_BOUND, range(0), None, None
    return (METHOD_THETA_VANISHING, range(1, ell), lift_weight(spec, ell),
            certificate_precision(spec, ell))


def _scan(
    spec: QuotientSpec, prefix: tuple[int, ...], ell: int
) -> tuple[CongruenceReport, int]:
    # scan_prime's analysis and log line, from `_before_scan` and the quotient's
    # first FIRST_WINDOW coefficients over Z, read only where ell is certified (every
    # constant term is 1, so their reduction mod ell is the expansion mod ell);
    # returns the report and the terms of the quotient it read
    start = time.perf_counter()
    method, residues, weight, precision = _before_scan(spec, ell)
    window = 0
    if weight is not None:
        # a prefix at least as long as the whole window always decides
        window = min(FIRST_WINDOW, precision)
        try:
            found = congruence_scan(TruncatedSeries(ell, prefix), ell, weight)
        except PrecisionError:
            # an undecided prefix: the whole window covers the Sturm range and decides
            window = precision
            found = congruence_scan(quotient_series(spec, ell, window), ell, weight)
        # every nonzero residue comes back exactly when theta kills the lift; the
        # lift's polynomial and, from 17 on, the closed-form system must agree
        if len(found) < ell - 1:
            method, residues = METHOD_RIGOROUS, found
        elif any(_lift_polynomial(spec, ell).theta().coeffs):
            raise PrecisionError(
                f"the Sturm certificate finds theta kills the lift at ell={ell}, "
                "but the theta image of its polynomial is nonzero"
            )
        elif ell >= 17 and not theta_zero_congruences_hold(spec, ell):
            raise PrecisionError(
                f"the Sturm certificate finds theta kills the lift at ell={ell}, "
                "but the coefficient system forbids it"
            )
    report = CongruenceReport(spec, ell, method, tuple(residues), weight, precision)
    log.info(
        "scan mod %d: %s, precision %s, window %d, %.4f s",
        ell, method, precision, window, time.perf_counter() - start,
    )
    return report, window


def report_to_record(report: CongruenceReport, bound: int) -> dict:
    values = (*report.spec, report.ell, report.method, list(report.residues),
              report.weight, report.precision, bound, __version__)
    return dict(zip(RECORD_FIELDS, values, strict=True))


def _sweep_could_write(record: dict, spec: QuotientSpec) -> bool:
    # a prime below PSI_12 (no sweep decides one above, where is_prime raises),
    # residues strictly increasing within 1..ell-1, so equal to a range just when
    # as many, and `_before_scan`'s fields but for a certified prime's `rigorous`
    # residues.  A record that passes is plausible, not authenticated
    ell, residues = record["ell"], record["residues"]
    if not (ell < PSI_12 and is_prime(ell)):
        return False
    if not all(a < b for a, b in zip([0, *residues], [*residues, ell])):
        return False
    method, every, weight, precision = _before_scan(spec, ell)
    if (record["weight"], record["precision"]) != (weight, precision):
        return False
    scanned = weight is not None and record["method"] == METHOD_RIGOROUS
    return scanned or (record["method"], len(residues)) == (method, len(every))


def record_to_report(record: dict) -> CongruenceReport:
    r, s, t, ell, method, residues, weight, precision, _, _ = map(record.get, RECORD_FIELDS)
    return CongruenceReport(QuotientSpec(r, s, t), ell, method, tuple(residues), weight, precision)


class ScanResult(namedtuple("ScanResult", (
    "spec bound_kind bound theorem_bound remark_bound identity_quotient "
    "reports sampled_above started_at finished_at"
))):
    """Outcome of one prime sweep: per-prime reports plus the above-bound sample.

    reports and sampled_above are tuples of `CongruenceReport`; started_at
    and finished_at are UTC times in ISO 8601 (`_utc_now`).
    """

    __slots__ = ()

    def to_records(self) -> list[dict]:
        return [report_to_record(rep, self.bound) for rep in self.reports + self.sampled_above]

    def to_json(self) -> dict:
        records = self.to_records()
        return {
            **self.spec._asdict(),
            "bound_kind": self.bound_kind,
            "bound": self.bound,
            "theorem_bound": self.theorem_bound,
            "remark_bound": self.remark_bound,
            "identity_quotient": self.identity_quotient,
            "version": __version__,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "reports": records[: len(self.reports)],
            "sampled_above": records[len(self.reports) :],
        }


class ResultsCache:
    """Append-only JSONL records keyed by (r, s, t, ell, version).

    One file per quotient, one record per analysed prime.  Reads return
    the latest record for a key; a line that is not UTF-8, not JSON, or
    misses a field or its type in `RECORD_FIELDS` is skipped with a
    warning, and so is a record of the current version and quotient that
    no sweep writes: an ell that is no prime (or not below `PSI_12`),
    residues not strictly increasing within 1..ell-1, or fields other
    than `_before_scan`'s, but for a certified prime's `rigorous`
    residues.  Bumping the version invalidates all earlier lines.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def path_for(self, spec: QuotientSpec) -> Path:
        return self.directory / f"scan-{spec.r}_{spec.s}_{spec.t}.jsonl"

    def load(self, spec: QuotientSpec) -> dict[int, CongruenceReport]:
        """The latest report for each prime on file for the quotient, from one read."""
        path = self.path_for(spec)
        if not path.exists():
            return {}
        latest = {}
        # read as bytes and decode line by line, so that a byte that is not
        # UTF-8 costs only its own line
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    log.warning("skipping corrupt record at %s:%d", path, lineno)
                    continue
                if not (isinstance(record, dict) and all(k in record for k in RECORD_FIELDS)):
                    log.warning("skipping incomplete record at %s:%d", path, lineno)
                    continue
                if not (all(type(record[k]) in kinds for k, kinds in RECORD_FIELDS.items())
                        and all(type(x) is int for x in record["residues"])):
                    log.warning("skipping mistyped record at %s:%d", path, lineno)
                    continue
                if record["version"] != __version__ or (
                    record["r"], record["s"], record["t"]
                ) != spec:
                    continue
                if not _sweep_could_write(record, spec):
                    log.warning("skipping impossible record at %s:%d", path, lineno)
                    continue
                latest[record["ell"]] = record_to_report(record)
        return latest

    def get(self, spec: QuotientSpec, ell: int) -> CongruenceReport | None:
        """The latest report on file for one prime, or None."""
        return self.load(spec).get(ell)

    def put(self, result: ScanResult) -> None:
        """Append one record per report of the result, the sample above the bound included."""
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.path_for(result.spec), "a", encoding="utf-8") as fh:
            for record in result.to_records():
                fh.write(json.dumps(record) + "\n")


def _utc_now() -> str:
    """The current UTC time as `datetime.now(timezone.utc).isoformat()` writes it.

    Built from `time`, so that importing the package does not load
    `datetime`: microseconds rounded down and left out at a whole second.
    """
    seconds, micros = divmod(time.time_ns() // 1000, 10**6)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{micros:06d}+00:00" if micros else f"{stamp}+00:00"


def verify_theorem(
    spec: QuotientSpec,
    use_remark: bool = False,
    sample_above: int = 3,
    cache: ResultsCache | None = None,
    jobs: int = 1,
) -> ScanResult:
    """Sweep every prime from 5 to the bound, plus a sample just above it.

    Every prime in range gets a full scan_prime analysis, with the same
    report and log line.  Only the first expansion is shared: the sweep
    computes the quotient's first `FIRST_WINDOW` coefficients once over
    Z (`quotient_prefix`), whenever it has a prime to scan, and each
    prime that admits a lift reads their reduction mod ell, which equals
    the expansion mod ell.  A prime the prefix leaves undecided is expanded
    mod ell to its whole certificate window, as in scan_prime.  Parallel
    workers (`jobs` > 1) receive the same prefix.

    Primes above the bound must report no congruence (the identity
    quotient is the stated exception); a congruence there is raised as
    a counterexample.  With a cache, previously scanned primes are not
    recomputed: the quotient's records are read once, and only the
    primes scanned in this call are appended.  A negative
    `sample_above` and fewer than one job are ValueErrors.
    """
    if sample_above < 0:
        raise ValueError(f"sample_above must be nonnegative, got {sample_above}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    t_bound = theorem_bound(spec)
    r_bound = remark_bound(spec)
    bound = r_bound if use_remark else t_bound
    kind = "remark" if use_remark else "theorem"
    started = _utc_now()
    primes = [p for p in range(5, bound + 1) if is_prime(p)]
    above = list(islice(filter(is_prime, count(bound + 1)), sample_above))
    targets = primes + above
    # the quotient's reports on file, of primes outside this sweep's targets too
    reports = {} if cache is None else cache.load(spec)
    missing = [ell for ell in targets if ell not in reports]
    scan = partial(_scan, spec, quotient_prefix(*spec, FIRST_WINDOW) if missing else ())
    if jobs > 1 and len(missing) > 1:
        # imported here, so that a serial sweep never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            scans = list(pool.map(scan, missing))
    else:
        scans = list(map(scan, missing))
    reports.update((ell, report) for ell, (report, _) in zip(missing, scans))
    # the whole window was expanded exactly where more than the prefix was read
    windows = [window for _, window in scans]
    by_prefix = sum(0 < window <= FIRST_WINDOW for window in windows)
    by_window = sum(window > FIRST_WINDOW for window in windows)
    identity = spec == (0, 0, 0)
    if not identity:
        for ell in above:
            if reports[ell].residues:
                raise CounterexampleError(
                    f"prime {ell} above the bound {bound} reports residues "
                    f"{list(reports[ell].residues)} for {spec}"
                )
    result = ScanResult(
        spec=spec,
        bound_kind=kind,
        bound=bound,
        theorem_bound=t_bound,
        remark_bound=r_bound,
        identity_quotient=identity,
        reports=tuple(reports[ell] for ell in primes),
        sampled_above=tuple(reports[ell] for ell in above),
        started_at=started,
        finished_at=_utc_now(),
    )
    if cache is not None and missing:
        # the cached primes are on file already; append only this call's scans,
        # which follow the targets' order
        cache.put(result._replace(reports=tuple(r for r, _ in scans), sampled_above=()))
    log.info(
        "sweep of %s: %d primes from %d to %d, %d cache hits, %d scanned, %.4f s, "
        "%d decided by the shared prefix, %d by the whole window",
        spec, len(targets), targets[0], targets[-1],
        len(targets) - len(missing), len(missing), time.perf_counter() - start,
        by_prefix, by_window,
    )
    return result


class TableRow(namedtuple("TableRow", "name r s t step residue modulus")):
    """One congruence claim: a(n) = 0 mod modulus whenever n = residue mod step."""

    __slots__ = ()


#: the Berndt and Yee congruence table; two quotients carry claims in both
#: progressions, so seven named quotients give nine rows
BERNDT_YEE_TABLE = (
    TableRow("1/E2", -1, 0, 0, 3, 2, 81),
    TableRow("1/E4", 0, -1, 0, 3, 2, 9),
    TableRow("1/E6", 0, 0, -1, 3, 2, 27),
    TableRow("1/E6", 0, 0, -1, 8, 4, 49),
    TableRow("E2/E4", 1, -1, 0, 3, 2, 27),
    TableRow("E2/E6", 1, 0, -1, 3, 2, 9),
    TableRow("E2/E6", 1, 0, -1, 8, 4, 49),
    TableRow("E4/E6", 0, 1, -1, 3, 2, 27),
    TableRow("E2^2/E6", 2, 0, -1, 3, 2, 243),
)


def table_rows(name: str) -> tuple[TableRow, ...]:
    """Rows of the stored table matching a quotient name, or all for 'all'."""
    if name == "all":
        return BERNDT_YEE_TABLE
    rows = tuple(row for row in BERNDT_YEE_TABLE if row.name == name)
    if not rows:
        known = sorted({row.name for row in BERNDT_YEE_TABLE})
        raise ValueError(f"unknown table row {name!r}; known rows: {', '.join(known)}")
    return rows


def verify_table(rows=BERNDT_YEE_TABLE, terms: int = 3000) -> list[dict]:
    """Expand each row's quotient and confirm the claimed progression vanishes.

    A window check by nature, since the claims cover all n; the report
    carries the window it was checked at.  Any nonzero coefficient in a
    claimed progression aborts with the offending exponent, because the
    rows are proved facts and a hit means the arithmetic here is wrong.
    Each row logs one INFO line with its name, modulus, window and time,
    before its check.
    """
    if terms < 100:
        raise ValueError("table verification below 100 terms is not meaningful")
    out = []
    for row in rows:
        start = time.perf_counter()
        series = eisenstein_power_product(row.r, row.s, row.t, row.modulus, terms)
        progression = series.extract_progression(row.residue, row.step)
        log.info(
            "table row %s mod %d: window %d, %.4f s",
            row.name, row.modulus, terms, time.perf_counter() - start,
        )
        if not progression.is_zero():
            n = row.step * progression.valuation + row.residue
            raise CounterexampleError(
                f"table row {row.name}: coefficient of q^{n} is {progression.coeffs[0]}, "
                f"not 0 mod {row.modulus}"
            )
        out.append({**row._asdict(), "terms": terms, "checked": progression.precision})
    return out
