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
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from functools import partial
from itertools import count, islice
from pathlib import Path

from . import __version__
from .eisenstein import (
    QuotientSpec,
    admits_lift,
    eisenstein_power_product,
    lift_weight,
    quotient_series,
)
from .filtration import sturm
from .primes import is_prime, require_prime
from .series import PrecisionError, TruncatedSeries
from .tate import (
    METHOD_BELOW_BOUND,
    METHOD_RIGOROUS,
    METHOD_THETA_VANISHING,
    METHOD_TRIVIAL_PRIME,
    THETA_WINDOW_DEFAULT,
    CongruenceReport,
    congruence_scan,
    theta_vanishes,
    theta_zero_congruences_hold,
)

log = logging.getLogger(__name__)

RESULTS_DIR_ENV = "EISCONG_RESULTS_DIR"
#: terms of the quotient the certificate scan reads before its whole window
FIRST_WINDOW = 16
RECORD_FIELDS = (
    "r", "s", "t", "ell", "method", "residues", "weight", "precision", "bound", "version",
)


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


def case_split(spec: QuotientSpec, ell: int) -> int:
    """Which size regime of r + 4s + 6t applies at ell (1 through 4).

    1: at least ell in absolute value; 2: strictly between 0 and ell;
    3: zero; 4: strictly between -ell and 0.  Exactly one holds.
    """
    total = spec.r + 4 * spec.s + 6 * spec.t
    if abs(total) >= ell:
        return 1
    if total > 0:
        return 2
    if total == 0:
        return 3
    return 4


def certificate_precision(spec: QuotientSpec, ell: int) -> int:
    """Series length needed for the congruence certificate at ell."""
    return sturm(lift_weight(spec, ell) + (ell + 1) ** 2 // 2) + 2


def profile_precision(spec: QuotientSpec, ell: int) -> int:
    """Series length needed to profile the full Tate cycle of the lift.

    The cycle reads the lift only through its one solve at the lift
    weight; every later step is polynomial arithmetic.
    """
    return sturm(lift_weight(spec, ell)) + 1


def scan_prime(spec: QuotientSpec, ell: int) -> CongruenceReport:
    """Full congruence analysis of one prime, certified to `certificate_precision`.

    Primes 2 and 3 are trivial (every series involved reduces to 1) and
    reported without analysis.  A prime below |s| or |t| has no lift
    (`admits_lift`) and is recorded as disposed of by size.  Otherwise
    one coefficient scan of the quotient decides theta vanishing and,
    failing that, settles every nonzero residue by the finite
    certificate for the lift.  The scan reads the quotient in place of
    the lift: the two differ by the unit (E4*E6)(q^ell) mod ell, which
    maps each residue class of exponents to itself by a unitriangular
    transform, so a class vanishes through any index on one side
    exactly when it does on the other.

    The quotient is expanded mod ell to `FIRST_WINDOW` terms first, and
    to `certificate_precision` only when those leave the scan undecided.
    A nonzero a(n) in both quadratic classes settles "no congruence"
    on a short prefix; a theta-killed or congruence-carrying prime
    reads the whole Sturm range.  The report's precision is always
    `certificate_precision`, the window the certificate stands on; the
    log line also gives the window actually read.  This is
    `verify_theorem`'s scan of one prime: the same prefix, report and
    log line, with the prefix expanded modulo ell alone.
    """
    require_prime(ell, 2)
    return _scan(spec, _shared_prefix(spec, [ell]), ell)[0]


def _shared_prefix(spec: QuotientSpec, primes: list[int]) -> TruncatedSeries | None:
    # the first FIRST_WINDOW terms of the quotient modulo the product M of the
    # primes it certifies; reducing mod ell | M is a ring map and every
    # constant term is 1, so the reduction equals the expansion mod ell
    modulus = math.prod(ell for ell in primes if ell >= 5 and admits_lift(spec, ell))
    return quotient_series(spec, modulus, FIRST_WINDOW) if modulus > 1 else None


def _scan(
    spec: QuotientSpec, prefix: TruncatedSeries | None, ell: int
) -> tuple[CongruenceReport, int]:
    # scan_prime's analysis and log line, from the first FIRST_WINDOW terms of
    # the quotient modulo a multiple of ell (None where ell is not certified);
    # returns the report and how many terms of the quotient it read
    start = time.perf_counter()
    report, window = _decide_prime(spec, ell, prefix)
    log.info(
        "scan mod %d: %s, precision %s, window %d, %.4f s",
        ell, report.method, report.precision, window, time.perf_counter() - start,
    )
    return report, window


def _decide_prime(
    spec: QuotientSpec, ell: int, prefix: TruncatedSeries | None
) -> tuple[CongruenceReport, int]:
    if ell in (2, 3):
        return CongruenceReport(spec, ell, METHOD_TRIVIAL_PRIME, tuple(range(1, ell))), 0
    if not admits_lift(spec, ell):
        return CongruenceReport(spec, ell, METHOD_BELOW_BOUND, ()), 0
    precision = certificate_precision(spec, ell)
    weight = lift_weight(spec, ell)
    # a prefix at least as long as the whole window always decides
    window = min(FIRST_WINDOW, precision)
    try:
        theta_kills, residues = congruence_scan(prefix.change_modulus(ell), ell, weight)
    except PrecisionError:
        # an undecided prefix: the whole window covers the Sturm range and decides
        window = precision
        theta_kills, residues = congruence_scan(
            quotient_series(spec, ell, window), ell, weight
        )
    method = METHOD_RIGOROUS
    if theta_kills:
        if not theta_vanishes(spec, ell):
            raise PrecisionError(
                f"theta-vanishing window {THETA_WINDOW_DEFAULT} disagrees with the Sturm "
                f"certificate at ell={ell}"
            )
        if ell >= 17 and not theta_zero_congruences_hold(spec, ell):
            raise PrecisionError(
                f"theta image vanishes through precision at ell={ell} but the coefficient "
                "system forbids it"
            )
        method, residues = METHOD_THETA_VANISHING, tuple(range(1, ell))
    return CongruenceReport(spec, ell, method, residues, weight, precision), window


def report_to_record(report: CongruenceReport, bound: int, version: str = __version__) -> dict:
    spec = report.spec
    values = (spec.r, spec.s, spec.t, report.ell, report.method, list(report.residues),
              report.weight, report.precision, bound, version)
    return dict(zip(RECORD_FIELDS, values, strict=True))


def record_to_report(record: dict) -> CongruenceReport:
    return CongruenceReport(
        spec=QuotientSpec(record["r"], record["s"], record["t"]),
        ell=record["ell"],
        method=record["method"],
        residues=tuple(record["residues"]),
        weight=record["weight"],
        precision=record["precision"],
    )


@dataclass(frozen=True)
class ScanResult:
    """Outcome of one prime sweep: per-prime reports plus the above-bound sample."""

    spec: QuotientSpec
    bound_kind: str
    bound: int
    theorem_bound: int
    remark_bound: int
    identity_quotient: bool
    reports: tuple[CongruenceReport, ...]
    sampled_above: tuple[CongruenceReport, ...]
    version: str
    started_at: str
    finished_at: str

    def to_records(self) -> list[dict]:
        return [
            report_to_record(rep, self.bound, self.version)
            for rep in self.reports + self.sampled_above
        ]

    def to_json(self) -> dict:
        records = self.to_records()
        return {
            **asdict(self.spec),
            "bound_kind": self.bound_kind,
            "bound": self.bound,
            "theorem_bound": self.theorem_bound,
            "remark_bound": self.remark_bound,
            "identity_quotient": self.identity_quotient,
            "version": self.version,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "reports": records[: len(self.reports)],
            "sampled_above": records[len(self.reports) :],
        }


class ResultsCache:
    """Append-only JSONL records keyed by (r, s, t, ell, version).

    One file per quotient, one record per analysed prime.  Reads return
    the latest record for a key; corrupt lines are skipped with a
    warning; bumping the version invalidates all earlier lines.
    """

    def __init__(self, directory: str | os.PathLike, version: str = __version__):
        self.directory = Path(directory)
        self.version = version

    def path_for(self, spec: QuotientSpec) -> Path:
        return self.directory / f"scan-{spec.r}_{spec.s}_{spec.t}.jsonl"

    def load(self, spec: QuotientSpec) -> dict[int, CongruenceReport]:
        """The latest report for each prime on file for the quotient, from one read."""
        path = self.path_for(spec)
        if not path.exists():
            return {}
        latest = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    log.warning("skipping corrupt record at %s:%d", path, lineno)
                    continue
                if not all(k in record for k in RECORD_FIELDS):
                    log.warning("skipping incomplete record at %s:%d", path, lineno)
                    continue
                if record["version"] == self.version and (
                    record["r"], record["s"], record["t"]
                ) == (spec.r, spec.s, spec.t):
                    latest[record["ell"]] = record
        return {ell: record_to_report(record) for ell, record in latest.items()}

    def get(self, spec: QuotientSpec, ell: int) -> CongruenceReport | None:
        """The latest report on file for one prime, or None."""
        return self.load(spec).get(ell)

    def put(self, result: ScanResult) -> None:
        """Append one record per report of the result, the sample above the bound included."""
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.path_for(result.spec), "a", encoding="utf-8") as fh:
            for record in result.to_records():
                fh.write(json.dumps(record) + "\n")


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
    expands the quotient once to `FIRST_WINDOW` terms modulo the product
    of the primes it scans that admit a lift, and each prime reads the
    reduction mod ell of that prefix, which equals the expansion mod
    ell.  A prime the prefix leaves undecided is expanded mod ell to its
    whole certificate window, as in scan_prime.  Parallel workers
    (`jobs` > 1) receive the same prefix.

    Primes above the bound must report no congruence (the identity
    quotient is the stated exception); a congruence there is raised as
    a counterexample.  With a cache, previously scanned primes are not
    recomputed: the quotient's records are read once, and only the
    primes scanned in this call are appended.  A negative
    `sample_above` is a ValueError.
    """
    if sample_above < 0:
        raise ValueError(f"sample_above must be nonnegative, got {sample_above}")
    start = time.perf_counter()
    t_bound = theorem_bound(spec)
    r_bound = remark_bound(spec)
    bound = r_bound if use_remark else t_bound
    kind = "remark" if use_remark else "theorem"
    started = datetime.now(timezone.utc).isoformat()
    primes = [p for p in range(5, bound + 1) if is_prime(p)]
    above = list(islice(filter(is_prime, count(bound + 1)), sample_above))
    targets = primes + above
    on_file = {} if cache is None else cache.load(spec)
    reports = {ell: on_file[ell] for ell in targets if ell in on_file}
    missing = [ell for ell in targets if ell not in reports]
    scan = partial(_scan, spec, _shared_prefix(spec, missing))
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
    identity = (spec.r, spec.s, spec.t) == (0, 0, 0)
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
        version=__version__,
        started_at=started,
        finished_at=datetime.now(timezone.utc).isoformat(),
    )
    if cache is not None and missing:
        # the cached primes are on file already; append only this call's scans
        fresh = set(missing)
        cache.put(
            replace(
                result,
                reports=tuple(r for r in result.reports if r.ell in fresh),
                sampled_above=tuple(r for r in result.sampled_above if r.ell in fresh),
            )
        )
    log.info(
        "sweep of %s: %d primes from %d to %d, %d cache hits, %d scanned, %.4f s, "
        "%d decided by the shared prefix, %d by the whole window",
        spec, len(targets), targets[0], targets[-1],
        len(targets) - len(missing), len(missing), time.perf_counter() - start,
        by_prefix, by_window,
    )
    return result


@dataclass(frozen=True)
class TableRow:
    """One congruence claim: a(n) = 0 mod modulus whenever n = residue mod step."""

    name: str
    r: int
    s: int
    t: int
    step: int
    residue: int
    modulus: int


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
    """
    if terms < 100:
        raise ValueError("table verification below 100 terms is not meaningful")
    out = []
    for row in rows:
        series = eisenstein_power_product(row.r, row.s, row.t, row.modulus, terms)
        progression = series.extract_progression(row.residue, row.step)
        if not progression.is_zero():
            n = row.step * progression.valuation + row.residue
            raise CounterexampleError(
                f"table row {row.name}: coefficient of q^{n} is {progression.coeffs[0]}, "
                f"not 0 mod {row.modulus}"
            )
        out.append({**asdict(row), "terms": terms, "checked": progression.precision})
    return out
