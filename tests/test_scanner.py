import itertools
import json
import logging
import random
import types
from collections import Counter
from pathlib import Path
from typing import get_args

import pytest
from sympy import isprime

import eiscong.scanner as scanner
from eiscong import __version__
from eiscong.cli import main
from eiscong.eisenstein import (
    QuotientSpec,
    admits_lift,
    eisenstein_power_product,
    lift_weight,
    quotient_series,
    replacement_lift,
)
from eiscong.filtration import _lift_polynomial
from eiscong.primes import is_prime
from eiscong.scanner import (
    BERNDT_YEE_TABLE,
    CounterexampleError,
    ResultsCache,
    TableRow,
    certificate_precision,
    remark_bound,
    report_to_record,
    scan_prime,
    table_rows,
    theorem_bound,
    verify_table,
    verify_theorem,
)
from eiscong.series import PrecisionError, TruncatedSeries
from eiscong.tate import (
    METHOD_BELOW_BOUND,
    METHOD_HEURISTIC,
    METHOD_RIGOROUS,
    METHOD_THETA_VANISHING,
    METHOD_TRIVIAL_PRIME,
    CongruenceReport,
    congruence_scan,
)


def random_specs(count, seed=0, r_max=30, st_max=30):
    rng = random.Random(seed)
    return [
        QuotientSpec(rng.randrange(0, r_max + 1), rng.randrange(-st_max, st_max + 1),
                     rng.randrange(-st_max, st_max + 1))
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# bounds


def test_theorem_bound_examples():
    assert theorem_bound(QuotientSpec(0, -12, 1)) == 129
    assert theorem_bound(QuotientSpec(0, 0, 0)) == 21
    assert theorem_bound(QuotientSpec(1, -1, 0)) == 31


def test_remark_bound_examples():
    assert remark_bound(QuotientSpec(0, -12, 1)) == 105
    assert remark_bound(QuotientSpec(0, 0, 0)) == 21
    # w = r + 4s + 6t = 10 > 0 gives 2w - 1 = 19, and E4*E6 really does
    # carry congruences at 19, so the bound cannot be any smaller
    assert remark_bound(QuotientSpec(0, 1, 1)) == 19


def test_remark_never_exceeds_theorem():
    for spec in random_specs(500, seed=42):
        assert remark_bound(spec) <= theorem_bound(spec), spec


# ---------------------------------------------------------------------------
# per-prime dispatch


def test_scan_small_primes_are_trivial():
    report = scan_prime(QuotientSpec(0, -12, 1), 3)
    assert report.method == METHOD_TRIVIAL_PRIME
    assert report.residues == (1, 2)
    assert scan_prime(QuotientSpec(0, -12, 1), 2).residues == (1,)


def test_scan_refuses_undersized_primes():
    report = scan_prime(QuotientSpec(0, -12, 1), 7)
    assert report.method == METHOD_BELOW_BOUND
    assert report.residues == ()


def weight_or_refusal(call, *args):
    """The weight of what the call returns, or the message of its ValueError."""
    try:
        return call(*args).weight
    except ValueError as exc:
        return str(exc)


def test_one_rule_decides_which_primes_carry_a_lift():
    # admits_lift, replacement_lift, the lift's polynomial and scan_prime
    # all follow the lift's exponents (r, ell + s, ell + t), and every
    # admitted lift has the weight (r+10)*ell + r + 4s + 6t
    disagreements, seen = [], set()
    for r, s, t in itertools.product((0, 2), range(-20, 5), range(-20, 5)):
        spec = QuotientSpec(r, s, t)
        for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31):
            admitted = ell + s >= 0 and ell + t >= 0
            seen.add(admitted)
            weight = (r + 10) * ell + r + 4 * s + 6 * t
            outcome = weight if admitted else (
                f"ell={ell} is smaller than |s|={abs(s)} or |t|={abs(t)}; "
                "no lift of this shape exists (the prime is below the size bound)"
            )
            got = (
                admits_lift(spec, ell),
                lift_weight(spec, ell),
                weight_or_refusal(replacement_lift, spec, ell, 4),
                weight_or_refusal(_lift_polynomial, spec, ell),
                scan_prime(spec, ell).method != METHOD_BELOW_BOUND,
            )
            if got != (admitted, weight, outcome, outcome, admitted):
                disagreements.append((r, s, t, ell))
    assert disagreements == []
    assert seen == {True, False}


def test_scan_certifies_the_example_prime():
    report = scan_prime(QuotientSpec(0, -12, 1), 17)
    assert report.method == METHOD_RIGOROUS
    assert report.residues == (3, 5, 6, 7, 10, 11, 12, 14)
    assert report.weight == 128


def test_scan_detects_theta_vanishing():
    report = scan_prime(QuotientSpec(0, 1, 1), 11)
    assert report.method == METHOD_THETA_VANISHING
    assert report.residues == tuple(range(1, 11))


def test_scan_rejects_composites():
    with pytest.raises(ValueError):
        scan_prime(QuotientSpec(0, 0, 0), 9)


def test_scan_and_sweep_log_one_line_each(caplog):
    spec = QuotientSpec(0, 1, 1)
    with caplog.at_level(logging.INFO, logger="eiscong.scanner"):
        scan_prime(spec, 17)
        verify_theorem(spec, use_remark=True, sample_above=1)
    lines = [r.getMessage() for r in caplog.records if r.name == "eiscong.scanner"]
    assert lines[0].startswith(f"scan mod 17: {METHOD_RIGOROUS}, precision ")
    assert lines[0].endswith(" s")
    # primes 5 to 19 and the sample 23: one line each, then the sweep
    assert len(lines) == 1 + 7 + 1
    assert "scan mod 11: theta-vanishing" in lines[3]
    assert lines[-1].startswith(f"sweep of {spec}: 7 primes from 5 to 23, 0 cache hits, 7 scanned")


def test_sweep_log_counts_the_primes_the_prefix_decided(tmp_path, caplog):
    # 5 and 7 have certificate windows inside the prefix; 11 (theta-killed)
    # and 19 (congruences) read their whole windows; 13, 17 and 23 decide on 16 terms
    spec = QuotientSpec(0, 1, 1)
    cache = ResultsCache(tmp_path)
    with caplog.at_level(logging.INFO, logger="eiscong.scanner"):
        verify_theorem(spec, use_remark=True, sample_above=1, cache=cache)
        verify_theorem(spec, use_remark=True, sample_above=2, cache=cache)
    sweeps = [r.getMessage() for r in caplog.records if r.getMessage().startswith("sweep")]
    assert sweeps[0].endswith(" s, 5 decided by the shared prefix, 2 by the whole window")
    assert ", 7 cache hits, 1 scanned, " in sweeps[1]
    assert sweeps[1].endswith(" s, 1 decided by the shared prefix, 0 by the whole window")


def test_scan_logs_the_window_it_read(caplog):
    spec = QuotientSpec(0, -12, 1)
    with caplog.at_level(logging.INFO, logger="eiscong.scanner"):
        decided = scan_prime(spec, 181)
        carrying = scan_prime(spec, 17)
    lines = [r.getMessage() for r in caplog.records if r.name == "eiscong.scanner"]
    # both classes hold a nonzero a(n) before n = 16; the congruences at 17
    # need the whole Sturm range
    assert decided.precision == certificate_precision(spec, 181) == 1528
    assert lines[0].startswith(f"scan mod 181: {METHOD_RIGOROUS}, precision 1528, window 16, ")
    assert carrying.precision == 25
    assert lines[1].startswith(f"scan mod 17: {METHOD_RIGOROUS}, precision 25, window 25, ")


@pytest.mark.parametrize(
    "spec, ell, method",
    [(QuotientSpec(0, -12, 1), 17, METHOD_RIGOROUS),
     (QuotientSpec(0, 1, 1), 11, METHOD_THETA_VANISHING)],
    ids=["congruences", "theta-killed"],
)
def test_the_certificate_window_is_the_least_that_decides(spec, ell, method, caplog):
    # neither prime holds a nonzero a(n) in both quadratic classes, so its
    # scan reads the whole window, and one term fewer leaves it undecided
    precision, weight = certificate_precision(spec, ell), lift_weight(spec, ell)
    with caplog.at_level(logging.INFO, logger="eiscong.scanner"):
        report = scan_prime(spec, ell)
    residues = congruence_scan(quotient_series(spec, ell, precision), ell, weight)
    assert (report.method, report.precision, report.residues) == (method, precision, residues)
    assert (len(residues) == ell - 1) == (method == METHOD_THETA_VANISHING)
    with pytest.raises(PrecisionError, match=f"needs precision {precision}, have {precision - 1}"):
        congruence_scan(quotient_series(spec, ell, precision - 1), ell, weight)
    assert f", precision {precision}, window {precision}, " in caplog.records[-1].getMessage()


def test_an_undecided_prefix_expands_the_whole_window_once(monkeypatch, caplog):
    # a made-up expansion mod 29 whose nonzero a(n) past n = 0 are a(1), in
    # the square class, and a(26), in the other: the 16-term prefix leaves the
    # nonsquare class open, and the next expansion is the whole window mod 29
    spec, ell = QuotientSpec(0, -12, 1), 29
    precision = certificate_precision(spec, ell)
    prefixes, requested = [], []

    def synthetic(terms):
        return [int(n in (0, 1, 26)) for n in range(terms)]

    def prefix(r, s, t, terms):
        prefixes.append(((r, s, t), terms))
        return tuple(synthetic(terms))

    def window(spec, modulus, terms):
        requested.append((modulus, terms))
        return TruncatedSeries(modulus, synthetic(terms))

    monkeypatch.setattr(scanner, "quotient_prefix", prefix)
    monkeypatch.setattr(scanner, "quotient_series", window)
    with caplog.at_level(logging.INFO, logger="eiscong.scanner"):
        report = scan_prime(spec, ell)
    assert prefixes == [(spec, 16)]
    assert requested == [(ell, precision)]
    assert report == CongruenceReport(
        spec, ell, METHOD_RIGOROUS, (), weight=lift_weight(spec, ell), precision=precision
    )
    assert f", window {precision}, " in caplog.records[-1].getMessage()


def test_the_shared_prefix_is_taken_modulo_exactly_the_certified_primes(monkeypatch):
    # E6/E4^12 has a lift from 13 on: the primes 13 to 127 below the bound 129
    # and the sample 131, 137 and 139 are certified, and 5, 7 and 11 are not.
    # One 16-term prefix over Z serves them all, and every longer expansion is
    # modulo one certified prime
    prefixes, requested = [], []
    expand, window = scanner.quotient_prefix, scanner.quotient_series

    def recording_prefix(r, s, t, terms):
        prefixes.append(((r, s, t), terms))
        return expand(r, s, t, terms)

    def recording_window(spec, modulus, terms):
        requested.append(modulus)
        return window(spec, modulus, terms)

    monkeypatch.setattr(scanner, "quotient_prefix", recording_prefix)
    monkeypatch.setattr(scanner, "quotient_series", recording_window)
    spec = QuotientSpec(0, -12, 1)
    result = verify_theorem(spec)
    certified = [p for p in range(13, 140) if is_prime(p)]
    assert prefixes == [(spec, scanner.FIRST_WINDOW)]
    assert [rep.ell for rep in result.reports + result.sampled_above
            if rep.weight is not None] == certified
    assert requested and all(modulus in certified for modulus in requested)


def test_what_a_scan_decides_first_is_asked_only_at_primes(tmp_path, monkeypatch):
    # `_before_scan` has no branch for an ell that is no prime: the sweep, its
    # prefix, scan_prime and the record check only ask it at primes
    asked = []
    before = scanner._before_scan

    def recording(spec, ell):
        asked.append(ell)
        return before(spec, ell)

    monkeypatch.setattr(scanner, "_before_scan", recording)
    verify_theorem(QuotientSpec(0, -12, 1))
    spec = QuotientSpec(0, 1, 1)
    records = [report_to_record(scan_prime(spec, ell), bound=19) for ell in (2, 3, 17)]
    records += [{**records[2], "ell": ell} for ell in (1, 4, 9, -19)]
    cache = ResultsCache(tmp_path)
    cache.directory.mkdir(parents=True, exist_ok=True)
    cache.path_for(spec).write_text("".join(json.dumps(record) + "\n" for record in records))
    assert sorted(cache.load(spec)) == [2, 3, 17]
    assert {2, 3, 17, 127, 131} <= set(asked)
    assert all(isprime(ell) for ell in asked)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_of_the_weight_ten_product():
    result = verify_theorem(QuotientSpec(0, 1, 1), use_remark=True, sample_above=2)
    assert result.bound == 19
    by_prime = {r.ell: r for r in result.reports}
    assert sorted(by_prime) == [5, 7, 11, 13, 17, 19]
    assert by_prime[11].method == METHOD_THETA_VANISHING
    assert by_prime[13].residues == ()
    assert by_prime[17].residues == ()
    # genuine congruences exactly at the boundary primes 7 and 19
    assert by_prime[7].residues == (3, 5, 6)
    assert by_prime[19].residues == (2, 3, 8, 10, 12, 13, 14, 15, 18)
    assert all(r.residues == () for r in result.sampled_above)


def test_sweep_of_the_identity_quotient():
    result = verify_theorem(QuotientSpec(0, 0, 0), sample_above=1)
    assert result.identity_quotient
    assert result.bound == 21
    assert [r.ell for r in result.reports] == [5, 7, 11, 13, 17, 19]
    assert all(r.method == METHOD_THETA_VANISHING for r in result.reports)
    # the sampled prime also vanishes; the bound statement excludes this case
    assert result.sampled_above[0].residues != ()


def test_sweep_covers_every_prime_exactly_once():
    result = verify_theorem(QuotientSpec(1, -1, 0), sample_above=0)
    from sympy import primerange

    assert [r.ell for r in result.reports] == list(primerange(5, result.bound + 1))


def test_sweep_is_deterministic():
    a = verify_theorem(QuotientSpec(0, 1, 1), use_remark=True, sample_above=1)
    b = verify_theorem(QuotientSpec(0, 1, 1), use_remark=True, sample_above=1)
    assert json.dumps(a.to_records()) == json.dumps(b.to_records())


def test_sweep_rejects_a_negative_sample():
    with pytest.raises(ValueError, match="sample_above must be nonnegative, got -1"):
        verify_theorem(QuotientSpec(0, 1, 1), sample_above=-1)


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_fewer_than_one_job(jobs):
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        verify_theorem(QuotientSpec(0, 1, 1), jobs=jobs)


def test_parallel_sweep_matches_serial():
    serial = verify_theorem(QuotientSpec(0, 1, 1), use_remark=True, sample_above=0)
    parallel = verify_theorem(QuotientSpec(0, 1, 1), use_remark=True, sample_above=0, jobs=2)
    assert serial.to_records() == parallel.to_records()


def test_a_residue_above_the_bound_is_a_counterexample(tmp_path, monkeypatch, capsys):
    # the remark bound of E4*E6 is 19 and the one prime sampled above it is
    # 23; a scan that reports residue 1 there refutes the theorem, and the
    # sweep writes no record of it
    scan = scanner._scan

    def refuted(spec, prefix, ell):
        report, window = scan(spec, prefix, ell)
        if ell == 23:
            report = report._replace(method=METHOD_RIGOROUS, residues=(1,))
        return report, window

    monkeypatch.setattr(scanner, "_scan", refuted)
    cache = ResultsCache(tmp_path)
    with pytest.raises(CounterexampleError, match=r"^prime 23 above the bound 19 reports "):
        verify_theorem(QuotientSpec(0, 1, 1), use_remark=True, sample_above=1, cache=cache)
    assert list(tmp_path.iterdir()) == []
    argv = ["--results-dir", str(tmp_path), "verify-theorem", "--r", "0", "--s", "1",
            "--t", "1", "--remark", "--sample-above", "1"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("counterexample: prime 23 above the bound 19 reports residues [1]")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the published table


def test_table_rows_lookup():
    assert len(table_rows("all")) == 9
    assert len(table_rows("1/E6")) == 2
    with pytest.raises(ValueError):
        table_rows("E8/E6")


def test_true_table_cells_pass():
    rows = [r for r in BERNDT_YEE_TABLE if not (r.name == "E2/E6" and r.modulus == 49)]
    out = verify_table(rows, terms=400)
    assert len(out) == 8
    assert all(o["checked"] > 0 for o in out)


def test_published_mod_49_claim_for_e2_over_e6_is_false():
    # a(4) of E2/E6 is 74102201040 = 7 mod 49; the published cell fails
    # at the very first qualifying exponent
    row = TableRow("E2/E6", 1, 0, -1, 8, 4, 49)
    with pytest.raises(CounterexampleError, match="q\\^4"):
        verify_table([row], terms=200)


def test_counterexamples_carry_the_offending_index():
    bogus = TableRow("bogus", 0, 1, 1, 3, 1, 5)
    with pytest.raises(CounterexampleError, match="q\\^1"):
        verify_table([bogus], terms=150)


def test_table_window_floor():
    with pytest.raises(ValueError):
        verify_table(terms=50)


# ---------------------------------------------------------------------------
# cache


def test_cache_round_trip(tmp_path):
    spec = QuotientSpec(0, 1, 1)
    cache = ResultsCache(tmp_path)
    result = verify_theorem(spec, use_remark=True, sample_above=1, cache=cache)
    report = result.reports[2]
    assert cache.get(spec, report.ell) == report
    assert cache.get(spec, 101) is None
    assert cache.get(QuotientSpec(0, 0, 3), 5) is None


def test_cache_skips_corrupt_lines(tmp_path, caplog):
    spec = QuotientSpec(2, 0, -1)
    cache = ResultsCache(tmp_path)
    path = cache.path_for(spec)
    good = report_to_record(scan_prime(spec, 5), bound=41)
    # a blank line is no record and costs no warning
    path.write_text("this is not json\n\n" + json.dumps(good) + "\n\n" + '{"r": 2}\n')
    with caplog.at_level(logging.WARNING):
        got = cache.get(spec, 5)
    assert got is not None
    assert got.ell == 5
    assert sum("skipping" in r.message for r in caplog.records) == 2


def test_cache_skips_json_lines_that_are_not_records(tmp_path, caplog):
    # a string holding every field name passes a membership test by substring
    spec = QuotientSpec(0, 1, 1)
    cache = ResultsCache(tmp_path)
    first = verify_theorem(spec, use_remark=True, sample_above=2, cache=cache)
    path = cache.path_for(spec)
    kept = len(path.read_text().splitlines())
    lines = ["42", "null", "true", json.dumps(" ".join(scanner.RECORD_FIELDS))]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with caplog.at_level(logging.WARNING):
        second = verify_theorem(spec, use_remark=True, sample_above=2, cache=cache)
    assert second.to_records() == first.to_records()
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping incomplete record at {path}:{kept + i}" for i in range(1, 5)
    ]


@pytest.mark.parametrize(
    "fields, kind",
    [(None, "corrupt"), ({"residues": 5}, "mistyped"), ({"ell": [5]}, "mistyped"),
     ({"residues": "24"}, "mistyped"), ({"ell": 5.0}, "mistyped"), ({"method": 7}, "mistyped"),
     ({"r": True}, "mistyped"), ({"residues": [2, True]}, "mistyped"),
     ({"residues": [2.0]}, "mistyped"), ({"weight": 1.5}, "mistyped"),
     ({"precision": "29"}, "mistyped"), ({"bound": None}, "mistyped"),
     ({"version": 2}, "mistyped"),
     ({"method": "bogus", "residues": [1, 2]}, "impossible"),
     ({"method": METHOD_HEURISTIC}, "impossible"), ({"residues": [2, 1]}, "impossible"),
     ({"residues": [3, 3]}, "impossible"), ({"residues": [0, 5]}, "impossible"),
     ({"residues": [23]}, "impossible"),
     ({"method": METHOD_TRIVIAL_PRIME, "residues": [1, 2]}, "impossible"),
     ({"method": METHOD_THETA_VANISHING, "residues": [1]}, "impossible"),
     ({"precision": None}, "impossible")],
    ids=["not-utf-8", "residues-int", "ell-list", "residues-str", "ell-float", "method-int",
         "r-bool", "residues-bool-entry", "residues-float-entry", "weight-float",
         "precision-str", "bound-null", "version-int",
         "bogus-method-and-residues", "heuristic", "residues-descending", "residues-repeated",
         "residue-zero", "residue-ell", "trivial-above-3", "theta-vanishing-one-residue",
         "rigorous-unsized"],
)
def test_a_damaged_record_is_skipped_and_its_prime_scanned_afresh(
    tmp_path, capsys, caplog, fields, kind
):
    # the record of ell = 23, sampled above the bound 19 where any residue is
    # reported as a counterexample, becomes a line that is not UTF-8, or gets
    # a mistyped field or one no sweep writes
    argv = ["--results-dir", str(tmp_path), "verify-theorem", "--r", "0", "--s", "1",
            "--t", "1", "--remark", "--sample-above", "1"]
    assert main(argv) == 0
    clean = capsys.readouterr().out
    path = ResultsCache(tmp_path).path_for(QuotientSpec(0, 1, 1))
    lines = path.read_bytes().splitlines()
    records = [json.loads(line) for line in lines]
    i = next(i for i, record in enumerate(records) if record["ell"] == 23)
    damaged = {**records[i], **(fields or {})}
    lines[i] = b"\xff\xfe garbage" if fields is None else json.dumps(damaged).encode()
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    with caplog.at_level(logging.WARNING, logger="eiscong.scanner"):
        assert main(argv) == 0
    assert capsys.readouterr().out == clean
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping {kind} record at {path}:{i + 1}"
    ]
    # ell = 23 alone was scanned again, and its record appended
    appended = path.read_bytes().splitlines()[len(lines):]
    assert [json.loads(line) for line in appended] == [records[i]]


#: the record check that `scanner.RECORD_FIELDS`'s tuples of exact types replaced:
#: field types as `typing` constructs, read by a small interpreter
OLD_RECORD_FIELDS = {
    "r": int, "s": int, "t": int, "ell": int, "method": str, "residues": list[int],
    "weight": int | None, "precision": int | None, "bound": int, "version": str,
}


def old_has_type(value, kind) -> bool:
    # exact JSON types: a bool is no int, a float no int, and list[int] checks
    # every entry
    if type(kind) is type:
        return type(value) is kind
    if type(kind) is types.UnionType:
        return any(old_has_type(value, k) for k in get_args(kind))
    (entry,) = get_args(kind)
    return type(value) is list and all(type(x) is entry for x in value)


def test_the_type_check_agrees_with_the_typing_interpreter(tmp_path, caplog):
    # 12000 records of a sweep with one to three fields replaced, each by a JSON
    # value of any shape or, half the time, by that field of another record; a
    # record is mistyped exactly where the old check rejects it
    spec = QuotientSpec(0, 1, 1)
    cache = ResultsCache(tmp_path)
    sweep = verify_theorem(spec, use_remark=True, sample_above=2, cache=cache).to_records()
    values = [True, False, 0, 7, 23, -3, 10**30, 1.0, 2.5, "29", "", "rigorous", None,
              {}, {"a": 1}, [], [1, 2], [1, True], [2.0], [None], ["3"], [[1]]]
    rng = random.Random(33)
    records = []
    for _ in range(12000):
        fields = rng.sample(list(OLD_RECORD_FIELDS), rng.randint(1, 3))
        records.append({**rng.choice(sweep), **{
            k: rng.choice(values) if rng.random() < 0.5 else rng.choice(sweep)[k]
            for k in fields
        }})
    cache.path_for(spec).write_text("".join(json.dumps(rec) + "\n" for rec in records))
    with caplog.at_level(logging.WARNING, logger="eiscong.scanner"):
        cache.load(spec)
    mistyped = {int(r.getMessage().rsplit(":", 1)[1]) for r in caplog.records
                if r.getMessage().startswith("skipping mistyped record")}
    rejected = {i for i, rec in enumerate(records, start=1)
                if not all(old_has_type(rec[k], kind) for k, kind in OLD_RECORD_FIELDS.items())}
    assert list(scanner.RECORD_FIELDS) == list(OLD_RECORD_FIELDS)
    assert mistyped == rejected
    assert 2000 < len(rejected) < 10000


def test_every_record_a_scan_writes_is_served(tmp_path, caplog):
    # trivial, below-bound, certified and theta-killed primes: every prime to
    # 31 of the box r <= 2, -8 <= s, t <= 4, and of E6/E4^12
    primes = [p for p in range(2, 32) if is_prime(p)]
    box = [QuotientSpec(*e) for e in itertools.product(range(3), range(-8, 5), range(-8, 5))]
    reports = [scan_prime(spec, ell) for spec in box for ell in primes]
    assert len(reports) == 5577
    assert Counter(rep.method for rep in reports) == {
        METHOD_TRIVIAL_PRIME: 1014, METHOD_BELOW_BOUND: 282, METHOD_THETA_VANISHING: 145,
        METHOD_RIGOROUS: 4136,
    }
    assert sum(rep.method == METHOD_RIGOROUS and rep.residues != () for rep in reports) == 142
    reports += [scan_prime(QuotientSpec(0, -12, 1), ell) for ell in primes]
    cache = ResultsCache(tmp_path)
    cache.directory.mkdir(parents=True, exist_ok=True)
    for rep in reports:
        with open(cache.path_for(rep.spec), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(report_to_record(rep, 0)) + "\n")
    with caplog.at_level(logging.WARNING, logger="eiscong.scanner"):
        served = {spec: cache.load(spec) for spec in {rep.spec for rep in reports}}
    assert [served[rep.spec][rep.ell] for rep in reports] == reports
    assert sum(map(len, served.values())) == len(reports)
    assert caplog.records == []


@pytest.mark.parametrize(
    "fields",
    [{"method": METHOD_THETA_VANISHING, "residues": [1, 2]}, {"method": METHOD_BELOW_BOUND},
     {"precision": 8}, {"weight": None, "precision": None},
     {"ell": 10**12, "method": METHOD_RIGOROUS, "residues": []},
     {"ell": 10**12, "method": METHOD_THETA_VANISHING, "residues": []}],
    ids=["theta-vanishing-two-residues", "below-bound-with-a-lift", "precision-one-high",
         "unsized", "rigorous-at-a-huge-ell", "theta-vanishing-at-a-huge-ell"],
)
def test_an_impossible_record_warns_only_at_the_current_version(tmp_path, caplog, fields):
    # the weight and precision rule applies to current records only: a file
    # of an older version, whose precisions were one higher, stays quiet.  At
    # ell = 10^12 the weight and precision differ, and listing 1..ell-1 to
    # compare the residues would take terabytes
    spec = QuotientSpec(0, 1, 1)
    cache = ResultsCache(tmp_path)
    record = {**report_to_record(scan_prime(spec, 5), bound=19), **fields}
    cache.directory.mkdir(parents=True, exist_ok=True)
    path = cache.path_for(spec)
    path.write_text(json.dumps(record) + "\n")
    with caplog.at_level(logging.WARNING, logger="eiscong.scanner"):
        assert cache.get(spec, 5) is None
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping impossible record at {path}:1"
    ]
    path.write_text(json.dumps({**record, "version": "0.1.0"}) + "\n")
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="eiscong.scanner"):
        assert cache.get(spec, 5) is None
    assert caplog.records == []


@pytest.mark.parametrize(
    "spec, ell", [(QuotientSpec(0, 1, 1), 4), (QuotientSpec(0, 1, 1), 1),
                  (QuotientSpec(10, 20, 20), -19), (QuotientSpec(0, 1, 1), 9),
                  (QuotientSpec(0, 1, 1), 25), (QuotientSpec(0, 1, 1), 10**30)],
    ids=["four", "one", "negative", "nine", "twenty-five", "ten-to-the-thirty"],
)
def test_a_record_at_an_ell_that_is_no_prime_is_impossible(tmp_path, caplog, spec, ell):
    # the lift's weight and window exist at 4, 1, 9 and 25, so a rigorous
    # record there matches them; at -19 the weight is negative and the window
    # raises; 10^30 is above PSI_12, where is_prime raises instead of deciding
    weight = lift_weight(spec, ell)
    if weight >= 0:
        precision = certificate_precision(spec, ell)
    else:
        precision = None
        with pytest.raises(ValueError):
            certificate_precision(spec, ell)
    record = {**report_to_record(scan_prime(spec, 5), bound=0), "ell": ell,
              "method": METHOD_RIGOROUS, "residues": [], "weight": weight,
              "precision": precision}
    cache = ResultsCache(tmp_path)
    cache.directory.mkdir(parents=True, exist_ok=True)
    path = cache.path_for(spec)
    path.write_text(json.dumps(record) + "\n")
    with caplog.at_level(logging.WARNING, logger="eiscong.scanner"):
        assert cache.load(spec) == {}
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping impossible record at {path}:1"
    ]


def test_cache_version_bump_invalidates(tmp_path):
    spec = QuotientSpec(0, 1, 1)
    cache = ResultsCache(tmp_path)
    record = report_to_record(scan_prime(spec, 11), bound=19)
    path = cache.path_for(spec)
    path.write_text(json.dumps({**record, "version": "0.0.0-old"}) + "\n")
    assert cache.get(spec, 11) is None
    path.write_text(json.dumps(record) + "\n")
    assert cache.get(spec, 11) is not None


def test_warm_cache_skips_all_series_work(tmp_path, monkeypatch):
    spec = QuotientSpec(0, 1, 1)
    cache = ResultsCache(tmp_path)
    first = verify_theorem(spec, use_remark=True, sample_above=2, cache=cache)

    def boom(*args, **kwargs):
        raise AssertionError("scan recomputed despite a warm cache")

    # a sweep scans through _scan, on a prefix from quotient_prefix
    for name in ("_scan", "quotient_prefix", "quotient_series"):
        monkeypatch.setattr(scanner, name, boom)
    second = verify_theorem(spec, use_remark=True, sample_above=2, cache=cache)
    assert first.to_records() == second.to_records()


def test_warm_rerun_appends_nothing(tmp_path):
    spec = QuotientSpec(0, 1, 1)
    cache = ResultsCache(tmp_path)
    verify_theorem(spec, use_remark=True, sample_above=1, cache=cache)
    lines = cache.path_for(spec).read_text().splitlines()
    first = verify_theorem(spec, use_remark=True, sample_above=1, cache=cache)
    assert cache.path_for(spec).read_text().splitlines() == lines
    assert len(lines) == len(first.to_records())
    # one more sampled prime appends exactly its own record
    second = verify_theorem(spec, use_remark=True, sample_above=2, cache=cache)
    grown = cache.path_for(spec).read_text().splitlines()
    assert grown[: len(lines)] == lines
    assert [json.loads(line) for line in grown[len(lines):]] == second.to_records()[-1:]


def test_warm_sweep_reads_the_record_file_once(tmp_path, monkeypatch):
    spec = QuotientSpec(0, 1, 1)
    cache = ResultsCache(tmp_path)
    first = verify_theorem(spec, use_remark=True, sample_above=2, cache=cache)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(scanner, "open", counting_open, raising=False)
    second = verify_theorem(spec, use_remark=True, sample_above=2, cache=cache)
    assert opened == [cache.path_for(spec)]
    assert second.to_records() == first.to_records()


def test_latest_record_wins(tmp_path):
    spec = QuotientSpec(0, 1, 1)
    cache = ResultsCache(tmp_path)
    path = cache.path_for(spec)
    cache.directory.mkdir(exist_ok=True, parents=True)
    stale = report_to_record(scan_prime(spec, 13), bound=19)
    stale["residues"] = [1]
    fresh = report_to_record(scan_prime(spec, 13), bound=19)
    path.write_text(json.dumps(stale) + "\n" + json.dumps(fresh) + "\n")
    assert cache.get(spec, 13).residues == ()


# ---------------------------------------------------------------------------
# record and summary layouts against the written-out dict literals they replaced


def listed_record(report, bound):
    return {
        "r": report.spec.r,
        "s": report.spec.s,
        "t": report.spec.t,
        "ell": report.ell,
        "method": report.method,
        "residues": list(report.residues),
        "weight": report.weight,
        "precision": report.precision,
        "bound": bound,
        "version": __version__,
    }


def listed_sweep_json(result):
    return {
        "r": result.spec.r,
        "s": result.spec.s,
        "t": result.spec.t,
        "bound_kind": result.bound_kind,
        "bound": result.bound,
        "theorem_bound": result.theorem_bound,
        "remark_bound": result.remark_bound,
        "identity_quotient": result.identity_quotient,
        "version": __version__,
        "started_at": result.started_at,
        "finished_at": result.finished_at,
        "reports": [listed_record(r, result.bound) for r in result.reports],
        "sampled_above": [listed_record(r, result.bound) for r in result.sampled_above],
    }


def listed_table_summaries(rows, terms):
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
        out.append(
            {
                "name": row.name,
                "r": row.r,
                "s": row.s,
                "t": row.t,
                "step": row.step,
                "residue": row.residue,
                "modulus": row.modulus,
                "terms": terms,
                "checked": progression.precision,
            }
        )
    return out


def test_records_of_every_method_match_the_listed_layout():
    spec = QuotientSpec(0, -12, 1)
    reports = [
        scan_prime(spec, 3),
        scan_prime(spec, 5),
        scan_prime(spec, 17),
        scan_prime(QuotientSpec(0, 1, 1), 11),
        CongruenceReport(spec, 17, METHOD_HEURISTIC, (3, 5, 6), weight=None, precision=850),
    ]
    assert [rep.method for rep in reports] == [
        METHOD_TRIVIAL_PRIME, METHOD_BELOW_BOUND, METHOD_RIGOROUS, METHOD_THETA_VANISHING,
        METHOD_HEURISTIC,
    ]
    for rep in reports:
        assert json.dumps(report_to_record(rep, 129)) == json.dumps(listed_record(rep, 129))


@pytest.mark.parametrize("spec", [QuotientSpec(0, -12, 1), QuotientSpec(0, 1, 1)])
def test_sweep_json_and_records_match_the_listed_layout(spec):
    result = verify_theorem(spec, use_remark=spec.s > 0)
    assert json.dumps(result.to_json()) == json.dumps(listed_sweep_json(result))
    listed = [listed_record(r, result.bound) for r in result.reports + result.sampled_above]
    assert json.dumps(result.to_records()) == json.dumps(listed)


@pytest.mark.parametrize("row", BERNDT_YEE_TABLE, ids=lambda row: f"{row.name}-{row.modulus}")
def test_table_summaries_match_the_listed_layout(row):
    outcomes = []
    for check in (verify_table, listed_table_summaries):
        try:
            outcomes.append(json.dumps(check((row,), 300)))
        except CounterexampleError as exc:
            outcomes.append(f"counterexample: {exc}")
    assert outcomes[0] == outcomes[1]
