import itertools
import json
import logging
import random
from pathlib import Path

import pytest

import eiscong.scanner as scanner
from eiscong import __version__
from eiscong.eisenstein import (
    LiftedForm,
    QuotientSpec,
    admits_lift,
    eisenstein_power_product,
    lift_weight,
    replacement_lift,
)
from eiscong.scanner import (
    BERNDT_YEE_TABLE,
    CounterexampleError,
    ResultsCache,
    ScanResult,
    TableRow,
    case_split,
    certificate_precision,
    remark_bound,
    report_to_record,
    scan_prime,
    table_rows,
    theorem_bound,
    verify_table,
    verify_theorem,
)
from eiscong.series import TruncatedSeries
from eiscong.tate import (
    METHOD_BELOW_BOUND,
    METHOD_HEURISTIC,
    METHOD_RIGOROUS,
    METHOD_THETA_VANISHING,
    METHOD_TRIVIAL_PRIME,
    CongruenceReport,
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


def test_case_split_is_total_and_single_valued():
    rng = random.Random(9)
    for spec in random_specs(500, seed=3):
        ell = rng.choice([5, 7, 11, 13, 17, 19, 23])
        total = spec.r + 4 * spec.s + 6 * spec.t
        case = case_split(spec, ell)
        holds = [
            abs(total) >= ell,
            0 < total < ell,
            total == 0,
            -ell < total < 0,
        ]
        if abs(total) >= ell:
            assert case == 1
        else:
            assert holds.count(True) == 1
            assert holds[case - 1]


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


def value_error(call, *args):
    """The message of the ValueError the call raises, or None."""
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_one_rule_decides_which_primes_carry_a_lift():
    # admits_lift, replacement_lift, LiftedForm and scan_prime all follow the
    # lift's exponents ell + s and ell + t
    disagreements, seen = [], set()
    for s, t in itertools.product(range(-20, 5), repeat=2):
        spec = QuotientSpec(0, s, t)
        for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31):
            admitted = ell + s >= 0 and ell + t >= 0
            seen.add(admitted)
            series = TruncatedSeries.one(ell, 4)
            got = (
                admits_lift(spec, ell),
                value_error(replacement_lift, spec, ell, 4),
                value_error(LiftedForm, spec, ell, lift_weight(spec, ell), series),
                scan_prime(spec, ell).method != METHOD_BELOW_BOUND,
            )
            expected = (True, None, None, True) if admitted else (
                False,
                f"ell={ell} is smaller than |s|={abs(s)} or |t|={abs(t)}; "
                "no lift of this shape exists (the prime is below the size bound)",
                "lift exponents must be nonnegative",
                False,
            )
            if got != expected:
                disagreements.append((s, t, ell))
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
    assert decided.precision == certificate_precision(spec, 181) == 1529
    assert lines[0].startswith(f"scan mod 181: {METHOD_RIGOROUS}, precision 1529, window 16, ")
    assert carrying.precision == 26
    assert lines[1].startswith(f"scan mod 17: {METHOD_RIGOROUS}, precision 26, window 26, ")


def test_an_undecided_prefix_expands_the_whole_window_once(monkeypatch, caplog):
    # a made-up expansion mod 29 whose nonzero a(n) past n = 0 are a(1), in
    # the square class, and a(26), in the other: 16 terms leave the
    # nonsquare class open, and the next expansion is the whole window
    spec, ell = QuotientSpec(0, -12, 1), 29
    precision = certificate_precision(spec, ell)
    requested = []

    def synthetic(spec, modulus, terms):
        requested.append(terms)
        return TruncatedSeries(modulus, [int(n in (0, 1, 26)) for n in range(terms)])

    monkeypatch.setattr(scanner, "quotient_series", synthetic)
    with caplog.at_level(logging.INFO, logger="eiscong.scanner"):
        report = scan_prime(spec, ell)
    assert requested == [16, precision]
    assert report == CongruenceReport(
        spec, ell, METHOD_RIGOROUS, (), weight=lift_weight(spec, ell), precision=precision
    )
    assert f", window {precision}, " in caplog.records[-1].getMessage()


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


def test_parallel_sweep_matches_serial():
    serial = verify_theorem(QuotientSpec(0, 1, 1), use_remark=True, sample_above=0)
    parallel = verify_theorem(QuotientSpec(0, 1, 1), use_remark=True, sample_above=0, jobs=2)
    assert serial.to_records() == parallel.to_records()


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
    path.write_text("this is not json\n" + json.dumps(good) + "\n" + '{"r": 2}\n')
    with caplog.at_level(logging.WARNING):
        got = cache.get(spec, 5)
    assert got is not None
    assert got.ell == 5
    assert sum("skipping" in r.message for r in caplog.records) == 2


def test_cache_version_bump_invalidates(tmp_path):
    spec = QuotientSpec(0, 1, 1)
    old = ResultsCache(tmp_path, version="0.0.0-old")
    result = verify_theorem(spec, use_remark=True, sample_above=0)
    old_result = ScanResult(**{**result.__dict__, "version": "0.0.0-old"})
    old.put(old_result)
    assert old.get(spec, 11) is not None
    assert ResultsCache(tmp_path, version=__version__).get(spec, 11) is None


def test_warm_cache_skips_all_series_work(tmp_path, monkeypatch):
    spec = QuotientSpec(0, 1, 1)
    cache = ResultsCache(tmp_path)
    first = verify_theorem(spec, use_remark=True, sample_above=2, cache=cache)

    def boom(*args, **kwargs):
        raise AssertionError("scan recomputed despite a warm cache")

    # a sweep scans through _scan, on a prefix from quotient_series
    for name in ("_scan", "quotient_series"):
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


def listed_record(report, bound, version=__version__):
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
        "version": version,
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
        "version": result.version,
        "started_at": result.started_at,
        "finished_at": result.finished_at,
        "reports": [listed_record(r, result.bound, result.version) for r in result.reports],
        "sampled_above": [
            listed_record(r, result.bound, result.version) for r in result.sampled_above
        ],
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
        for bound, version in ((129, __version__), (19, "0.0.1")):
            assert json.dumps(report_to_record(rep, bound, version)) == json.dumps(
                listed_record(rep, bound, version)
            )


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
