"""The package's records are named tuples.

Each keeps the repr, equality, hashing, immutability and pickling it had
as a frozen dataclass; the three that check their fields check them in
the constructor and in `_replace` alike.  The sweep's timestamps are
written from `time` in the text `datetime.isoformat` gives.
"""

import pickle
from datetime import datetime, timedelta, timezone

import pytest

from eiscong import (
    BERNDT_YEE_TABLE,
    CongruenceReport,
    IsobaricPolynomial,
    ModularFormModEll,
    QuotientSpec,
    ScanResult,
    TruncatedSeries,
    compute_a_tilde,
    eisenstein_series,
    scan_prime,
    verify_theorem,
)
from eiscong import scanner
from eiscong.tate import tate_cycle

SPEC = QuotientSpec(0, -12, 1)
REPORT = scan_prime(SPEC, 17)

# each record with its repr as the frozen dataclasses wrote it
RECORDS = [
    (SPEC, "QuotientSpec(r=0, s=-12, t=1)"),
    (REPORT, "CongruenceReport(spec=QuotientSpec(r=0, s=-12, t=1), ell=17, "
             "method='rigorous', residues=(3, 5, 6, 7, 10, 11, 12, 14), weight=128, "
             "precision=25)"),
    (CongruenceReport(SPEC, 5, "rigorous", ()),
     "CongruenceReport(spec=QuotientSpec(r=0, s=-12, t=1), ell=5, method='rigorous', "
     "residues=(), weight=None, precision=None)"),
    (BERNDT_YEE_TABLE[0], "TableRow(name='1/E2', r=-1, s=0, t=0, step=3, residue=2, modulus=81)"),
    (compute_a_tilde(13), "IsobaricPolynomial(prime=13, weight=12, coeffs=(6, 8))"),
    (ModularFormModEll(5, 4, eisenstein_series(4, 5, 3)),
     "ModularFormModEll(prime=5, weight=4, series=TruncatedSeries(1 + O(q^3), mod 5))"),
    (tate_cycle(ModularFormModEll(13, 4, eisenstein_series(4, 13, 20))),
     "TateCycleProfile(prime=13, base_weight=4, base_filtration=4, filtrations=(18, 32, "
     "46, 60, 74, 88, 102, 116, 130, 24, 38, 52), high_points=(9, 12), low_points=(10, 1), "
     "falls=(10, 4))"),
    (ScanResult(SPEC, "theorem", 5, 5, 5, False, (REPORT,), (), "a", "b"),
     "ScanResult(spec=QuotientSpec(r=0, s=-12, t=1), bound_kind='theorem', bound=5, "
     "theorem_bound=5, remark_bound=5, identity_quotient=False, reports=(CongruenceReport("
     "spec=QuotientSpec(r=0, s=-12, t=1), ell=17, method='rigorous', residues=(3, 5, 6, 7, "
     "10, 11, 12, 14), weight=128, precision=25),), sampled_above=(), started_at='a', "
     "finished_at='b')"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]
# a change of one field; the records that check their last field need a valid one
CHANGES = {
    ModularFormModEll: {"series": eisenstein_series(4, 5, 4)},
    IsobaricPolynomial: {"coeffs": (6, 9)},
}


@pytest.mark.parametrize(("record", "text"), RECORDS, ids=IDS)
def test_repr_is_pinned(record, text):
    assert repr(record) == text


@pytest.mark.parametrize(("record", "text"), RECORDS, ids=IDS)
def test_equal_records_hash_alike(record, text):
    copy = type(record)(*record)
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)
    other = record._replace(**CHANGES.get(type(record), {record._fields[-1]: "other"}))
    assert other != record


@pytest.mark.parametrize(("record", "text"), RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, text):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize(("record", "text"), RECORDS, ids=IDS)
def test_pickle_round_trips(record, text):
    # a sweep with jobs > 1 pickles its reports back from the pool
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def test_records_are_tuples_of_their_fields():
    r, s, t = SPEC
    assert (r, s, t) == (0, -12, 1) and SPEC[1] == -12
    assert SPEC == (0, -12, 1)
    assert REPORT._asdict()["residues"] == (3, 5, 6, 7, 10, 11, 12, 14)
    assert BERNDT_YEE_TABLE[0]._asdict() == {
        "name": "1/E2", "r": -1, "s": 0, "t": 0, "step": 3, "residue": 2, "modulus": 81,
    }


POLY = compute_a_tilde(13)
FORM = ModularFormModEll(5, 4, eisenstein_series(4, 5, 3))


BAD_FIELDS = [
    (SPEC, {"r": -1}, "the E2 exponent must be nonnegative, got -1"),
    (FORM, {"prime": 4}, "ell must be a prime at least 5, got 4"),
    (FORM, {"weight": 3}, "weight must be even and nonnegative, got 3"),
    (FORM, {"series": eisenstein_series(4, 7, 3)}, "series modulus must equal the prime"),
    (FORM, {"series": TruncatedSeries(5, [1, 2], valuation=-1)},
     "modular form reductions have no negative exponents"),
    (POLY, {"prime": 4}, "ell must be a prime at least 5, got 4"),
    (POLY, {"coeffs": (6,)}, "weight 12 has 2 monomials, got 1 coefficients"),
    (POLY, {"coeffs": (6, 13)}, "coefficients must be canonical residues"),
    (POLY, {"coeffs": (6, -1)}, "coefficients must be canonical residues"),
]


@pytest.mark.parametrize(("record", "bad", "message"), BAD_FIELDS,
                         ids=[f"{type(r).__name__}.{next(iter(b))}" for r, b, _ in BAD_FIELDS])
def test_checked_records_refuse_bad_fields(record, bad, message):
    fields = {**record._asdict(), **bad}
    with pytest.raises(ValueError, match=f"^{message}$"):
        type(record)(**fields)
    with pytest.raises(ValueError, match=f"^{message}$"):
        record._replace(**bad)


def test_checked_records_take_their_fields_as_given():
    # the constructor and _replace keep a valid record's fields, and the
    # polynomial's coefficients become a tuple
    assert SPEC._replace(r=2) == QuotientSpec(2, -12, 1)
    assert IsobaricPolynomial(13, 12, [6, 8]) == POLY
    assert type(POLY._replace(coeffs=[1, 2]).coeffs) is tuple


@pytest.mark.parametrize("ns", [
    1_700_000_000 * 10**9,           # a whole second: no fraction
    1_700_000_000_123_456_000,       # a fraction of whole microseconds
    1_700_000_000_000_042_000,       # one with leading zeros
])
def test_timestamps_read_as_datetime_writes_them(monkeypatch, ns):
    monkeypatch.setattr(scanner.time, "time_ns", lambda: ns)
    assert scanner._utc_now() == datetime.fromtimestamp(ns / 10**9, timezone.utc).isoformat()


def test_timestamps_round_down_to_the_microsecond(monkeypatch):
    # as datetime.now does; a float timestamp would round this one up
    ns = 1_700_000_000_123_456_999
    monkeypatch.setattr(scanner.time, "time_ns", lambda: ns)
    whole = datetime.fromtimestamp(ns // 10**9, timezone.utc)
    assert scanner._utc_now() == (whole + timedelta(microseconds=123_456)).isoformat()


def test_a_sweep_is_stamped_in_utc():
    before = datetime.now(timezone.utc)
    result = verify_theorem(QuotientSpec(0, 1, 1), use_remark=True, sample_above=0)
    started = datetime.fromisoformat(result.started_at)
    finished = datetime.fromisoformat(result.finished_at)
    assert started.utcoffset() == finished.utcoffset() == timedelta(0)
    assert before - timedelta(seconds=1) <= started <= finished <= datetime.now(timezone.utc)
