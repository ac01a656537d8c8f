import math

import pytest
from sympy import primerange

from eiscong import scanner
from eiscong.eisenstein import (
    QuotientSpec,
    eisenstein_series,
    lift_weight,
    quotient_series,
    replacement_lift,
)
from eiscong.filtration import ModularFormModEll, sturm
from eiscong.scanner import certificate_precision, profile_precision, scan_prime, theorem_bound
from eiscong.series import PrecisionError, TruncatedSeries
from eiscong.tate import (
    METHOD_BELOW_BOUND,
    METHOD_RIGOROUS,
    METHOD_THETA_VANISHING,
    METHOD_TRIVIAL_PRIME,
    THETA_WINDOW_DEFAULT,
    CongruenceReport,
    certified_residues,
    congruence_scan,
    heuristic_simple_congruences,
    legendre,
    rigorous_simple_congruence,
    tate_cycle,
    theta_vanishes,
    theta_vanishing_prime_candidates,
    theta_zero_congruences_hold,
)


def lifted_form(spec, ell, terms):
    return ModularFormModEll.from_lift(replacement_lift(spec, ell, terms))


EXAMPLE = QuotientSpec(0, -12, 1)  # E6 / E4^12
NONRESIDUES_17 = (3, 5, 6, 7, 10, 11, 12, 14)


# ---------------------------------------------------------------------------
# legendre


def test_legendre_examples():
    assert legendre(0, 17) == 0
    assert legendre(2, 17) == 1   # 6^2 = 36 = 2 mod 17
    assert legendre(3, 17) == -1


def test_legendre_against_brute_force():
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        squares = {pow(x, 2, ell) for x in range(1, ell)}
        for c in range(ell):
            expected = 0 if c == 0 else (1 if c in squares else -1)
            assert legendre(c, ell) == expected


def test_legendre_rejects_composites():
    with pytest.raises(ValueError):
        legendre(2, 15)


# ---------------------------------------------------------------------------
# tate cycles


def test_cycle_of_the_certified_example_at_17():
    form = lifted_form(EXAMPLE, 17, profile_precision(EXAMPLE, 17))
    profile = tate_cycle(form)
    assert profile.base_filtration == 128
    # the filtration climbs by 18 from each low point and falls twice
    expected = tuple(146 + 18 * (i % 8) for i in range(16))
    assert profile.filtrations == expected
    assert profile.high_points == (8, 16)
    assert profile.low_points == (9, 1)
    assert profile.falls == (9, 9)
    assert all(profile.filtrations[i - 1] % 17 == 10 for i in profile.low_points)


def test_cycle_of_e4_mod_13_rises_until_the_high_point():
    ell = 13
    terms = sturm(4 + (ell - 1) * (ell + 1)) + 1
    form = ModularFormModEll(ell, 4, eisenstein_series(4, ell, terms))
    profile = tate_cycle(form)
    assert profile.base_filtration == 4
    for i in range(1, 10):
        assert profile.filtrations[i - 1] == 4 + 14 * i
    assert 9 in profile.high_points
    assert len(profile.low_points) in (1, 2)


def test_cycle_requires_enough_precision():
    form = lifted_form(EXAMPLE, 17, 10)
    with pytest.raises(PrecisionError):
        tate_cycle(form)


@pytest.mark.parametrize(
    "spec, ell",
    [(EXAMPLE, 17), (QuotientSpec(1, 0, -1), 23), (QuotientSpec(0, 0, -2), 29)],
)
def test_cycle_runs_at_exactly_the_profile_precision(spec, ell):
    terms = profile_precision(spec, ell)
    assert terms == sturm(lift_weight(spec, ell)) + 1
    profile = tate_cycle(lifted_form(spec, ell, terms))
    assert profile == tate_cycle(lifted_form(spec, ell, 2 * terms))
    with pytest.raises(PrecisionError):
        tate_cycle(lifted_form(spec, ell, terms - 1))


def test_cycle_cap():
    form = lifted_form(QuotientSpec(0, 0, 0), 59, 10)
    with pytest.raises(ValueError):
        tate_cycle(form, cap=53)


def test_cycle_rejects_theta_killed_forms():
    # the lift of 1/E4 mod 5 is a 5th power, so theta kills it
    spec = QuotientSpec(0, -1, 0)
    form = lifted_form(spec, 5, profile_precision(spec, 5))
    with pytest.raises(ValueError):
        tate_cycle(form)


# ---------------------------------------------------------------------------
# rigorous certificates


def test_certificate_at_17():
    form = lifted_form(EXAMPLE, 17, certificate_precision(EXAMPLE, 17))
    assert rigorous_simple_congruence(form, 3) is True
    assert rigorous_simple_congruence(form, 2) is False
    assert certified_residues(form) == NONRESIDUES_17


def test_certificate_rejects_c_zero():
    form = lifted_form(EXAMPLE, 17, certificate_precision(EXAMPLE, 17))
    with pytest.raises(ValueError):
        rigorous_simple_congruence(form, 0)


def test_no_congruences_at_19():
    form = lifted_form(EXAMPLE, 19, certificate_precision(EXAMPLE, 19))
    assert certified_residues(form) == ()
    assert all(not rigorous_simple_congruence(form, c) for c in range(1, 19))


def test_certificate_requires_enough_precision():
    form = lifted_form(EXAMPLE, 17, 10)
    with pytest.raises(PrecisionError):
        rigorous_simple_congruence(form, 3)


def test_certificate_rejects_theta_killed_forms():
    spec = QuotientSpec(0, -1, 0)
    form = lifted_form(spec, 5, certificate_precision(spec, 5))
    with pytest.raises(ValueError):
        rigorous_simple_congruence(form, 1)


def test_flagged_residues_form_quadratic_classes():
    # flagged sets are unions of the two quadratic classes, never less
    for spec in (QuotientSpec(0, -1, 0), QuotientSpec(0, 1, -1), QuotientSpec(1, 0, -1)):
        for ell in (5, 7, 11, 13, 17):
            form = lifted_form(spec, ell, certificate_precision(spec, ell))
            try:
                flagged = set(certified_residues(form))
            except ValueError:
                continue  # theta-killed: a different regime entirely
            residues = {c for c in range(1, ell) if legendre(c, ell) == 1}
            nonresidues = set(range(1, ell)) - residues
            assert flagged in (set(), residues, nonresidues, residues | nonresidues)


def test_fermat_closure_for_e6_mod_11():
    f = eisenstein_series(6, 11, 40)
    once = f.theta()
    many = f
    for _ in range(11):
        many = many.theta()
    assert many == once


def test_certified_congruences_force_the_cycle_shape():
    # wherever a congruence is certified at some c != 0, the cycle has two
    # low points, every fall is (ell+1)/2, low filtrations are (ell+3)/2
    # mod ell, and with the base filtration written A*ell + B the bounds
    # (ell+1)/2 <= B <= A + (ell+3)/2 hold
    cases = [
        (QuotientSpec(0, -12, 1), 17),
        (QuotientSpec(0, -1, 0), 11),
        (QuotientSpec(1, -1, 0), 7),
        (QuotientSpec(0, 1, -1), 7),
    ]
    for spec, ell in cases:
        form = lifted_form(spec, ell, certificate_precision(spec, ell))
        assert certified_residues(form) != ()
        profile = tate_cycle(lifted_form(spec, ell, profile_precision(spec, ell)))
        assert len(profile.low_points) == 2
        assert profile.falls == ((ell + 1) // 2, (ell + 1) // 2)
        for i in profile.low_points:
            assert profile.filtrations[i - 1] % ell == (ell + 3) // 2 % ell
        quotient_part, remainder = divmod(profile.base_filtration, ell)
        if remainder == 0:
            quotient_part, remainder = quotient_part - 1, ell
        assert (ell + 1) // 2 <= remainder <= quotient_part + (ell + 3) // 2


# ---------------------------------------------------------------------------
# window detection


def test_heuristic_on_constant_quotient():
    series = quotient_series(QuotientSpec(1, 0, -1), 3, 200)  # anything mod 3 is 1
    assert heuristic_simple_congruences(series, 3) == {1, 2}


def test_heuristic_inverse_e4():
    # mod 3 the quotient is identically 1, so both nonzero classes vanish
    series = quotient_series(QuotientSpec(0, -1, 0), 3, 200)
    assert heuristic_simple_congruences(series, 3) == {1, 2}
    # mod 9 only the class from the published table survives
    series9 = quotient_series(QuotientSpec(0, -1, 0), 9, 200)
    assert heuristic_simple_congruences(series9, 3) == {2}


def test_heuristic_on_zero_series():
    assert heuristic_simple_congruences(TruncatedSeries.zero(5, 40), 5) == {0, 1, 2, 3, 4}


def test_heuristic_rejects_poles():
    with pytest.raises(ValueError):
        heuristic_simple_congruences(TruncatedSeries(5, [1, 1], valuation=-1), 5)


def test_theta_vanishes_examples():
    assert theta_vanishes(QuotientSpec(0, 1, 1), 11, 600)
    assert not theta_vanishes(QuotientSpec(0, 1, 1), 13, 600)
    assert theta_vanishes(QuotientSpec(144, -15, -14), 13, 600)


def theta_vanishes_by_coefficients(spec, ell, terms=THETA_WINDOW_DEFAULT):
    """Reference theta_vanishes: its own pass over every a(n) with n prime to ell."""
    series = quotient_series(spec, ell, terms)
    return all(
        c == 0 for n, c in enumerate(series.coeffs, start=series.valuation) if n % ell
    )


@pytest.mark.parametrize(
    "spec",
    [QuotientSpec(0, 1, 1), QuotientSpec(144, -15, -14), QuotientSpec(0, 17, 0),
     QuotientSpec(0, -12, 1)],
    ids=str,
)
def test_theta_vanishes_matches_the_coefficient_pass(spec):
    cases = [(ell, terms) for ell in primerange(5, 32) for terms in (1, 2, 16, 500)]
    got = {case: theta_vanishes(spec, *case) for case in cases}
    reference = {case: theta_vanishes_by_coefficients(spec, *case) for case in cases}
    assert [case for case in cases if got[case] != reference[case]] == []
    # both answers occur, so the comparison is not between constants
    assert set(got.values()) == {True, False}


def test_theta_zero_constraints():
    spec = QuotientSpec(144, -15, -14)
    for ell in (5, 7, 13):
        assert theta_zero_congruences_hold(spec, ell)
    assert not theta_zero_congruences_hold(spec, 11)
    assert not theta_zero_congruences_hold(QuotientSpec(0, 1, 1), 13)


def test_candidates_for_the_weight_ten_product():
    assert theta_vanishing_prime_candidates(QuotientSpec(0, 1, 1), 600) == {2, 3, 11}


def test_candidates_for_the_large_example():
    got = theta_vanishing_prime_candidates(QuotientSpec(144, -15, -14), 600)
    assert got == {2, 3, 5, 7, 13}


def test_candidates_for_the_identity_quotient():
    assert theta_vanishing_prime_candidates(QuotientSpec(0, 0, 0)) is None


def test_candidates_include_gcd_primes_above_13():
    # every exponent divisible by 17 makes the quotient a 17th power
    got = theta_vanishing_prime_candidates(QuotientSpec(17, 17, -17), 300)
    assert 17 in got


# ---------------------------------------------------------------------------
# the one-scan certificate against the theta ladder on the lift


def ladder_class_flags(form):
    """Reference certificate: compare theta^((ell+1)/2) f with -theta f and theta f.

    Returns (squares_flagged, nonsquares_flagged), or None when theta
    kills the form through its Sturm index.
    """
    ell = form.prime
    s = sturm(form.weight + (ell + 1) ** 2 // 2)
    if form.precision < s + 1:
        raise PrecisionError(f"the ladder at ell={ell} needs precision {s + 1}")
    once = form.series.theta()
    if all(once.coefficient(n) == 0 for n in range(sturm(form.weight + ell + 1) + 1)):
        return None
    half = once
    for _ in range((ell + 1) // 2 - 1):
        half = half.theta()
    return half.agrees_with(once.neg(), through=s), half.agrees_with(once, through=s)


def ladder_scan_prime(spec, ell):
    """Reference scan_prime: theta ladder on the powered lift, window cross-check."""
    if ell in (2, 3):
        return CongruenceReport(spec, ell, METHOD_TRIVIAL_PRIME, tuple(range(1, ell)))
    if ell + spec.s < 0 or ell + spec.t < 0:
        return CongruenceReport(spec, ell, METHOD_BELOW_BOUND, ())
    precision = certificate_precision(spec, ell)
    form = lifted_form(spec, ell, precision)
    flags = ladder_class_flags(form)
    if theta_vanishes(spec, ell, THETA_WINDOW_DEFAULT) != (flags is None):
        raise PrecisionError(f"the window disagrees with the ladder at ell={ell}")
    if flags is None:
        assert ell < 17 or theta_zero_congruences_hold(spec, ell)
        return CongruenceReport(
            spec, ell, METHOD_THETA_VANISHING, tuple(range(1, ell)),
            weight=form.weight, precision=precision,
        )
    squares, nonsquares = flags
    residues = tuple(
        c for c in range(1, ell) if (squares if legendre(c, ell) == 1 else nonsquares)
    )
    return CongruenceReport(
        spec, ell, METHOD_RIGOROUS, residues, weight=form.weight, precision=precision
    )


DIFFERENTIAL_SPECS = (
    QuotientSpec(0, -12, 1),
    QuotientSpec(0, 1, 1),
    QuotientSpec(144, -15, -14),
    QuotientSpec(17, 17, -17),
    QuotientSpec(0, 0, 0),
    QuotientSpec(0, -1, 0),
    QuotientSpec(1, 0, -1),
    QuotientSpec(0, 1, -1),
    QuotientSpec(2, 0, -1),
    QuotientSpec(1, -1, 0),
    QuotientSpec(0, -30, 2),
)


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=str)
def test_quotient_scan_matches_the_theta_ladder_on_the_lift(spec):
    top = min(theorem_bound(spec) + 30, 200)
    mismatches = [
        ell
        for ell in primerange(2, top + 1)
        if scan_prime(spec, ell) != ladder_scan_prime(spec, ell)
    ]
    assert mismatches == []


def test_scan_keeps_the_window_guard_on_theta_vanishing(monkeypatch):
    monkeypatch.setattr(scanner, "theta_vanishes", lambda spec, ell: False)
    with pytest.raises(PrecisionError):
        scan_prime(QuotientSpec(0, 1, 1), 11)


def test_scan_keeps_the_closed_form_guard_on_theta_vanishing(monkeypatch):
    # E4^17 = E4(q^17) mod 17, so theta kills it; from 17 on the closed-form
    # coefficient system must agree
    spec = QuotientSpec(0, 17, 0)
    assert scan_prime(spec, 17).method == METHOD_THETA_VANISHING
    monkeypatch.setattr(scanner, "theta_zero_congruences_hold", lambda spec, ell: False)
    with pytest.raises(PrecisionError, match="coefficient system forbids it"):
        scan_prime(spec, 17)


# ---------------------------------------------------------------------------
# the prefix scan against the full certificate window


def full_window_scan_prime(spec, ell):
    """Reference scan_prime: one scan of the quotient at `certificate_precision`."""
    if ell in (2, 3):
        return CongruenceReport(spec, ell, METHOD_TRIVIAL_PRIME, tuple(range(1, ell)))
    if ell + spec.s < 0 or ell + spec.t < 0:
        return CongruenceReport(spec, ell, METHOD_BELOW_BOUND, ())
    precision = certificate_precision(spec, ell)
    weight = lift_weight(spec, ell)
    theta_kills, residues = congruence_scan(
        quotient_series(spec, ell, precision), ell, weight
    )
    if not theta_kills:
        return CongruenceReport(
            spec, ell, METHOD_RIGOROUS, residues, weight=weight, precision=precision
        )
    if not theta_vanishes(spec, ell):
        raise PrecisionError(f"the window disagrees with the certificate at ell={ell}")
    if ell >= 17 and not theta_zero_congruences_hold(spec, ell):
        raise PrecisionError(f"the coefficient system forbids theta vanishing at ell={ell}")
    return CongruenceReport(
        spec, ell, METHOD_THETA_VANISHING, tuple(range(1, ell)),
        weight=weight, precision=precision,
    )


PREFIX_SPECS = (
    QuotientSpec(0, 1, 1),      # theta-vanishing at 11, congruences at 7 and 19
    QuotientSpec(0, -12, 1),    # congruences at 17, primes 5 to 11 below |s|
    QuotientSpec(0, 0, 0),      # theta kills the identity at every prime
    QuotientSpec(0, -1, 0),
    QuotientSpec(1, 0, -1),
    QuotientSpec(2, 0, -1),
    QuotientSpec(3, -9, 2),     # 5 and 7 below |s|
    QuotientSpec(0, 7, -8),     # 5 and 7 below |t|
)


@pytest.mark.parametrize("spec", PREFIX_SPECS, ids=str)
def test_prefix_scan_matches_the_full_window(spec):
    bound = theorem_bound(spec)
    primes = list(primerange(5, bound + 1)) + list(primerange(bound + 1, bound + 60))[:3]
    assert len(primes) > 3
    mismatches = [
        ell for ell in primes if scan_prime(spec, ell) != full_window_scan_prime(spec, ell)
    ]
    assert mismatches == []


SWEEP_SPECS = PREFIX_SPECS + (
    QuotientSpec(0, -17, -2),   # 5 to 13 below |s|
    QuotientSpec(0, -5, -5),    # theta-killed at 5 on a 3-term window, inside the prefix
)


@pytest.mark.parametrize(
    "spec, jobs",
    [(spec, 1) for spec in SWEEP_SPECS]
    + [(QuotientSpec(0, 1, 1), 2), (QuotientSpec(0, -17, -2), 2)],
    ids=str,
)
def test_the_shared_prefix_sweep_matches_scan_prime(spec, jobs):
    # the sweep reads one prefix modulo the product of its primes; scan_prime
    # expands mod ell itself
    bound = theorem_bound(spec)
    primes = list(primerange(5, bound + 1)) + list(primerange(bound + 1, bound + 60))[:3]
    result = scanner.verify_theorem(spec, jobs=jobs)
    assert result.reports + result.sampled_above == tuple(
        scan_prime(spec, ell) for ell in primes
    )


def test_a_deciding_prefix_gives_the_full_window_answer():
    # both quadratic classes hold a nonzero a(n) before n = 16
    for ell in (19, 101, 127):
        weight = lift_weight(EXAMPLE, ell)
        full = congruence_scan(
            quotient_series(EXAMPLE, ell, certificate_precision(EXAMPLE, ell)), ell, weight
        )
        assert full == (False, ())
        assert congruence_scan(quotient_series(EXAMPLE, ell, 16), ell, weight) == full


def test_an_undecided_prefix_raises():
    # E4*E6 carries congruences at 19: the nonsquare class vanishes through
    # the Sturm index 33, so 33 terms do not decide and 34 do
    spec, ell = QuotientSpec(0, 1, 1), 19
    weight = lift_weight(spec, ell)
    assert sturm(weight + (ell + 1) ** 2 // 2) == 33
    for terms in (16, 33):
        with pytest.raises(PrecisionError):
            congruence_scan(quotient_series(spec, ell, terms), ell, weight)
    assert congruence_scan(quotient_series(spec, ell, 34), ell, weight) == (
        False, (2, 3, 8, 10, 12, 13, 14, 15, 18),
    )
    # theta kills E4*E6 mod 11: only the whole range decides that
    weight = lift_weight(spec, 11)
    with pytest.raises(PrecisionError):
        congruence_scan(quotient_series(spec, 11, 16), 11, weight)
    assert congruence_scan(quotient_series(spec, 11, 18), 11, weight)[0] is True


def test_primes_without_congruences_expand_sixteen_terms(monkeypatch):
    expansions = []

    def recording(spec, modulus, terms):
        expansions.append((modulus, terms))
        return quotient_series(spec, modulus, terms)

    monkeypatch.setattr(scanner, "quotient_series", recording)
    result = scanner.verify_theorem(EXAMPLE)
    reports = result.reports + result.sampled_above
    settled = [r.ell for r in reports if r.method == METHOD_RIGOROUS and not r.residues]
    assert len(settled) > 20
    # one 16-term expansion modulo the product of every certified prime ...
    certified = [r.ell for r in reports if r.method != METHOD_BELOW_BOUND]
    assert [(m, terms) for m, terms in expansions if terms <= 16] == [
        (math.prod(certified), 16)
    ]
    # ... and no longer one for a settled prime
    longer = [m for m, terms in expansions if terms > 16]
    assert [ell for ell in settled for m in longer if m % ell == 0] == []
