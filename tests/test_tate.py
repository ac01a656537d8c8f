import itertools
import random
from collections import Counter

import pytest
from sympy import primerange

from eiscong import eisenstein, scanner, tate
from eiscong.eisenstein import (
    QuotientSpec,
    admits_lift,
    eisenstein_series,
    lift_weight,
    quotient_prefix,
    quotient_series,
    replacement_lift,
)
from eiscong.filtration import (
    IsobaricPolynomial,
    ModularFormModEll,
    _lift_polynomial,
    dense_layout,
    sturm,
)
from eiscong.primes import is_prime
from eiscong.scanner import certificate_precision, profile_precision, scan_prime, theorem_bound
from eiscong.series import PrecisionError, TruncatedSeries
from eiscong.tate import (
    METHOD_BELOW_BOUND,
    METHOD_RIGOROUS,
    METHOD_THETA_VANISHING,
    METHOD_TRIVIAL_PRIME,
    THETA_WINDOW_DEFAULT,
    CongruenceReport,
    certificate_terms,
    certified_residues,
    congruence_scan,
    heuristic_simple_congruences,
    tate_cycle,
    theta_vanishes,
    theta_vanishing_prime_candidates,
    theta_zero_congruences_hold,
)
from test_cli import count_calls


def lifted_form(spec, ell, terms):
    return ModularFormModEll.from_lift(replacement_lift(spec, ell, terms))


EXAMPLE = QuotientSpec(0, -12, 1)  # E6 / E4^12
NONRESIDUES_17 = (3, 5, 6, 7, 10, 11, 12, 14)


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


def monomial(ell, weight, c=1):
    """A nonzero polynomial of the weight mod ell: c times its first monomial."""
    return IsobaricPolynomial(ell, weight, (c,) + (0,) * (dense_layout(weight)[2] - 1))


def monomial_mod_5(weight, c=1):
    return monomial(5, weight, c)


def scripted_cycle(monkeypatch, base, weights, closing=1):
    """`tate_cycle` mod 5 from a polynomial of weight `base`, its iterates scripted.

    `strip_a_tilde` is wrapped to return the base itself (the call that
    finds the base filtration), then one polynomial per listed weight.  The
    closing step, `_closing_divisions`, is wrapped to take the first
    iterate's monomial times `closing` as the stripped closing image: it
    closes, with no division, exactly when that equals the first iterate.
    """
    first = monomial_mod_5(weights[0])
    steps = iter([monomial_mod_5(base), first, *map(monomial_mod_5, weights[1:])])
    last = monomial_mod_5(weights[0], closing)
    monkeypatch.setattr(IsobaricPolynomial, "strip_a_tilde", lambda self: (next(steps), 0))
    monkeypatch.setattr(
        tate, "_closing_divisions", lambda image, first: 0 if last == first else None
    )
    return tate_cycle(monomial_mod_5(base))


def test_a_scripted_cycle_that_keeps_every_rule_is_profiled(monkeypatch):
    # 14 rises to 20; 20 and 10 are high points, falling by 4 and 2 times ell - 1
    profile = scripted_cycle(monkeypatch, 14, (20, 10, 8, 14))
    assert (profile.base_filtration, profile.filtrations) == (14, (20, 10, 8, 14))
    assert (profile.high_points, profile.low_points, profile.falls) == ((1, 2), (2, 3), (4, 2))


@pytest.mark.parametrize(
    "base, weights, closing, message",
    [(14, (20, 10, 8, 14), 2, "theta iterates fail to close up after ell steps"),
     (12, (20, 10, 8, 14), 1, r"first theta step must rise by ell \+ 1"),
     (14, (20, 12, 8, 14), 1, "iterate 2 falls by 14, not a positive multiple of ell - 1"),
     (14, (20, 10, 8, 16), 1, r"iterate 4 must rise by ell \+ 1 from a filtration prime")],
    ids=["closure", "first-rise", "fall", "rise"],
)
def test_each_cycle_rule_raises_where_the_weights_break_it(
    monkeypatch, base, weights, closing, message
):
    # each case changes the cycle above in one place: the closing step's
    # coefficient, the base weight, the weight after a high point, the weight
    # after a filtration prime to ell
    with pytest.raises(RuntimeError, match=f"^{message}"):
        scripted_cycle(monkeypatch, base, weights, closing)


def test_the_rise_and_fall_rules_leave_one_or_two_low_points(monkeypatch):
    # `tate_cycle`'s rise and fall checks force its two low-point checks.  The
    # steps sum to zero round the cycle, so the falls, k_i (ell - 1) after the
    # i-th high point, have k_1 + ... = ell + 1; and ell - k_i or more of the
    # ell - 1 steps lead from the i-th high point to the next.  So there are
    # one or two high points, and a single one falls by (ell + 1)(ell - 1) to
    # a low point at 2 mod ell: the low-point checks cannot fire on their own.
    # Every scripted cycle mod 5 whose first iterate is below 40 and whose
    # steps change the weight by 6 - 4k, 0 <= k <= 6, obeys.

    # the scripted strip discards theta's image, so theta need not compute one
    monkeypatch.setattr(IsobaricPolynomial, "theta", lambda self: self)
    profiles = []
    for first, *ks in itertools.product(range(0, 40, 2), *[range(7)] * 3):
        weights = [first]
        for k in ks:
            weights.append(weights[-1] + 6 - 4 * k)
        if min(weights) < 0 or 2 in weights:
            continue  # no polynomial has the weight
        try:
            profiles.append(scripted_cycle(monkeypatch, 0, weights))
        except RuntimeError as exc:
            assert "low point" not in str(exc)
    assert Counter(len(profile.low_points) for profile in profiles) == {1: 9, 2: 19}
    for profile in profiles:
        if len(profile.low_points) == 1:
            assert profile.filtrations[profile.low_points[0] - 1] % 5 == 2


def cycle_with_closing_image(monkeypatch, spec, ell, change):
    """`tate_cycle` of the lift's polynomial, theta's ell-th image (the closing one) changed."""
    theta, calls = IsobaricPolynomial.theta, itertools.count(1)

    def patched(self):
        image = theta(self)
        return change(image) if next(calls) == ell else image

    with monkeypatch.context() as patch:
        patch.setattr(IsobaricPolynomial, "theta", patched)
        return tate_cycle(_lift_polynomial(spec, ell))


def test_the_closing_cases_below_close_on_a_fall_and_on_a_rise():
    # E6/E4^12 mod 17 closes with a fall of 9 (high point 16), and 1/E4
    # mod 19 with a rise (its iterate 18 is no high point)
    assert tate_cycle(_lift_polynomial(EXAMPLE, 17)).high_points[-1] == 16
    assert tate_cycle(_lift_polynomial(QuotientSpec(0, -1, 0), 19)).high_points == (4, 17)


@pytest.mark.parametrize(
    "spec, ell, change",
    [(EXAMPLE, 17, "coefficient"), (QuotientSpec(0, -1, 0), 19, "coefficient"),
     (EXAMPLE, 17, "k < 0"), (QuotientSpec(0, -1, 0), 19, "k < 0"),
     (EXAMPLE, 17, "k not an integer")],
)
def test_a_changed_closing_image_fails_to_close_up(monkeypatch, spec, ell, change):
    # one coefficient of the closing image moved, or a closing image of the
    # first iterate's weight less ell - 1, or 2 more (ell - 1 does not divide 2)
    first_weight = tate_cycle(_lift_polynomial(spec, ell)).filtrations[0]
    changes = {
        "coefficient": lambda p: IsobaricPolynomial(ell, p.weight, ((p.coeffs[0] + 1) % ell,
                                                                     *p.coeffs[1:])),
        "k < 0": lambda p: monomial(ell, first_weight - (ell - 1)),
        "k not an integer": lambda p: monomial(ell, first_weight + 2),
    }
    assert cycle_with_closing_image(monkeypatch, spec, ell, lambda p: p).prime == ell
    with pytest.raises(RuntimeError, match="^theta iterates fail to close up after ell steps$"):
        cycle_with_closing_image(monkeypatch, spec, ell, changes[change])


# ---------------------------------------------------------------------------
# rigorous certificates


def test_certificate_at_17():
    form = lifted_form(EXAMPLE, 17, certificate_precision(EXAMPLE, 17))
    assert certified_residues(form) == NONRESIDUES_17


def test_no_congruences_at_19():
    form = lifted_form(EXAMPLE, 19, certificate_precision(EXAMPLE, 19))
    assert certified_residues(form) == ()


def test_certificate_requires_enough_precision():
    form = lifted_form(EXAMPLE, 17, 10)
    with pytest.raises(PrecisionError):
        certified_residues(form)


def test_certificate_rejects_theta_killed_forms():
    spec = QuotientSpec(0, -1, 0)
    form = lifted_form(spec, 5, certificate_precision(spec, 5))
    with pytest.raises(ValueError, match="theta kills this form"):
        certified_residues(form)


def test_flagged_residues_form_quadratic_classes():
    # flagged sets are unions of the two quadratic classes, never less
    for spec in (QuotientSpec(0, -1, 0), QuotientSpec(0, 1, -1), QuotientSpec(1, 0, -1)):
        for ell in (5, 7, 11, 13, 17):
            form = lifted_form(spec, ell, certificate_precision(spec, ell))
            try:
                flagged = set(certified_residues(form))
            except ValueError:
                continue  # theta-killed: a different regime entirely
            residues = {x * x % ell for x in range(1, ell)}
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
    assert heuristic_simple_congruences(TruncatedSeries(5, [0] * 40), 5) == {0, 1, 2, 3, 4}


def test_heuristic_rejects_poles():
    with pytest.raises(ValueError):
        heuristic_simple_congruences(TruncatedSeries(5, [1, 1], valuation=-1), 5)


def test_heuristic_flags_exactly_the_classes_vanishing_on_the_window():
    # brute force: c is flagged exactly when every a(n) of the window with
    # n = c mod ell is 0, read one coefficient at a time
    rng = random.Random(28)
    short = zero = 0
    for _ in range(3000):
        ell = rng.choice((2, 3, 5, 7, 11, 13, 29))
        modulus = rng.choice((2, 3, 7, 49, ell))
        density = rng.choice((0.0, 0.05, 0.3, 1.0))
        coeffs = [rng.randrange(modulus) if rng.random() < density else 0
                  for _ in range(rng.randrange(3 * ell))]
        series = TruncatedSeries(modulus, coeffs, valuation=rng.randrange(1, 8))
        short += len(coeffs) < ell
        zero += series.is_zero()
        expected = {
            c for c in range(ell)
            if not any(series.coefficient(n) for n in range(c, series.precision, ell))
        }
        assert heuristic_simple_congruences(series, ell) == expected
    assert short > 300 and zero > 300


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
    return (
        all(half.coefficient(n) == -once.coefficient(n) % ell for n in range(s + 1)),
        all(half.coefficient(n) == once.coefficient(n) for n in range(s + 1)),
    )


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
    quadratic_residues = {x * x % ell for x in range(1, ell)}
    residues = tuple(
        c for c in range(1, ell) if (squares if c in quadratic_residues else nonsquares)
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


def test_scan_keeps_the_polynomial_guard_on_theta_vanishing(monkeypatch):
    # theta kills E4*E6 mod 11; a lift polynomial of E4, whose theta image is
    # nonzero, must make the scan refuse
    assert scan_prime(QuotientSpec(0, 1, 1), 11).method == METHOD_THETA_VANISHING
    monkeypatch.setattr(
        scanner, "_lift_polynomial", lambda spec, ell: IsobaricPolynomial(11, 4, (1,))
    )
    with pytest.raises(PrecisionError, match="theta image of its polynomial is nonzero"):
        scan_prime(QuotientSpec(0, 1, 1), 11)


def test_a_theta_killed_scan_expands_no_more_than_the_certificate_window(monkeypatch):
    # the theta-killed prime is checked on the lift's polynomial, not on a
    # longer expansion: each expansion is mod a prime and stops at its
    # certificate window (the sweep's shared prefix is taken over Z)
    spec = QuotientSpec(0, 1, 1)
    lengths = []
    original = eisenstein.eisenstein_power_product

    def recording(r, s, t, modulus, terms):
        lengths.append((modulus, terms))
        return original(r, s, t, modulus, terms)

    monkeypatch.setattr(eisenstein, "eisenstein_power_product", recording)
    assert scan_prime(spec, 11).method == METHOD_THETA_VANISHING
    result = scanner.verify_theorem(spec, use_remark=True)
    assert METHOD_THETA_VANISHING in {rep.method for rep in result.reports}
    assert lengths
    for modulus, terms in lengths:
        assert is_prime(modulus) and terms <= certificate_precision(spec, modulus), (
            modulus, terms
        )


def test_theta_is_killed_exactly_where_the_lift_polynomial_says():
    # the scan's rule, every nonzero residue certified, against theta of the
    # lift's polynomial computed exactly
    disagreements, killed = [], 0
    for r, s, t in itertools.product(range(3), range(-6, 7), range(-6, 7)):
        spec = QuotientSpec(r, s, t)
        for ell in primerange(5, 40):
            if not admits_lift(spec, ell):
                continue
            vanishes = not any(_lift_polynomial(spec, ell).theta().coeffs)
            killed += vanishes
            if (scan_prime(spec, ell).method == METHOD_THETA_VANISHING) != vanishes:
                disagreements.append((spec, ell))
    assert disagreements == []
    assert killed > 100


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
    """Reference scan_prime: one scan of the quotient at `certificate_precision`.

    Theta kills the lift here when no a(n) with n prime to ell is nonzero
    through sturm(k + ell + 1), a rule apart from the scan's, and a 500-term
    window must agree.
    """
    if ell in (2, 3):
        return CongruenceReport(spec, ell, METHOD_TRIVIAL_PRIME, tuple(range(1, ell)))
    if ell + spec.s < 0 or ell + spec.t < 0:
        return CongruenceReport(spec, ell, METHOD_BELOW_BOUND, ())
    precision = certificate_precision(spec, ell)
    weight = lift_weight(spec, ell)
    theta_kills, residues = table_congruence_scan(
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
        assert full == ()
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
        2, 3, 8, 10, 12, 13, 14, 15, 18,
    )
    # theta kills E4*E6 mod 11: only the whole range decides that
    weight = lift_weight(spec, 11)
    with pytest.raises(PrecisionError):
        congruence_scan(quotient_series(spec, 11, 16), 11, weight)
    assert congruence_scan(quotient_series(spec, 11, 18), 11, weight) == tuple(range(1, 11))


def table_congruence_scan(series, ell, weight):
    """Reference scan: whether theta kills the form, and the certified residues.

    The quadratic classes come from a table of the squares mod ell, and
    theta kills the form when no a(n) with n prime to ell is nonzero
    through sturm(weight + ell + 1).
    """
    terms = certificate_terms(weight, ell)
    is_square = [False] * ell
    for x in range(1, ell):
        is_square[x * x % ell] = True
    theta_kills, occupied = True, set()
    for n, a in enumerate(series.coeffs[: max(terms - series.valuation, 0)],
                          start=series.valuation):
        if a and n % ell:
            theta_kills = theta_kills and n > sturm(weight + ell + 1)
            occupied.add(is_square[n % ell])
            if len(occupied) == 2:
                break
    else:
        if series.precision < terms:
            raise PrecisionError("undecided")
    return theta_kills, tuple(c for c in range(1, ell) if is_square[c] not in occupied)


def test_euler_criterion_scan_matches_the_table_of_squares():
    rng = random.Random(14)
    outcomes = []
    for _ in range(600):
        ell = rng.choice(list(primerange(5, 110)))
        weight = 2 * rng.randrange(0, 150)
        terms = certificate_terms(weight, ell)
        length = rng.choice((terms // 3, terms - 1, terms, terms + 7))
        valuation = rng.randrange(0, 4)
        # nonzero a(n) that are sparse, confined to one class, or only at n = 0 mod ell
        density = rng.choice((0.0, 0.02, 0.3))
        keep = rng.choice((lambda n: True, lambda n: pow(n, (ell - 1) // 2, ell) == 1,
                           lambda n: pow(n, (ell - 1) // 2, ell) == ell - 1,
                           lambda n: n % ell == 0))
        coeffs = [rng.randrange(1, ell) if rng.random() < density and keep(n) else 0
                  for n in range(valuation, valuation + length)]
        series = TruncatedSeries(ell, coeffs, valuation)
        try:
            expected = table_congruence_scan(series, ell, weight)
        except PrecisionError:
            with pytest.raises(PrecisionError):
                congruence_scan(series, ell, weight)
            outcomes.append("undecided")
            continue
        # a random series is no form, so the reference's theta flag says nothing of it
        residues = expected[1]
        assert congruence_scan(series, ell, weight) == residues, (ell, weight, series)
        outcomes.append({0: "both held", ell - 1: "both vacant"}.get(
            len(residues), "one vacant"))
    assert set(outcomes) == {"undecided", "both held", "one vacant", "both vacant"}


def test_a_q_series_cycle_reads_its_polynomial_off_with_no_solve(monkeypatch):
    calls = count_calls(monkeypatch, [
        ("eiscong.filtration", "represent"),
        ("eiscong.linalg", "solve_mod_prime"),
        ("eiscong.filtration", "monomial_basis"),
    ])
    spec = QuotientSpec(0, -6, 2)
    profile = tate_cycle(lifted_form(spec, 29, profile_precision(spec, 29)))
    assert profile.prime == 29
    assert calls == {"represent": 1, "solve_mod_prime": 0, "monomial_basis": 0}


def test_primes_without_congruences_expand_sixteen_terms(monkeypatch):
    prefixes, expansions = [], []

    def recording_prefix(r, s, t, terms):
        prefixes.append(terms)
        return quotient_prefix(r, s, t, terms)

    def recording(spec, modulus, terms):
        expansions.append((modulus, terms))
        return quotient_series(spec, modulus, terms)

    monkeypatch.setattr(scanner, "quotient_prefix", recording_prefix)
    monkeypatch.setattr(scanner, "quotient_series", recording)
    result = scanner.verify_theorem(EXAMPLE)
    reports = result.reports + result.sampled_above
    settled = [r.ell for r in reports if r.method == METHOD_RIGOROUS and not r.residues]
    assert len(settled) > 20
    # one 16-term prefix over Z for every certified prime ...
    assert prefixes == [16]
    assert [(m, terms) for m, terms in expansions if terms <= 16] == []
    # ... and no longer expansion for a settled prime
    assert [ell for ell in settled for m, _ in expansions if m % ell == 0] == []
