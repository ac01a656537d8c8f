"""Filtrations and Tate cycles on polynomials in Q, R against the series ladder.

The series-based `filtration` and `tate_cycle` that the polynomial path
replaced are kept here as references: the filtration by a descending
ladder of solves, the cycle by theta on q-series and one ladder per
iterate.  The schoolbook product of dense polynomials is kept as the
reference for `dense_product`, which is one Kronecker product, and the
long division `dense_quotient` (from the highest R-exponent down) as the
reference for `strip_a_tilde`, which divides from the lowest up.
"""

import logging
import random
from operator import mul
from typing import Sequence

import pytest
from sympy import primerange

from eiscong.eisenstein import QuotientSpec, eisenstein_series, replacement_lift
from eiscong.filtration import (
    IsobaricPolynomial,
    ModularFormModEll,
    _tagged_polynomial,
    compute_a_tilde,
    compute_b_tilde,
    dense_layout,
    dense_product,
    filtration,
    filtration_polynomial,
    represent,
    sturm,
)
from eiscong.scanner import profile_precision
from eiscong.series import PrecisionError, TruncatedSeries
from eiscong.tate import TATE_CYCLE_CAP, TateCycleProfile, tate_cycle


def ladder_filtration(form):
    """Reference filtration: solve at every weight down from the tag in steps of ell - 1."""
    ell = form.prime
    s = sturm(form.weight)
    if form.precision < s + 1:
        raise PrecisionError(f"filtration at weight {form.weight} needs precision {s + 1}")
    if all(form.series.coefficient(n) == 0 for n in range(s + 1)):
        raise ValueError("filtration is undefined for the zero reduction")
    best = None
    w = form.weight
    while w >= 0:
        if represent(form, w) is None:
            break
        best = w
        w -= ell - 1
    if best is None:
        raise RuntimeError(f"series tagged weight {form.weight} mod {ell} matches no form")
    return best


def ladder_precision(weight, ell):
    # the ladder filters iterates up to weight k + ell^2 - 1 on the q-series itself
    return sturm(weight + (ell - 1) * (ell + 1)) + 1


def ladder_tate_cycle(form):
    """Reference cycle: theta on the q-series and a ladder filtration of each iterate."""
    ell = form.prime
    needed = ladder_precision(form.weight, ell)
    if form.precision < needed:
        raise PrecisionError(f"profiling mod {ell} needs precision {needed}")
    base = ladder_filtration(form)
    first = form.series.theta()
    if all(first.coefficient(n) == 0 for n in range(sturm(base + ell + 1) + 1)):
        raise ValueError("theta kills this form mod ell")
    filts = []
    series = form.series
    prev = base
    for _ in range(1, ell):
        series = series.theta()
        prev = ladder_filtration(ModularFormModEll(ell, prev + ell + 1, series))
        filts.append(prev)
    if series.theta() != first:
        raise RuntimeError("theta iterates fail to close up after ell steps")
    if base % ell and filts[0] != base + ell + 1:
        raise RuntimeError("first theta step must rise by ell + 1")
    highs, lows, falls = [], [], []
    for i in range(1, ell):
        w = filts[i - 1]
        succ = i % (ell - 1) + 1
        w_next = filts[succ - 1]
        if w % ell == 0:
            drop = w + ell + 1 - w_next
            if drop <= 0 or drop % (ell - 1):
                raise RuntimeError(f"iterate {succ} falls by {drop}")
            highs.append(i)
            lows.append(succ)
            falls.append(drop // (ell - 1))
        elif w_next != w + ell + 1:
            raise RuntimeError(f"iterate {succ} must rise by ell + 1")
    if len(lows) not in (1, 2):
        raise RuntimeError(f"a Tate cycle has one or two low points, found {len(lows)}")
    if len(lows) == 1 and filts[lows[0] - 1] % ell != 2:
        raise RuntimeError("a single low point must have filtration 2 mod ell")
    return TateCycleProfile(
        prime=ell,
        base_weight=form.weight,
        base_filtration=base,
        filtrations=tuple(filts),
        high_points=tuple(highs),
        low_points=tuple(lows),
        falls=tuple(falls),
    )


def outcome(profile, form):
    # a profile, or the exception type for forms theta kills
    try:
        return profile(form)
    except ValueError as exc:
        return type(exc)


def eis_product(a, b, c, ell, terms):
    # E2^a * E4^b * E6^c as the reduction of a weight a*(ell+1) + 4b + 6c form
    out = TruncatedSeries.one(ell, terms)
    for k, e in ((2, a), (4, b), (6, c)):
        if e:
            out = out * eisenstein_series(k, ell, terms).pow(e)
    return ModularFormModEll(ell, a * (ell + 1) + 4 * b + 6 * c, out)


def lift_pair(spec, ell):
    # the lift at profile_precision for the cycle, longer for the reference ladder
    form = ModularFormModEll.from_lift(replacement_lift(spec, ell, profile_precision(spec, ell)))
    terms = ladder_precision(form.weight, ell)
    return form, ModularFormModEll.from_lift(replacement_lift(spec, ell, terms))


def product_pair(a, b, c, ell):
    weight = a * (ell + 1) + 4 * b + 6 * c
    return (
        eis_product(a, b, c, ell, sturm(weight) + 1),
        eis_product(a, b, c, ell, ladder_precision(weight, ell)),
    )


# ---------------------------------------------------------------------------
# the differential tests


#: compared at every prime; the series ladder takes about a second a cycle at 31
CYCLE_SPECS = (QuotientSpec(0, -12, 1), QuotientSpec(1, 0, -1), QuotientSpec(0, 0, -2))

#: compared at the primes up to 19, where the ladder is cheap; E4*E6 is
#: killed by theta mod 11 and 1/E4 mod 5
SMALL_PRIME_SPECS = (QuotientSpec(0, 1, 1), QuotientSpec(0, -1, 0), QuotientSpec(2, -3, 1))
SMALL_PRIME_PRODUCTS = ((0, 1, 0), (0, 0, 1), (1, 1, 1))


@pytest.mark.parametrize("ell", list(primerange(5, 32)))
def test_cycles_match_the_series_ladder(ell):
    small = ell <= 19
    pairs = [
        lift_pair(spec, ell)
        for spec in CYCLE_SPECS + (SMALL_PRIME_SPECS if small else ())
        if ell + spec.s >= 0 and ell + spec.t >= 0
    ]
    pairs += [product_pair(a, b, c, ell) for a, b, c in (SMALL_PRIME_PRODUCTS if small else ())]
    mismatches = [
        form.weight
        for form, reference in pairs
        if outcome(tate_cycle, form) != outcome(ladder_tate_cycle, reference)
    ]
    assert mismatches == []


def test_filtrations_match_the_series_ladder():
    mismatches = []
    for ell in primerange(5, 24):
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    if (a, b, c) == (0, 0, 0):
                        continue
                    form = eis_product(a, b, c, ell, sturm(a * (ell + 1) + 4 * b + 6 * c) + 1)
                    if filtration(form) != ladder_filtration(form):
                        mismatches.append((ell, a, b, c))
    assert mismatches == []


# ---------------------------------------------------------------------------
# theta on polynomials and division by A~


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 17, 19])
def test_polynomial_theta_evaluates_to_the_series_theta(ell):
    for a, b, c in ((0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 0, 3), (0, 3, 2), (3, 2, 0)):
        weight = a * (ell + 1) + 4 * b + 6 * c
        terms = sturm(weight + ell + 1) + 1
        form = eis_product(a, b, c, ell, terms)
        image = represent(form, weight).theta()
        assert image.weight == weight + ell + 1
        assert image.evaluate(terms).agrees_with(form.series.theta())


def test_theta_of_a_constant_is_zero():
    assert IsobaricPolynomial(13, 0, (1,)).theta().terms == ()


def test_dense_round_trip():
    poly = compute_a_tilde(37)
    a0, b0, length = dense_layout(poly.weight)
    coeffs = [0] * length
    for a, b, c in poly.terms:
        assert a == a0 - 3 * ((b - b0) // 2)
        coeffs[(b - b0) // 2] = c
    assert IsobaricPolynomial.from_dense(37, poly.weight, coeffs) == poly
    assert (a0, b0) == (9, 0)


# dense layouts: weight 12 is (Q^3, R^2), weight 14 (Q^2 R,), weight 18
# (Q^3 R, R^3), weight 6 (R,) and weight 0 (1,)


def test_a_tilde_is_q_at_5_and_divides_only_multiples_of_q():
    # Q^2 R: two divisions leave R, which is prime to Q
    poly = IsobaricPolynomial(5, 14, (3,))
    assert poly.strip_a_tilde() == (IsobaricPolynomial(5, 6, (3,)), 2)
    # R^2 + Q^3 at weight 12: R^2 is prime to Q
    poly = IsobaricPolynomial(5, 12, (1, 1))
    assert poly.strip_a_tilde() == (poly, 0)
    # Q^3 alone: three divisions down to the constant
    cube = IsobaricPolynomial(5, 12, (2, 0))
    assert cube.strip_a_tilde() == (IsobaricPolynomial(5, 0, (2,)), 3)


def test_a_tilde_is_r_at_7_and_divides_only_multiples_of_r():
    # R^3 = R * R^2, even and odd R-exponents on the way down
    poly = IsobaricPolynomial(7, 18, (0, 4))
    assert poly.strip_a_tilde() == (IsobaricPolynomial(7, 0, (4,)), 3)
    # Q^3 R + R^3 = R (Q^3 + R^2): one division, and Q^3 + R^2 is prime to R
    poly = IsobaricPolynomial(7, 18, (1, 1))
    assert poly.strip_a_tilde() == (IsobaricPolynomial(7, 12, (1, 1)), 1)
    # Q^3 + R^2 itself is not divisible by R
    poly = IsobaricPolynomial(7, 12, (1, 1))
    assert poly.strip_a_tilde() == (poly, 0)


def test_a_tilde_divides_its_own_powers():
    for ell in (5, 7, 11, 13, 29, 31):
        a_tilde = compute_a_tilde(ell)
        coeffs = dense_product(ell, ell - 1, a_tilde.coeffs, ell - 1, a_tilde.coeffs)
        square = IsobaricPolynomial.from_dense(ell, 2 * (ell - 1), coeffs)
        assert square.strip_a_tilde() == (IsobaricPolynomial(ell, 0, (1,)), 2)


def schoolbook_product(ell, weight1, f, weight2, g):
    """Reference for `dense_product`: one row of the product per coefficient of g."""
    # R^2 = Q^3 * (R^2 / Q^3): two odd R-exponents move every index up by one
    shift = dense_layout(weight1)[1] & dense_layout(weight2)[1]
    out = [0] * dense_layout(weight1 + weight2)[2]
    if len(g) > len(f):
        f, g = g, f
    width = len(f)
    for j, c in enumerate(g, start=shift):
        if c:
            out[j : j + width] = [x + c * y for x, y in zip(out[j : j + width], f)]
    return [x % ell for x in out]


# the Kronecker product packs coefficients in 1- and 2-byte slots at 5, 7
# and 13, and in 2- and 4-byte slots at 101 and 199
@pytest.mark.parametrize("ell", [5, 7, 13, 101, 199])
def test_dense_product_matches_the_schoolbook_product(ell):
    rng = random.Random(ell)
    # weights 0 to 6 hold the empty layout (weight 2) and both R-parities
    weights = list(range(0, 8, 2)) + [rng.randrange(0, 240, 2) for _ in range(30)]
    mismatches = []
    for w1 in weights:
        for w2 in rng.sample(weights, 8):
            f = [rng.randrange(ell) for _ in range(dense_layout(w1)[2])]
            g = [rng.randrange(ell) for _ in range(dense_layout(w2)[2])]
            if dense_product(ell, w1, f, w2, g) != schoolbook_product(ell, w1, f, w2, g):
                mismatches.append((w1, w2))
    assert mismatches == []


def dense_quotient(
    ell: int, weight: int, f: Sequence[int], divisor_weight: int, d: Sequence[int]
) -> list[int] | None:
    """f / d for dense polynomials over F_ell, or None unless d divides f exactly.

    Long division from the highest R-exponent down; d must be nonzero.
    A quotient coefficient outside the dense layout of the quotient's
    weight (a negative power of Q) means d does not divide f.
    """
    quotient_weight = weight - divisor_weight
    if quotient_weight < 0:
        return None
    _, b0, length = dense_layout(quotient_weight)
    shift = b0 & dense_layout(divisor_weight)[1]
    if any(c % ell for c in f[:shift]):
        return None
    g = f[shift:]
    top = max(i for i, c in enumerate(d) if c % ell)
    inv = pow(d[top], -1, ell)
    low = d[:top][::-1]
    size = max(len(g) - top, 0)
    q = [0] * (size + top)
    for i in reversed(range(size)):
        c = (g[i + top] - sum(map(mul, q[i + 1 : i + 1 + top], low))) * inv % ell
        if c:
            if i >= length:
                return None
            q[i] = c
    # the coefficients below the divisor's top are the remainder's
    for n in range(min(top, len(g))):
        if (g[n] - sum(q[n - t] * d[t] for t in range(n + 1))) % ell:
            return None
    q = q[: min(size, length)]
    return q + [0] * (length - len(q))


def long_division_strip(poly):
    """Reference for `strip_a_tilde`: `dense_quotient` by A~ while it divides."""
    ell = poly.prime
    a_tilde = compute_a_tilde(ell).coeffs
    count = 0
    while (q := dense_quotient(ell, poly.weight, poly.coeffs, ell - 1, a_tilde)) is not None:
        poly, count = IsobaricPolynomial(ell, poly.weight - (ell - 1), q), count + 1
    return poly, count


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 101, 199])
def test_strip_a_tilde_matches_long_division(ell):
    rng = random.Random(ell)
    a_tilde = compute_a_tilde(ell)

    def rand(weight):
        coeffs = [rng.randrange(ell) for _ in range(dense_layout(weight)[2])]
        return IsobaricPolynomial(ell, weight, tuple(coeffs))

    # weights 0 to 6 hold the empty layout (weight 2) and both R-parities;
    # ell + 1 divides down to weight 2, whose quotient layout is empty
    weights = [0, 2, 4, 6, ell - 1, ell + 1] + [rng.randrange(0, 240, 2) for _ in range(12)]
    polys = [rand(w) for w in weights]
    polys += [IsobaricPolynomial(ell, w, (0,) * dense_layout(w)[2]) for w in weights]
    for k in range(4):
        for w in weights[:4] + weights[-4:]:
            poly = rand(w)
            for _ in range(k):
                coeffs = dense_product(ell, poly.weight, poly.coeffs, ell - 1, a_tilde.coeffs)
                poly = IsobaricPolynomial(ell, poly.weight + ell - 1, tuple(coeffs))
            polys.append(poly)
    assert {poly.weight % 4 for poly in polys} == {0, 2}
    mismatches = [
        (poly.weight, poly.coeffs)
        for poly in polys
        if poly.strip_a_tilde() != long_division_strip(poly)
    ]
    assert mismatches == []


def test_a_tilde_has_a_unit_coefficient_at_the_lowest_r_exponent():
    # strip_a_tilde pivots on it: R^2 never divides A~
    primes = primerange(5, TATE_CYCLE_CAP + 1)
    assert [ell for ell in primes if compute_a_tilde(ell).coeffs[0] == 0] == []


def test_filtration_polynomial_sits_at_the_filtration():
    # E2 * E4 mod 13: filtration 18, no division
    form = eis_product(1, 1, 0, 13, 8)
    poly, divisions = filtration_polynomial(form)
    assert (poly.weight, divisions) == (18, 0)
    # E4 mod 5 reduces to the constant 1
    form = ModularFormModEll(5, 4, eisenstein_series(4, 5, 4))
    poly, divisions = filtration_polynomial(form)
    assert (poly.weight, poly.terms, divisions) == (0, ((0, 0, 1),), 1)


def explicit_filtration_polynomial(form):
    """Reference: the precision and zero-reduction checks made by hand before the solve."""
    s = sturm(form.weight)
    if form.precision < s + 1:
        raise PrecisionError(
            f"filtration at weight {form.weight} needs precision {s + 1}, "
            f"have {form.precision}"
        )
    if all(form.series.coefficient(n) == 0 for n in range(s + 1)):
        raise ValueError("filtration is undefined for the zero reduction")
    return _tagged_polynomial(form).strip_a_tilde()


def result_or_error(call, form):
    try:
        return call(form)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@pytest.mark.parametrize("ell", list(primerange(5, 32)))
def test_filtration_polynomial_matches_the_explicit_checks(ell):
    forms = []
    for spec in (QuotientSpec(0, -12, 1), QuotientSpec(1, 0, 0), QuotientSpec(2, 3, -1),
                 QuotientSpec(0, 1, 1), QuotientSpec(0, -4, 0)):
        if ell + spec.s < 0:
            continue
        full = profile_precision(spec, ell)
        for terms in (full, full - 1):  # the Sturm prefix, and one term short
            forms.append(ModularFormModEll.from_lift(replacement_lift(spec, ell, terms)))
    for weight in (0, ell - 1, ell + 1, 12 * ell):
        for terms in (sturm(weight) + 1, sturm(weight)):
            forms.append(ModularFormModEll(ell, weight, TruncatedSeries.zero(ell, terms)))
    # weight 14 is spanned by E4^2 E6 = 1 + ..., which no series 0 + q + ... matches
    forms.append(ModularFormModEll(ell, 14, TruncatedSeries(ell, [0, 1])))
    outcomes = [
        (result_or_error(filtration_polynomial, form),
         result_or_error(explicit_filtration_polynomial, form))
        for form in forms
    ]
    assert all(new == old for new, old in outcomes)
    kinds = {old if isinstance(old, type) else tuple for _, old in outcomes}
    assert kinds == {tuple, PrecisionError, ValueError, RuntimeError}


@pytest.mark.parametrize("ell", list(primerange(5, 98)))
def test_a_tilde_and_b_tilde_evaluate_to_one_and_e2(ell):
    # twice the Sturm range of weight ell + 1, past the window either solve read
    terms = 2 * (sturm(ell + 1) + 1)
    a_tilde, b_tilde = compute_a_tilde(ell), compute_b_tilde(ell)
    assert (a_tilde.weight, b_tilde.weight) == (ell - 1, ell + 1)
    assert a_tilde.evaluate(terms) == TruncatedSeries.one(ell, terms)
    assert b_tilde.evaluate(terms) == eisenstein_series(2, ell, terms)


@pytest.mark.parametrize("ell", [-5, 0, 1, 3, 9])
def test_a_tilde_and_b_tilde_refuse_what_is_not_a_prime_at_least_5(ell):
    for compute in (compute_a_tilde, compute_b_tilde):
        with pytest.raises(ValueError, match=f"ell must be a prime at least 5, got {ell}"):
            compute(ell)


# ---------------------------------------------------------------------------
# errors and logging


def test_wrong_weight_tag_raises_in_filtration_and_cycle():
    # weight 14 reductions are spanned by E4^2*E6 alone, so no weight-14
    # form starts 0 + q + ...
    fake = ModularFormModEll(13, 14, TruncatedSeries(13, [0, 1] + [0] * 38))
    with pytest.raises(RuntimeError):
        filtration(fake)
    with pytest.raises(RuntimeError):
        tate_cycle(fake)


def test_cycle_above_the_old_cap_under_the_default_cap():
    spec, ell = QuotientSpec(0, -12, 1), 59
    assert ell <= TATE_CYCLE_CAP
    form = ModularFormModEll.from_lift(
        replacement_lift(spec, ell, profile_precision(spec, ell))
    )
    profile = tate_cycle(form)
    filts = profile.filtrations
    assert len(filts) == ell - 1
    assert (profile.base_filtration - form.weight) % (ell - 1) == 0
    for i, w in enumerate(filts, start=1):
        assert (w - form.weight - 2 * i) % (ell - 1) == 0
        assert w <= form.weight + i * (ell + 1)
    assert len(profile.low_points) in (1, 2)
    assert all(filts[i - 1] % ell == 0 for i in profile.high_points)
    assert all(fall > 0 for fall in profile.falls)


def test_filtration_and_cycle_log_one_line_each(caplog):
    spec, ell = QuotientSpec(0, -12, 1), 17
    form = ModularFormModEll.from_lift(
        replacement_lift(spec, ell, profile_precision(spec, ell))
    )
    with caplog.at_level(logging.INFO, logger="eiscong"):
        filtration(form)
        tate_cycle(form)
    lines = [(r.name, r.getMessage()) for r in caplog.records]
    assert [name for name, _ in lines] == ["eiscong.filtration", "eiscong.tate"]
    assert all("tagged weight 128" in message for _, message in lines)
    assert "filtration 128" in lines[0][1]
    assert "base filtration 128" in lines[1][1]
