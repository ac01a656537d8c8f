"""Filtrations and Tate cycles on polynomials in Q, R against the series ladder.

The series-based `filtration` and `tate_cycle` that the polynomial path
replaced are kept here as references: the filtration by a descending
ladder of solves, the cycle by theta on q-series and one ladder per
iterate.  The schoolbook product of dense polynomials is kept as the
reference for `dense_product`, which is one Kronecker product, and the
long division `dense_quotient` (from the highest R-exponent down) as the
reference for `strip_a_tilde`, which divides by powers of A~ through
power-series inverses.  Theta as two products, by B~ and by A~, and a
combination of the two (`two_product_theta`) is the reference for
theta's one product.  The solves that the closed forms replaced are
kept as references too: E2 at weight ell + 1 (`solved_b_tilde`) for
B~ = -D(A~), which theta reads, the constant 1 at weight ell - 1
(`solved_a_tilde`) for the hypergeometric A~, and the expanded lift at
its weight for the lift's polynomial B~^r Q^(ell+s) R^(ell+t).  The
polynomial cycle that divides its closing image by A~ like every other
iterate (`stripping_tate_cycle`) is the reference for the closing
step's products by powers of A~.
"""

import logging
import random
import re
from operator import mul
from typing import Sequence

import pytest
from sympy import primerange

from eiscong.eisenstein import QuotientSpec, admits_lift, eisenstein_series, replacement_lift
from eiscong.filtration import (
    IsobaricPolynomial,
    ModularFormModEll,
    _a_tilde_power_quotient,
    _a_tilde_root,
    _horner,
    _lift_polynomial,
    compute_a_tilde,
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
from test_filtration import b_tilde, eis_product, evaluate


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
    return checked_profile(form, base, filts)


def checked_profile(form, base, filts):
    """The profile of a cycle from its base filtration and filtrations, each rule checked."""
    ell = form.prime
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
        assert evaluate(image, terms).agrees_with(form.series.theta())


def test_theta_of_a_constant_is_zero():
    assert IsobaricPolynomial(13, 0, (1,)).theta().terms == ()


def reference_derivative(ell, weight, coeffs):
    """Reference for `_derivative`: D(F) = 4R dF/dQ + 6Q^2 dF/dR, entry by entry."""
    a0, b0, _ = dense_layout(weight)
    h = [0, *coeffs, 0]
    return [
        (4 * (a0 - 3 * (j - b0)) * h[j + 1 - b0] + (12 * (j + 1) - 6 * b0) * h[j + 2 - b0]) % ell
        for j in range(dense_layout(weight + 2)[2])
    ]


def two_product_theta(poly):
    """Reference for `theta`: 12 theta(F) = k B~ F - A~ D(F) as two products and a combination."""
    ell, weight = poly.prime, poly.weight
    a_tilde = compute_a_tilde(ell).coeffs
    b_tilde = [-c % ell for c in reference_derivative(ell, ell - 1, a_tilde)]
    d = reference_derivative(ell, weight, poly.coeffs)
    bf = dense_product(ell, ell + 1, b_tilde, weight, poly.coeffs)
    ad = dense_product(ell, ell - 1, a_tilde, weight + 2, d)
    inv12 = pow(12, -1, ell)
    coeffs = tuple((weight * x - y) * inv12 % ell for x, y in zip(bf, ad))
    return IsobaricPolynomial(ell, weight + ell + 1, coeffs)


def test_theta_matches_two_products_at_every_prime_below_200():
    rng = random.Random(12)
    mismatches, parities = [], set()
    for ell in primerange(5, 200):
        # weights 0 and 2 (an empty layout), both R-parities, and multiples
        # of ell, where the product by B~ drops out
        weights = [0, 2, 4, 6, ell - 1, ell + 1, 2 * ell, 4 * ell]
        weights += [rng.randrange(0, 12 * ell, 2) for _ in range(6)]
        for weight in weights:
            coeffs = tuple(rng.randrange(ell) for _ in range(dense_layout(weight)[2]))
            poly = IsobaricPolynomial(ell, weight, coeffs)
            parities.add(weight % 4)
            if poly.theta() != two_product_theta(poly):
                mismatches.append((ell, weight))
    assert parities == {0, 2}
    assert mismatches == []


def test_dense_round_trip():
    poly = compute_a_tilde(37)
    a0, b0, length = dense_layout(poly.weight)
    coeffs = [0] * length
    for a, b, c in poly.terms:
        assert a == a0 - 3 * ((b - b0) // 2)
        coeffs[(b - b0) // 2] = c
    assert IsobaricPolynomial(37, poly.weight, tuple(coeffs)) == poly
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
        square = IsobaricPolynomial(ell, 2 * (ell - 1), tuple(coeffs))
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


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 29, 31, 101, 199])
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
    if ell % 4 == 3:
        # A~ has an odd R-exponent.  A multiple A~ h, h of weight 2 mod 4, is
        # moved by x^j, times x - x0 where A~'s x-part has a root x0 so that
        # the evaluation there lets it through, to reach the two rejections
        # random polynomials almost never do: a nonzero entry 0, below the
        # quotient's layout, and changed last entries, past it (always above
        # 11, where A~ is no monomial)
        root = _a_tilde_root(ell)
        step = [1] if root is None else [-root % ell, 1]
        h = rand(rng.randrange(6, 240, 4))
        product = dense_product(ell, h.weight, h.coeffs, ell - 1, a_tilde.coeffs)
        for start in (0, -len(step)):
            coeffs = list(product)
            for i, c in enumerate(step, start=start):
                coeffs[i] = (coeffs[i] + c) % ell
            polys.append(IsobaricPolynomial(ell, h.weight + ell - 1, tuple(coeffs)))
    assert {poly.weight % 4 for poly in polys} == {0, 2}
    mismatches = [
        (poly.weight, poly.coeffs)
        for poly in polys
        if poly.strip_a_tilde() != long_division_strip(poly)
    ]
    assert mismatches == []


#: falls on both sides of each power of two that the galloping search meets
LONG_FALLS = (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33)


# 5, 7 and 11 have no root of A~'s x-part, 19, 23 and 31 are 3 mod 4 (A~ has
# an odd R-exponent), and 29 and 101 are neither
@pytest.mark.parametrize("ell", [5, 7, 11, 19, 23, 29, 31, 101])
def test_strip_a_tilde_matches_long_division_on_long_falls(ell):
    rng = random.Random(ell)
    a_tilde = compute_a_tilde(ell).coeffs
    # h of weights 0 to 6 (weight 2 is the zero polynomial), both R-parities
    weights = [0, 2, 4, 6] + [rng.randrange(8, 12 * ell, 2) for _ in range(4)]
    cases = []
    for weight in weights:
        coeffs = tuple(rng.randrange(ell) for _ in range(dense_layout(weight)[2]))
        poly = IsobaricPolynomial(ell, weight, coeffs)
        for k in range(1, LONG_FALLS[-1] + 1):
            coeffs = dense_product(ell, poly.weight, poly.coeffs, ell - 1, a_tilde)
            poly = IsobaricPolynomial(ell, poly.weight + ell - 1, tuple(coeffs))
            if k in LONG_FALLS:
                cases.append((k, poly))
    assert {poly.weight % 4 for _, poly in cases} == {0, 2}
    results = [poly.strip_a_tilde() for _, poly in cases]
    assert results == [long_division_strip(poly) for _, poly in cases]
    # every fall length is met exactly, where A~ does not divide h
    assert {k for (k, _), (_, count) in zip(cases, results) if count == k} == set(LONG_FALLS)


@pytest.mark.parametrize("ell", [5, 7, 13, 31])
def test_internal_builders_pass_the_checked_constructor(ell):
    # represent, theta and strip_a_tilde skip the constructor's checks; each
    # polynomial they build along a theta cycle must pass them unchanged
    form = eis_product(1, 1, 1, ell, sturm(ell + 11) + 1)
    poly = represent(form, form.weight)
    built = [poly, compute_a_tilde(ell)]
    for _ in range(ell):
        image = poly.theta()
        poly, _ = image.strip_a_tilde()
        built += [image, poly]
    assert [IsobaricPolynomial(p.prime, p.weight, p.coeffs) for p in built] == built


def test_a_tilde_root_is_a_root_of_its_x_part():
    roots = {ell: _a_tilde_root(ell) for ell in primerange(5, 400)}
    assert [ell for ell, x in roots.items() if x is None] == [5, 7, 11]
    for ell, x in roots.items():
        g = compute_a_tilde(ell).coeffs
        assert x is None or (0 < x < ell and sum(c * x**j for j, c in enumerate(g)) % ell == 0)
    # every capped prime above 11 takes the pre-test, the benchmark's tate
    # primes 29 and 31 among them
    capped = list(primerange(13, TATE_CYCLE_CAP + 1))
    assert {29, 31} <= set(capped)
    assert [ell for ell in capped if roots[ell] is None] == []


def count_strip_work(monkeypatch, spec, ell):
    """The work of the lift's cycle: each strip's counts, and the closing step's products.

    Each `strip_a_tilde` call gives [divisions, trials, unvetted]: a trial
    is one division by a power of A~ (`_a_tilde_power_quotient`), and it
    is unvetted unless the evaluation at the root of A~'s x-part ran
    since the last trial and gave zero.
    """
    strips, closing = [], []
    last = None  # the latest evaluation at the root since the last trial
    quotient, horner = _a_tilde_power_quotient, _horner
    strip, product = IsobaricPolynomial.strip_a_tilde, dense_product
    _a_tilde_root(ell)  # found and cached before the evaluations are counted

    def counted_quotient(poly, i):
        nonlocal last
        strips[-1][1] += 1
        strips[-1][2] += last != 0
        last = None
        return quotient(poly, i)

    def counted_horner(*args):
        nonlocal last
        last = horner(*args)
        return last

    def counted_strip(poly):
        nonlocal last
        strips.append([0, 0, 0])
        last = None
        lowered, count = strip(poly)
        strips[-1][0] = count
        return lowered, count

    def closing_product(*args):
        closing.append(args)
        return product(*args)

    with monkeypatch.context() as patch:
        patch.setattr("eiscong.filtration._a_tilde_power_quotient", counted_quotient)
        patch.setattr("eiscong.filtration._horner", counted_horner)
        patch.setattr(IsobaricPolynomial, "strip_a_tilde", counted_strip)
        patch.setattr("eiscong.tate.dense_product", closing_product)
        tate_cycle(_lift_polynomial(spec, ell))
    return strips, len(closing)


@pytest.mark.parametrize(
    "spec, ell",
    [(QuotientSpec(0, 1, -3), 29), (QuotientSpec(0, -12, 1), 29), (QuotientSpec(1, 0, -1), 31),
     (QuotientSpec(0, 0, -2), 53)],
)
def test_each_strip_gallops_after_a_zero_at_the_root(monkeypatch, spec, ell):
    strips, _ = count_strip_work(monkeypatch, spec, ell)
    # no trial runs where the evaluation at the root rules A~ out, and a
    # strip that divides k times makes at most 2 k.bit_length() + 1 trials
    assert all(unvetted == 0 for _, _, unvetted in strips)
    assert all(trials <= 2 * k.bit_length() + 1 for k, trials, _ in strips)
    # a long fall takes fewer trials than divisions
    assert any(k > trials for k, trials, _ in strips)
    # without a root no evaluation runs, every strip tries A~ at least once,
    # and the same strips divide as often
    monkeypatch.setattr("eiscong.filtration._a_tilde_root", lambda ell: None)
    fallback, _ = count_strip_work(monkeypatch, spec, ell)
    assert [k for k, _, _ in fallback] == [k for k, _, _ in strips]
    assert all(
        0 < trials == unvetted <= 2 * k.bit_length() + 1 for k, trials, unvetted in fallback
    )


@pytest.mark.parametrize(
    "spec, ell", [(QuotientSpec(0, -12, 1), 101), (QuotientSpec(0, 0, -2), 53)]
)
def test_a_cycle_strips_ell_times_and_closes_in_few_products(monkeypatch, spec, ell):
    filtrations = tate_cycle(_lift_polynomial(spec, ell)).filtrations
    # the closing step's fall, from iterate ell - 1 back to iterate 1
    k = (filtrations[-1] + ell + 1 - filtrations[0]) // (ell - 1)
    strips, closing_products = count_strip_work(monkeypatch, spec, ell)
    # the base filtration and iterates 1, ..., ell - 1; the closing image is
    # not stripped but matched against A~^k times iterate 1, one product by
    # a cached power A~^(2^i) for each set bit i of k
    assert len(strips) == ell
    assert k > 1
    assert closing_products == bin(k).count("1")


def test_cycles_without_the_pre_test_give_the_same_profiles(monkeypatch):
    cases = [
        (spec, ell) for ell in primerange(13, 62) for spec in CYCLE_SPECS if admits_lift(spec, ell)
    ]
    profiles = [tate_cycle(_lift_polynomial(spec, ell)) for spec, ell in cases]
    monkeypatch.setattr("eiscong.filtration._a_tilde_root", lambda ell: None)
    assert [tate_cycle(_lift_polynomial(spec, ell)) for spec, ell in cases] == profiles


def stripping_tate_cycle(form):
    """Reference cycle on polynomials: the profile, and the divisions by A~ that reached it.

    Each of the ell theta steps after the base is divided by A~ while it
    divides, the closing one too, and the cycle closes when the ell-th
    quotient equals the first.
    """
    ell = form.prime
    iterate, divisions = filtration_polynomial(form)
    base = iterate.weight
    iterates = []
    for _ in range(ell):
        iterate, count = iterate.theta().strip_a_tilde()
        divisions += count
        iterates.append(iterate)
    if not any(iterates[0].coeffs):
        raise ValueError("theta kills this form mod ell")
    if iterates[-1] != iterates[0]:
        raise RuntimeError("theta iterates fail to close up after ell steps")
    return checked_profile(form, base, [p.weight for p in iterates[:-1]]), divisions


def logged_tate_cycle(caplog, form):
    """`tate_cycle`'s profile and the divisions by A~ its INFO line logs."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="eiscong"):
        profile = tate_cycle(form)
    [line] = [r.getMessage() for r in caplog.records if r.name == "eiscong.tate"]
    return profile, int(re.search(r"(\d+) divisions by A~", line).group(1))


def test_the_closing_product_matches_stripping_the_closing_image(caplog):
    # theta kills the lifts of 1/E4 mod 5 and E4 E6 mod 11; two forms are
    # q-series, the second at a prime 3 mod 4
    forms = [_lift_polynomial(QuotientSpec(0, -1, 0), 5),
             _lift_polynomial(QuotientSpec(0, 1, 1), 11)]
    for spec, ell in ((QuotientSpec(0, -12, 1), 17), (QuotientSpec(1, 0, -1), 23)):
        lift = replacement_lift(spec, ell, profile_precision(spec, ell))
        forms.append(ModularFormModEll.from_lift(lift))
    # four seeded lifts at each prime below 100: 5, 7 and 11, where A~'s
    # x-part has no root, and the primes 3 mod 4, where A~ has an odd R-exponent
    rng = random.Random(5)
    for ell in primerange(5, 100):
        specs = []
        while len(specs) < 4:
            spec = QuotientSpec(rng.randrange(3), rng.randrange(-12, 13), rng.randrange(-12, 13))
            if admits_lift(spec, ell):
                specs.append(spec)
        forms += [_lift_polynomial(spec, ell) for spec in specs]
    closing = [outcome(lambda f: logged_tate_cycle(caplog, f), form) for form in forms]
    stripping = [outcome(stripping_tate_cycle, form) for form in forms]
    assert closing == stripping
    assert stripping[:2] == [ValueError, ValueError]
    profiles = [result[0] for result in stripping if result is not ValueError]
    # falls at the closing step and mid-cycle, and closing steps that rise
    assert any(p.high_points[-1] == p.prime - 1 for p in profiles)
    assert any(p.high_points[-1] != p.prime - 1 for p in profiles)
    assert any(p.high_points[0] < p.prime - 1 for p in profiles)


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
    poly = represent(form, form.weight)
    if poly is None:
        raise RuntimeError(f"series tagged weight {form.weight} matches no form")
    return poly.strip_a_tilde()


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
            forms.append(ModularFormModEll(ell, weight, TruncatedSeries(ell, [0] * terms)))
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
    a, b = compute_a_tilde(ell), b_tilde(ell)
    assert (a.weight, b.weight) == (ell - 1, ell + 1)
    assert evaluate(a, terms) == TruncatedSeries.one(ell, terms)
    assert evaluate(b, terms) == eisenstein_series(2, ell, terms)


def solved_b_tilde(ell):
    """Reference B~: one solve writes E2, which is E_{ell+1} mod ell, at weight ell + 1."""
    return represent(ModularFormModEll(ell, ell + 1, eisenstein_series(2, ell, ell)), ell + 1)


def test_b_tilde_is_minus_d_of_a_tilde():
    mismatches = [ell for ell in primerange(5, 400) if b_tilde(ell) != solved_b_tilde(ell)]
    assert mismatches == []


def solved_a_tilde(ell):
    """Reference A~: one solve writes E_{ell-1}, which is 1 mod ell, at weight ell - 1."""
    # ell terms cover the Sturm range
    return represent(ModularFormModEll(ell, ell - 1, TruncatedSeries.one(ell, ell)), ell - 1)


def test_closed_form_a_tilde_matches_the_solve():
    mismatches = [ell for ell in primerange(5, 400) if compute_a_tilde(ell) != solved_a_tilde(ell)]
    assert mismatches == []


def lift_box(seed, count):
    """Seeded (spec, ell) pairs with a lift: r <= 4, |s|, |t| <= 12, 5 <= ell < 200."""
    rng = random.Random(seed)
    primes = list(primerange(5, 200))
    pairs = []
    while len(pairs) < count:
        spec = QuotientSpec(rng.randrange(5), rng.randrange(-12, 13), rng.randrange(-12, 13))
        ell = rng.choice(primes)
        if ell + spec.s >= 0 and ell + spec.t >= 0:
            pairs.append((spec, ell))
    return pairs


def test_lift_polynomial_matches_the_solved_lift():
    # the box holds r > 0, negative s and t, and the primes 5 and 7
    pairs = [(QuotientSpec(3, -5, -4), 5), (QuotientSpec(2, -7, -6), 7)] + lift_box(21, 32)
    assert any(spec.r and spec.s < 0 and spec.t < 0 for spec, _ in pairs)
    mismatches = []
    for spec, ell in pairs:
        form = replacement_lift(spec, ell, profile_precision(spec, ell))
        if _lift_polynomial(spec, ell) != represent(form, form.weight):
            mismatches.append((spec, ell))
    assert mismatches == []


@pytest.mark.parametrize("ell", [-5, -3, 0, 1, 3, 4, 9])
def test_a_tilde_and_b_tilde_refuse_what_is_not_a_prime_at_least_5(ell):
    # B~ = -D(A~) has no entry point of its own: A~'s refusal covers both
    with pytest.raises(ValueError, match=f"ell must be a prime at least 5, got {ell}"):
        compute_a_tilde(ell)


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
