import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import primerange

from eiscong import eisenstein
from eiscong.eisenstein import (
    QuotientSpec,
    eisenstein_power_product,
    eisenstein_series,
    lift_weight,
    quotient_prefix,
    quotient_q2_coefficient,
    quotient_q_coefficient,
    quotient_series,
    _sigma_table,
    replacement_lift,
)
from eiscong.series import TruncatedSeries


def brute_sigma(power, n):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def test_sigma_examples():
    assert _sigma_table(1, 7)[5] == 12
    assert _sigma_table(3, 1) == ()
    assert _sigma_table(3, 2) == (1,)
    assert _sigma_table(3, 3) == (1, 9)


def test_sigma_matches_full_divisor_enumeration():
    rng = random.Random(1)
    for _ in range(60):
        power = rng.randrange(0, 6)
        n = rng.randrange(1, 400)
        assert _sigma_table(power, 400)[n - 1] == brute_sigma(power, n)


def test_sigma_table_sieve_matches_sigma():
    # lengths 1-5 hold the sieve's edges: no prime, the first primes, the first square
    for power in (1, 3, 5):
        for terms in (1, 2, 3, 4, 5, 3000, 3001):
            assert _sigma_table(power, terms) == tuple(
                brute_sigma(power, n) for n in range(1, terms)
            )


def divisor_sums(power, terms):
    # reference: each n from 1 to terms - 1 sums d^power over its divisor pairs d, n/d
    sums = []
    for n in range(1, terms):
        total = 0
        for d in range(1, math.isqrt(n) + 1):
            if n % d == 0:
                total += d**power + ((n // d) ** power if d * d != n else 0)
        sums.append(total)
    return tuple(sums)


@pytest.mark.parametrize("terms", [1, 2, 3, 4, 5, 9, 26, 28, 2188, 4097])
def test_sigma_table_is_the_divisor_sum_at_prime_power_edges(terms):
    # 8, 27, 2187 = 3^7 and 4096 = 2^12 are the last entries at 9, 28, 2188 and
    # 4097, and 26 stops just short of 27, so the step from sigma(p^(e-1)) to
    # sigma(p^e) runs at exponents 3 and up, at a table's end and just before it
    for power in range(6):
        _sigma_table.cache_clear()
        assert _sigma_table(power, terms) == divisor_sums(power, terms)


def test_series_constants():
    big = 10**9
    assert eisenstein_series(4, big, 3).coeffs == (1, 240, 2160)
    assert eisenstein_series(2, big, 3).coeffs == (1, (-24) % big, (-72) % big)
    assert eisenstein_series(6, big, 2).coeffs == (1, (-504) % big)


def test_unsupported_weight():
    with pytest.raises(ValueError):
        eisenstein_series(8, 7, 5)


def test_all_three_reduce_to_one_mod_2_and_3():
    for m in (2, 3):
        for k in (2, 4, 6):
            assert eisenstein_series(k, m, 40) == TruncatedSeries.one(m, 40)


def test_e2_mod_243_reduces_to_one_mod_3():
    f = eisenstein_series(2, 243, 30).change_modulus(3)
    assert f == TruncatedSeries.one(3, 30)


# ---------------------------------------------------------------------------
# classical reductions of the two general-weight series


def test_weight_12_reduction_is_one_mod_13():
    # oracle: E12 = (441 E4^3 + 250 E6^2) / 691, reduced mod 13
    n = 20
    e4 = eisenstein_series(4, 13, n)
    e6 = eisenstein_series(6, 13, n)
    inv691 = pow(691, -1, 13)
    e12 = [inv691 * (441 * a + 250 * b) for a, b in zip(e4.pow(3).coeffs, e6.pow(2).coeffs)]
    assert TruncatedSeries(13, e12) == TruncatedSeries.one(13, n)


def test_weight_below_reduces_to_one_mod_5():
    # 5 divides 240, so E4 is already 1 mod 5
    assert eisenstein_series(4, 5, 25) == TruncatedSeries.one(5, 25)


def test_weight_above_reduces_to_e2():
    # -504 = 1 = -24 and sigma_5(n) = sigma_1(n) mod 5, so E6 is E2 mod 5
    assert eisenstein_series(6, 5, 30) == eisenstein_series(2, 5, 30)


# ---------------------------------------------------------------------------
# quotients


def test_identity_quotient_is_one():
    assert quotient_series(QuotientSpec(0, 0, 0), 7, 10) == TruncatedSeries.one(7, 10)


def test_empty_power_product_is_one():
    for m in (2, 49, 3**20):
        for n in (1, 2, 17):
            product = eisenstein_power_product(0, 0, 0, m, n)
            assert product == TruncatedSeries.one(m, n)
            assert product.precision == n


@settings(max_examples=40)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.sampled_from([2, 7, 9, 49, 243, 7**12, 3**20]), st.integers(1, 60))
def test_power_product_matches_the_product_from_one(r, s, t, m, n):
    # reference: start from the constant one and multiply in every factor
    reference = TruncatedSeries.one(m, n)
    for weight, exponent in ((2, r), (4, s), (6, t)):
        reference = reference * eisenstein_series(weight, m, n).pow(exponent)
    product = eisenstein_power_product(r, s, t, m, n)
    assert product == reference
    assert product.precision == reference.precision


#: the box of the quotient differential: primes, prime powers, a composite
#: and the two wide moduli, at windows from one term to past 1200
QUOTIENT_MODULI = (5, 7, 13, 9, 27, 49, 81, 243, 1000, 7**12, 3**20)
QUOTIENT_TERMS = (1, 2, 3, 17, 100, 1201)


@pytest.mark.parametrize("m", QUOTIENT_MODULI)
@pytest.mark.parametrize("n", QUOTIENT_TERMS)
def test_power_product_is_the_numerator_times_the_inverse_denominator(m, n):
    # reference: the factors of positive and of negative exponent multiplied
    # out by mul, then one full product by the denominator's inverse
    rng = random.Random(f"{m}:{n}")
    for _ in range(3 if n > 1000 else 8):
        r, s, t = (rng.randint(-3, 3) for _ in range(3))
        num = den = TruncatedSeries.one(m, n)
        for weight, exponent in ((2, r), (4, s), (6, t)):
            factor = eisenstein_series(weight, m, n)
            for _ in range(abs(exponent)):
                if exponent > 0:
                    num = num.mul(factor)
                else:
                    den = den.mul(factor)
        reference = num.mul(den.invert())
        product = eisenstein_power_product(r, s, t, m, n)
        assert (product.modulus, product.valuation, product.coeffs, product.precision) == (
            reference.modulus, reference.valuation, reference.coeffs, reference.precision
        ), (r, s, t)


def test_eisenstein_series_rejects_modulus_below_two():
    with pytest.raises(ValueError):
        eisenstein_series(4, 1, 10)


def test_spec_requires_nonnegative_r():
    with pytest.raises(ValueError):
        QuotientSpec(-1, 0, 0)


@pytest.mark.parametrize(
    "r,s,t",
    [(0, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3), (5, -4, -2), (0, -12, 1),
     (-1, 0, 0), (-2, 1, 0), (-3, -5, 2), (-7, 12, -9)],
)
def test_low_coefficients_match_closed_forms(r, s, t):
    for m in (10**12, 101, 9973):
        f = eisenstein_power_product(r, s, t, m, 3)
        assert f.coefficient(1) == quotient_q_coefficient(r, s, t) % m
        assert f.coefficient(2) == quotient_q2_coefficient(r, s, t) % m


def q_reference(r, s, t):
    """The q coefficient as a literal, the form the package derives from C_k."""
    return -24 * r + 240 * s - 504 * t


def q2_reference(r, s, t):
    """The q^2 coefficient as the expanded nine-term literal."""
    return (
        288 * r * r
        - 5760 * r * s
        + 12096 * r * t
        - 360 * r
        + 28800 * s * s
        - 120960 * s * t
        - 26640 * s
        + 127008 * t * t
        - 143640 * t
    )


def test_closed_forms_match_the_literals():
    # both sides are polynomials of degree 2 in each exponent, so agreement on
    # three values of each forces equality; the box checks many more
    box = range(-60, 61, 3)
    for r, s, t in itertools.product(box, repeat=3):
        q, q2 = quotient_q_coefficient(r, s, t), quotient_q2_coefficient(r, s, t)
        assert type(q) is int and q == q_reference(r, s, t), (r, s, t)
        assert type(q2) is int and q2 == q2_reference(r, s, t), (r, s, t)


def test_negative_powers_work_modulo_prime_powers():
    f = eisenstein_power_product(-1, 0, 0, 81, 50)  # 1/E2 mod 3^4
    check = f * eisenstein_series(2, 81, 50)
    assert check.agrees_with(TruncatedSeries.one(81, 50))


def test_extract_progression_of_inverse_e6_mod_27():
    f = eisenstein_power_product(0, 0, -1, 27, 400)
    assert f.extract_progression(2, 3).is_zero()


#: a prime, a prime power, the product of the primes 5 to 181 and a wide prime
PREFIX_MODULI = (10007, 3**20, math.prod(primerange(5, 182)), 10**60 + 7)


@pytest.mark.parametrize("m", PREFIX_MODULI)
def test_quotient_prefix_reduces_to_the_power_product(m):
    # the integer prefix from the logarithmic derivative against the product
    # of powers and one inverse mod m, on a seeded box with r < 0 and |s|, |t|
    # up to 60
    rng = random.Random(f"prefix:{m}")
    specs = [(0, 0, 0), (-1, 0, 0), (0, -60, 60), (-5, 60, -60)]
    specs += [(rng.randint(-6, 6), rng.randint(-60, 60), rng.randint(-60, 60))
              for _ in range(40)]
    for r, s, t in specs:
        prefix = quotient_prefix(r, s, t, 16)
        assert len(prefix) == 16 and all(type(a) is int for a in prefix)
        assert TruncatedSeries(m, prefix) == eisenstein_power_product(r, s, t, m, 16), (r, s, t)


def test_quotient_prefix_refuses_an_inexact_division(monkeypatch):
    # with log derivative q, a(1) = 1 and 2 a(2) = b(1) a(1) = 1: no integer
    monkeypatch.setattr(eisenstein, "_log_derivative", lambda weight, terms: (0, 1, 0))
    with pytest.raises(ArithmeticError, match="q\\^2 coefficient"):
        quotient_prefix(1, 0, 0, 3)
    with pytest.raises(ValueError):
        quotient_prefix(1, 0, 0, 0)


@st.composite
def reduction_case(draw):
    # exponents (r may be negative, as in the table's wide rows), a modulus
    # M = prod p^e and a divisor d > 1 of M
    exponents = (draw(st.integers(-3, 6)), draw(st.integers(-15, 15)), draw(st.integers(-15, 15)))
    powers = draw(st.dictionaries(
        st.sampled_from([2, 3, 5, 7, 11, 13, 17, 101, 181]), st.integers(1, 12),
        min_size=1, max_size=6,
    ))
    modulus = math.prod(p**e for p, e in powers.items())
    divisor = math.prod(p ** draw(st.integers(0, e)) for p, e in powers.items())
    assume(divisor > 1)
    return exponents, modulus, divisor, draw(st.integers(1, 40))


@settings(max_examples=150)
@given(reduction_case())
@example(((0, -12, 1), math.prod(primerange(5, 182)), 181, 16))
@example(((-1, 1, 0), 7**12, 49, 60))
@example(((1, 0, -1), 3**20, 81, 60))
def test_reduction_commutes_with_expansion(case):
    # quotient_series(spec, m, n) is this product at the spec's exponents
    (r, s, t), modulus, divisor, terms = case
    wide = eisenstein_power_product(r, s, t, modulus, terms)
    assert wide.change_modulus(divisor) == eisenstein_power_product(r, s, t, divisor, terms)


# ---------------------------------------------------------------------------
# replacement lift


def test_lift_weight_of_the_introduction_example():
    assert lift_weight(QuotientSpec(0, -12, 1), 17) == 128
    lifted = replacement_lift(QuotientSpec(0, -12, 1), 17, 12)
    assert lifted.weight == 128


def test_lift_of_identity_is_an_ell_th_power():
    lifted = replacement_lift(QuotientSpec(0, 0, 0), 5, 40)
    assert lifted.weight == 50
    for n in range(lifted.series.valuation, lifted.series.precision):
        if lifted.series.coefficient(n):
            assert n % 5 == 0


def test_lift_equals_quotient_times_unit_power():
    rng = random.Random(3)
    for _ in range(8):
        spec = QuotientSpec(rng.randrange(0, 4), rng.randrange(-3, 4), rng.randrange(-3, 4))
        ell = rng.choice([5, 7, 11, 13])
        n = 50
        lifted = replacement_lift(spec, ell, n)
        e4e6 = eisenstein_series(4, ell, n) * eisenstein_series(6, ell, n)
        direct = quotient_series(spec, ell, n) * e4e6.pow(ell)
        assert lifted.series.agrees_with(direct)


def test_lift_and_quotient_share_vanishing_progressions():
    spec = QuotientSpec(0, -1, 0)
    ell, n = 7, 500
    quotient = quotient_series(spec, ell, n)
    lifted = replacement_lift(spec, ell, n)
    for c in range(ell):
        assert (
            quotient.extract_progression(c, ell).is_zero()
            == lifted.series.extract_progression(c, ell).is_zero()
        )


def test_lift_refuses_primes_below_the_exponent_sizes():
    with pytest.raises(ValueError):
        replacement_lift(QuotientSpec(0, -12, 1), 7, 10)
    with pytest.raises(ValueError):
        replacement_lift(QuotientSpec(0, 1, -20), 13, 10)
