import math
import random
import sys
from array import array

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import eiscong.series as series_module
from eiscong.eisenstein import eisenstein_series
from eiscong.series import (
    ModulusMismatchError,
    PrecisionError,
    TruncatedSeries,
    _convolve,
    _divide,
    _slot_width,
)


def TS(modulus, coeffs, valuation=0):
    return TruncatedSeries(modulus, coeffs, valuation)


def test_the_series_surface_is_pinned():
    # every public attribute and operator of the series type, so that a change shows here
    public = sorted(name for name in dir(TruncatedSeries) if not name.startswith("_"))
    assert public == [
        "add", "agrees_with", "change_modulus", "coefficient", "coeffs",
        "extract_progression", "invert", "is_zero", "modulus", "mul", "one", "pow",
        "precision", "theta", "valuation",
    ]
    operators = sorted(name for name, value in vars(TruncatedSeries).items()
                       if name.startswith("__") and callable(value))
    assert operators == [
        "__add__", "__eq__", "__hash__", "__init__", "__mul__", "__repr__", "__str__",
    ]


# ---------------------------------------------------------------------------
# construction and normalization


def test_residues_are_canonical():
    f = TS(5, [7, -1, 10])
    assert f.coeffs == (2, 4, 0)


def test_leading_zeros_raise_the_valuation():
    f = TS(7, [0, 0, 3, 0])
    assert f.valuation == 2
    assert f.coeffs == (3, 0)
    assert f.precision == 4


def test_zero_series_is_canonical_at_valuation_zero():
    f = TS(7, [0, 0, 0], valuation=-1)
    assert f.valuation == 0
    assert f.coeffs == (0, 0)
    assert f.precision == 2
    assert f.is_zero()


def test_window_length_matches_precision():
    f = TS(9, [1, 2, 3], valuation=-2)
    assert len(f.coeffs) == f.precision - f.valuation


def test_modulus_below_two_rejected():
    with pytest.raises(ValueError):
        TS(1, [1])


def test_coefficient_lookups():
    f = TS(7, [3, 0, 5], valuation=-1)
    assert f.coefficient(-1) == 3
    assert f.coefficient(-5) == 0  # below the valuation the series is zero
    assert f.coefficient(1) == 5
    with pytest.raises(PrecisionError):
        f.coefficient(2)


# ---------------------------------------------------------------------------
# add


def test_add_cancellation():
    f = TS(5, [1, 1, 0])
    g = TS(5, [1, -1, 0])
    total = f + g
    assert total.valuation == 0
    assert total.coeffs == (2, 0, 0)


def test_add_identity():
    f = TS(11, [3, 1, 4])
    assert f + TS(11, [0, 0, 0]) == f


def test_add_merges_laurent_windows():
    f = TS(7, [1, 1, 0], valuation=-1)  # q^-1 + 1, known through q
    g = TS(7, [1, 1])                    # 1 + q
    total = f + g
    assert total.valuation == -1
    assert total.coeffs == (1, 2, 1)


def test_add_requires_equal_moduli():
    with pytest.raises(ModulusMismatchError):
        TS(5, [1]) + TS(7, [1])


def test_operators_take_only_series():
    f = TS(7, [0, 1, 2])
    with pytest.raises(TypeError):
        f + 1
    with pytest.raises(TypeError):
        f * 2
    assert f != 1 and not f == (0, 1, 2)
    # equal series hash alike, whatever the leading zeros they were written with
    g = TS(7, [1, 2], valuation=1)
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1


def test_add_precision_is_the_minimum():
    f = TS(5, [1, 1, 1, 1])
    g = TS(5, [1, 1])
    assert (f + g).precision == 2


# ---------------------------------------------------------------------------
# mul


def test_mul_difference_of_squares():
    f = TS(5, [1, 1, 0])
    g = TS(5, [1, -1, 0])
    assert (f * g).coeffs == (1, 0, 4)


def test_mul_identity():
    f = TS(13, [2, 0, 7, 1])
    assert f * TruncatedSeries.one(13, 4) == f


def test_e4_times_e6_mod_11_matches_direct_convolution():
    # oracle: hand convolution of the integer expansions
    e4 = [1, 240, 2160]
    e6 = [1, -504, -16632]
    oracle = [sum(e4[i] * e6[k - i] for i in range(k + 1)) % 11 for k in range(3)]
    assert oracle == [1, 0, 0]
    prod = TS(11, e4) * TS(11, e6)
    assert list(prod.coeffs) == oracle


def test_mul_precision_rule():
    f = TS(5, [1, 2], valuation=3)   # known on [3, 5)
    g = TS(5, [1, 1, 1])             # known on [0, 3)
    prod = f * g
    assert prod.valuation == 3
    assert prod.precision == min(f.precision + g.valuation, g.precision + f.valuation)


def test_convolve_falls_back_for_huge_moduli():
    m = 2**62
    a = [m - 1, m - 2]
    b = [m - 1, 1]
    out = _convolve(a, b, m)
    assert out == [((m - 1) * (m - 1)) % m, ((m - 1) + (m - 2) * (m - 1)) % m, (m - 2) % m]


def schoolbook(a, b, modulus, terms=None):
    # reference product: the quadratic loop over Python integers
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [c % modulus for c in out][:terms]


# slot widths: 2 -> 1 byte, 7 -> 1-2, 181 -> 2-4, 65521 -> 4-8, 2^31 - 1 -> 8
# and wider, 3^20 -> 8 and wider, 7^12 and 2^62 -> wider than 8
KRONECKER_MODULI = (2, 7, 181, 65521, 2**31 - 1, 7**12, 3**20, 2**62)


@st.composite
def convolve_case(draw):
    m = draw(st.sampled_from(KRONECKER_MODULI))
    # zeros and top residues exercise the windows' gaps and their slots' capacity
    entry = st.one_of(st.just(0), st.just(m - 1), st.integers(0, m - 1))
    a = draw(st.lists(entry, max_size=40))
    b = draw(st.lists(entry, max_size=40))
    full = len(a) + len(b) - 1
    terms = draw(st.one_of(st.none(), st.integers(0, max(full + 3, 0)),
                           st.sampled_from([full - 1, full, full + 1])))
    return a, b, m, terms


@settings(max_examples=400)
@given(convolve_case())
def test_convolve_matches_schoolbook(case):
    a, b, m, terms = case
    assert _convolve(a, b, m, terms) == schoolbook(a, b, m, terms)


def test_convolve_fills_every_slot_width():
    # all-top windows reach the slot bound exactly, at each width
    for m in KRONECKER_MODULI:
        for n in (1, 2, 3, 4, 9, 300):
            a = [m - 1] * n
            assert _convolve(a, a, m) == schoolbook(a, a, m)


def test_convolve_reaches_each_slot_width_from_1_to_10_bytes():
    rng = random.Random(10)
    for width in range(1, 11):
        # (m - 1)^2 = 2^(8 width - 4), so 15 entries need every bit of the top byte
        m = 2 ** (4 * width - 2) + 1
        n = 15
        assert _slot_width(n, m) == width
        assert n * (m - 1) ** 2 >= 256 ** (width - 1)
        top = [m - 1] * n
        mixed = [rng.choice((0, m - 1, rng.randrange(m))) for _ in range(3 * n)]
        for a, b in ((top, top), (top, mixed), (mixed, top)):
            full = len(a) + len(b) - 1
            for terms in (None, 0, 1, 7, n, full - 1, full, full + 3):
                assert _convolve(a, b, m, terms) == schoolbook(a, b, m, terms)


@pytest.mark.parametrize(
    "m, n, width",
    # a byte slot, slots of 3 and 5 bytes through C types of 4 and 8, and 10-byte slots
    [(7, 7, 1), (181, 40, 3), (65521, 40, 5), (7**12, 40, 10)],
)
def test_a_square_is_the_product_of_two_equal_windows(m, n, width):
    assert _slot_width(n, m) == width
    rng = random.Random(m)
    entries = [rng.choice((0, m - 1, rng.randrange(m))) for _ in range(n)]
    for a in (entries, tuple(entries), [m - 1] * n):
        for terms in (None, 0, 1, n // 2, n, 2 * n - 2, 2 * n - 1, 2 * n + 3):
            square = _convolve(a, a, m, terms)
            assert square == _convolve(a, list(a), m, terms) == schoolbook(a, a, m, terms)


# reference codec: every slot of at most 8 bytes rounded up to 1, 2, 4 or 8
_REFERENCE_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _reference_pack(coeffs, width):
    code = _REFERENCE_CODES.get(width)
    if code:
        data = array(code, coeffs).tobytes()
    else:
        data = b"".join(c.to_bytes(width, sys.byteorder) for c in coeffs)
    return int.from_bytes(data, sys.byteorder)


def _reference_unpack(data, width, modulus):
    code = _REFERENCE_CODES.get(width)
    if code:
        return [c % modulus for c in memoryview(data).cast(code)]
    return [
        int.from_bytes(data[i : i + width], sys.byteorder) % modulus
        for i in range(0, len(data), width)
    ]


def convolve_c_types(a, b, modulus, terms=None):
    if not a or not b:
        return []
    bound = min(len(a), len(b)) * (modulus - 1) ** 2
    width = (bound.bit_length() + 7) // 8
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    full = len(a) + len(b) - 1
    keep = full if terms is None else min(terms, full)
    product = _reference_pack(a, width) * _reference_pack(b, width)
    data = product.to_bytes(full * width, sys.byteorder)[: keep * width]
    return _reference_unpack(data, width, modulus)


@settings(max_examples=200)
@given(convolve_case())
def test_exact_width_convolve_matches_the_c_type_codec(case):
    a, b, m, terms = case
    assert _convolve(a, b, m, terms) == convolve_c_types(a, b, m, terms)


def invert_full_correction(coeffs, modulus):
    # reference Newton loop: each step multiplies g by the whole 2 - f*g
    n = len(coeffs)
    g = [pow(coeffs[0], -1, modulus)]
    while len(g) < n:
        k = min(2 * len(g), n)
        fg = convolve_c_types(list(coeffs[:k]), g, modulus, k)
        corr = [(-c) % modulus for c in fg]
        corr[0] = (corr[0] + 2) % modulus
        g = convolve_c_types(g, corr, modulus, k)
    return g


@st.composite
def unit_window(draw):
    m = draw(st.sampled_from(KRONECKER_MODULI))
    n = draw(st.integers(1, 70))
    entry = st.one_of(st.just(0), st.just(m - 1), st.integers(0, m - 1))
    coeffs = draw(st.lists(entry, min_size=n, max_size=n))
    # a unit constant term: 1 or a random residue prime to m
    lead = draw(st.one_of(st.just(1), st.integers(1, m - 1)))
    assume(math.gcd(lead, m) == 1)
    return TruncatedSeries(m, [lead] + coeffs[1:])


@settings(max_examples=120)
@given(unit_window())
def test_half_length_newton_matches_the_full_correction(f):
    assert list(f.invert().coeffs) == invert_full_correction(f.coeffs, f.modulus)


@pytest.mark.parametrize("modulus", [7**12, 3**20])
@pytest.mark.parametrize("n", [2, 3, 1025, 1200])
def test_newton_along_the_halving_chain_matches_the_full_correction(modulus, n):
    # 1025 halves through odd lengths 513, 257, ..., 3; 1200 ends 1200 by 600
    rng = random.Random(n)
    f = TruncatedSeries(modulus, [1] + [rng.randrange(modulus) for _ in range(n - 1)])
    assert list(f.invert().coeffs) == invert_full_correction(f.coeffs, modulus)


#: prime-power factorisations of moduli where a shared factor d of the
#: coefficients from q^1 on can reach d^3 = 0 (mod m); 54 = 2 * 27 has
#: d = 6 with d^3 = 0 but d^2 not dividing m
SHARED_FACTOR_MODULI = (
    ((2, 3),), ((3, 2),), ((3, 3),), ((3, 5),), ((7, 2),), ((7, 3),), ((3, 20),),
    ((7, 12),), ((3, 2), (7, 2)), ((2, 1), (3, 3)), ((2, 2), (3, 3)),
)


@st.composite
def shared_factor_window(draw):
    factors = draw(st.sampled_from(SHARED_FACTOR_MODULI))
    m = math.prod(p**k for p, k in factors)
    d = math.prod(p ** draw(st.integers(0, k)) for p, k in factors)
    n = draw(st.integers(1, 70))
    rest = draw(st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1))
    lead = draw(st.one_of(st.just(1), st.just(m - 1), st.integers(2, m - 1)))
    assume(math.gcd(lead, m) == 1)
    return TruncatedSeries(m, [lead] + [d * c for c in rest])


@settings(max_examples=300)
@given(shared_factor_window())
@example(TruncatedSeries(54, [5, 6, 12, 30, 48]))
@example(TruncatedSeries(441, [2, 21, 0, 42, 441 - 21]))
def test_geometric_sum_inverse_matches_the_full_correction(f):
    assert list(f.invert().coeffs) == invert_full_correction(f.coeffs, f.modulus)


@st.composite
def quotient_case(draw):
    # a denominator on either path of invert, and a numerator of any valuation and length
    den = draw(st.one_of(unit_window(), shared_factor_window()))
    m = den.modulus
    n = draw(st.integers(0, 75))
    entry = st.one_of(st.just(0), st.just(m - 1), st.integers(0, m - 1))
    coeffs = draw(st.lists(entry, min_size=n, max_size=n))
    num = TruncatedSeries(m, coeffs, draw(st.integers(-3, 3)))
    return num, den


@settings(max_examples=200)
@given(quotient_case())
def test_division_is_the_product_by_the_inverse(case):
    num, den = case
    quotient, reference = _divide(num, den), num.mul(den.invert())
    assert (quotient.valuation, quotient.coeffs, quotient.precision) == (
        reference.valuation, reference.coeffs, reference.precision
    )


def test_division_checks_its_rings():
    with pytest.raises(ModulusMismatchError):
        _divide(TS(5, [1, 2]), TS(7, [1, 2]))


#: (weight, modulus) at 4000 terms: E6 mod 243 squares u over Z/3, E4 mod 27
#: over Z/3, E6 mod 49 needs no product, E2 mod 81 stays on Newton
LONG_INVERSES = ((6, 243), (4, 27), (6, 49), (2, 81))


@pytest.mark.parametrize("weight, modulus", LONG_INVERSES)
def test_long_eisenstein_inverses_match_the_full_correction(weight, modulus):
    f = eisenstein_series(weight, modulus, 4000)
    assert list(f.invert().coeffs) == invert_full_correction(f.coeffs, modulus)


@pytest.mark.parametrize(
    "weight, modulus, products",
    [(6, 49, []), (6, 243, [3]), (4, 9, []), (2, 81, [81] * 24)],
)
def test_invert_takes_the_geometric_sum_exactly_when_u_cubed_vanishes(
    monkeypatch, weight, modulus, products
):
    # the modulus of each product: none for 2 - E6, one over Z/3 for
    # 1/E6 mod 243, and two per Newton doubling from 1 to 4000 terms
    f = eisenstein_series(weight, modulus, 4000)
    moduli = []

    def counting(a, b, m, terms=None):
        moduli.append(m)
        return _convolve(a, b, m, terms)

    monkeypatch.setattr(series_module, "_convolve", counting)
    f.invert()
    assert moduli == products


# ---------------------------------------------------------------------------
# invert / pow


def test_invert_geometric_series():
    f = TS(7, [1, -1, 0, 0])
    assert f.invert().coeffs == (1, 1, 1, 1)


def test_invert_one():
    one = TruncatedSeries.one(5, 6)
    assert one.invert() == one


def test_invert_e4_mod_9_kills_q2():
    e4 = TS(9, [1, 240, 2160])
    assert e4.invert().coefficient(2) == 0


def test_invert_requires_unit_constant():
    with pytest.raises(ValueError):
        TS(9, [3, 1]).invert()
    with pytest.raises(ValueError, match="no known coefficients"):
        TS(9, []).invert()


def test_invert_requires_valuation_zero():
    with pytest.raises(ValueError):
        TS(9, [1, 1], valuation=1).invert()


def test_pow_zero_is_one():
    f = TS(5, [2, 3, 1])
    assert f.pow(0) == TruncatedSeries.one(5, 3)
    with pytest.raises(ValueError, match="at least one known term"):
        TruncatedSeries.one(5, 0)


def test_pow_precision_gains_the_valuation():
    # known on [2, 7): f^e is known on [2e, 7 + 2(e - 1)) for e >= 1
    f = TS(7, [3, 1, 4, 1, 5], valuation=2)
    for e in range(1, 5):
        assert f.pow(e).precision == f.precision + (e - 1) * f.valuation
    # f^0 is the constant 1 on the window's length, N - v
    assert f.pow(0).precision == f.precision - f.valuation


def test_invert_times_series_is_one_at_odd_windows():
    rng = random.Random(70)
    for m in (2, 49, 3**20, 7**12):
        for n in range(1, 71, 2):
            coeffs = [rng.randrange(m) for _ in range(n)]
            coeffs[0] = rng.choice([c for c in (1, 2, 3, 5, m - 1) if math.gcd(c, m) == 1])
            f = TS(m, coeffs)
            inverse = f.invert()
            assert inverse.precision == n
            assert inverse * f == TruncatedSeries.one(m, n)
            assert list(inverse.coeffs) == invert_full_correction(f.coeffs, m)


def test_pow_negative_one_inverts():
    f = TS(7, [1, 3, 5, 2])
    assert (f.pow(-1) * f).agrees_with(TruncatedSeries.one(7, 4))


def test_pow_five_mod_five_is_frobenius():
    f = TS(5, [1, 1, 0, 0, 0, 0])
    assert f.pow(5).coeffs == (1, 0, 0, 0, 0, 1)


# ---------------------------------------------------------------------------
# theta / extraction / modulus change / shift


def test_theta_scales_by_exponent():
    f = TS(11, [1, 1, 4])
    assert f.theta().valuation == 1
    assert f.theta().coeffs == (1, 8)


def test_theta_kills_constants():
    assert TS(7, [4, 0, 0]).theta().is_zero()


def test_theta_handles_negative_exponents():
    f = TS(7, [1, 0, 1], valuation=-2)
    assert f.theta().coefficient(-2) == (-2 * 1) % 7


def test_theta_seven_iterations_equals_one_mod_7():
    rng = random.Random(7)
    f = TS(7, [rng.randrange(7) for _ in range(50)])
    once = f.theta()
    many = f
    for _ in range(7):
        many = many.theta()
    assert many == once


def test_extract_progression():
    f = TS(10, [1, 2, 3, 4])
    sub = f.extract_progression(1, 2)
    assert sub.coeffs == (2, 4)
    assert sub.precision == 2


def test_extract_progression_of_zero():
    assert TS(5, [0] * 6).extract_progression(2, 3).is_zero()


def test_extract_progression_validates_residue():
    with pytest.raises(ValueError):
        TS(5, [1, 2]).extract_progression(3, 2)
    with pytest.raises(ValueError, match="step must be positive"):
        TS(5, [1, 2]).extract_progression(0, 0)


def test_change_modulus_reduces():
    f = TS(81, [80, 3, 9])
    g = f.change_modulus(3)
    assert g.modulus == 3
    assert g.coeffs == (2, 0, 0)


def test_change_modulus_identity():
    f = TS(12, [5, 7])
    assert f.change_modulus(12) == f


def test_change_modulus_requires_divisor():
    with pytest.raises(ValueError):
        TS(12, [5]).change_modulus(5)


def test_str_forms():
    assert str(TruncatedSeries.one(7, 5)) == "1"
    assert str(TS(7, [0, 0])) == "0"
    assert str(TS(7, [1, 2, 1])) == "1 + 2*q + q^2"
    assert str(TS(7, [3], valuation=-2)) == "3*q^-2"
    assert repr(TS(7, [1, 2, 1])) == "TruncatedSeries(1 + 2*q + q^2 + O(q^3), mod 7)"
    # a shown series is cut to 60 characters
    long = TS(7, [1] * 30)
    assert repr(long) == f"TruncatedSeries({str(long)[:57]}... + O(q^30), mod 7)"


def str_reference(series):
    """The series printer written out for q alone, to check the shared one against."""
    terms = []
    for n, c in enumerate(series.coeffs, start=series.valuation):
        if c == 0:
            continue
        if n == 0:
            terms.append(str(c))
        else:
            mono = "q" if n == 1 else f"q^{n}"
            terms.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(terms) if terms else "0"


def test_str_matches_the_reference_printer():
    rng = random.Random(31)
    for modulus in (2, 3, 7, 10, 49, 1000, 10**6):
        for valuation in range(-3, 4):
            for length in (0, 1, 2, 5, 12):
                # zeros and ones often: zero windows, bare monomials, a bare 1
                draws = [[0] * length, [1] * length] + [
                    [rng.choice((0, 1, rng.randrange(modulus))) for _ in range(length)]
                    for _ in range(8)
                ]
                for coeffs in draws:
                    series = TS(modulus, coeffs, valuation)
                    assert str(series) == str_reference(series), (modulus, valuation, coeffs)


# ---------------------------------------------------------------------------
# algebraic laws on random inputs

moduli = st.sampled_from([2, 3, 5, 7, 11, 13, 49, 81, 243])
primes = st.sampled_from([5, 7, 11, 13])


@st.composite
def series(draw, modulus=None, max_len=20, laurent=True):
    m = modulus if modulus is not None else draw(moduli)
    n = draw(st.integers(min_value=1, max_value=max_len))
    coeffs = draw(st.lists(st.integers(min_value=0, max_value=m - 1), min_size=n, max_size=n))
    v = draw(st.integers(min_value=-4, max_value=4)) if laurent else 0
    return TruncatedSeries(m, coeffs, v)


@st.composite
def series_pair(draw, count=2, **kwargs):
    m = draw(moduli)
    return tuple(draw(series(modulus=m, **kwargs)) for _ in range(count))


@given(series_pair())
def test_mul_commutes(pair):
    f, g = pair
    assert f * g == g * f


@given(series_pair(count=3, max_len=12))
def test_mul_associates_on_the_common_window(triple):
    f, g, h = triple
    assert ((f * g) * h).agrees_with(f * (g * h))


@given(series_pair(count=3, max_len=12))
def test_mul_distributes_over_add(triple):
    f, g, h = triple
    assert (f * (g + h)).agrees_with(f * g + f * h)


@given(series_pair())
def test_theta_product_rule(pair):
    f, g = pair
    lhs = (f * g).theta()
    rhs = f.theta() * g + f * g.theta()
    assert lhs.agrees_with(rhs)


@given(series(laurent=False))
def test_invert_is_two_sided(f):
    unit = TruncatedSeries(f.modulus, (1,) + f.coeffs[1:])
    one = TruncatedSeries.one(f.modulus, len(unit.coeffs))
    assert (unit * unit.invert()).agrees_with(one)
    assert (unit.invert() * unit).agrees_with(one)


@settings(max_examples=60)
@given(primes, st.data())
def test_fermat_cycle(ell, data):
    f = data.draw(series(modulus=ell))
    once = f.theta()
    many = f
    for _ in range(ell):
        many = many.theta()
    assert many == once


@settings(max_examples=60)
@given(primes, st.data())
def test_frobenius_support(ell, data):
    f = data.draw(series(modulus=ell, max_len=10))
    power = f.pow(ell)
    for n in range(power.valuation, power.precision):
        if power.coefficient(n):
            assert n % ell == 0


def repeated_mul(f, exponent):
    # reference powering: f (or its inverse) times itself, |exponent| - 1
    # times; the zeroth power is the constant one, and a window with no
    # known term has no constant one and stays empty
    if exponent == 0:
        return TruncatedSeries.one(f.modulus, len(f.coeffs)) if f.coeffs else f
    base = f if exponent > 0 else f.invert()
    out = base
    for _ in range(abs(exponent) - 1):
        out = out * base
    return out


def completions(f, extra=8):
    # two longer series that agree with f on its whole window, one ending in
    # zeros and one in residues drawn from a generator seeded by f
    rng = random.Random(hash((f.modulus, f.valuation, f.coeffs)))
    for tail in ([0] * extra, [rng.randrange(f.modulus) for _ in range(extra)]):
        yield TruncatedSeries(f.modulus, f.coeffs + tuple(tail), f.valuation)


@settings(max_examples=100)
@given(series(max_len=25), st.sampled_from([-2, -1, 0, 1, 2, 3, 5]))
@example(TruncatedSeries(2, []), 0)
@example(TruncatedSeries(7, [0, 0], valuation=-3), 3)
@example(TruncatedSeries(49, [21], valuation=-1), 5)
@example(TruncatedSeries(4, [2, 3, 0, 1, 1], valuation=4), 5)
def test_pow_matches_repeated_mul(f, exponent):
    if exponent < 0:
        # a unit at valuation 0
        f = TruncatedSeries(f.modulus, (1,) + f.coeffs[1:])
    power = f.pow(exponent)
    reference = repeated_mul(f, exponent)
    # both are exact where known; when the leading coefficient is a zero
    # divisor, binary powering can keep more terms than repeated products
    assert power.agrees_with(reference)
    assert power.precision >= reference.precision
    if f.coeffs and math.gcd(f.coeffs[0], f.modulus) == 1:
        assert power == reference
        assert power.precision == reference.precision
    # every term pow keeps is the one any longer completion of f gives
    for longer in completions(f):
        assert power.agrees_with(repeated_mul(longer, exponent))


@given(series(max_len=30), st.integers(1, 7), st.data())
def test_extract_progression_matches_coefficient_lookups(f, step, data):
    residue = data.draw(st.integers(0, step - 1))
    # reference: one coefficient() call per exponent of the progression
    first = -((residue - f.valuation) // step)
    stop = -((residue - f.precision) // step)
    reference = TruncatedSeries(
        f.modulus, [f.coefficient(step * i + residue) for i in range(first, stop)], first
    )
    sub = f.extract_progression(residue, step)
    assert sub == reference
    assert sub.precision == reference.precision
