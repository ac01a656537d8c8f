"""Filtrations of level-one modular forms mod ell.

A reduction mod ell of a weight-k form is a polynomial F in Q, R over
F_ell at its tagged weight, in the monomial basis E4^a E6^b.  The
replacement lift E2^a E4^b E6^c (`eisenstein.lift_exponents`) has a
closed form, B~^a Q^b R^c (`_lift_polynomial`), and so has A~ below
(`compute_a_tilde`); the commands start from these.  A form given only
as a q-series is read off its expansion (`represent`): the basis
E4^a E6^b of a weight is triangular in q once rewritten in
z = 1 - E6^2/E4^3, so each coefficient is read in turn, with no linear
solve.  q-expansions are matched through the level one bound
floor(k/12), and two reductions of weight-k forms that agree on a(0),
..., a(floor(k/12)) agree identically, so the polynomial is a finite
certificate.  Everything after that is polynomial arithmetic.  By
Swinnerton-Dyer (LNM 350, 1973) the filtration is below k exactly when
A~ divides F, where A~ is the weight ell - 1 polynomial with value 1;
each exact division lowers the weight by ell - 1.  Theta acts on
polynomials by

    12 theta(F) = k B~ F - A~ D(F),  D = 4R d/dQ + 6Q^2 d/dR,

with B~ the weight ell + 1 polynomial with value E2 (Ramanujan's
identities 12 theta F = k E2 F - D(F), made isobaric by the factor A~).
At F = A~, of value 1 and weight -1 mod ell, they give D(A~) the value
-E2; the monomials of one weight are independent mod ell >= 5, so
B~ = -D(A~) as polynomials (`_b_tilde`, formed once per prime).

`IsobaricPolynomial` has one format, dense: a weight-k polynomial is
the tuple of its coefficients on Q^(a0 - 3j) R^(b0 + 2j), j = 0, 1, ...,
with b0 in {0, 1} fixed by k mod 4 (see `dense_layout`).  A product is
one Kronecker product of coefficient lists (`series._convolve`), and so
is theta: F and D(F) share one list, in alternate slots.  A~ vanishes
at the supersingular points, so where its x-part has a root x0 in
F_ell, a polynomial whose x-part is nonzero at x0 is not divisible by
A~: one evaluation rules the division out.  Otherwise, since R^2 never
divides A~, the x-part of each power A~^j has a unit constant term, and
division by A~^j is one product by its power-series inverse, cached per
prime, through the polynomial's last coefficient; the division is exact
when every coefficient that falls outside the quotient's layout
vanishes.  The number of divisions is found by galloping over
j = 1, 2, 4, ..., so a fall by k costs O(log k) products.
"""

from __future__ import annotations

import logging
import time
from collections import namedtuple
from functools import lru_cache
from typing import Sequence

from .eisenstein import QuotientSpec, eisenstein_power_product, lift_exponents, require_lift
from .primes import require_prime
from .series import PrecisionError, TruncatedSeries, _convolve, _divide, _format_sum, _newton

log = logging.getLogger(__name__)


def sturm(weight: int) -> int:
    """Index of the last coefficient needed to pin down a weight-`weight` form."""
    if weight < 0:
        raise ValueError(f"weights are nonnegative, got {weight}")
    return weight // 12


def dense_layout(weight: int) -> tuple[int, int, int]:
    """(a0, b0, length) of the dense coefficient list of a weight-`weight` polynomial.

    Entry j is the coefficient of Q^(a0 - 3j) R^(b0 + 2j); b0 is 1 exactly
    when weight = 2 mod 4, and length counts the monomials of the weight.
    """
    if weight < 0 or weight % 2:
        raise ValueError(f"weight must be even and nonnegative, got {weight}")
    b0 = weight // 2 % 2
    a0 = (weight - 6 * b0) // 4
    return a0, b0, a0 // 3 + 1 if a0 >= 0 else 0


def monomial_exponents(weight: int) -> tuple[tuple[int, int], ...]:
    """All (a, b) with 4a + 6b = weight and a, b >= 0, in descending-a order."""
    a0, b0, length = dense_layout(weight)
    return tuple((a0 - 3 * j, b0 + 2 * j) for j in range(length))


@lru_cache(maxsize=None)
def monomial_basis(
    weight: int, ell: int, terms: int
) -> tuple[tuple[tuple[int, int], TruncatedSeries], ...]:
    """The series E4^a * E6^b mod ell for each (a, b) with 4a + 6b = weight.

    These expansions are a basis of the reductions of weight-`weight`
    forms.  On the dense layout entry j is entry 0 times x^j, with
    x = E6^2 / E4^3; every factor has constant term 1, so each entry is
    exact mod ell.  Cached; all values are immutable.  `represent` does
    not read it; the tests compare with it.
    """
    pairs = monomial_exponents(weight)
    if not pairs:
        return ()
    x = eisenstein_power_product(0, -3, 2, ell, terms)
    series = [eisenstein_power_product(0, *pairs[0], ell, terms)]
    for _ in pairs[1:]:
        series.append(series[-1].mul(x))
    return tuple(zip(pairs, series))


class ModularFormModEll(namedtuple("ModularFormModEll", "prime weight series")):
    """A q-series known to be the reduction of a weight-`weight` form mod `prime`."""

    __slots__ = ()

    def __new__(cls, prime: int, weight: int, series: TruncatedSeries):
        require_prime(prime)
        dense_layout(weight)  # the weight is even and nonnegative
        if series.modulus != prime:
            raise ValueError("series modulus must equal the prime")
        if series.valuation < 0:
            raise ValueError("modular form reductions have no negative exponents")
        return super().__new__(cls, prime, weight, series)

    # `_replace` builds through `_make`, which would skip the checks above
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_lift(cls, lifted: "ModularFormModEll") -> "ModularFormModEll":
        return cls(lifted.prime, lifted.weight, lifted.series)

    @property
    def precision(self) -> int:
        return self.series.precision


class IsobaricPolynomial(namedtuple("IsobaricPolynomial", "prime weight coeffs")):
    """A weight-homogeneous polynomial in Q (weight 4) and R (weight 6) over F_ell.

    coeffs holds one canonical residue per monomial of the weight, on its
    dense layout: entry j is the coefficient of Q^(a0 - 3j) R^(b0 + 2j),
    see `dense_layout`.
    """

    __slots__ = ()

    def __new__(cls, prime: int, weight: int, coeffs: Sequence[int]):
        require_prime(prime)
        coeffs = tuple(coeffs)
        length = dense_layout(weight)[2]
        if len(coeffs) != length:
            raise ValueError(
                f"weight {weight} has {length} monomials, got {len(coeffs)} coefficients"
            )
        if not all(isinstance(c, int) and 0 <= c < prime for c in coeffs):
            raise ValueError("coefficients must be canonical residues")
        return super().__new__(cls, prime, weight, coeffs)

    # `_replace` builds through `_make`, which would skip the checks above
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def _of_residues(
        cls, prime: int, weight: int, coeffs: tuple[int, ...]
    ) -> "IsobaricPolynomial":
        """The polynomial of canonical residues on the weight's layout, not checked again."""
        return tuple.__new__(cls, (prime, weight, coeffs))

    @property
    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """(a, b, coefficient) of each nonzero monomial Q^a R^b, in descending-a order."""
        pairs = monomial_exponents(self.weight)
        return tuple((a, b, c) for (a, b), c in zip(pairs, self.coeffs) if c)

    def theta(self) -> "IsobaricPolynomial":
        """The polynomial of the theta image, of weight weight + prime + 1.

        theta(F) = B' F + A' D(F), with B' = (k/12) B~ and A' = -A~/12,
        B~ = -D(A~) (see the module docstring), is one Kronecker product:
        F and D(F) fill the even and odd slots of one list, A' and B' the
        even and odd slots of another, and the odd slots of their product
        are theta(F).  The layout shift of the product by B~ or by A~
        (`dense_product`) moves the slots of F or of D(F) up by one pair.
        """
        ell, weight, coeffs = self.prime, self.weight, self.coeffs
        d = _derivative(ell, weight, coeffs)
        f_shift = dense_layout(weight)[1] & dense_layout(ell + 1)[1]
        d_shift = dense_layout(weight + 2)[1] & dense_layout(ell - 1)[1]
        u = [0] * (2 * max(f_shift + len(coeffs), d_shift + len(d)))
        u[2 * f_shift : 2 * (f_shift + len(coeffs)) : 2] = coeffs
        u[2 * d_shift + 1 : 2 * (d_shift + len(d)) : 2] = d
        factors, b12 = _theta_factors(ell)
        v = list(factors)
        v[1 : 2 * len(b12) : 2] = [weight * x % ell for x in b12]
        length = dense_layout(weight + ell + 1)[2]
        image = _convolve(u, v, ell, 2 * length)[1::2] + [0] * length
        return IsobaricPolynomial._of_residues(ell, weight + ell + 1, tuple(image[:length]))

    def strip_a_tilde(self) -> tuple["IsobaricPolynomial", int]:
        """Divide by A~ while it divides exactly; the quotient and the number of divisions.

        On its dense layout a polynomial is Q^a0 R^b0 times a polynomial f
        in x = R^2 / Q^3, and A~ is Q^a R^b g(x).  If A~ divides, f is
        x^e g h with e in {0, 1} (R R = Q^3 x), so f vanishes at every root
        x0 of g in F_ell (`_a_tilde_root`): a nonzero f(x0) proves that A~
        does not divide, at the cost of one evaluation.  Past that test
        the number of divisions is found by galloping: A~^j is tried for
        j = 1, 2, 4, ... while it divides, then for the halves of the last
        j down to 1, the evaluation first each time, so a fall by k takes
        at most 2 k.bit_length() + 1 trials (`_a_tilde_power_quotient`).
        By Swinnerton-Dyer, for the polynomial of a nonzero form at any
        weight the quotient sits at the form's filtration.
        """
        ell = self.prime
        root = _a_tilde_root(ell)
        poly, count, i, rising = self, 0, 0, True
        while i >= 0 and (root is None or not _horner(poly.coeffs, root, ell)):
            quotient = _a_tilde_power_quotient(poly, i)
            if quotient is not None:
                poly, count = quotient, count + (1 << i)
            rising = rising and quotient is not None
            i += 1 if rising else -1
        return poly, count

    def __str__(self):
        return _format_sum(self.terms, "QR")


def represent(form: ModularFormModEll, weight: int) -> IsobaricPolynomial | None:
    """Write the form as a weight-`weight` polynomial in E4, E6 mod ell, if possible.

    On the weight's dense layout (a0, b0, L) the polynomial is
    E4^a0 E6^b0 f(x), x = E6^2/E4^3, with f of degree below L.  Writing
    f(1 - z) = sum e_m z^m turns the basis triangular: z = 1 - x =
    1728 Delta / E4^3 has valuation 1 and leading coefficient 1728, a
    unit mod ell >= 5.  So with G = F / (E4^a0 E6^b0), e_m is the
    constant term of (G - e_0 - ... - e_(m-1) z^(m-1)) / z^m, one
    division by z per step, and Horner in 1 - x gives f's coefficients.
    Everything is matched through the Sturm index s of the larger
    weight.  Returns None when what is left after L steps is nonzero
    through s, which certifies that no weight-`weight` form is congruent
    to the given one.  The requested weight must agree with the form's
    weight mod ell - 1, and the form must carry enough precision for the
    larger of the two weights; both are hard preconditions.
    """
    ell = form.prime
    a0, b0, length = dense_layout(weight)
    if (form.weight - weight) % (ell - 1):
        raise ValueError(
            f"weight {weight} is not congruent to {form.weight} mod {ell - 1}"
        )
    s = sturm(max(weight, form.weight))
    if form.precision < s + 1:
        raise PrecisionError(
            f"representing a weight-{form.weight} form at weight {weight} "
            f"needs precision {s + 1}, have {form.precision}"
        )
    g = _divide(form.series, eisenstein_power_product(0, a0, b0, ell, s + 1))
    h = [g.coefficient(n) for n in range(s + 1)]
    # w = q / z = q E4^3 / (E4^3 - E6^2), through q^s: one term more of each
    # factor keeps it nonempty at s = 0
    cube = eisenstein_power_product(0, 3, 0, ell, s + 2)
    square = eisenstein_power_product(0, 0, 2, ell, s + 2)
    delta = [(u - v) % ell for u, v in zip(cube.coeffs[1:], square.coeffs[1:])]
    w = _divide(cube, TruncatedSeries._of_residues(ell, delta)).coeffs
    e = []
    for _ in range(length):
        # h is (G - e_0 - ... - e_(m-1) z^(m-1)) / z^m through q^(s-m)
        e.append(h[0])
        h = _convolve(h[1:], w, ell, len(h) - 1)
    if any(h):
        return None
    coeffs = []
    for em in reversed(e):
        # Horner in 1 - x: coeffs <- coeffs * (1 - x) + e_m
        coeffs = [(u - v) % ell for u, v in zip([*coeffs, 0], [0, *coeffs])]
        coeffs[0] = (coeffs[0] + em) % ell
    return IsobaricPolynomial._of_residues(ell, weight, tuple(coeffs))


def dense_product(
    ell: int, weight1: int, f: Sequence[int], weight2: int, g: Sequence[int]
) -> list[int]:
    """Dense coefficients mod ell of the product of dense polynomials of the two weights.

    The entries of f and g must be canonical residues (see `_convolve`).
    """
    # R^2 = Q^3 * (R^2 / Q^3): two odd R-exponents move every index up by one
    shift = dense_layout(weight1)[1] & dense_layout(weight2)[1]
    out = [0] * shift + _convolve(f, g, ell)
    return out + [0] * (dense_layout(weight1 + weight2)[2] - len(out))


def _derivative(ell: int, weight: int, coeffs: Sequence[int]) -> list[int]:
    """Dense coefficients mod ell of D(F) = 4R dF/dQ + 6Q^2 dF/dR, of weight weight + 2."""
    a0, b0, _ = dense_layout(weight)
    length = dense_layout(weight + 2)[2]
    # entry j of D takes Q^(a0 - 3i) R^(b0 + 2i) from i = j - b0 (4R dF/dQ,
    # times 4(a0 - 3i)) and i = j + 1 - b0 (6Q^2 dF/dR, times 6(b0 + 2i)),
    # two progressions in j; h[i + 1] is coefficient i, 0 outside
    h = [0, *coeffs, 0]
    top, low = 4 * (a0 + 3 * b0), 6 * (2 - b0)
    return [
        (x * s + y * t) % ell
        for x, s, y, t in zip(
            h[1 - b0 :], range(top, top - 12 * length, -12),
            h[2 - b0 :], range(low, low + 12 * length, 12),
        )
    ]


def filtration_polynomial(
    form: ModularFormModEll | IsobaricPolynomial,
) -> tuple[IsobaricPolynomial, int]:
    """The form's polynomial at its filtration, and the divisions by A~ that reached it.

    A form given as a q-series is read off its expansion at its tagged
    weight (`represent`); a polynomial is taken as it is.  The quotient
    by the highest power of A~ dividing that polynomial sits at the least
    weight of a congruent form.  Undefined for the zero reduction, that is the zero
    polynomial: the basis is independent mod ell >= 5.
    """
    poly = represent(form, form.weight) if isinstance(form, ModularFormModEll) else form
    if poly is None:
        # a reduction of a form always has a polynomial at its own weight
        raise RuntimeError(
            f"series tagged weight {form.weight} mod {form.prime} matches no modular form; "
            "the weight tag is wrong or the input is corrupt"
        )
    if not any(poly.coeffs):
        raise ValueError("filtration is undefined for the zero reduction")
    return poly.strip_a_tilde()


def filtration(form: ModularFormModEll | IsobaricPolynomial) -> int:
    """The least weight of a modular form congruent to the given reduction.

    Takes the form's polynomial at its tagged weight (read off the
    expansion of a q-series) and divides it by A~ while it divides exactly
    (Swinnerton-Dyer); each division lowers the weight by ell - 1.
    Undefined for the zero reduction.
    """
    start = time.perf_counter()
    poly, divisions = filtration_polynomial(form)
    log.info(
        "filtration mod %d: tagged weight %d, filtration %d, %d divisions by A~, %.4f s",
        form.prime, form.weight, poly.weight, divisions, time.perf_counter() - start,
    )
    return poly.weight


@lru_cache(maxsize=None)
def compute_a_tilde(ell: int) -> IsobaricPolynomial:
    """The weight-(ell-1) polynomial in Q, R whose value at (E4, E6) is 1 mod ell.

    It writes E_{ell-1}, which is 1 mod ell, in closed form: on its dense
    layout A~ is Q^a0 R^b0 g(x), x = R^2/Q^3, and g is the truncation of
    the hypergeometric series 2F1(a, b; c; x) mod ell, with (a, b, c) =
    (1/12, 5/12, 1/2) when b0 = 0 and (7/12, 11/12, 3/2) when b0 = 1
    (Kaneko and Zagier's form of the supersingular polynomial, 1998).
    Every monomial has constant term 1, so the coefficients are scaled to
    sum to the value 1.
    """
    require_prime(ell)
    _, b0, length = dense_layout(ell - 1)
    inv12 = pow(12, -1, ell)
    a, b, c = (1 + 6 * b0) * inv12, (5 + 6 * b0) * inv12, (1 + 2 * b0) * pow(2, -1, ell)
    # (a)_j (b)_j / ((c)_j j!) by the ratio of consecutive terms
    g = [1]
    for j in range(1, length):
        g.append(g[-1] * (a + j - 1) * (b + j - 1) * pow((c + j - 1) * j, -1, ell) % ell)
    scale = pow(sum(g), -1, ell)
    return IsobaricPolynomial._of_residues(ell, ell - 1, tuple(x * scale % ell for x in g))


@lru_cache(maxsize=None)
def _b_tilde(ell: int) -> tuple[int, ...]:
    """Dense coefficients of B~ = -D(A~), the weight ell + 1 polynomial of value E2."""
    return tuple(-x % ell for x in _derivative(ell, ell - 1, compute_a_tilde(ell).coeffs))


@lru_cache(maxsize=None)
def _theta_factors(ell: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """-A~/12 in the even slots of a list whose odd slots take (k/12) B~, and B~/12."""
    inv12 = pow(12, -1, ell)
    a = [-x * inv12 % ell for x in compute_a_tilde(ell).coeffs]
    b = tuple(x * inv12 % ell for x in _b_tilde(ell))
    slots = [0] * (2 * max(len(a), len(b)))
    slots[: 2 * len(a) : 2] = a
    return tuple(slots), b


@lru_cache(maxsize=None)
def _a_tilde_power(ell: int, i: int) -> tuple[int, ...]:
    """Dense coefficients of A~^(2^i), of weight 2^i (ell - 1), squared up from A~."""
    if not i:
        return compute_a_tilde(ell).coeffs
    half, weight = _a_tilde_power(ell, i - 1), (ell - 1) << (i - 1)
    return tuple(dense_product(ell, weight, half, weight, half))


@lru_cache(maxsize=None)
def _a_tilde_inverse(ell: int, i: int, n: int) -> tuple[int, ...]:
    """The first n coefficients of the power series 1 / g^(2^i), g the x-part of A~.

    n is a power of two, so that one inverse serves every shorter length;
    each is the square of the one before, from Newton's inverse of g.
    """
    if i:
        half = _a_tilde_inverse(ell, i - 1, n)
        return tuple(_convolve(half, half, ell, n))
    g = compute_a_tilde(ell).coeffs
    return tuple(_newton(g + (0,) * n, pow(g[0], -1, ell), ell, n))


def _a_tilde_power_quotient(poly: IsobaricPolynomial, i: int) -> IsobaricPolynomial | None:
    """poly / A~^j for j = 2^i, or None unless A~^j divides poly exactly.

    On its layout A~^j is g^j after leading zeros, which appear when A~
    has an odd R-exponent, g being A~'s x-part.  So when A~^j divides
    poly, of x-part f, f is x^e g^j h, with e read off the three layouts'
    R-exponents.  g^j has a unit constant term (R^2 never divides A~), so
    h is f / x^e times the power series 1 / g^j, through f's last
    coefficient; A~^j divides exactly when f's entries below x^e and
    every entry of that product past the quotient weight's layout vanish.
    """
    ell, j = poly.prime, 1 << i
    weight = poly.weight - j * (ell - 1)
    if weight < 0:
        return None
    _, b0, length = dense_layout(weight)
    e = (j * dense_layout(ell - 1)[1] + b0 - dense_layout(poly.weight)[1]) // 2
    tail = poly.coeffs[e:]
    inverse = _a_tilde_inverse(ell, i, 1 << (len(tail) - 1).bit_length())
    quotient = _convolve(tail, inverse, ell, len(tail)) + [0] * length
    if any(poly.coeffs[:e]) or any(quotient[length:]):
        return None
    return IsobaricPolynomial._of_residues(ell, weight, tuple(quotient[:length]))


@lru_cache(maxsize=None)
def _a_tilde_root(ell: int) -> int | None:
    """Some x0 in 1..ell-1 with g(x0) = 0 mod ell, g the x-part of A~; None if g has none.

    g(x) = sum d_j x^j for A~'s dense coefficients d_j.  Its roots are
    x = 1 - 1728/j at the supersingular j other than 0 and 1728 (Kaneko
    and Zagier), which need not lie in F_ell: one does at every prime
    13 <= ell < 400, none at 5, 7 and 11.  0 is no root, as d_0 is a
    unit, and neither is 1, as the d_j sum to 1.
    """
    d = compute_a_tilde(ell).coeffs
    return next((x for x in range(2, ell) if not _horner(d, x, ell)), None)


def _horner(coeffs: Sequence[int], x: int, ell: int) -> int:
    """sum coeffs[j] x^j mod ell."""
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) % ell
    return value


def _lift_polynomial(spec: QuotientSpec, ell: int) -> IsobaricPolynomial:
    """The replacement lift's polynomial B~^a Q^b R^c at the lift weight.

    (a, b, c) are the lift's exponents (`eisenstein.lift_exponents`).
    E4 and E6 are Q and R, and E2 is B~ mod ell, so this is the polynomial
    that represents `replacement_lift(spec, ell, ...)` at its weight,
    built with no q-expansion: one monomial and a products with B~.
    """
    require_lift(spec, ell)
    a, b, c = lift_exponents(spec, ell)
    weight = 4 * b + 6 * c
    _, b0, length = dense_layout(weight)
    coeffs = [0] * length
    coeffs[(c - b0) // 2] = 1
    for _ in range(a):
        coeffs = dense_product(ell, weight, coeffs, ell + 1, _b_tilde(ell))
        weight += ell + 1
    return IsobaricPolynomial._of_residues(ell, weight, tuple(coeffs))
