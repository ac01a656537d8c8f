"""q-expansions of the level-one Eisenstein series E2, E4, E6 and their quotients.

The three series are 1 + C_k * sum sigma_{k-1}(n) q^n with the integer
constants C_2 = -24, C_4 = 240, C_6 = -504.  General-weight Eisenstein
series enter only through E_{ell-1}, which reduces to 1 mod a prime ell:
`compute_a_tilde` in `eiscong.filtration` writes it as a polynomial in
E4, E6 in closed form, so neither its q-expansion nor a Bernoulli number
is ever computed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import compress, repeat
from operator import mul

from .primes import require_prime
from .series import TruncatedSeries, _divide

#: the exact integers -2k/B_k for k = 2, 4, 6
WEIGHT_CONSTANTS = {2: -24, 4: 240, 6: -504}


@lru_cache(maxsize=None)
def _sigma_table(power: int, terms: int) -> tuple[int, ...]:
    """sigma_power(n) for 1 <= n < terms; shared across moduli.

    A multiplicative sieve, O(terms log log terms) slice operations: with
    the primes below terms marked in a bytearray, each prime p multiplies
    sigma(p) = 1 + p^power into every multiple of p, and each higher
    power p^e swaps sigma(p^(e-1)) for sigma(p^e) = sigma(p^(e-1)) * p^power + 1
    in every multiple of p^e.  Every division is exact.
    """
    table = [1] * terms
    prime = bytearray(b"\0\0" + b"\1" * (terms - 2))
    for p in range(2, math.isqrt(terms) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, terms, p)))
    for p in compress(range(terms), prime):
        step = p**power
        sigma = 1 + step
        table[p::p] = map(mul, table[p::p], repeat(sigma))
        q = p * p
        while q < terms:
            prev, sigma = sigma, sigma * step + 1
            table[q::q] = [x // prev * sigma for x in table[q::q]]
            q *= p
    return tuple(table[1:])


@lru_cache(maxsize=None)
def eisenstein_series(weight: int, modulus: int, terms: int) -> TruncatedSeries:
    """E_weight mod modulus to the given number of terms, weight in {2, 4, 6}."""
    if weight not in WEIGHT_CONSTANTS:
        raise ValueError(f"only weights 2, 4 and 6 have stored expansions, got {weight}")
    if terms < 1:
        raise ValueError("need at least one term")
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    c = WEIGHT_CONSTANTS[weight]
    # one sieve per power of two serves every shorter length
    sigmas = _sigma_table(weight - 1, 1 << (terms - 1).bit_length())[: terms - 1]
    vals = [1] + [(c * s) % modulus for s in sigmas]
    return TruncatedSeries._of_residues(modulus, vals)


class QuotientSpec(namedtuple("QuotientSpec", "r s t")):
    """Exponents (r, s, t) of the quotient E2^r * E4^s * E6^t, with r >= 0."""

    __slots__ = ()

    def __new__(cls, r: int, s: int, t: int):
        if r < 0:
            raise ValueError(f"the E2 exponent must be nonnegative, got {r}")
        return super().__new__(cls, r, s, t)

    # `_replace` builds through `_make`, which would skip the check above
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __str__(self):
        return f"E2^{self.r} * E4^{self.s} * E6^{self.t}"


def eisenstein_power_product(
    r: int, s: int, t: int, modulus: int, terms: int
) -> TruncatedSeries:
    """E2^r * E4^s * E6^t mod modulus; exponents may be negative.

    The factors with positive exponents multiply into a numerator, those
    with negative ones into a denominator, and the quotient is one
    division (`eiscong.series._divide`), which folds the product by the
    inverse into Newton's last step.  All constant terms are 1, so the
    denominator always inverts cleanly, including modulo prime powers.
    Where the modulus divides the cube of the gcd of the modulus and the
    denominator's coefficients from q^1 on (a power of E4 mod 9 and 27,
    of E6 mod 27, 49 and 243), it is 1 - u with u^3 = 0, and the quotient
    is the numerator times the exact sum 1 + u + u^2 (see
    `TruncatedSeries.invert`).  Only E2^0 * E4^0 * E6^0 is the constant one.
    """
    num = den = None
    for weight, exponent in ((2, r), (4, s), (6, t)):
        if exponent:
            factor = eisenstein_series(weight, modulus, terms).pow(abs(exponent))
            if exponent > 0:
                num = factor if num is None else num.mul(factor)
            else:
                den = factor if den is None else den.mul(factor)
    if den is not None:
        return den.invert() if num is None else _divide(num, den)
    return TruncatedSeries.one(modulus, terms) if num is None else num


def quotient_series(spec: QuotientSpec, modulus: int, terms: int) -> TruncatedSeries:
    """The q-expansion of the quotient, exact mod modulus to the given terms."""
    return eisenstein_power_product(*spec, modulus, terms)


@lru_cache(maxsize=None)
def _log_derivative(weight: int, terms: int) -> tuple[int, ...]:
    """theta E_weight / E_weight over Z to the given number of terms.

    With E_weight = sum c(n) q^n and c(0) = 1, the series D with
    D * E_weight = theta E_weight has D(0) = 0 and
    D(n) = n c(n) - sum_{0<j<n} c(j) D(n-j).
    """
    c = [1, *(WEIGHT_CONSTANTS[weight] * s for s in _sigma_table(weight - 1, terms))]
    d = [0]
    for n in range(1, terms):
        d.append(n * c[n] - sum(map(mul, c[1:n], reversed(d[1:]))))
    return tuple(d)


def quotient_prefix(r: int, s: int, t: int, terms: int) -> tuple[int, ...]:
    """The exact integer coefficients of E2^r * E4^s * E6^t up to q^(terms-1).

    Exponents may be negative.  The product F has logarithmic derivative
    theta F / F = b = r D_2 + s D_4 + t D_6, each D_k = theta E_k / E_k
    (`_log_derivative`), so theta F = F * b gives a(0) = 1 and
    n a(n) = sum_{j=1..n} b(j) a(n-j).  Every a(n) is an integer, since
    each E_k has integer coefficients and constant term 1, so every
    division is exact; an inexact one raises ArithmeticError.  Reduced
    mod any m, the prefix equals `eisenstein_power_product(r, s, t, m, terms)`.
    """
    if terms < 1:
        raise ValueError("need at least one term")
    logs = [_log_derivative(k, terms) for k in (2, 4, 6)]
    b = [r * x + s * y + t * z for x, y, z in zip(*logs)]
    a = [1]
    for n in range(1, terms):
        coeff, inexact = divmod(sum(map(mul, b[1 : n + 1], reversed(a))), n)
        if inexact:
            raise ArithmeticError(
                f"q^{n} coefficient of E2^{r} * E4^{s} * E6^{t} is no integer"
            )
        a.append(coeff)
    return tuple(a)


def quotient_q_coefficient(r: int, s: int, t: int) -> int:
    """The q coefficient of E2^r * E4^s * E6^t, r*C_2 + s*C_4 + t*C_6: `quotient_prefix`'s a(1)."""
    return quotient_prefix(r, s, t, 2)[1]


def quotient_q2_coefficient(r: int, s: int, t: int) -> int:
    """The q^2 coefficient of E2^r * E4^s * E6^t: a(2) of `quotient_prefix`."""
    return quotient_prefix(r, s, t, 3)[2]


def lift_exponents(spec: QuotientSpec, ell: int) -> tuple[int, int, int]:
    """Exponents (a, b, c) of the replacement lift E2^a * E4^b * E6^c mod ell.

    The one statement of the lift's shape: (r, ell + s, ell + t).  Each
    exponent differs from the quotient's by a multiple of ell, so by
    Frobenius the factor is a unit series in q^ell.  Every other reader
    of the lift derives from these exponents.
    """
    return spec.r, ell + spec.s, ell + spec.t


def lift_weight(spec: QuotientSpec, ell: int) -> int:
    """Weight of the replacement lift: a*(ell+1) + 4b + 6c, as E2 reduces to E_(ell+1)."""
    a, b, c = lift_exponents(spec, ell)
    return a * (ell + 1) + 4 * b + 6 * c


def admits_lift(spec: QuotientSpec, ell: int) -> bool:
    """Whether every exponent of the lift is nonnegative."""
    return min(lift_exponents(spec, ell)) >= 0


def require_lift(spec: QuotientSpec, ell: int) -> None:
    """Raise ValueError unless ell is a prime at least 5 at which the lift exists."""
    require_prime(ell)
    if not admits_lift(spec, ell):
        raise ValueError(
            f"ell={ell} is smaller than |s|={abs(spec.s)} or |t|={abs(spec.t)}; "
            "no lift of this shape exists (the prime is below the size bound)"
        )


def replacement_lift(spec: QuotientSpec, ell: int, terms: int) -> "ModularFormModEll":
    """Replace the quotient by its lift E2^a * E4^b * E6^c mod ell (`lift_exponents`).

    This multiplies by a unit series in q^ell, which preserves every
    simple congruence mod ell, and lands in the space of modular forms
    of weight `lift_weight`.  Since E2 reduces to E_{ell+1}, the result
    really is the reduction of a modular form.
    """
    # imported here: filtration imports this module
    from .filtration import ModularFormModEll

    require_lift(spec, ell)
    series = eisenstein_power_product(*lift_exponents(spec, ell), ell, terms)
    return ModularFormModEll(ell, lift_weight(spec, ell), series)
