"""q-expansions of the level-one Eisenstein series E2, E4, E6 and their quotients.

The three series are 1 + C_k * sum sigma_{k-1}(n) q^n with the integer
constants C_2 = -24, C_4 = 240, C_6 = -504.  General-weight Eisenstein
series enter only through their classical reductions mod a prime ell:
E_{ell-1} reduces to 1 and E_{ell+1} reduces to E2, so no Bernoulli
number is ever computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .primes import require_prime
from .series import TruncatedSeries

#: the exact integers -2k/B_k for k = 2, 4, 6
WEIGHT_CONSTANTS = {2: -24, 4: 240, 6: -504}


def sigma(power: int, n: int) -> int:
    """Sum of the power-th powers of the divisors of n, as an exact integer."""
    if n < 1:
        raise ValueError(f"divisor sums need n >= 1, got {n}")
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d**power
            e = n // d
            if e != d:
                total += e**power
    return total


@lru_cache(maxsize=None)
def _sigma_table(power: int, terms: int) -> tuple[int, ...]:
    # sigma(power, n) for 1 <= n < terms; shared across moduli.  A divisor
    # sieve, O(terms log terms) in all: each n starts at n^power, and each
    # d < terms/2 adds d^power to its proper multiples
    table = [n**power for n in range(terms)]
    for d in range(1, (terms + 1) // 2):
        d_power = d**power
        table[2 * d :: d] = [x + d_power for x in table[2 * d :: d]]
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


def eisenstein_reduced(weight_offset: int, ell: int, terms: int) -> TruncatedSeries:
    """Reduction mod ell of E_{ell-1} (offset -1) or E_{ell+1} (offset +1).

    These are the classical identities E_{ell-1} = 1 and E_{ell+1} = E2
    in characteristic ell.
    """
    if weight_offset not in (-1, 1):
        raise ValueError("weight_offset must be -1 or +1")
    require_prime(ell)
    if weight_offset == -1:
        return TruncatedSeries.one(ell, terms)
    return eisenstein_series(2, ell, terms)


@dataclass(frozen=True)
class QuotientSpec:
    """Exponents (r, s, t) of the quotient E2^r * E4^s * E6^t, with r >= 0."""

    r: int
    s: int
    t: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"the E2 exponent must be nonnegative, got {self.r}")

    def __str__(self):
        return f"E2^{self.r} * E4^{self.s} * E6^{self.t}"


def eisenstein_power_product(
    r: int, s: int, t: int, modulus: int, terms: int
) -> TruncatedSeries:
    """E2^r * E4^s * E6^t mod modulus; exponents may be negative.

    All constant terms are 1, so negative powers always invert cleanly,
    including modulo prime powers.  The product starts from the first
    factor with a nonzero exponent; only E2^0 * E4^0 * E6^0 is the
    constant one.
    """
    out = None
    for weight, exponent in ((2, r), (4, s), (6, t)):
        if exponent:
            factor = eisenstein_series(weight, modulus, terms).pow(exponent)
            out = factor if out is None else out.mul(factor)
    return TruncatedSeries.one(modulus, terms) if out is None else out


def quotient_series(spec: QuotientSpec, modulus: int, terms: int) -> TruncatedSeries:
    """The q-expansion of the quotient, exact mod modulus to the given terms."""
    return eisenstein_power_product(spec.r, spec.s, spec.t, modulus, terms)


def quotient_q_coefficient(r: int, s: int, t: int) -> int:
    """Closed form of the q coefficient of E2^r * E4^s * E6^t."""
    return -24 * r + 240 * s - 504 * t


def quotient_q2_coefficient(r: int, s: int, t: int) -> int:
    """Closed form of the q^2 coefficient of E2^r * E4^s * E6^t."""
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


def lift_weight(spec: QuotientSpec, ell: int) -> int:
    """Weight of the replacement lift: (r+10)*ell + (r + 4s + 6t)."""
    return (spec.r + 10) * ell + spec.r + 4 * spec.s + 6 * spec.t


def admits_lift(spec: QuotientSpec, ell: int) -> bool:
    """Whether the lift's exponents ell + s and ell + t are both nonnegative."""
    return ell + spec.s >= 0 and ell + spec.t >= 0


@dataclass(frozen=True)
class LiftedForm:
    """A genuine level-one modular form mod ell sharing the quotient's congruences."""

    spec: QuotientSpec
    prime: int
    weight: int
    series: TruncatedSeries

    def __post_init__(self):
        if self.weight != lift_weight(self.spec, self.prime):
            raise ValueError("weight does not match the lift of the quotient")
        if not admits_lift(self.spec, self.prime):
            raise ValueError("lift exponents must be nonnegative")


def replacement_lift(spec: QuotientSpec, ell: int, terms: int) -> LiftedForm:
    """Replace the quotient by E2^r * E4^(ell+s) * E6^(ell+t) mod ell.

    This multiplies by the ell-th power of the unit series E4*E6, which
    preserves every simple congruence mod ell, and lands in the space of
    weight (r+10)*ell + (r+4s+6t) modular forms.  Since E2 reduces to
    E_{ell+1}, the result really is the reduction of a modular form.
    """
    require_prime(ell)
    if not admits_lift(spec, ell):
        raise ValueError(
            f"ell={ell} is smaller than |s|={abs(spec.s)} or |t|={abs(spec.t)}; "
            "no lift of this shape exists (the prime is below the size bound)"
        )
    series = eisenstein_power_product(spec.r, ell + spec.s, ell + spec.t, ell, terms)
    return LiftedForm(spec=spec, prime=ell, weight=lift_weight(spec, ell), series=series)
