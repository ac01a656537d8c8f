"""Filtrations of level-one modular forms mod ell.

A reduction mod ell of a weight-k form is represented in the monomial
basis E4^a E6^b.  Whether a series of tagged weight k agrees with a
form of weight w is decided by matching q-expansions through the level
one bound floor(w/12): two reductions of weight-w forms that agree on
coefficients a(0), ..., a(floor(w/12)) agree identically, so every
positive answer here is a finite certificate, not a heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from sympy import isprime

from .eisenstein import LiftedForm, eisenstein_series
from .linalg import solve_mod_prime
from .series import PrecisionError, TruncatedSeries


def sturm(weight: int) -> int:
    """Index of the last coefficient needed to pin down a weight-`weight` form."""
    if weight < 0:
        raise ValueError(f"weights are nonnegative, got {weight}")
    return weight // 12


def monomial_exponents(weight: int) -> tuple[tuple[int, int], ...]:
    """All (a, b) with 4a + 6b = weight and a, b >= 0, in descending-a order."""
    if weight < 0 or weight % 2:
        raise ValueError(f"weight must be even and nonnegative, got {weight}")
    out = []
    for b in range(weight // 6 + 1):
        rest = weight - 6 * b
        if rest % 4 == 0:
            out.append((rest // 4, b))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_basis(
    weight: int, ell: int, terms: int
) -> tuple[tuple[tuple[int, int], TruncatedSeries], ...]:
    """The series E4^a * E6^b mod ell for each (a, b) with 4a + 6b = weight.

    These expansions are a basis of the reductions of weight-`weight`
    forms.  Cached; all values are immutable.
    """
    pairs = monomial_exponents(weight)
    if not pairs:
        return ()
    e4 = eisenstein_series(4, ell, terms)
    e6 = eisenstein_series(6, ell, terms)
    max_a = max(a for a, _ in pairs)
    max_b = max(b for _, b in pairs)
    pows4 = [TruncatedSeries.one(ell, terms)]
    for _ in range(max_a):
        pows4.append(pows4[-1].mul(e4))
    pows6 = [TruncatedSeries.one(ell, terms)]
    for _ in range(max_b):
        pows6.append(pows6[-1].mul(e6))
    return tuple(((a, b), pows4[a].mul(pows6[b])) for a, b in pairs)


@dataclass(frozen=True)
class ModularFormModEll:
    """A q-series known to be the reduction of a weight-`weight` form mod `prime`."""

    prime: int
    weight: int
    series: TruncatedSeries

    def __post_init__(self):
        if self.prime < 5 or not isprime(self.prime):
            raise ValueError(f"prime must be at least 5, got {self.prime}")
        if self.weight < 0 or self.weight % 2:
            raise ValueError(f"weight must be even and nonnegative, got {self.weight}")
        if self.series.modulus != self.prime:
            raise ValueError("series modulus must equal the prime")
        if self.series.valuation < 0:
            raise ValueError("modular form reductions have no negative exponents")

    @classmethod
    def from_lift(cls, lifted: LiftedForm) -> "ModularFormModEll":
        return cls(lifted.prime, lifted.weight, lifted.series)

    @property
    def precision(self) -> int:
        return self.series.precision

    def theta_image(self) -> "ModularFormModEll":
        """Apply q d/dq; the nominal weight grows by prime + 1."""
        return ModularFormModEll(
            self.prime, self.weight + self.prime + 1, self.series.theta()
        )


@dataclass(frozen=True)
class IsobaricPolynomial:
    """A weight-homogeneous polynomial in Q (weight 4) and R (weight 6) over F_ell.

    terms is a tuple of (a, b, coefficient) with 4a + 6b = weight, in
    descending-a order, zero coefficients dropped.
    """

    prime: int
    weight: int
    terms: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for a, b, c in self.terms:
            if 4 * a + 6 * b != self.weight:
                raise ValueError(f"monomial Q^{a} R^{b} has the wrong weight")
            if not 0 < c < self.prime:
                raise ValueError("coefficients must be nonzero canonical residues")

    @classmethod
    def from_coefficients(
        cls, prime: int, weight: int, coefficients: Mapping[tuple[int, int], int]
    ) -> "IsobaricPolynomial":
        items = sorted(coefficients.items(), key=lambda kv: -kv[0][0])
        terms = tuple((a, b, c % prime) for (a, b), c in items if c % prime)
        return cls(prime, weight, terms)

    def coefficient(self, a: int, b: int) -> int:
        for aa, bb, c in self.terms:
            if (aa, bb) == (a, b):
                return c
        return 0

    def evaluate(self, terms_count: int) -> TruncatedSeries:
        """Substitute Q -> E4 and R -> E6 and expand mod the prime."""
        total = TruncatedSeries.zero(self.prime, terms_count)
        e4 = eisenstein_series(4, self.prime, terms_count)
        e6 = eisenstein_series(6, self.prime, terms_count)
        for a, b, c in self.terms:
            total = total.add(e4.pow(a).mul(e6.pow(b)).scale(c))
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for a, b, c in self.terms:
            mono = "".join(
                (f"Q^{a}" if a > 1 else "Q" if a == 1 else "",
                 f"R^{b}" if b > 1 else "R" if b == 1 else "")
            )
            if not mono:
                parts.append(str(c))
            else:
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts)


def represent(form: ModularFormModEll, weight: int) -> IsobaricPolynomial | None:
    """Write the form as a weight-`weight` polynomial in E4, E6 mod ell, if possible.

    Returns None when the linear system is inconsistent, which certifies
    that no weight-`weight` form is congruent to the given one.  The
    requested weight must agree with the form's weight mod ell - 1, and
    the form must carry enough precision for the larger of the two
    weights; both are hard preconditions.
    """
    ell = form.prime
    if weight < 0 or weight % 2:
        raise ValueError(f"weight must be even and nonnegative, got {weight}")
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
    basis = monomial_basis(weight, ell, s + 1)
    matrix = [[series.coefficient(n) for _, series in basis] for n in range(s + 1)]
    rhs = [form.series.coefficient(n) for n in range(s + 1)]
    sol = solve_mod_prime(matrix, rhs, ell)
    if sol is None:
        return None
    coefficients = {pair: c for (pair, _), c in zip(basis, sol)}
    return IsobaricPolynomial.from_coefficients(ell, weight, coefficients)


def filtration(form: ModularFormModEll) -> int:
    """The least weight of a modular form congruent to the given reduction.

    Searches downward from the tagged weight in steps of ell - 1;
    representable weights are upward closed (multiply by the weight
    ell - 1 polynomial with value 1), so the weight before the first
    failure is the infimum.  Undefined for the zero reduction.
    """
    ell = form.prime
    s = sturm(form.weight)
    if form.precision < s + 1:
        raise PrecisionError(
            f"filtration at weight {form.weight} needs precision {s + 1}, "
            f"have {form.precision}"
        )
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
        raise RuntimeError(
            f"series tagged weight {form.weight} mod {ell} matches no modular form; "
            "the weight tag is wrong or the input is corrupt"
        )
    return best


def compute_a_tilde(ell: int) -> IsobaricPolynomial:
    """The weight-(ell-1) polynomial in Q, R whose value at (E4, E6) is 1 mod ell."""
    if ell < 5 or not isprime(ell):
        raise ValueError(f"ell must be a prime at least 5, got {ell}")
    target = TruncatedSeries.one(ell, sturm(ell - 1) + 1)
    poly = represent(ModularFormModEll(ell, ell - 1, target), ell - 1)
    if poly is None:
        raise RuntimeError(f"no weight-{ell - 1} expression of 1 mod {ell} found")
    return poly


def compute_b_tilde(ell: int) -> IsobaricPolynomial:
    """The weight-(ell+1) polynomial in Q, R whose value at (E4, E6) is E2 mod ell."""
    if ell < 5 or not isprime(ell):
        raise ValueError(f"ell must be a prime at least 5, got {ell}")
    target = eisenstein_series(2, ell, sturm(ell + 1) + 1)
    poly = represent(ModularFormModEll(ell, ell + 1, target), ell + 1)
    if poly is None:
        raise RuntimeError(f"no weight-{ell + 1} expression of E2 mod {ell} found")
    return poly
