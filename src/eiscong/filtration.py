"""Filtrations of level-one modular forms mod ell.

A reduction mod ell of a weight-k form is represented once, at its
tagged weight, in the monomial basis E4^a E6^b: q-expansions are matched
through the level one bound floor(k/12), and two reductions of weight-k
forms that agree on a(0), ..., a(floor(k/12)) agree identically, so the
representing polynomial F in Q, R over F_ell is a finite certificate.
Everything after that is polynomial arithmetic.  By Swinnerton-Dyer
(LNM 350, 1973) the filtration is below k exactly when A~ divides F,
where A~ is the weight ell - 1 polynomial with value 1; each exact
division lowers the weight by ell - 1.  Theta acts on polynomials by

    12 theta(F) = k B~ F - A~ (4R dF/dQ + 6Q^2 dF/dR),

with B~ the weight ell + 1 polynomial with value E2 (Ramanujan's
identities, made isobaric by the factor A~).

`IsobaricPolynomial` has one format, dense: a weight-k polynomial is
the tuple of its coefficients on Q^(a0 - 3j) R^(b0 + 2j), j = 0, 1, ...,
with b0 in {0, 1} fixed by k mod 4 (see `dense_layout`).  A product is
one Kronecker product of coefficient lists (`series._convolve`).  Since
R^2 never divides A~, division by A~ reads each quotient coefficient off
from the lowest R-exponent up, and one product with A~ checks that the
division is exact.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Sequence

from .eisenstein import LiftedForm, eisenstein_reduced, eisenstein_series
from .linalg import solve_mod_prime
from .primes import require_prime
from .series import PrecisionError, TruncatedSeries, _convolve

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
        require_prime(self.prime)
        dense_layout(self.weight)  # the weight is even and nonnegative
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

    coeffs holds one canonical residue per monomial of the weight, on its
    dense layout: entry j is the coefficient of Q^(a0 - 3j) R^(b0 + 2j),
    see `dense_layout`.
    """

    prime: int
    weight: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        require_prime(self.prime)
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        length = dense_layout(self.weight)[2]
        if len(self.coeffs) != length:
            raise ValueError(
                f"weight {self.weight} has {length} monomials, got {len(self.coeffs)} coefficients"
            )
        if not all(isinstance(c, int) and 0 <= c < self.prime for c in self.coeffs):
            raise ValueError("coefficients must be canonical residues")

    @classmethod
    def from_dense(
        cls, prime: int, weight: int, coeffs: Sequence[int]
    ) -> "IsobaricPolynomial":
        """The polynomial with the given coefficients, reduced mod the prime."""
        return cls(prime, weight, tuple(c % prime for c in coeffs))

    @property
    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """(a, b, coefficient) of each nonzero monomial Q^a R^b, in descending-a order."""
        pairs = monomial_exponents(self.weight)
        return tuple((a, b, c) for (a, b), c in zip(pairs, self.coeffs) if c)

    def theta(self) -> "IsobaricPolynomial":
        """The polynomial of the theta image, of weight weight + prime + 1.

        12 theta(F) = k B~ F - A~ D with D = 4R dF/dQ + 6Q^2 dF/dR, which
        has weight k + 2.
        """
        ell, weight = self.prime, self.weight
        a0, b0, _ = dense_layout(weight)
        # entry j of D takes Q^(a0 - 3i) R^(b0 + 2i) from i = j - b0 (4R dF/dQ)
        # and i = j + 1 - b0 (6Q^2 dF/dR); h[i + 1] is coefficient i, 0 outside
        h = [0, *self.coeffs, 0]
        derivative = [
            (4 * (a0 - 3 * (j - b0)) * h[j + 1 - b0] + (12 * (j + 1) - 6 * b0) * h[j + 2 - b0])
            % ell
            for j in range(dense_layout(weight + 2)[2])
        ]
        kbf = dense_product(ell, ell + 1, compute_b_tilde(ell).coeffs, weight, self.coeffs)
        ad = dense_product(ell, ell - 1, compute_a_tilde(ell).coeffs, weight + 2, derivative)
        inv12 = pow(12, -1, ell)
        return IsobaricPolynomial(
            ell, weight + ell + 1, tuple((weight * x - y) * inv12 % ell for x, y in zip(kbf, ad))
        )

    def strip_a_tilde(self) -> tuple["IsobaricPolynomial", int]:
        """Divide by A~ while it divides exactly; the quotient and the number of divisions.

        On its dense layout a polynomial is Q^a0 R^b0 times a polynomial in
        x = R^2 / Q^3.  A~'s constant term in x is a unit (R^2 never divides
        A~), so the only possible quotient is read off coefficient by
        coefficient from the lowest R-exponent up, on the quotient weight's
        layout; A~ divides exactly when that candidate times A~ gives the
        polynomial back.  By Swinnerton-Dyer, for the polynomial of a nonzero
        form at any weight the quotient sits at the form's filtration.
        """
        ell = self.prime
        d = compute_a_tilde(ell).coeffs
        top, inv = len(d) - 1, pow(d[0], -1, ell)
        high = d[:0:-1]  # d[top], ..., d[1]
        poly, count = self, 0
        while (weight := poly.weight - (ell - 1)) >= 0:
            _, b0, length = dense_layout(weight)
            f = poly.coeffs[b0 & dense_layout(ell - 1)[1] :]
            q = [0] * top  # q[top + n] is the quotient's coefficient n
            for n in range(length):
                q.append((f[n] - sum(map(mul, q[n : n + top], high))) * inv % ell)
            q = tuple(q[top:])
            if tuple(dense_product(ell, weight, q, ell - 1, d)) != poly.coeffs:
                break
            poly, count = IsobaricPolynomial(ell, weight, q), count + 1
        return poly, count

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
    dense_layout(weight)  # the weight is even and nonnegative
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
    return IsobaricPolynomial(ell, weight, sol)  # sol holds canonical residues


def _tagged_polynomial(form: ModularFormModEll) -> IsobaricPolynomial:
    # the form at its own weight, where a reduction of such a form always has one
    poly = represent(form, form.weight)
    if poly is None:
        raise RuntimeError(
            f"series tagged weight {form.weight} mod {form.prime} matches no modular form; "
            "the weight tag is wrong or the input is corrupt"
        )
    return poly


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


def filtration_polynomial(form: ModularFormModEll) -> tuple[IsobaricPolynomial, int]:
    """The form's polynomial at its filtration, and the divisions by A~ that reached it.

    One solve writes the form at its tagged weight; the quotient by the
    highest power of A~ dividing that polynomial sits at the least
    weight of a congruent form.  Undefined for the zero reduction, that
    is the zero polynomial: the basis is independent mod ell >= 5.
    """
    poly = _tagged_polynomial(form)
    if not any(poly.coeffs):
        raise ValueError("filtration is undefined for the zero reduction")
    return poly.strip_a_tilde()


def filtration(form: ModularFormModEll) -> int:
    """The least weight of a modular form congruent to the given reduction.

    Writes the form once at its tagged weight and divides the polynomial
    by A~ while it divides exactly (Swinnerton-Dyer); each division
    lowers the weight by ell - 1.  Undefined for the zero reduction.
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
    """The weight-(ell-1) polynomial in Q, R whose value at (E4, E6) is 1 mod ell."""
    # ell terms cover the Sturm range, and eisenstein_reduced checks the prime
    target = eisenstein_reduced(-1, ell, ell)
    return _tagged_polynomial(ModularFormModEll(ell, ell - 1, target))


@lru_cache(maxsize=None)
def compute_b_tilde(ell: int) -> IsobaricPolynomial:
    """The weight-(ell+1) polynomial in Q, R whose value at (E4, E6) is E2 mod ell."""
    target = eisenstein_reduced(1, ell, ell)
    return _tagged_polynomial(ModularFormModEll(ell, ell + 1, target))
