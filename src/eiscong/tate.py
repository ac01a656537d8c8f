"""Tate cycles and simple-congruence detection, rigorous and windowed.

A series f = sum a(n) q^n has a simple congruence at c mod ell when
a(ell*n + c) vanishes mod ell for every n.  For a genuine modular form
of weight k this is decidable by a finite criterion: the congruence
holds at c not divisible by ell exactly when applying theta
(ell+1)/2 times gives -(c|ell) times the single theta image, which
holds at every c when theta kills the form.  That identity multiplies
a(n) by n*(n|ell) on the left, so it amounts to a(n) = 0 for every n
prime to ell in the quadratic class of c, through the Sturm index
floor((k + (ell+1)^2/2)/12): one scan of the coefficients, with no
theta applied.  Both classes come back vacant exactly when theta kills
the form, since the identity at a square and at a non-square c gives
theta f = -theta f.  A nonzero a(n) in each class ends the scan early,
so a prime without congruences is usually settled by the first few
coefficients.

Tate cycles (Jochnowitz 1982) are profiled on polynomials in Q, R over
F_ell (`IsobaricPolynomial`).  The cycle starts from the form's
polynomial at its tagged weight: the command line builds the lift's
polynomial in closed form, and only a form given as a q-series is read
off its expansion (`represent`).  From there each step is
`theta().strip_a_tilde()`, whose weight is the filtration of the
iterate: one product for theta, and O(log k) products for a fall by k.
The Fermat closure is an equality of polynomials, checked with one
product by each cached power A~^(2^i) that the closing fall k needs; see
`eiscong.filtration`.
"""

from __future__ import annotations

import logging
import math
import time
from collections import namedtuple

from .eisenstein import (
    QuotientSpec,
    lift_weight,
    quotient_q2_coefficient,
    quotient_q_coefficient,
    quotient_series,
)
from .filtration import (
    IsobaricPolynomial,
    ModularFormModEll,
    _a_tilde_power,
    dense_product,
    filtration_polynomial,
    sturm,
)
from .primes import prime_factors
from .series import PrecisionError, TruncatedSeries

log = logging.getLogger(__name__)

#: default window of `theta_vanishes`
THETA_WINDOW_DEFAULT = 500

#: primes that can never be excluded by the closed-form coefficient system
SMALL_CANDIDATE_PRIMES = (2, 3, 5, 7, 11, 13)

#: default cap on Tate-cycle profiling (ell - 1 theta steps on polynomials of
#: weight up to about ell^2)
TATE_CYCLE_CAP = 200

METHOD_RIGOROUS = "rigorous"
METHOD_HEURISTIC = "heuristic"
METHOD_THETA_VANISHING = "theta-vanishing"
METHOD_TRIVIAL_PRIME = "trivial-prime"
METHOD_BELOW_BOUND = "below-bound-by-size"


class CongruenceReport(namedtuple(
    "CongruenceReport", "spec ell method residues weight precision", defaults=(None, None)
)):
    """Detected residues for one (quotient, prime) pair and how they were found.

    spec is a `QuotientSpec`, ell a prime, residues a tuple of ints; weight
    and precision are ints or None.
    """

    __slots__ = ()


class TateCycleProfile(namedtuple(
    "TateCycleProfile",
    "prime base_weight base_filtration filtrations high_points low_points falls",
)):
    """Filtrations of the theta iterates of a form and the cycle's drop structure.

    filtrations[i-1] is the filtration of the i-th theta iterate for
    i = 1, ..., ell-1.  high_points lists the indices whose filtration
    is divisible by ell; low_points and falls are aligned with it, the
    successor of index ell-1 wrapping around to 1.  All four are tuples
    of ints.
    """

    __slots__ = ()


def require_cycle_cap(ell: int, cap: int) -> None:
    """Raise ValueError when ell is above the largest prime profiled."""
    if ell > cap:
        raise ValueError(
            f"cycle profiling is capped at ell <= {cap}; raise the cap to {ell} to profile it"
        )


def tate_cycle(
    form: ModularFormModEll | IsobaricPolynomial, cap: int = TATE_CYCLE_CAP
) -> TateCycleProfile:
    """Profile the full cycle of theta iterates of the form.

    The cycle starts from the form's polynomial in Q, R over F_ell, taken
    as given or, for a q-series, read off its expansion; theta then acts on
    polynomials, and each of iterates 1, ..., ell - 1 is divided by A~
    while it divides exactly, which leaves it at its filtration.  The
    iterate after a filtration divisible by ell must drop by a positive
    multiple of ell - 1, every other step must rise by exactly ell + 1,
    and the cycle closes up by Fermat (theta^ell and theta reduce to the
    same polynomial).  The closing step is not divided: theta of iterate
    ell - 1 must equal A~^k times iterate 1, with k read off the weights,
    and a few products by powers of A~ decide it (`_closing_divisions`).
    All three facts are re-verified and a violation raises, since it can
    only mean a bug.  The rise and fall rules also
    force one or two low points, which is why no check counts them.  The
    steps add up to zero round the cycle, so the falls k_i (ell - 1)
    after the high points have k_1 + ... = ell + 1; and ell - k_i or
    more of the ell - 1 steps lead from the i-th high point to the next.
    Hence there are one or two high points, and a single one falls by
    (ell + 1)(ell - 1) to a low point at 2 mod ell
    (`tests/test_tate.py::test_the_rise_and_fall_rules_leave_one_or_two_low_points`).
    A q-series is read through its first floor(k/12) + 1 coefficients
    at its weight k, and fewer raise `PrecisionError`.
    """
    ell = form.prime
    require_cycle_cap(ell, cap)
    start = time.perf_counter()
    iterate, divisions = filtration_polynomial(form)
    base = iterate.weight
    weights = []  # of the iterates 1, ..., ell, the ell-th closing the cycle
    for step in range(ell - 1):
        iterate, count = iterate.theta().strip_a_tilde()
        divisions += count
        weights.append(iterate.weight)
        if step == 0:
            first = iterate
            if not any(first.coeffs):
                raise ValueError(
                    "theta kills this form mod ell; the cycle is trivial and every "
                    "nonzero residue carries a congruence"
                )
    count = _closing_divisions(iterate.theta(), first)
    if count is None:
        raise RuntimeError("theta iterates fail to close up after ell steps")
    divisions += count
    weights.append(first.weight)
    if base % ell and weights[0] != base + ell + 1:
        raise RuntimeError("first theta step must rise by ell + 1")
    highs, falls = [], []
    for i, (w, w_next) in enumerate(zip(weights, weights[1:]), start=1):
        succ = i % (ell - 1) + 1
        if w % ell == 0:
            drop = w + ell + 1 - w_next
            if drop <= 0 or drop % (ell - 1):
                raise RuntimeError(
                    f"iterate {succ} falls by {drop}, not a positive multiple of ell - 1"
                )
            highs.append(i)
            falls.append(drop // (ell - 1))
        elif w_next != w + ell + 1:
            raise RuntimeError(
                f"iterate {succ} must rise by ell + 1 from a filtration prime to ell"
            )
    log.info(
        "tate cycle mod %d: tagged weight %d, base filtration %d, %d divisions by A~, %.4f s",
        ell, form.weight, base, divisions, time.perf_counter() - start,
    )
    return TateCycleProfile(
        prime=ell,
        base_weight=form.weight,
        base_filtration=base,
        filtrations=tuple(weights[:-1]),
        high_points=tuple(highs),
        low_points=tuple(i % (ell - 1) + 1 for i in highs),
        falls=tuple(falls),
    )


def _closing_divisions(image: IsobaricPolynomial, first: IsobaricPolynomial) -> int | None:
    """The k with image = A~^k first, or None when there is none.

    k is read off the weights.  `first` is multiplied by the cached
    A~^(2^i) (`_a_tilde_power`) for each set bit i of k, so at most
    k.bit_length() products decide the closure.  A~ does not divide
    `first`, which sits at its filtration, so dividing the image by A~
    while it divides reaches `first` exactly when this returns k, after
    k divisions.
    """
    ell = first.prime
    k, rest = divmod(image.weight - first.weight, ell - 1)
    if k < 0 or rest:
        return None
    coeffs, weight = first.coeffs, first.weight
    for i in range(k.bit_length()):
        if k >> i & 1:
            power_weight = (ell - 1) << i
            coeffs = dense_product(ell, weight, coeffs, power_weight, _a_tilde_power(ell, i))
            weight += power_weight
    return k if tuple(coeffs) == image.coeffs else None


def certificate_terms(weight: int, ell: int) -> int:
    """Terms a(0), ..., a(s) the certificate of a weight-`weight` form mod ell reads.

    s is the Sturm index of weight + (ell+1)^2/2, the weight of
    theta^((ell+1)/2) f.  A series of this many terms always decides
    `congruence_scan`; one term fewer can leave it undecided.
    """
    return sturm(weight + (ell + 1) ** 2 // 2) + 1


def congruence_scan(series: TruncatedSeries, ell: int, weight: int) -> tuple[int, ...]:
    """The certified residues of a weight-`weight` form mod ell, sorted.

    theta^((ell+1)/2) multiplies a(n) by n*(n|ell), so the identity
    theta^((ell+1)/2) f = -(c|ell) theta f in weight k + (ell+1)^2/2
    says that a(n) vanishes for every n prime to ell, through that
    weight's Sturm index, in the quadratic class of c.  One pass over
    the coefficients decides both classes at once.  All ell - 1 nonzero
    residues come back exactly when theta kills the form: the identity
    at a square and at a non-square c gives theta f = -theta f.

    The scan is decided once both classes hold a nonzero a(n), which
    proves that neither carries a congruence, or once the window covers
    the whole Sturm range: a series that is exact on a shorter window
    still decides when that happens inside it, and gives the same
    answer as the full window.  A window that ends undecided raises
    `PrecisionError`.
    """
    terms = certificate_terms(weight, ell)
    half = (ell - 1) // 2
    # quadratic classes holding a nonzero a(n), by Euler's criterion: n^half
    # is 1 on the squares mod ell and ell - 1 on the rest
    occupied = set()
    head = series.coeffs[: max(terms - series.valuation, 0)]
    for n, a in enumerate(head, start=series.valuation):
        if a and n % ell:
            occupied.add(pow(n, half, ell))
            if len(occupied) == 2:
                return ()
    if series.precision < terms:
        raise PrecisionError(
            f"the congruence certificate at ell={ell} needs precision {terms}, "
            f"have {series.precision}, and the window does not decide it"
        )
    return tuple(c for c in range(1, ell) if pow(c, half, ell) not in occupied)


def certified_residues(form: ModularFormModEll) -> tuple[int, ...]:
    """All nonzero residues with a certified simple congruence, sorted.

    A series that ends before the certificate's Sturm index is enough
    when it holds a nonzero a(n), n prime to ell, in both quadratic
    classes (then there is none); otherwise it raises `PrecisionError`.
    When every nonzero residue comes back, theta kills the form, and
    that raises ValueError.
    """
    residues = congruence_scan(form.series, form.prime, form.weight)
    if len(residues) == form.prime - 1:
        raise ValueError("theta kills this form; every nonzero residue carries a congruence")
    return residues


def heuristic_simple_congruences(series: TruncatedSeries, ell: int) -> frozenset[int]:
    """Residues whose entire known progression vanishes.  Window evidence only.

    Every residue class c with a(ell*n + c) = 0 for all exponents in
    the known window is flagged; nothing is proved beyond the window.
    """
    if series.valuation < 0:
        raise ValueError("progression scanning expects a series without poles")
    return frozenset(c for c in range(ell) if series.extract_progression(c, ell).is_zero())


def theta_vanishes(
    spec: QuotientSpec, ell: int, terms: int = THETA_WINDOW_DEFAULT
) -> bool:
    """Whether every coefficient a(n) with n prime to ell vanishes through the window.

    Equivalent to theta killing the quotient through the window; a
    finite check, labelled non-rigorous on its own.
    """
    flagged = heuristic_simple_congruences(quotient_series(spec, ell, terms), ell)
    return flagged >= frozenset(range(1, ell))


def theta_zero_congruences_hold(spec: QuotientSpec, ell: int) -> bool:
    """The three closed-form congruences a theta-killed quotient must satisfy mod ell.

    The q and q^2 coefficients must vanish, and so must the weight of the
    lift (`lift_weight`) mod ell.  That weight is not the filtration: the
    lift of E4^-3 E6^-3 at ell = 5 has weight 20 and filtration 12.
    """
    r, s, t = spec
    return (
        quotient_q_coefficient(r, s, t) % ell == 0
        and quotient_q2_coefficient(r, s, t) % ell == 0
        and lift_weight(spec, ell) % ell == 0
    )


def theta_vanishing_prime_candidates(
    spec: QuotientSpec, terms: int = 1000
) -> frozenset[int] | None:
    """Confirmed primes ell for which theta kills the quotient mod ell.

    Eliminating the closed-form coefficient system shows any prime at
    least 17 with a vanishing theta image must divide gcd(r, s, t), and
    8255520 = 2^5 * 3^4 * 5 * 7^2 * 13 bounds the rest, so the primes up
    to 13 are always candidates; every prime dividing gcd(r, s, t)
    passes the system, which has no constant terms.  Each candidate is
    then confirmed or refuted by a window check of the expansion.

    Returns None for the identity quotient r = s = t = 0, where theta
    kills the constant series 1 mod every prime.
    """
    g = math.gcd(*spec)
    if g == 0:
        return None
    candidates = set(SMALL_CANDIDATE_PRIMES).union(prime_factors(g))
    return frozenset(p for p in candidates if theta_vanishes(spec, p, terms))
