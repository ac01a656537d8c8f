"""Tate cycles and simple-congruence detection, rigorous and windowed.

A series f = sum a(n) q^n has a simple congruence at c mod ell when
a(ell*n + c) vanishes mod ell for every n.  For a genuine modular form
of weight k with nonzero theta image this is decidable by a finite
criterion: the congruence holds at c not divisible by ell exactly when
applying theta (ell+1)/2 times gives -(c|ell) times the single theta
image.  That identity multiplies a(n) by n*(n|ell) on the left, so it
amounts to a(n) = 0 for every n prime to ell in the quadratic class of
c, through the Sturm index floor((k + (ell+1)^2/2)/12): one scan of
the coefficients, with no theta applied.  A nonzero a(n) in each class
ends the scan early, so a prime without congruences is usually settled
by the first few coefficients.

Tate cycles (Jochnowitz 1982) are profiled on polynomials in Q, R over
F_ell (`IsobaricPolynomial`): one solve writes the form at its tagged
weight, and from there each step is `theta().strip_a_tilde()`, whose
weight is the filtration of the iterate, and the Fermat closure is an
equality of polynomials; see `eiscong.filtration`.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

from .eisenstein import (
    QuotientSpec,
    quotient_q2_coefficient,
    quotient_q_coefficient,
    quotient_series,
)
from .filtration import IsobaricPolynomial, ModularFormModEll, filtration_polynomial, sturm
from .primes import prime_factors, require_prime
from .series import PrecisionError, TruncatedSeries

log = logging.getLogger(__name__)

#: default window for the quotient-side theta-vanishing check
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


def legendre(c: int, ell: int) -> int:
    """Legendre symbol (c | ell) by Euler's criterion."""
    require_prime(ell, 3)
    c %= ell
    if c == 0:
        return 0
    return 1 if pow(c, (ell - 1) // 2, ell) == 1 else -1


@dataclass(frozen=True)
class CongruenceReport:
    """Detected residues for one (quotient, prime) pair and how they were found."""

    spec: QuotientSpec
    ell: int
    method: str
    residues: tuple[int, ...]
    weight: int | None = None
    precision: int | None = None


@dataclass(frozen=True)
class TateCycleProfile:
    """Filtrations of the theta iterates of a form and the cycle's drop structure.

    filtrations[i-1] is the filtration of the i-th theta iterate for
    i = 1, ..., ell-1.  high_points lists the indices whose filtration
    is divisible by ell; low_points and falls are aligned with it, the
    successor of index ell-1 wrapping around to 1.
    """

    prime: int
    base_weight: int
    base_filtration: int
    filtrations: tuple[int, ...]
    high_points: tuple[int, ...]
    low_points: tuple[int, ...]
    falls: tuple[int, ...]


def tate_cycle(form: ModularFormModEll, cap: int = TATE_CYCLE_CAP) -> TateCycleProfile:
    """Profile the full cycle of theta iterates of the form.

    One solve writes the form as a polynomial in Q, R over F_ell; theta
    then acts on polynomials, and each iterate is divided by A~ while
    it divides exactly, which leaves it at its filtration.  The iterate
    after a filtration divisible by ell must drop by a positive multiple
    of ell - 1, every other step must rise by exactly ell + 1, and the
    cycle closes up by Fermat (theta^ell and theta reduce to the same
    polynomial).  All three facts are re-verified and a violation
    raises, since it can only mean a bug.  The solve reads the first
    floor(k/12) + 1 coefficients of the weight-k form, and fewer raise
    `PrecisionError`.
    """
    ell = form.prime
    if ell > cap:
        raise ValueError(
            f"cycle profiling is capped at ell <= {cap}; pass cap={ell} to override"
        )
    start = time.perf_counter()
    base_poly, divisions = filtration_polynomial(form)
    base = base_poly.weight

    def theta_step(poly: IsobaricPolynomial) -> IsobaricPolynomial:
        nonlocal divisions
        lowered, count = poly.theta().strip_a_tilde()
        divisions += count
        return lowered

    first = theta_step(base_poly)
    if not any(first.coeffs):
        raise ValueError(
            "theta kills this form mod ell; the cycle is trivial and every "
            "nonzero residue carries a congruence"
        )
    iterate = first
    filts = [first.weight]
    for _ in range(2, ell):
        iterate = theta_step(iterate)
        filts.append(iterate.weight)
    if theta_step(iterate) != first:
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
                raise RuntimeError(
                    f"iterate {succ} falls by {drop}, not a positive multiple of ell - 1"
                )
            highs.append(i)
            lows.append(succ)
            falls.append(drop // (ell - 1))
        elif w_next != w + ell + 1:
            raise RuntimeError(
                f"iterate {succ} must rise by ell + 1 from a filtration prime to ell"
            )
    if len(lows) not in (1, 2):
        raise RuntimeError(f"a Tate cycle has one or two low points, found {len(lows)}")
    if len(lows) == 1 and filts[lows[0] - 1] % ell != 2:
        raise RuntimeError("a single low point must have filtration 2 mod ell")
    log.info(
        "tate cycle mod %d: tagged weight %d, base filtration %d, %d divisions by A~, %.4f s",
        ell, form.weight, base, divisions, time.perf_counter() - start,
    )
    return TateCycleProfile(
        prime=ell,
        base_weight=form.weight,
        base_filtration=base,
        filtrations=tuple(filts),
        high_points=tuple(highs),
        low_points=tuple(lows),
        falls=tuple(falls),
    )


def congruence_scan(
    series: TruncatedSeries, ell: int, weight: int
) -> tuple[bool, tuple[int, ...]]:
    """Whether theta kills a weight-`weight` form mod ell, and its certified residues.

    theta^((ell+1)/2) multiplies a(n) by n*(n|ell), so the identity
    theta^((ell+1)/2) f = -(c|ell) theta f in weight k + (ell+1)^2/2
    says that a(n) vanishes for every n prime to ell, through that
    weight's Sturm index, in the quadratic class of c.  One pass over
    the coefficients decides both classes at once, and theta kills the
    form when no such a(n) is nonzero through the Sturm index of
    weight k + ell + 1.  The residues are meaningless when theta kills
    the form.

    The scan is decided once both classes hold a nonzero a(n), which
    proves that neither carries a congruence, or once the window covers
    the whole Sturm range: a series that is exact on a shorter window
    still decides when that happens inside it, and gives the same
    answer as the full window.  A window that ends undecided raises
    `PrecisionError`.
    """
    s = sturm(weight + (ell + 1) ** 2 // 2)
    s0 = sturm(weight + ell + 1)
    is_square = [False] * ell
    for x in range(1, ell):
        is_square[x * x % ell] = True
    theta_kills = True
    # quadratic classes (is_square of the residue) holding a nonzero a(n)
    occupied = set()
    head = series.coeffs[: max(s + 1 - series.valuation, 0)]
    for n, a in enumerate(head, start=series.valuation):
        if a and n % ell:
            theta_kills = theta_kills and n > s0
            occupied.add(is_square[n % ell])
            if len(occupied) == 2:
                break
    else:
        if series.precision < s + 1:
            raise PrecisionError(
                f"the congruence certificate at ell={ell} needs precision {s + 1}, "
                f"have {series.precision}, and the window does not decide it"
            )
    residues = tuple(c for c in range(1, ell) if is_square[c] not in occupied)
    return theta_kills, residues


def certified_residues(form: ModularFormModEll) -> tuple[int, ...]:
    """All nonzero residues with a certified simple congruence, sorted.

    A series that ends before the certificate's Sturm index is enough
    when it holds a nonzero a(n), n prime to ell, in both quadratic
    classes (then there is none); otherwise it raises `PrecisionError`.
    """
    theta_kills, residues = congruence_scan(form.series, form.prime, form.weight)
    if theta_kills:
        raise ValueError(
            "theta kills this form; every nonzero residue carries a congruence "
            "and the criterion does not apply"
        )
    return residues


def rigorous_simple_congruence(form: ModularFormModEll, c: int) -> bool:
    """Finite certificate for a simple congruence of the form at c, 1 <= c <= ell-1.

    c = 0 is not accepted: the quotients this package studies all have
    constant term 1, which settles that case negatively by inspection.
    """
    ell = form.prime
    if not 1 <= c <= ell - 1:
        raise ValueError(
            f"c must be a nonzero residue mod {ell}; "
            "c = 0 is decided by the constant term"
        )
    return c in certified_residues(form)


def heuristic_simple_congruences(series: TruncatedSeries, ell: int) -> frozenset[int]:
    """Residues whose entire known progression vanishes.  Window evidence only.

    Every residue class c with a(step*n + c) = 0 for all exponents in
    the known window is flagged; nothing is proved beyond the window.
    """
    if series.valuation < 0:
        raise ValueError("progression scanning expects a series without poles")
    flagged = set(range(ell))
    for n, c in enumerate(series.coeffs, start=series.valuation):
        if c:
            flagged.discard(n % ell)
            if not flagged:
                break
    return frozenset(flagged)


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

    The q and q^2 coefficients must vanish, and so must r + 4s + 6t,
    which is the filtration of the lifted form mod ell.
    """
    r, s, t = spec.r, spec.s, spec.t
    return (
        quotient_q_coefficient(r, s, t) % ell == 0
        and quotient_q2_coefficient(r, s, t) % ell == 0
        and (r + 4 * s + 6 * t) % ell == 0
    )


def theta_vanishing_prime_candidates(
    spec: QuotientSpec, terms: int = 1000
) -> frozenset[int] | None:
    """Confirmed primes ell for which theta kills the quotient mod ell.

    Eliminating the closed-form coefficient system shows any prime at
    least 17 with a vanishing theta image must divide gcd(r, s, t), and
    8255520 = 2^5 * 3^4 * 5 * 7^2 * 13 bounds the rest, so the primes up
    to 13 are always candidates.  Every candidate is then confirmed or
    refuted by a window check of the expansion.

    Returns None for the identity quotient r = s = t = 0, where theta
    kills the constant series 1 mod every prime.
    """
    g = math.gcd(spec.r, spec.s, spec.t)
    if g == 0:
        return None
    candidates = set(SMALL_CANDIDATE_PRIMES)
    for p in prime_factors(g):
        if p >= 17 and theta_zero_congruences_hold(spec, p):
            candidates.add(p)
    return frozenset(p for p in candidates if theta_vanishes(spec, p, terms))
