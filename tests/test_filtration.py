import random

import pytest

from eiscong.eisenstein import (
    QuotientSpec,
    eisenstein_power_product,
    eisenstein_series,
    lift_weight,
    replacement_lift,
)
from eiscong.filtration import (
    IsobaricPolynomial,
    ModularFormModEll,
    _derivative,
    compute_a_tilde,
    filtration,
    monomial_basis,
    monomial_exponents,
    represent,
    sturm,
)
from eiscong.linalg import solve_mod_prime
from eiscong.series import PrecisionError, TruncatedSeries


def evaluate(poly, terms):
    """Substitute Q -> E4 and R -> E6 in the polynomial and expand mod its prime."""
    total = TruncatedSeries(poly.prime, [0] * terms)
    e4 = eisenstein_series(4, poly.prime, terms)
    e6 = eisenstein_series(6, poly.prime, terms)
    for a, b, c in poly.terms:
        term = e4.pow(a).mul(e6.pow(b))
        scaled = TruncatedSeries(poly.prime, [c * x for x in term.coeffs], term.valuation)
        total = total.add(scaled)
    return total


def b_tilde(ell):
    """-D(A~), the weight ell + 1 polynomial of value E2 that theta reads."""
    d = _derivative(ell, ell - 1, compute_a_tilde(ell).coeffs)
    return IsobaricPolynomial(ell, ell + 1, tuple(-c % ell for c in d))


def form_from(series, ell, weight):
    return ModularFormModEll(ell, weight, series)


def eis_product(a, b, c, ell, terms):
    # E2^a * E4^b * E6^c as the reduction of a weight a*(ell+1) + 4b + 6c form
    out = TruncatedSeries.one(ell, terms)
    for k, e in ((2, a), (4, b), (6, c)):
        if e:
            out = out * eisenstein_series(k, ell, terms).pow(e)
    return ModularFormModEll(ell, a * (ell + 1) + 4 * b + 6 * c, out)


# ---------------------------------------------------------------------------
# linear solver, the reference `represent_by_solve` runs on


def check_solution(a, b, sol, p):
    assert sol is not None
    for row, rhs in zip(a, b):
        assert sum(x * y for x, y in zip(row, sol)) % p == rhs


def test_solver_solves_random_consistent_systems():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice([5, 7, 13, 101, 2**61 - 1])
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        a = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randrange(p) for _ in range(cols)]
        b = [sum(a[i][j] * x[j] for j in range(cols)) % p for i in range(rows)]
        check_solution(a, b, solve_mod_prime(a, b, p), p)


def rank_deficient_system(rng, n, rank, p):
    # n x n of rank at most `rank` < n: random rows, then random combinations
    # of them; the right side is consistent, solved by the returned x
    basis = [[rng.randrange(p) for _ in range(n)] for _ in range(rank)]
    a = list(basis)
    for _ in range(n - rank):
        weights = [rng.randrange(p) for _ in basis]
        a.append([sum(w * v[j] for w, v in zip(weights, basis)) % p for j in range(n)])
    x = [rng.randrange(p) for _ in range(n)]
    b = [sum(u * v for u, v in zip(row, x)) % p for row in a]
    return a, b


def shuffled(rng, a, b):
    order = list(range(len(a)))
    rng.shuffle(order)
    return [a[i] for i in order], [b[i] for i in order]


def test_solver_solves_rank_deficient_square_systems():
    # up to Tate size: `represent_by_solve` of the lift of (0, -12, 1) at ell = 53
    # is one 41 x 41 solve
    rng = random.Random(12)
    for n, p in ((5, 5), (17, 13), (33, 101), (60, 53), (60, 2**61 - 1)):
        rank = rng.randrange(n)
        a, b = shuffled(rng, *rank_deficient_system(rng, n, rank, p))
        sol = solve_mod_prime(a, b, p)
        check_solution(a, b, sol, p)
        # free columns are zero, so at most rank entries are nonzero
        assert sum(1 for c in sol if c) <= rank


def test_solver_detects_inconsistency():
    assert solve_mod_prime([[1, 1], [2, 2]], [1, 3], 5) is None
    assert solve_mod_prime([[0], [0]], [0, 4], 7) is None
    rng = random.Random(13)
    for n, p in ((4, 5), (12, 7), (30, 101), (60, 53), (60, 2**61 - 1)):
        a, b = rank_deficient_system(rng, n, rng.randrange(n), p)
        # the last row combines the basis rows, so its right side is forced
        b[-1] = (b[-1] + rng.randrange(1, p)) % p
        assert solve_mod_prime(*shuffled(rng, a, b), p) is None


def test_solver_handles_empty_column_space():
    assert solve_mod_prime([[], []], [0, 0], 5) == []
    assert solve_mod_prime([[], []], [0, 3], 5) is None


def test_solver_rejects_a_ragged_matrix():
    with pytest.raises(ValueError, match="ragged matrix"):
        solve_mod_prime([[1, 2], [3]], [0, 0], 5)


def test_solver_with_large_prime_uses_exact_path():
    p = 2**61 - 1
    sol = solve_mod_prime([[2]], [1], p)
    assert sol == [pow(2, -1, p)]


# ---------------------------------------------------------------------------
# sturm and monomials


def test_sturm_values():
    assert sturm(12) == 1
    assert sturm(0) == 0
    assert sturm(128) == 10


def test_sturm_rejects_negative():
    with pytest.raises(ValueError):
        sturm(-2)


def test_monomial_exponents():
    assert monomial_exponents(0) == ((0, 0),)
    assert set(monomial_exponents(12)) == {(3, 0), (0, 2)}
    assert monomial_exponents(10) == ((1, 1),)
    assert monomial_exponents(2) == ()


def test_monomial_exponents_reject_odd():
    with pytest.raises(ValueError):
        monomial_exponents(7)


@pytest.mark.parametrize("weight", [0, 2, 4, 6, 12, 14, 198, 200, 1992, 1978])
def test_monomial_basis_expands_products(weight):
    # every entry at ell = 199, with ell - 1, ell + 1 and 10 ell + 2 among the weights
    ell, terms = 199, sturm(weight) + 8
    basis = monomial_basis(weight, ell, terms)
    assert tuple(pair for pair, _ in basis) == monomial_exponents(weight)
    for (a, b), series in basis:
        assert series == eisenstein_power_product(0, a, b, ell, terms), (a, b)


# ---------------------------------------------------------------------------
# represent


def test_e4_mod_5_is_the_constant_one():
    f = form_from(eisenstein_series(4, 5, 6), 5, 4)
    poly = represent(f, 0)
    assert poly is not None
    assert poly.terms == ((0, 0, 1),)


def test_e4e6_mod_13_is_the_product_monomial():
    f = eis_product(0, 1, 1, 13, 6)
    poly = represent(f, 10)
    assert poly is not None
    assert poly.terms == ((1, 1, 1),)


def test_theta_image_of_e4_mod_13():
    g = form_from(eisenstein_series(4, 13, 6).theta(), 13, 18)
    # not congruent to any weight-6 form, and the class precondition
    # rejects weights outside 18 mod 12
    assert represent(g, 6) is None
    with pytest.raises(ValueError):
        represent(g, 4)
    assert filtration(g) == 18


def test_represent_requires_enough_precision():
    f = form_from(eisenstein_series(4, 13, 2), 13, 4)
    with pytest.raises(PrecisionError):
        represent(f, 28)


def test_represent_round_trip_on_random_products():
    rng = random.Random(5)
    for ell in (13, 17, 19, 23):
        for _ in range(5):
            a, b, c = rng.randrange(0, 3), rng.randrange(0, 4), rng.randrange(0, 3)
            if (a, b, c) == (0, 0, 0):
                continue
            w = a * (ell + 1) + 4 * b + 6 * c
            terms = sturm(w) + 1
            f = eis_product(a, b, c, ell, terms)
            poly = represent(f, w)
            assert poly is not None
            assert evaluate(poly, terms).agrees_with(f.series)


def represent_by_solve(form, weight):
    """Reference `represent`: one solve on the monomial basis through the Sturm index."""
    s = sturm(max(weight, form.weight))
    basis = monomial_basis(weight, form.prime, s + 1)
    matrix = [[series.coefficient(n) for _, series in basis] for n in range(s + 1)]
    rhs = [form.series.coefficient(n) for n in range(s + 1)]
    sol = solve_mod_prime(matrix, rhs, form.prime)
    return None if sol is None else IsobaricPolynomial(form.prime, weight, tuple(sol))


def representation_cases():
    """(form, weight) pairs: criterion 5's products, seeded lifts, weights 0 and 2."""
    for ell in (13, 17, 19, 23):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    if (a, b, c) != (0, 0, 0):
                        form = eis_product(a, b, c, ell, 40)
                        yield form, form.weight
    rng = random.Random(26)
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for _ in range(6):
            spec = QuotientSpec(rng.randrange(3), rng.randrange(-ell, 6), rng.randrange(-ell, 6))
            k = lift_weight(spec, ell)
            form = replacement_lift(spec, ell, sturm(k + ell - 1) + 1)
            for weight in (k, k + ell - 1, k - (ell - 1)):
                if weight >= 0:
                    yield form, weight
        # a series that is no form: inconsistent above its first coefficients
        junk = TruncatedSeries(ell, [rng.randrange(ell) for _ in range(ell)])
        yield ModularFormModEll(ell, ell - 1, junk), ell - 1
        yield ModularFormModEll(ell, ell - 1, TruncatedSeries.one(ell, 3)), 0
        yield ModularFormModEll(ell, ell - 1, junk), 0
        yield ModularFormModEll(ell, ell + 1, eisenstein_series(2, ell, 4)), 2
        yield ModularFormModEll(ell, ell + 1, TruncatedSeries(ell, [0] * 4)), 2


def test_represent_matches_the_solve_on_the_monomial_basis():
    outcomes = []
    for form, weight in representation_cases():
        poly = represent(form, weight)
        assert poly == represent_by_solve(form, weight), (form, weight)
        outcomes.append(poly is None)
    # both outcomes occur, and weight 2 gives the empty polynomial of the zero form
    assert 0 < sum(outcomes) < len(outcomes)
    zero = ModularFormModEll(7, 8, TruncatedSeries(7, [0] * 4))
    assert represent(zero, 2) == IsobaricPolynomial(7, 2, ())


def test_represent_matches_the_solve_at_a_large_prime():
    spec = QuotientSpec(0, -12, 1)  # E6 / E4^12
    form = replacement_lift(spec, 101, sturm(lift_weight(spec, 101)) + 1)
    poly = represent(form, form.weight)
    assert poly is not None and poly == represent_by_solve(form, form.weight)


# ---------------------------------------------------------------------------
# filtration


def test_filtration_drops_to_zero_for_e4_mod_5():
    f = form_from(eisenstein_series(4, 5, 4), 5, 4)
    assert filtration(f) == 0


def test_filtration_of_weight_24_product_mod_13():
    f = eis_product(1, 1, 1, 13, 6)
    assert f.weight == 24
    assert filtration(f) == 24


def test_filtrations_mod_7():
    e6 = form_from(eisenstein_series(6, 7, 4), 7, 6)
    e4 = form_from(eisenstein_series(4, 7, 4), 7, 4)
    assert filtration(e6) == 0
    assert filtration(e4) == 4


def test_filtration_rejects_zero():
    z = ModularFormModEll(7, 12, TruncatedSeries(7, [0] * 5))
    with pytest.raises(ValueError):
        filtration(z)


def test_filtration_fails_loudly_on_a_wrong_weight_tag():
    # weight 14 reductions are spanned by E4^2*E6 alone, so no weight-14
    # form starts 0 + q + ...; a wrong tag must raise, never return
    fake = ModularFormModEll(13, 14, TruncatedSeries(13, [0, 1]))
    with pytest.raises(RuntimeError):
        filtration(fake)


def test_filtration_scales_with_powers():
    # filtration of f^i is i times the filtration of f
    for ell in (13, 17, 19):
        for a, b, c in ((0, 1, 0), (0, 0, 1), (0, 1, 1)):
            base = filtration(eis_product(a, b, c, ell, 12))
            for i in (1, 2, 3):
                f = eis_product(a * i, b * i, c * i, ell, 12)
                assert filtration(f) == i * base


def test_lifted_eisenstein_product_filtrations():
    # weight a*ell + a + 4b + 6c, here checked at one prime; the full
    # grid over four primes runs in the acceptance suite
    ell = 13
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if (a, b, c) == (0, 0, 0):
                    continue
                f = eis_product(a, b, c, ell, 30)
                assert filtration(f) == a * ell + a + 4 * b + 6 * c


# ---------------------------------------------------------------------------
# the polynomials expressing the two classical reductions


def test_a_tilde_small_primes():
    assert compute_a_tilde(5).terms == ((1, 0, 1),)
    assert compute_a_tilde(7).terms == ((0, 1, 1),)


def test_a_tilde_mod_13_matches_the_weight_12_identity():
    # (441 Q^3 + 250 R^2) / 691 reduced mod 13
    inv = pow(691, -1, 13)
    expected = {(3, 0): 441 * inv % 13, (0, 2): 250 * inv % 13}
    assert expected == {(3, 0): 6, (0, 2): 8}
    poly = compute_a_tilde(13)
    assert {(a, b): c for a, b, c in poly.terms} == expected


def test_a_tilde_evaluates_to_one():
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        poly = compute_a_tilde(ell)
        assert poly.weight == ell - 1
        n = sturm(ell - 1) + 1
        assert evaluate(poly, n).agrees_with(TruncatedSeries.one(ell, n))


def test_b_tilde_small_primes():
    # A~ is Q mod 5 and R mod 7; D(Q) = 4R and D(R) = 6Q^2, so B~ is R mod 5
    # and Q^2 mod 7: E6 is E2 mod 5 and E4^2 is E2 mod 7
    assert b_tilde(5).terms == ((0, 1, 1),)
    assert b_tilde(7).terms == ((2, 0, 1),)


def test_b_tilde_evaluates_to_e2():
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        poly = b_tilde(ell)
        assert poly.weight == ell + 1
        n = sturm(ell + 1) + 1
        assert evaluate(poly, n).agrees_with(eisenstein_series(2, ell, n))


def test_isobaric_polynomial_validates_weights():
    # weight 12 has two monomials, Q^3 and R^2
    with pytest.raises(ValueError):
        IsobaricPolynomial(13, 12, (1,))


def test_isobaric_polynomial_rejects_the_states_sparse_terms_allowed():
    # Q^-1 R at weight 2, which has no monomial
    with pytest.raises(ValueError):
        IsobaricPolynomial(5, 2, ((-1, 1, 1),))
    with pytest.raises(ValueError):
        IsobaricPolynomial(5, 2, (1,))
    # a third coefficient at weight 12 would sit on Q^-3 R^4
    with pytest.raises(ValueError):
        IsobaricPolynomial(5, 12, (1, 2, 3))
    # duplicate or unsorted monomials: sparse triples are not coefficients
    with pytest.raises(ValueError):
        IsobaricPolynomial(5, 12, ((3, 0, 1), (3, 0, 2)))
    with pytest.raises(ValueError):
        IsobaricPolynomial(5, 12, ((0, 2, 1), (3, 0, 1)))
    # coefficients must be canonical residues
    for coeffs in ((5, 1), (-1, 1), (1.0, 1)):
        with pytest.raises(ValueError):
            IsobaricPolynomial(5, 12, coeffs)
    # one layout per weight, so equal polynomials compare equal
    poly = IsobaricPolynomial(5, 12, [1, 1])
    assert poly == IsobaricPolynomial(5, 12, (1, 1))
    assert poly.terms == ((3, 0, 1), (0, 2, 1))
    assert str(IsobaricPolynomial(5, 2, ())) == "0"
    assert str(IsobaricPolynomial(5, 0, (3,))) == "3"


def str_reference(poly):
    """The polynomial printer written out for Q and R, to check the shared one against."""
    if not poly.terms:
        return "0"
    parts = []
    for a, b, c in poly.terms:
        mono = "".join(
            (f"Q^{a}" if a > 1 else "Q" if a == 1 else "",
             f"R^{b}" if b > 1 else "R" if b == 1 else "")
        )
        if not mono:
            parts.append(str(c))
        else:
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts)


def test_str_matches_the_reference_printer():
    rng = random.Random(31)
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert str(compute_a_tilde(ell)) == str_reference(compute_a_tilde(ell))
        for weight in range(0, 61, 2):
            length = len(monomial_exponents(weight))
            # zeros and ones often: the zero polynomial, bare monomials, a bare 1
            draws = [(0,) * length, (1,) * length] + [
                tuple(rng.choice((0, 1, rng.randrange(ell))) for _ in range(length))
                for _ in range(4)
            ]
            for coeffs in draws:
                poly = IsobaricPolynomial(ell, weight, coeffs)
                assert str(poly) == str_reference(poly), (ell, weight, coeffs)


def test_form_validation():
    with pytest.raises(ValueError):
        ModularFormModEll(4, 2, TruncatedSeries.one(4, 3))
    with pytest.raises(ValueError):
        ModularFormModEll(7, 3, TruncatedSeries.one(7, 3))
    with pytest.raises(ValueError):
        ModularFormModEll(7, 4, TruncatedSeries.one(5, 3))
    with pytest.raises(ValueError, match="no negative exponents"):
        ModularFormModEll(7, 4, TruncatedSeries(7, [1, 1], valuation=-1))


@pytest.mark.parametrize("modulus", [9, 25, 3])
def test_form_rejects_a_modulus_that_is_not_a_prime_at_least_5(modulus):
    with pytest.raises(ValueError, match="must be a prime"):
        ModularFormModEll(modulus, 4, TruncatedSeries.one(modulus, 3))
    with pytest.raises(ValueError, match="must be a prime"):
        IsobaricPolynomial(modulus, 0, (1,))


def test_form_from_lift_keeps_the_weight():
    lifted = replacement_lift(QuotientSpec(0, -12, 1), 17, 12)
    form = ModularFormModEll.from_lift(lifted)
    assert (form.prime, form.weight) == (17, 128)
