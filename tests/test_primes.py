import random

import pytest
from sympy import isprime, primefactors, primerange

from eiscong import primes
from eiscong.primes import PSI_12, is_prime, prime_factors, require_prime

#: the least strong pseudoprime to the eleven prime bases 2..31
PSI_11 = 3825123056546413051


def test_is_prime_agrees_with_sympy_below_two_hundred_thousand():
    assert [n for n in range(-5, 200_000) if is_prime(n)] == list(primerange(200_000))


def test_is_prime_agrees_with_sympy_isprime_below_three_hundred_thousand():
    # below 37^2 trial division by the bases decides without Miller-Rabin
    assert all(is_prime(n) == isprime(n) for n in range(300_000))


def test_is_prime_agrees_with_sympy_on_random_70_bit_numbers():
    rng = random.Random(70)
    for _ in range(20_000):
        n = rng.getrandbits(70) | 1 << 69
        assert is_prime(n) == isprime(n), n


def test_is_prime_catches_the_strong_pseudoprime_to_the_first_eleven_bases():
    assert not isprime(PSI_11)
    assert not is_prime(PSI_11)


def test_is_prime_proves_a_mersenne_prime():
    assert is_prime(2**61 - 1)


@pytest.mark.parametrize("n", [PSI_12, PSI_12 + 2, 2**89 - 1])
def test_is_prime_refuses_numbers_at_or_above_psi_12(n):
    with pytest.raises(ValueError, match="unproven"):
        is_prime(n)


def test_psi_12_would_pass_all_twelve_bases_without_the_bound(monkeypatch):
    # the reason for the bound: PSI_12 is composite, yet a strong probable
    # prime to every base is_prime uses
    assert not isprime(PSI_12)
    monkeypatch.setattr(primes, "PSI_12", PSI_12 + 1)
    assert is_prime(PSI_12)


@pytest.mark.parametrize("ell, least", [(5, 5), (3, 3), (2, 2), (10007, 5)])
def test_require_prime_accepts(ell, least):
    require_prime(ell, least)


@pytest.mark.parametrize("ell, least", [(3, 5), (9, 5), (25, 5), (1, 2), (-7, 2), (2, 3)])
def test_require_prime_rejects_with_one_message(ell, least):
    with pytest.raises(ValueError, match=f"ell must be a prime at least {least}, got {ell}"):
        require_prime(ell, least)


def test_prime_factors_agree_with_sympy_up_to_ten_thousand():
    for n in range(1, 10_001):
        assert prime_factors(n) == primefactors(n), n


def test_prime_factors_of_products_of_two_primes_near_a_million():
    primes = list(primerange(999_000, 1_001_000))
    rng = random.Random(6)
    for _ in range(20):
        p, q = rng.choice(primes), rng.choice(primes)
        n = p * q * rng.choice((1, 2, 12, 7**3))
        assert prime_factors(n) == primefactors(n), n
