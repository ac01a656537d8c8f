"""Exact primality and factorization for the moduli the package works with.

`is_prime` is Miller-Rabin on the twelve prime bases 2, 3, ..., 37, after
trial division by them, which alone decides every n below 37^2.  No
composite below PSI_12 = 318665857834031151167461 is a strong pseudoprime
to all twelve (Sorenson and Webster, Math. Comp. 86 (2017)), so below that
bound the answer is a proof; at or above it `is_prime` raises instead of
guessing.  Every prime check of the package goes through this module.
"""

from __future__ import annotations

BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: the least strong pseudoprime to every base in BASES
PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Whether n is prime, decided exactly; ValueError for n >= PSI_12."""
    if n >= PSI_12:
        raise ValueError(f"primality of {n} is unproven at or above {PSI_12}")
    if n < 2:
        return False
    for p in BASES:
        if n % p == 0:
            return n == p
    if n < 37 * 37:
        # a composite below 37^2 has a prime factor of at most 31
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(ell: int, least: int = 5) -> None:
    """Raise ValueError unless ell is a prime at least `least`."""
    if ell < least or not is_prime(ell):
        raise ValueError(f"ell must be a prime at least {least}, got {ell}")


def prime_factors(n: int) -> list[int]:
    """The distinct prime divisors of n, ascending; trial division to a prime cofactor."""
    factors = []
    p = 2
    while n > 1 and not is_prime(n):
        while n % p:
            p += 1
        factors.append(p)
        while n % p == 0:
            n //= p
    if n > 1:
        factors.append(n)
    return factors
