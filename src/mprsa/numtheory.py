"""Arbitrary-precision integer helpers used by every protocol phase.

All functions are pure. The probabilistic ones take an explicit random
source so whole runs can be replayed from a seed; when omitted they fall
back to the module-level `random` generator.
"""

import math
import random

from .errors import NotInvertible, ParameterError, SamplingExhausted

# About half the units of a valid modulus have Jacobi symbol 1, so hitting
# this cap means the modulus is almost certainly corrupted.
SAMPLE_RETRY_CAP = 4096


def mod_inverse(a: int, modulus: int) -> int:
    """Return the inverse of a modulo modulus.

    Raises NotInvertible when gcd(a, modulus) != 1.
    """
    if modulus < 2:
        raise ParameterError(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertible(f"{a} has no inverse modulo {modulus}") from None


def jacobi(a: int, n: int) -> int:
    """Return the Jacobi symbol (a/n) for odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise ParameterError(f"Jacobi symbol needs an odd modulus >= 3, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_probable_prime(n: int, rounds: int = 40, *, rng: random.Random | None = None) -> bool:
    """Miller-Rabin test with uniformly random bases.

    False means composite with certainty; True means prime except with
    probability at most 4**-rounds.
    """
    if rounds < 1:
        raise ParameterError(f"rounds must be >= 1, got {rounds}")
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    rng = rng if rng is not None else random
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(bound: int) -> list[int]:
    """All odd primes p with 3 <= p < bound, ascending.

    2 is deliberately excluded: the share construction forces odd
    candidates, so a 2-divisibility test would never reject anything.
    """
    if bound <= 3:
        return []
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(3, bound, 2) if sieve[i]]


def sample_unit_with_jacobi_one(modulus: int, rng: random.Random) -> int:
    """Rejection-sample gamma in [2, modulus-1] with gcd(gamma, modulus) = 1
    and Jacobi symbol (gamma/modulus) = 1."""
    if modulus < 15 or modulus % 2 == 0:
        raise ParameterError(f"modulus must be odd and >= 15, got {modulus}")
    for _ in range(SAMPLE_RETRY_CAP):
        gamma = rng.randrange(2, modulus)
        if math.gcd(gamma, modulus) == 1 and jacobi(gamma, modulus) == 1:
            return gamma
    raise SamplingExhausted(
        f"no unit with Jacobi symbol 1 found in {SAMPLE_RETRY_CAP} draws"
    )
