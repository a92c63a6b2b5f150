import math
import random

import pytest

from mprsa import (
    NotInvertible,
    ParameterError,
    SamplingExhausted,
    is_probable_prime,
    jacobi,
    mod_inverse,
    primes_below,
    sample_unit_with_jacobi_one,
)


def sieve_oracle(bound):
    """Independent sieve used to cross-check primes_below and Miller-Rabin."""
    flags = [True] * max(bound, 2)
    flags[0] = flags[1] = False
    for i in range(2, bound):
        if flags[i]:
            for m in range(2 * i, bound, i):
                flags[m] = False
    return [i for i in range(bound) if flags[i]]


class TestModInverse:
    def test_worked_example_against_brute_force(self):
        oracle = next(x for x in range(7) if 3 * x % 7 == 1)
        assert mod_inverse(3, 7) == oracle == 5

    def test_identity(self):
        for m in (2, 7, 101, 1 << 31):
            assert mod_inverse(1, m) == 1

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            mod_inverse(4, 8)

    def test_product_is_one(self, rng):
        for _ in range(100):
            m = rng.randrange(3, 1 << 32)
            a = rng.randrange(1, m)
            if math.gcd(a, m) != 1:
                continue
            assert a * mod_inverse(a, m) % m == 1


class TestJacobi:
    def test_one_over_anything(self):
        for n in range(3, 200, 2):
            assert jacobi(1, n) == 1

    def test_shared_factor(self):
        assert jacobi(0, 9) == 0
        assert jacobi(6, 9) == 0

    def test_euler_criterion_oracle(self):
        # For prime p, (a/p) agrees with a^((p-1)/2) mod p.
        for p in (3, 5, 7, 11, 13):
            for a in range(p):
                euler = pow(a, (p - 1) // 2, p)
                expected = {1: 1, p - 1: -1, 0: 0}[euler]
                assert jacobi(a, p) == expected

    def test_multiplicative_in_top_argument(self, rng):
        for _ in range(300):
            n = rng.randrange(1, 5000) * 2 + 1
            if n < 3:
                continue
            a = rng.randrange(0, n)
            b = rng.randrange(0, n)
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    def test_even_or_small_modulus_rejected(self):
        for n in (0, 1, 2, 4, 100):
            with pytest.raises(ParameterError):
                jacobi(3, n)


class TestIsProbablePrime:
    def test_small_examples(self):
        assert is_probable_prime(7, 20)
        assert not is_probable_prime(9, 20)

    def test_agreement_with_sieve(self):
        rng = random.Random(7)
        primes = set(sieve_oracle(10_000))
        for n in range(10_000):
            assert is_probable_prime(n, 20, rng=rng) == (n in primes), n

    def test_rounds_validated(self):
        with pytest.raises(ParameterError):
            is_probable_prime(7, 0)


class TestPrimesBelow:
    def test_examples(self):
        assert primes_below(10) == [3, 5, 7]
        assert primes_below(4) == [3]
        assert primes_below(3) == []

    def test_matches_sieve_oracle(self):
        for bound in (3, 4, 10, 100, 541, 10_000, 100_000):
            assert primes_below(bound) == [p for p in sieve_oracle(bound) if p > 2]

    def test_sorted_and_odd(self):
        ps = primes_below(1000)
        assert ps == sorted(ps)
        assert ps[0] == 3
        assert all(p % 2 for p in ps)


class TestSampleUnit:
    def test_postcondition_property(self):
        for seed in range(50):
            rng = random.Random(seed)
            n = 2 * random.Random(seed + 1000).randrange(8, 1 << 20) + 1
            gamma = sample_unit_with_jacobi_one(n, rng)
            assert 2 <= gamma < n
            assert math.gcd(gamma, n) == 1
            assert jacobi(gamma, n) == 1

    def test_accepted_set_for_fifteen(self):
        oracle = {
            g for g in range(2, 15) if math.gcd(g, 15) == 1 and jacobi(g, 15) == 1
        }
        seen = {sample_unit_with_jacobi_one(15, random.Random(s)) for s in range(400)}
        assert seen == oracle

    def test_deterministic_per_seed(self):
        a = sample_unit_with_jacobi_one(10_403, random.Random(42))
        b = sample_unit_with_jacobi_one(10_403, random.Random(42))
        assert a == b

    def test_retry_cap(self):
        class StuckRandom(random.Random):
            def randrange(self, *args, **kwargs):
                return 3  # shares a factor with 15 forever

        with pytest.raises(SamplingExhausted):
            sample_unit_with_jacobi_one(15, StuckRandom())

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            sample_unit_with_jacobi_one(9, random.Random(0))
        with pytest.raises(ParameterError):
            sample_unit_with_jacobi_one(16, random.Random(0))
