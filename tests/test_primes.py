import random

import pytest
import sympy

from ivpoly import primes
from ivpoly.errors import InputTooLargeError
from ivpoly.primes import (
    MAX_INDEXED_PRIME,
    MR_PROVEN_BOUND,
    TRIAL_BOUND,
    _PRIMES,
    factorize,
    is_prime,
    odd_prime_index,
    smallest_prime_factor,
)

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 62745, 63973, 75361, 101101, 126217, 172081, 188461, 252601)


def test_matches_sympy_up_to_ten_thousand():
    assert [n for n in range(10**4) if is_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize("n", CARMICHAEL)
def test_carmichael_numbers_are_composite(n):
    assert not is_prime(n)


def test_strong_pseudoprime_to_the_first_five_bases():
    # 3215031751 = 151 * 751 * 28351 passes bases 2, 3, 5 and 7
    assert not is_prime(3215031751)


def test_random_twenty_digit_numbers_match_sympy():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randrange(10**19, 10**20)
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(20):
        p = sympy.nextprime(rng.randrange(10**19, 10**20))
        assert is_prime(p)


def test_machine_word_mersenne_prime():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_no_unproven_prime_verdict():
    # the bound is itself the least strong pseudoprime to all 13 bases
    with pytest.raises(InputTooLargeError):
        is_prime(MR_PROVEN_BOUND)
    with pytest.raises(InputTooLargeError):
        is_prime(2**89 - 1)
    assert not is_prime((2**89 - 1) * (2**61 - 1))  # a witness proves it composite


def test_odd_prime_index_up_to_its_bound():
    assert odd_prime_index(3) == 0
    assert odd_prime_index(99991) == 9590
    assert _PRIMES[:9592] == list(sympy.primerange(2, 10**5))
    assert [odd_prime_index(p) for p in sympy.primerange(3, 10**5)] == list(range(9591))
    with pytest.raises(InputTooLargeError):
        odd_prime_index(sympy.nextprime(MAX_INDEXED_PRIME))


@pytest.mark.parametrize("n", [2, 9, 1, 0, -3, 99999, MAX_INDEXED_PRIME])
def test_odd_prime_index_rejects_two_and_non_primes(n):
    with pytest.raises(ValueError, match="is not an odd prime"):
        odd_prime_index(n)


def _random_prime(rng, digits):
    return sympy.nextprime(rng.randrange(10 ** (digits - 1), 10**digits))


def test_factorize_matches_sympy_up_to_ten_thousand():
    for n in range(1, 10**4):
        assert factorize(n) == sympy.factorint(n), n
    for n in (*range(2, 10**4), 4099**2, TRIAL_BOUND**2 + 1):
        assert smallest_prime_factor(n) == min(sympy.factorint(n)), n


def test_factorize_semiprimes_and_prime_powers_match_sympy():
    rng = random.Random(12)
    cases = []
    for _ in range(40):
        digits = rng.randint(12, 20)
        small = rng.randint(4, digits // 2)
        cases.append(_random_prime(rng, small) * _random_prime(rng, digits - small))
    for _ in range(20):
        e = rng.randint(2, 4)
        cases.append(_random_prime(rng, rng.randint(12, 20) // e) ** e)
    for n in cases:
        fact = factorize(n)
        assert fact == sympy.factorint(n), n
        assert list(fact) == sorted(fact)
        assert smallest_prime_factor(n) == min(fact)


def test_large_cli_constants():
    assert factorize(1000000000000000003) == {1000000000000000003: 1}
    assert factorize(1000000016000000063) == {1000000007: 1, 1000000009: 1}
    assert factorize(2**4 * 3 * 1000000007**2) == {2: 4, 3: 1, 1000000007: 2}


def test_small_factors_never_leave_trial_division(monkeypatch):
    def refuse(*args):
        raise AssertionError("left the trial-division stage")

    monkeypatch.setattr(primes, "is_prime", refuse)
    monkeypatch.setattr(primes, "_rho_divisor", refuse)
    for n in (2**41, 39916800, 257 * 2**32, 4093 * 4091 * 13, TRIAL_BOUND**2 + 1):
        assert factorize(n) == sympy.factorint(n)


def test_rho_budget_exhausted(monkeypatch):
    monkeypatch.setattr(primes, "RHO_BUDGET", 64)
    with pytest.raises(InputTooLargeError):
        factorize(1000000007 * 1000000009)


def test_unproven_cofactor():
    # 2^89 - 1 is prime but above the proven Miller-Rabin range
    with pytest.raises(InputTooLargeError):
        factorize(6 * (2**89 - 1))
    assert smallest_prime_factor(6 * (2**89 - 1)) == 2
    assert smallest_prime_factor(4093 * (2**89 - 1)) == 4093
