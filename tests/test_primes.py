import random

import pytest
import sympy

from ivpoly.errors import InputTooLargeError
from ivpoly.primes import MAX_INDEXED_PRIME, MR_PROVEN_BOUND, _PRIMES, is_prime, odd_prime_index

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
    assert odd_prime_index(99991) == 9590
    assert _PRIMES[:9592] == list(sympy.primerange(2, 10**5))
    with pytest.raises(InputTooLargeError):
        odd_prime_index(sympy.nextprime(MAX_INDEXED_PRIME))
