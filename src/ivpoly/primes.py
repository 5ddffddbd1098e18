"""Small prime utilities shared across the package."""
from __future__ import annotations

from bisect import bisect_left
from math import gcd

from .errors import InputTooLargeError

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
#: Miller-Rabin bases: the first 13 primes
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: these bases decide primality for every n below this (Sorenson-Webster 2017)
MR_PROVEN_BOUND = 3317044064679887385961981
#: factorize trial-divides below this even bound; every factor above it comes from rho
TRIAL_BOUND = 2**12
#: Pollard-Brent rho steps allowed in one factorize call
RHO_BUDGET = 2**20
#: rho steps whose differences share one gcd
_RHO_BLOCK = 64
#: odd_prime_index answers up to this prime; the Grams generator 1/(2^i p_i)
#: of the last prime below it (99991, odd index 9590) has about 2900 digits
MAX_INDEXED_PRIME = 10**5


def _extend_to(count: int) -> None:
    n = _PRIMES[-1]
    while len(_PRIMES) < count:
        n += 2
        for p in _PRIMES:
            if p * p > n:
                _PRIMES.append(n)
                break
            if n % p == 0:
                break


def nth_prime(i: int) -> int:
    """0-indexed: nth_prime(0) == 2."""
    if i < 0:
        raise ValueError("prime index must be nonnegative")
    _extend_to(i + 1)
    return _PRIMES[i]


def odd_prime(i: int) -> int:
    """0-indexed odd primes: odd_prime(0) == 3, odd_prime(1) == 5, ..."""
    return nth_prime(i + 1)


def odd_prime_index(p: int) -> int:
    """Position of p in the odd primes 3, 5, 7, 11, ...

    Extends the prime table until it reaches p, then bisects it.  Primes
    above MAX_INDEXED_PRIME raise InputTooLargeError; 2 and every number
    that is not a prime raise ValueError.
    """
    if p > MAX_INDEXED_PRIME:
        raise InputTooLargeError(f"prime {p} exceeds the index bound {MAX_INDEXED_PRIME}")
    while _PRIMES[-1] < p:
        _extend_to(2 * len(_PRIMES))
    i = bisect_left(_PRIMES, p)
    if p == 2 or _PRIMES[i] != p:
        raise ValueError(f"{p} is not an odd prime")
    return i - 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 13 prime bases.

    A composite verdict comes with a witness, so it always holds.  A prime
    verdict is proven below MR_PROVEN_BOUND; above it, n passing every base
    raises InputTooLargeError rather than answering from a probable-prime
    test.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_PROVEN_BOUND:
        raise InputTooLargeError(f"primality of a {len(str(n))}-digit number is not proven")
    return True


def smallest_prime_factor(n: int) -> int:
    """The least prime factor of n >= 2: by trial division when it is at
    most TRIAL_BOUND, else the least key of ``factorize(n)``."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n % 2 == 0:
        return 2
    for d in range(3, TRIAL_BOUND, 2):
        if d * d > n:
            return n
        if n % d == 0:
            return d
    return next(iter(factorize(n)))


def _rho_divisor(n: int, c: int, budget: int) -> tuple[int, int]:
    """(a divisor of the odd composite n, steps left) by Pollard-Brent rho.

    The walk is y -> y^2 + c mod n.  Products of _RHO_BLOCK differences
    share one gcd; when that gcd is n, the block is replayed one step at a
    time.  The divisor is n when the walk closes without a proper divisor.
    """
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        budget -= 2 * r  # r steps to move x, at most r more to compare
        if budget < 0:
            raise InputTooLargeError(
                f"no factor of a {len(str(n))}-digit number within the rho step budget"
            )
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(_RHO_BLOCK, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += _RHO_BLOCK
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
    return g, budget


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as a prime -> exponent map, primes increasing.

    Trial division by 2 and the odd numbers below TRIAL_BOUND; a cofactor
    left above TRIAL_BOUND^2 is tested by ``is_prime`` and, if composite,
    split by Pollard-Brent rho (Brent, BIT 20 (1980)) within RHO_BUDGET
    steps for the whole call.  InputTooLargeError when the budget runs out
    or when ``is_prime`` cannot prove a cofactor prime.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    out: dict[int, int] = {}
    twos = (n & -n).bit_length() - 1
    if twos:
        out[2] = twos
        n >>= twos
    for d in range(3, TRIAL_BOUND, 2):
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if n == 1:
        return out
    budget = RHO_BUDGET
    large, todo = [], [n]
    while todo:
        m = todo.pop()
        # a composite m has a prime factor above TRIAL_BOUND, so m > TRIAL_BOUND^2
        if m <= TRIAL_BOUND**2 or is_prime(m):
            large.append(m)
            continue
        g, c = m, 0
        while g == m:
            c += 1
            g, budget = _rho_divisor(m, c, budget)
        todo += [g, m // g]
    for p in sorted(large):
        out[p] = out.get(p, 0) + 1
    return out


def divisors_from_factorization(fact: dict[int, int]) -> list[int]:
    divs = [1]
    for p, e in fact.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def merge_factorizations(*facts: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for fact in facts:
        for p, e in fact.items():
            out[p] = out.get(p, 0) + e
    return out
