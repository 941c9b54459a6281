"""Integer arithmetic on the package's indices: primality, factoring, divisors.

The cyclotomic indices n, the orders 2f(k), 2g(k) and the Mersenne
candidates 2^p - 1 are small integers, so four functions cover what the
package needs.  `primes_below` sieves a bytearray.  `isprime` is
Miller-Rabin with the first 13 primes as bases, which is deterministic
below PRIME_TEST_LIMIT (Sorenson and Webster, Math. Comp. 2017) and
refuses larger inputs.  `factorint`
divides out the primes below 1000, tests the cofactor with `isprime`,
and splits a composite cofactor with Pollard-Brent rho, so a large prime
or a product of two large primes costs milliseconds, not a trial
division up to its square root.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Miller-Rabin with _MR_BASES is proved exact for every n below this.
PRIME_TEST_LIMIT = 3317044064679887385961981


def primes_below(n: int) -> tuple[int, ...]:
    """The primes below n >= 2, ascending: a sieve of Eratosthenes on a bytearray."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


SMALL_PRIMES = primes_below(1000)


def isprime(n: int) -> bool:
    """Whether n is prime; ValueError at or above PRIME_TEST_LIMIT."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"isprime is proved only below {PRIME_TEST_LIMIT}, got {n}")
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
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


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Brent's variant of Pollard rho)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ValueError(f"rho found no factor of {n}")


def _split(n: int, out: dict[int, int]) -> None:
    """Add the prime factors of n, which has none below 1000, to out."""
    if n == 1:
        return
    if isprime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _rho(n)
    _split(d, out)
    _split(n // d, out)


def factorint(n: int) -> dict[int, int]:
    """The prime factorisation of n >= 1 as {prime: exponent}, primes ascending.

    ValueError when a cofactor without prime factors below 1000 reaches
    PRIME_TEST_LIMIT, as isprime cannot decide it.
    """
    if n < 1:
        raise ValueError("factorint needs n >= 1")
    out: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            if n > 1:
                out[n] = 1
            return out
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    _split(n, out)
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorint(n).items():
        power = divs
        for _ in range(e):
            power = [d * p for d in power]
            divs = divs + power
    divs.sort()
    return divs
