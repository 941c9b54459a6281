import math
import subprocess
import sys
import time

import pytest
import sympy

from cyclojones.arith import PRIME_TEST_LIMIT, divisors, factorint, isprime
from cyclojones.cyclotomic import euler_totient

N = 10**5
PRIMES = set(sympy.sieve.primerange(N + 1))

# strong pseudoprimes to the first bases, Carmichael numbers, and large
# primes and semiprimes that trial division alone cannot finish
HARD = [
    2047,  # base 2
    1373653,  # bases 2, 3
    25326001,  # bases 2 .. 5
    3215031751,  # bases 2 .. 7
    2152302898747,  # bases 2 .. 11
    3474749660383,  # bases 2 .. 13
    341550071728321,  # bases 2 .. 17
    3825123056546413051,  # bases 2 .. 23
    318665857834031151167461,  # bases 2 .. 37
    561,
    41041,
    2**31 - 1,
    2**61 - 1,
    2147483647 * 2147483629,  # two 31-bit primes
    2147483647**2,
    (2**61 - 1) * 997**2,
    600851475143,
    2**64 + 1,
]


class TestAgainstSympy:
    def test_isprime_exhaustive(self):
        assert [n for n in range(1, N + 1) if isprime(n)] == sorted(PRIMES)

    def test_factorint_exhaustive(self):
        # prime keys whose powers multiply to n: the factorisation, by
        # unique factorisation, so this is equality with sympy.factorint
        for n in range(1, N + 1):
            fac = factorint(n)
            assert list(fac) == sorted(fac) and fac.keys() <= PRIMES, n
            assert math.prod(p**e for p, e in fac.items()) == n, n

    def test_divisors_exhaustive(self):
        table = [[] for _ in range(N + 1)]
        for d in range(1, N + 1):
            for m in range(d, N + 1, d):
                table[m].append(d)
        for n in range(1, N + 1):
            assert divisors(n) == table[n], n

    @pytest.mark.parametrize("n", list(range(1, 200)) + [720720, 997**2 * 2**5, 2**20])
    def test_small_values_equal_sympy(self, n):
        assert factorint(n) == sympy.factorint(n)
        assert divisors(n) == sympy.divisors(n)
        assert isprime(n) == sympy.isprime(n)

    @pytest.mark.parametrize("n", HARD)
    def test_hard_cases(self, n):
        assert isprime(n) == sympy.isprime(n)
        assert factorint(n) == sympy.factorint(n)

    def test_pseudoprimes_are_composite(self):
        assert not any(isprime(n) for n in HARD[:11])

    def test_divisors_of_a_semiprime(self):
        p, q = 2147483647, 2147483629
        assert divisors(p * q) == [1, q, p, p * q]


class TestLimits:
    def test_large_prime_totient_is_prompt(self):
        euler_totient.cache_clear()
        start = time.perf_counter()
        assert euler_totient(2**61 - 1) == 2**61 - 2
        assert time.perf_counter() - start < 0.1

    def test_isprime_refuses_above_the_proved_range(self):
        assert isprime(PRIME_TEST_LIMIT - 2) == sympy.isprime(PRIME_TEST_LIMIT - 2)
        with pytest.raises(ValueError):
            isprime(PRIME_TEST_LIMIT)
        with pytest.raises(ValueError):
            isprime(2**89 - 1)
        assert not isprime(2**89)  # even: decided before the limit applies

    @pytest.mark.parametrize("n", [0, -6])
    def test_nonpositive_rejected(self, n):
        assert not isprime(n)
        with pytest.raises(ValueError):
            factorint(n)
        with pytest.raises(ValueError):
            divisors(n)


def run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports this checkout's package."""
    path = [p for p in sys.path if p]
    prelude = f"import sys; sys.path[:0] = {path!r}\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


class TestRuntimeImports:
    def test_import_loads_neither_sympy_nor_numpy(self):
        out = run_fresh(
            "import cyclojones, cyclojones.cli\n"
            "print(sorted(m for m in ('sympy', 'numpy') if m in sys.modules))"
        )
        assert out == "[]"

    def test_numeric_mahler_loads_numpy_on_first_use(self):
        out = run_fresh(
            "from cyclojones import mahler_measure, parse_poly\n"
            "before = 'numpy' in sys.modules\n"
            "m = mahler_measure(parse_poly('2t - 1'))\n"
            "print(before, 'numpy' in sys.modules, m)"
        )
        assert out == "False True 2.0"

    def test_over_budget_mahler_refused_before_numpy(self):
        out = run_fresh(
            "from cyclojones import LaurentPoly, mahler_measure\n"
            "from cyclojones.cyclotomic import MAX_NUMERIC_DEGREE\n"
            "try:\n"
            "    mahler_measure(LaurentPoly({MAX_NUMERIC_DEGREE + 1: 1, 0: -2}))\n"
            "except ValueError as exc:\n"
            "    print('numpy' in sys.modules, exc)"
        )
        assert out == "False a numeric Mahler measure of degree 2001 is over the budget of degree 2000"

    def test_iteration_loads_no_numpy_module_beyond_np_roots(self):
        # degree 167 takes the Aberth iteration, whose set check adds numpy.fft alone
        loaded = "print(*(m for m in sys.modules if m.startswith('numpy')))"
        by_roots = run_fresh("import numpy\nnumpy.roots([1, 2, 3])\n" + loaded)
        by_iteration = run_fresh(
            "from cyclojones import jones_wnk, mahler_measure\n"
            "mahler_measure(jones_wnk(28, 4))\n" + loaded
        )
        extra = set(by_iteration.split()) - set(by_roots.split())
        assert "numpy.fft" in extra
        assert all(m == "numpy.fft" or m.startswith("numpy.fft.") for m in extra), extra
