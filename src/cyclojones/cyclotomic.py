"""Cyclotomic polynomials and cyclotomic-product detection.

Builds Phi_n, its symmetric recentering Phi^sym_n and the alternating
products Phi~_{2m} (m odd), reduces Laurent polynomials modulo Phi_n
(their exact values at primitive n-th roots of unity), and detects Laurent
polynomials that are a monomial times a product of cyclotomic
polynomials.  The cyclotomic exponent sequence P = +-prod (1 - x^d)^e_d
decides that question and names the factors; exact division by those
factors alone confirms them.  The Mahler measure of a cyclotomic product
is exactly 1; other inputs are measured numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Optional

from .arith import SMALL_PRIMES, divisors, factorint
from .errors import InexactDivisionError, InternalInconsistencyError, NumericError
from .laurent import (
    MAX_TERMS,
    LaurentPoly,
    _dense,
    _fold,
    _from_dense,
    _long_division,
    _stride_div,
    _stride_mul,
)


@lru_cache(maxsize=None)
def euler_totient(n: int) -> int:
    """phi(n) via prime factorization."""
    if n < 1:
        raise ValueError("totient needs n >= 1")
    out = 1
    for p, e in factorint(n).items():
        out *= p ** (e - 1) * (p - 1)
    return out


@lru_cache(maxsize=None)
def phi(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial, exact, degree phi(n).

    Squarefree n > 1 is built as the Moebius product
    Phi_n = prod over d | n of (1 - x^d)^mu(n/d) on one dense coefficient
    list: the factors with mu = +1 multiply it, then the factors with
    mu = -1, largest d first, divide it exactly.  Each division checks its
    remainder (the top d entries of its running sum), so a wrong factor
    raises InexactDivisionError rather than giving a wrong Phi_n, and
    coefficients never leave the integers.  Non-squarefree n reduces to
    its radical via Phi_n(x) = Phi_rad(n)(x^(n/rad(n))).  An n whose Phi_n
    would have more than MAX_TERMS terms is refused before anything is
    built; as phi(n) >= sqrt(n/2), n > 2 * MAX_TERMS^2 is refused before
    factoring.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if n > 2 * MAX_TERMS**2 or euler_totient(n) > MAX_TERMS:
        raise ValueError(
            f"Phi_{n} has degree phi({n}) > {MAX_TERMS}, over the term budget"
        )
    if n == 1:
        return LaurentPoly({1: 1, 0: -1})
    primes = sorted(factorint(n))
    radical = math.prod(primes)
    if radical != n:
        return phi(radical).substitute_power(n // radical)
    # mu(n/d) = mu(n) * mu(d) for squarefree n
    signed = [(1, (-1) ** len(primes))]
    for p in primes:
        signed += [(d * p, -mu) for d, mu in signed]
    s = [1]
    for d in sorted(d for d, mu in signed if mu > 0):
        s.extend(repeat(0, d))
        _stride_mul(s, d)
    for d in sorted((d for d, mu in signed if mu < 0), reverse=True):
        _stride_div(s, d)
    return _from_dense(0, s)


def residue(p: LaurentPoly, n: int) -> tuple[int, ...]:
    """P modulo Phi_n: its exact value at a primitive n-th root of unity.

    Ascending coefficients, of length phi(n).  P is first folded modulo
    x^n - 1, which Phi_n divides, so negative exponents need no care.
    """
    den = _dense(phi(n))[1]
    return tuple(_long_division(_fold(p, n), den)[1])


def phi_sym(n: int) -> LaurentPoly:
    """x^(-phi(n)/2) * Phi_n: the symmetric Laurent form, n >= 3."""
    if n < 3:
        raise ValueError("phi_sym needs n >= 3 so that phi(n) is even")
    return phi(n).shift(-euler_totient(n) // 2)


@lru_cache(maxsize=None)
def phi_tilde(m: int) -> LaurentPoly:
    """Product of Phi^sym_{2d} over divisors d > 1 of odd m.

    Built as its symmetric list of m alternating coefficients +1, -1, ...,
    +1, which is checked against the product of the Phi_{2d} on every
    cache miss; a mismatch would mean broken polynomial arithmetic.  It
    has m terms, so m > MAX_TERMS is refused before anything is built.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("phi_tilde is defined for odd m >= 1")
    if m > MAX_TERMS:
        raise ValueError(f"phi_tilde({m}) has {m} terms, over the budget of {MAX_TERMS} terms")
    product = LaurentPoly.one()
    for d in divisors(m):
        if d > 1:
            product = product * phi(2 * d)
    h = (m - 1) // 2
    alternating = [1, -1] * h + [1]
    if _dense(product) != (0, alternating):
        raise InternalInconsistencyError(
            f"phi_tilde({m}): product and alternating forms disagree"
        )
    return _from_dense(-h, alternating)


@dataclass(frozen=True)
class CyclotomicFactorization:
    """P == sign * x^monomial_shift * prod Phi_d^mult over factors."""

    monomial_shift: int
    sign: int
    factors: tuple[tuple[int, int], ...]  # (index, multiplicity), ascending

    def reconstruct(self) -> LaurentPoly:
        out = LaurentPoly.monomial(self.sign, self.monomial_shift)
        for d, mult in self.factors:
            for _ in range(mult):
                out = out * phi(d)
        return out

    def to_json(self) -> dict:
        return {
            "monomial_shift": self.monomial_shift,
            "sign": self.sign,
            "factors": [[d, m] for d, m in self.factors],
        }


def _index_bound(deg: int) -> int:
    """An L with n <= L for every n whose totient is at most deg.

    n = phi(n) * prod p/(p - 1) over the primes p dividing n, and
    prod (p - 1) divides phi(n).  Both factors are largest for the first
    primes, so L takes them while prod (p - 1) <= deg.  The primes below
    1000 suffice for any degree below 10^400.
    """
    primes_prod = 1
    totient_prod = 1
    for p in SMALL_PRIMES:
        if totient_prod * (p - 1) > deg:
            break
        primes_prod *= p
        totient_prod *= p - 1
    return deg * primes_prod // totient_prod


def _exponent_sequence(series: list[int], budget: int) -> Optional[list[int]]:
    """The e_d with series == prod (1 - x^d)^e_d modulo x^len(series).

    series is ascending with constant term 1, and is overwritten.  Once
    the factors below d are divided out, e_d is minus the x^d coefficient;
    (1 - x^d)^e_d is then divided out too, one stride pass per unit of
    |e_d|.  Returns None as soon as sum |e_d| exceeds budget.
    """
    top = len(series)
    exps = [0] * top
    used = 0
    for d in range(1, top):
        e = -series[d]
        if not e:
            continue
        used += abs(e)
        if used > budget:
            return None
        exps[d] = e
        for _ in range(e):
            _stride_div(series, d, exact=False)
        for _ in range(-e):
            _stride_mul(series, d)
    return exps


def _cyclotomic_multiplicities(p: LaurentPoly) -> Optional[list[tuple[int, int]]]:
    """The (n, m_n) with P == sign * x^a * prod Phi_n^m_n, or None.

    Decided by the exponent sequence alone.  With P shifted to a
    polynomial of degree D and normalised to constant term 1, a product
    of Phi_n is exactly prod (1 - x^d)^e_d with m_n = sum of e_d over the
    multiples d of n, and each such n has phi(n) <= D, so n <= L =
    _index_bound(D).  The e_d are read from the power series of P modulo
    x^(L+1); sum |e_d| <= sum m_n 2^omega(n) <= 2D caps the work on other
    inputs.  If every m_n >= 0 and sum m_n phi(n) == D, that product is a
    polynomial of degree D <= L agreeing with P/P(0) modulo x^(L+1), so
    the two are equal: a yes here is a theorem, not a guess.
    """
    if p.palindromic_shift() is None and p.antipalindromic_shift() is None:
        return None  # Phi_1 is antipalindromic and every other Phi_n palindromic
    coeffs = _dense(p)[1]
    const = coeffs[0]
    if coeffs[-1] not in (1, -1) or const not in (1, -1):
        return None
    deg = len(coeffs) - 1
    top = _index_bound(deg) + 1
    series = [c * const for c in coeffs] + [0] * (top - len(coeffs))
    exps = _exponent_sequence(series, 2 * deg)
    if exps is None:
        return None
    factors = [(n, m) for n in range(1, top) if (m := sum(exps[n::n]))]
    if any(m < 0 for _, m in factors) or sum(euler_totient(n) * m for n, m in factors) != deg:
        return None
    return factors


def is_cyclotomic_product(p: LaurentPoly) -> Optional[CyclotomicFactorization]:
    """Factor P as sign * x^a * prod Phi_n^mult, or return None.

    The exponent sequence decides and names the factors (see
    _cyclotomic_multiplicities); exact division then confirms them.  Only
    the Phi_n it names are built, and each is divided out until it no
    longer divides, so every multiplicity returned is measured by exact
    division and the quotient left over must be exactly 1.
    """
    if not p:
        raise ValueError("the zero polynomial is not a cyclotomic product")
    expected = _cyclotomic_multiplicities(p)
    if expected is None:
        return None
    shift = p.min_exp
    sign = p.coeff(p.max_exp)
    rem = p.scale(sign, -shift)
    factors = []
    for n, _ in expected:
        mult = 0
        while True:
            try:
                rem = rem.divide_exact(phi(n))
            except InexactDivisionError:
                break
            mult += 1
        factors.append((n, mult))
    if factors != expected or rem != 1:
        raise InternalInconsistencyError(
            f"exponent sequence {expected} and exact division {factors} disagree"
        )
    return CyclotomicFactorization(shift, sign, tuple(factors))


def mahler_measure(p: LaurentPoly) -> float:
    """|lead| * prod max(1, |root|) over the complex roots.

    Exactly 1.0 for a cyclotomic product, decided by the exponent
    sequence: its leading coefficient is +-1 and its roots are roots of
    unity (by Kronecker's theorem these are the only integer polynomials
    of measure 1 with P(0) != 0).  Any other input is measured
    numerically from np.roots, whose last digits can vary with the BLAS
    build and thread count; numpy is imported there, on first use.
    """
    if not p:
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    if _cyclotomic_multiplicities(p) is not None:
        return 1.0
    coeffs = _dense(p)[1][::-1]  # descending for np.roots
    if len(coeffs) == 1:
        return float(abs(coeffs[0]))
    import numpy as np

    try:
        roots = np.roots(coeffs)
    except np.linalg.LinAlgError as exc:
        raise NumericError("root finding did not converge") from exc
    measure = float(abs(coeffs[0]))
    for r in roots:
        measure *= max(1.0, abs(r))
    return measure


def phitilde_root_exponents(m: int) -> list[int]:
    """Exponents j with Phi~_{2m}(zeta_{2m}^j) == 0: odd j in [1, 2m-1], j != m."""
    if m < 3 or m % 2 == 0:
        raise ValueError("root exponents need odd m >= 3")
    return [j for j in range(1, 2 * m, 2) if j != m]
