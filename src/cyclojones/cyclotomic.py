"""Cyclotomic polynomials and cyclotomic-product detection.

Builds Phi_n, its symmetric recentering Phi^sym_n and the alternating
products Phi~_{2m} (m odd), reduces Laurent polynomials modulo Phi_n
(their exact values at primitive n-th roots of unity), detects Laurent
polynomials that are a monomial times a product of cyclotomic
polynomials, and computes the Mahler measure numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from sympy import divisors, factorint

from .errors import InexactDivisionError, InternalInconsistencyError, NumericError
from .laurent import LaurentPoly, _dense, _fold, _long_division


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

    Squarefree n is built one prime at a time through
    Phi_{mp}(x) = Phi_m(x^p)/Phi_m(x); non-squarefree n reduces to its
    radical via Phi_n(x) = Phi_rad(n)(x^(n/rad(n))).  The first step is
    LaurentPoly.divide_exact, the package's one long division, so
    coefficients never leave the integers.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if n == 1:
        return LaurentPoly({1: 1, 0: -1})
    primes = sorted(factorint(n))
    radical = math.prod(primes)
    if radical != n:
        return phi(radical).substitute_power(n // radical)
    out = phi(1)
    for p in primes:
        out = out.substitute_power(p).divide_exact(out)
    return out


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

    Equals the symmetric polynomial with m alternating coefficients
    +1, -1, ..., +1.  Both forms are computed and compared on every call;
    a mismatch would mean broken polynomial arithmetic.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("phi_tilde is defined for odd m >= 1")
    product = LaurentPoly.one()
    for d in divisors(m):
        if d > 1:
            product = product * phi_sym(2 * d)
    h = (m - 1) // 2
    alternating = LaurentPoly({e: (1 if (e + h) % 2 == 0 else -1) for e in range(-h, h + 1)})
    if product != alternating:
        raise InternalInconsistencyError(
            f"phi_tilde({m}): product and alternating forms disagree"
        )
    return product


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


def is_cyclotomic_product(p: LaurentPoly) -> Optional[CyclotomicFactorization]:
    """Factor P as sign * x^a * prod Phi_d^mult, or return None.

    Phi_1 is antipalindromic and every other Phi_d palindromic, so a
    cyclotomic product is one or the other; P that is neither is rejected
    before any division.  Otherwise trial-divides by Phi_d for ascending d
    while phi(d) fits in the remaining degree; d is capped at 2*deg^2,
    which is safe because phi(d) >= sqrt(d/2).
    """
    if not p:
        raise ValueError("the zero polynomial is not a cyclotomic product")
    if p.palindromic_shift() is None and p.antipalindromic_shift() is None:
        return None
    shift = p.min_exp
    rem = p.shift(-shift)
    sign = rem.coeff(rem.max_exp)
    if sign not in (1, -1):
        return None
    if sign == -1:
        rem = -rem
    factors: list[tuple[int, int]] = []
    d = 1
    while rem != 1:
        deg = rem.max_exp
        if deg == 0:
            return None  # nonunit constant left over
        if d > 2 * deg * deg:
            return None
        if euler_totient(d) <= deg:
            mult = 0
            while True:
                try:
                    rem = rem.divide_exact(phi(d))
                except InexactDivisionError:
                    break
                mult += 1
            if mult:
                factors.append((d, mult))
        d += 1
    return CyclotomicFactorization(shift, sign, tuple(factors))


def mahler_measure(p: LaurentPoly) -> float:
    """|lead| * prod max(1, |root|) over the complex roots, numerically."""
    if not p:
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    coeffs = _dense(p)[1][::-1]  # descending for np.roots
    if len(coeffs) == 1:
        return float(abs(coeffs[0]))
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
