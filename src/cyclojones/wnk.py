"""Closed-form Jones polynomials of the knot family W(n,k).

The family is indexed by an integer n and a nonnegative integer k.  This
module holds the closed form for V_{W(n,k)}, the classification of which
members have symmetric (hence cyclotomic) Jones polynomials, the writhe
and crossing-bound formulas, the quadruplet table, and the Mersenne-prime
witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .arith import isprime
from .cyclotomic import phi_sym, phi_tilde
from .errors import InexactDivisionError, InternalInconsistencyError
from .laurent import MAX_TERMS, LaurentPoly, _dense, _from_dense, _stride_div, poly_to_json


class FamilyParams(NamedTuple):
    n: int
    k: int


class Family(Enum):
    NOT_SYMMETRIC = "not_symmetric"
    K_MINUS_1 = "n=k-1"
    K = "n=k"
    TWO_K = "n=2k"
    TWO_K_PLUS_1 = "n=2k+1"


@dataclass(frozen=True)
class SymmetryClass:
    family: Family
    m: Optional[int] = None  # odd index: V == phi_tilde(m) scaled to 2m
    source: Optional[str] = None  # "f(k)" or "g(k)" provenance

    @property
    def symmetric(self) -> bool:
        return self.family is not Family.NOT_SYMMETRIC

    def to_json(self) -> dict:
        return {"family": self.family.value, "m": self.m, "source": self.source}


NOT_SYMMETRIC = SymmetryClass(Family.NOT_SYMMETRIC)


def f(k: int) -> int:
    return k * k + k - 1


def g(k: int) -> int:
    return 2 * k * k - 1


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError("k must be >= 0")


def d_exponents(n: int, k: int) -> tuple[int, ...]:
    """The six raw exponents of d_polynomial(n, k), whose signs are - + + - + -."""
    return (
        (k + 2) * n + 1,
        (k + 1) * (n + 1) + k + 1,
        (k + 1) * (n + 1),
        k * (n + 3) + 1,
        1,
        0,
    )


def d_polynomial(n: int, k: int) -> LaurentPoly:
    """The degree-heavy factor of the closed form, divisible by t^2 - 1."""
    _check_k(k)
    return LaurentPoly(zip(d_exponents(n, k), (-1, 1, 1, -1, 1, -1)))


def _check_span(n: int, k: int) -> LaurentPoly:
    """d_polynomial(n, k), or ValueError when it spans more than MAX_TERMS exponents."""
    d = d_polynomial(n, k)
    if d.span() > MAX_TERMS:
        raise ValueError(
            f"W({n},{k}): the closed form spans {d.span()} exponents, over the "
            f"budget of {MAX_TERMS} terms"
        )
    return d


def _quotient_one_minus_t2(numerator: LaurentPoly, shift: int, name: str) -> LaurentPoly:
    """t^shift * numerator / (1 - t^2), by one stride division.

    Every closed form divided here is divisible by a theorem, so the two
    remainder entries of the running sum must be zero; a nonzero one
    raises InternalInconsistencyError naming `name`.
    """
    lo, s = _dense(numerator)
    try:
        _stride_div(s, 2)
    except InexactDivisionError as exc:
        raise InternalInconsistencyError(
            f"{name}: closed-form numerator not divisible by 1 - t^2"
        ) from exc
    return _from_dense(lo + shift, s, numerator.variable)


def jones_wnk(n: int, k: int) -> LaurentPoly:
    """Jones polynomial of W(n,k) by the closed form.

    The division by t^2 - 1 and the knot conditions V(1) = 1, V'(1) = 0
    are theorems, so they are asserted on every call and a failure raises
    rather than returning a wrong value.  (n, k) whose numerator spans more
    than MAX_TERMS exponents is rejected before anything dense is built.
    """
    d = _check_span(n, k)
    prefactor_exp = n * (n - 1) // 2 + k * (k - 1) - 2 * n * k
    # d / (t^2 - 1) == -d / (1 - t^2)
    v = _quotient_one_minus_t2(-d, prefactor_exp, f"W({n},{k})")
    value, deriv = v.value_and_derivative_at_one()
    if value != 1 or deriv != 0:
        raise InternalInconsistencyError(
            f"W({n},{k}): V(1)={value}, V'(1)={deriv}; expected (1, 0)"
        )
    return v


def classify_symmetry(n: int, k: int) -> SymmetryClass:
    """Which of the four symmetric families (n,k) belongs to, if any.

    Driven by the arithmetic condition on (n,k); the polynomial identity
    V == phi_tilde(m) is then re-checked, since the classification theorem
    is an equivalence.  For k = 0 every member is reported NOT_SYMMETRIC
    (the nontrivial ones genuinely are; the trivial ones have V = 1).
    """
    _check_k(k)
    if k == 0:
        return NOT_SYMMETRIC
    if n == k - 1:
        out = SymmetryClass(Family.K_MINUS_1, f(k), f"f({k})")
    elif n == k:
        out = SymmetryClass(Family.K, f(k + 1), f"f({k + 1})")
    elif n == 2 * k:
        out = SymmetryClass(Family.TWO_K, g(k + 1), f"g({k + 1})")
    elif n == 2 * k + 1:
        out = SymmetryClass(Family.TWO_K_PLUS_1, g(k + 1), f"g({k + 1})")
    else:
        out = NOT_SYMMETRIC
    v = jones_wnk(n, k)
    if out.symmetric:
        if v != phi_tilde(out.m):
            raise InternalInconsistencyError(
                f"W({n},{k}) classified {out.family.value} but V != phi_tilde({out.m})"
            )
    elif v.is_symmetric():
        raise InternalInconsistencyError(
            f"W({n},{k}) classified non-symmetric but V is symmetric"
        )
    return out


def is_trivial_unknot(n: int, k: int) -> bool:
    """True exactly for the family members known to be the unknot."""
    _check_k(k)
    return (k == 0 and n in (1, 0, -1, -2)) or (n, k) == (0, 1)


def writhe_wnk(n: int, k: int) -> int:
    """Writhe of the standard arrow diagram of W(n,k)."""
    _check_k(k)
    return n * n + n + 2 * k * k + k - 2 * n * k


def crossing_bound(n: int, k: int) -> int:
    """Upper bound k^2 + (n+k)^2 - 1 on the crossing number (n, k >= 0, n+k > 0)."""
    if n < 0 or k < 0 or n + k <= 0:
        raise ValueError("crossing bound needs n >= 0, k >= 0, n + k > 0")
    return k * k + (n + k) * (n + k) - 1


def polynomial_name(m: int) -> str:
    """Display name for phi_tilde(m): single Phi^sym when 2m is twice a prime."""
    if m == 1:
        return "1"
    if isprime(m):
        return f"Phi_sym_{2 * m}"
    return f"Phi_tilde_{2 * m}"


@dataclass(frozen=True)
class TableRow:
    params: FamilyParams
    classification: SymmetryClass
    polynomial: LaurentPoly
    polynomial_name: str
    crossing_bound: int

    def to_json(self) -> dict:
        return {
            "n": self.params.n,
            "k": self.params.k,
            "family": self.classification.family.value,
            "m": self.classification.m,
            "polynomial": poly_to_json(self.polynomial),
            "polynomial_name": self.polynomial_name,
            "crossing_bound": self.crossing_bound,
        }


def generate_table(k_max: int) -> list[TableRow]:
    """The quadruplets (k-1,k), (k,k), (2k,k), (2k+1,k) for k = 1..k_max.

    Raises ValueError before classifying any row when the rows would hold
    more than MAX_TERMS terms in all.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    total = 0
    for k in range(1, k_max + 1):
        # phi_tilde(m) has m terms: m = f(k), f(k+1), g(k+1), g(k+1)
        total += f(k) + f(k + 1) + 2 * g(k + 1)
        if total > MAX_TERMS:
            raise ValueError(
                f"the table for k <= {k_max} would hold more than the budget "
                f"of {MAX_TERMS} terms"
            )
    rows = []
    for k in range(1, k_max + 1):
        for n in (k - 1, k, 2 * k, 2 * k + 1):
            cls = classify_symmetry(n, k)  # proves V_W(n,k) == phi_tilde(cls.m)
            rows.append(
                TableRow(
                    params=FamilyParams(n, k),
                    classification=cls,
                    polynomial=phi_tilde(cls.m),
                    polynomial_name=polynomial_name(cls.m),
                    crossing_bound=crossing_bound(n, k),
                )
            )
    return rows


class MersenneWitness(NamedTuple):
    exponent: int  # p with N = 2^p - 1
    order: int  # N; Phi^sym_{2N} is realized as a Jones polynomial
    k: int
    knots: tuple[FamilyParams, FamilyParams]


def mersenne_knot(p: int) -> MersenneWitness:
    """Knots whose Jones polynomial is Phi^sym_{2N} for Mersenne prime N = 2^p - 1.

    Works because N = 2*(2^((p-1)/2))^2 - 1 = g(k+1) with
    k = 2^((p-1)/2) - 1, putting N in the image of g.  V has N terms, so p
    is rejected before anything is built when N exceeds MAX_TERMS.
    """
    if p <= 2 or p % 2 == 0:
        raise ValueError("p must be an odd prime exponent > 2")
    if p >= (MAX_TERMS + 1).bit_length():  # 2^p - 1 > the budget
        raise ValueError(
            f"p={p}: V would have 2^{p} - 1 terms, over the budget of "
            f"{MAX_TERMS} terms"
        )
    order = 2**p - 1
    if not isprime(order):
        raise ValueError(f"2^{p} - 1 = {order} is not prime")
    k = 2 ** ((p - 1) // 2) - 1
    if jones_wnk(2 * k, k) != phi_sym(2 * order):
        raise InternalInconsistencyError(
            f"V_W({2 * k},{k}) != Phi_sym_{2 * order}"
        )
    return MersenneWitness(
        p, order, k, (FamilyParams(2 * k, k), FamilyParams(2 * k + 1, k))
    )
