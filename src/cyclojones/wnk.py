"""Closed-form Jones polynomials of the knot family W(n,k).

The family is indexed by an integer n and a nonnegative integer k.  This
module holds the closed form for V_{W(n,k)}, the classification of which
members have symmetric (hence cyclotomic) Jones polynomials, the writhe
and crossing-bound formulas, the quadruplet table, and the Mersenne-prime
witnesses.
"""

from __future__ import annotations

from enum import Enum
from operator import sub
from typing import Iterable, Iterator, NamedTuple, Optional

from .arith import PRIME_TEST_LIMIT, isprime
from .cyclotomic import phi_tilde
from .errors import InexactDivisionError, InternalInconsistencyError
from .laurent import (
    MAX_TERMS,
    LaurentPoly,
    _accumulate,
    _fill,
    _from_dense,
    _stride_div,
    poly_to_json,
)


class FamilyParams(NamedTuple):
    n: int
    k: int


class Family(Enum):
    NOT_SYMMETRIC = "not_symmetric"
    K_MINUS_1 = "n=k-1"
    K = "n=k"
    TWO_K = "n=2k"
    TWO_K_PLUS_1 = "n=2k+1"


class SymmetryClass(NamedTuple):
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


# N = -d: the signs of N's terms at d_exponents' six exponents
_N_SIGNS = (1, -1, -1, 1, -1, 1)


def d_polynomial(n: int, k: int) -> LaurentPoly:
    """The degree-heavy factor of the closed form, divisible by t^2 - 1."""
    _check_k(k)
    return LaurentPoly(zip(d_exponents(n, k), (-c for c in _N_SIGNS)))


def _merged(terms: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """A nonzero sum's terms, ascending: equal exponents add, zeros drop, no budget."""
    return sorted(_accumulate({}, terms).items())


def _span_rule(merged: list[tuple[int, int]], knot: str, p: int, q: int) -> None:
    """The span rule: ValueError naming knot(p,q) if merged spans over MAX_TERMS exponents."""
    span = merged[-1][0] - merged[0][0]
    if span > MAX_TERMS:
        raise ValueError(
            f"{knot}({p},{q}): the closed form spans {span} exponents, over the "
            f"budget of {MAX_TERMS} terms"
        )


def _closed_form(
    merged: list[tuple[int, int]], shift: int, knot: str, p: int, q: int
) -> tuple[int, list[int]]:
    """t^shift * (sum of _merged's terms) / (1 - t^2) as (lowest exponent, coefficients).

    The span rule is applied before the list is allocated.  Every closed form
    is divisible by a theorem, so a remainder raises InternalInconsistencyError.
    """
    _span_rule(merged, knot, p, q)
    lo = merged[0][0]
    s = _fill(merged, lo, merged[-1][0])
    try:
        _stride_div(s, 2)
    except InexactDivisionError as exc:
        raise InternalInconsistencyError(
            f"{knot}({p},{q}): closed-form numerator not divisible by 1 - t^2"
        ) from exc
    return lo + shift, s


def _shift(n: int, k: int) -> int:
    """The exponent s of V_W(n,k) = t^s * N / (1 - t^2)."""
    return n * (n - 1) // 2 + k * (k - 1) - 2 * n * k


def _numerator(n: int, k: int) -> tuple[list[tuple[int, int]], int]:
    """V_W(n,k) = t^shift * N / (1 - t^2): N's merged terms, ascending, and shift.

    d / (t^2 - 1) is -d / (1 - t^2), so N is d's six terms with their signs
    negated.  O(1) for any n and k >= 0: it builds nothing span-sized, so no budget applies.
    """
    _check_k(k)
    return _merged(zip(d_exponents(n, k), _N_SIGNS)), _shift(n, k)


def _assert_numerator(n: int, k: int, exponents: tuple[int, ...], shift: int) -> None:
    """Assert the closed form's theorems on N = sum c_i t^(e_i), its six terms unmerged.

    The theorems are linear in the terms, so merging cannot change them.
    N(1) = N(-1) = 0 is divisibility by 1 - t^2; sum e*c = -2 V(1) and
    sum e^2*c = 4 (shift - 1) V(1) - 4 V'(1), so V(1) = 1, V'(1) = 0 read
    sum e*c = -2 and sum e^2*c = 4 shift - 4.  A failure raises
    InternalInconsistencyError.

    Nine points prove them for all (n, k) (_prove_numerator).  Each e is
    a + b n + c k + d n k with integers a..d and shift has degree 2 in each
    variable, so sum e*c + 2 and sum e^2*c - 4 shift + 4 have degree <= 2 in
    n and in k: zero at n, k in {0, 1, 2}, each is zero for all n at k = 0,
    1, 2 (three roots), so for all k.  N(1) = sum c is constant, and N(-1)
    reads each e mod 2, a function of n and k mod 2: four classes, all on the grid.
    """
    at_one = at_minus_one = first = second = 0
    for e, c in zip(exponents, _N_SIGNS):
        at_one += c
        at_minus_one += -c if e & 1 else c
        first += c * e
        second += c * e * e
    if at_one or at_minus_one or first != -2 or second != 4 * shift - 4:
        raise InternalInconsistencyError(
            f"W({n},{k}): numerator N(1)={at_one}, N(-1)={at_minus_one}, "
            f"sum e*c={first}, sum e^2*c={second}; expected (0, 0, -2, {4 * shift - 4})"
        )


def _prove_numerator() -> None:
    """Prove _assert_numerator's theorems for every (n, k) on the grid n, k in {0, 1, 2}.

    Their premise, zero second differences of each exponent along n and k, is checked too.
    """
    rows = [[d_exponents(n, k) for k in range(3)] for n in range(3)]
    for points in (*rows, *zip(*rows)):  # three points along k, then along n
        if any(a - 2 * b + c for a, b, c in zip(*points)):
            raise InternalInconsistencyError(f"numerator exponents {points} are not bilinear")
    for n, row in enumerate(rows):
        for k, exponents in enumerate(row):
            _assert_numerator(n, k, exponents, _shift(n, k))


def _packed_row(k: int, n_lo: int, n_hi: int) -> Iterator[tuple[int, int, int]]:
    """(top, shift, packed) for N of V_W(n,k) = t^shift * N / (1 - t^2), n = n_lo..n_hi.

    N = sum c_i t^(e_i) over d_exponents' six terms, top is its top exponent
    and packed = sum_e c_e 2^(32 (top - e)) over its merged terms (|c_e| <= 3),
    as bracket packs cells.  The e_i (affine in n) and shift (quadratic) are
    stepped by adds.  The caller proves N's theorems (_prove_numerator), so
    N != 0, and bounds the span, as verify_range's does.  k >= 0.
    """
    e0, e1, e2, e3, e4, e5 = base = d_exponents(n_lo, k)
    a0, a1, a2, a3, a4, a5 = map(sub, d_exponents(n_lo + 1, k), base)
    s0, s1, s2 = (_shift(n, k) for n in range(n_lo, n_lo + 3))
    shift, step, bend = s0, s1 - s0, s2 - 2 * s1 + s0
    c0, c1, c2, c3, c4, c5 = _N_SIGNS
    for _ in range(n_hi - n_lo + 1):
        top = max(e0, e1, e2, e3, e4, e5)
        packed = (
            (c0 << 32 * (top - e0)) + (c1 << 32 * (top - e1)) + (c2 << 32 * (top - e2))
            + (c3 << 32 * (top - e3)) + (c4 << 32 * (top - e4)) + (c5 << 32 * (top - e5))
        )
        z = ((packed & -packed).bit_length() - 1) >> 5  # zero low slots: N's cancelled top
        yield top - z, shift, packed >> 32 * z
        e0 += a0
        e1 += a1
        e2 += a2
        e3 += a3
        e4 += a4
        e5 += a5
        shift += step
        step += bend


def _jones_dense(n: int, k: int) -> tuple[int, list[int]]:
    """V_W(n,k) by the closed form, as (lowest exponent, coefficients).

    _closed_form divides _numerator's N by 1 - t^2; the list has nonzero
    ends.  The division is a theorem, asserted by its remainder, and
    V(1) = 1, V'(1) = 0 are asserted on N's six terms by
    _assert_numerator, in O(1) on every call.  _closed_form's span rule
    refuses (n, k) before anything dense is built.  jones_wnk keeps it as
    V's dense form, and the tests take it as the dense reference for
    classify_symmetry's proof on N's terms.
    """
    terms, shift = _numerator(n, k)
    lo, s = _closed_form(terms, shift, "W", n, k)
    _assert_numerator(n, k, d_exponents(n, k), shift)
    return lo, s


def jones_wnk(n: int, k: int) -> LaurentPoly:
    """Jones polynomial of W(n,k) by the closed form, holding _jones_dense's list.

    Every call asserts the exact division by t^2 - 1 and V(1) = 1,
    V'(1) = 0, and an (n, k) over the term budget is refused before
    anything dense is built.
    """
    return _from_dense(*_jones_dense(n, k))


def quadruplet(k: int) -> dict[int, SymmetryClass]:
    """The four symmetric members of column k >= 1: n -> family, in table order."""
    return {
        k - 1: SymmetryClass(Family.K_MINUS_1, f(k), f"f({k})"),
        k: SymmetryClass(Family.K, f(k + 1), f"f({k + 1})"),
        2 * k: SymmetryClass(Family.TWO_K, g(k + 1), f"g({k + 1})"),
        2 * k + 1: SymmetryClass(Family.TWO_K_PLUS_1, g(k + 1), f"g({k + 1})"),
    }


def classify_symmetry(n: int, k: int) -> SymmetryClass:
    """Which of the four symmetric families (n,k) belongs to, if any.

    Driven by the arithmetic condition on (n,k), read from quadruplet(k),
    and then proved both ways, since the classification theorem is an
    equivalence.  The proof reads the closed form's numerator N, with
    V = t^s N / (1 - t^2), in O(1): no list, no Phi_n and no LaurentPoly
    is built.  (1 - t^2) phi_tilde(m) = t^-h (1 - t)(1 + t^m), h = (m - 1)/2,
    so a member's V is phi_tilde(m) exactly when t^s N has those four
    terms (1 - t^2 when m = 1).  Any other V must not be symmetric, and
    V(t) = V(1/t) exactly when t^s N's coefficients satisfy c_e = -c_(2-e).
    _assert_numerator's N(1) = N(-1) = 0, the divisibility by 1 - t^2, is
    what lets N stand in for V.  No term budget applies, whatever V's span.
    For k = 0 every member is reported NOT_SYMMETRIC (the nontrivial ones
    genuinely are; the trivial ones have V = 1).
    """
    _check_k(k)
    if k == 0:
        return NOT_SYMMETRIC
    out = quadruplet(k).get(n, NOT_SYMMETRIC)
    terms, shift = _numerator(n, k)
    shifted = [(e + shift, c) for e, c in terms]
    if out.symmetric:
        m, h = out.m, (out.m - 1) // 2
        # t^-h (1 - t + t^m - t^(m+1)), whose middle terms cancel when m = 1
        want = [(-h, 1), (1 - h, -1), (m - h, 1), (m + 1 - h, -1)] if m > 1 else [(0, 1), (2, -1)]
        if shifted != want:
            raise InternalInconsistencyError(
                f"W({n},{k}) classified {out.family.value} but V != phi_tilde({out.m})"
            )
    elif shifted == [(2 - e, -c) for e, c in reversed(shifted)]:
        raise InternalInconsistencyError(
            f"W({n},{k}) classified non-symmetric but V is symmetric"
        )
    _assert_numerator(n, k, d_exponents(n, k), shift)
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


class TableRow(NamedTuple):
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
    """The members of quadruplet(k), (k-1,k), (k,k), (2k,k), (2k+1,k), for k = 1..k_max.

    Raises ValueError before classifying any row when the rows would hold
    more than MAX_TERMS terms in all.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    total = 0
    for k in range(1, k_max + 1):
        total += sum(cls.m for cls in quadruplet(k).values())  # phi_tilde(m) has m terms
        if total > MAX_TERMS:
            raise ValueError(
                f"the table for k <= {k_max} would hold more than the budget "
                f"of {MAX_TERMS} terms"
            )
    rows = []
    for k in range(1, k_max + 1):
        for n in quadruplet(k):
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
    k = 2^((p-1)/2) - 1, putting N in the image of g.  classify_symmetry
    proves V = Phi~_{2N} for both witnesses, W(2k,k) and W(2k+1,k), on the
    closed form's six-term numerator in O(1), and Phi~_{2N} is Phi^sym_{2N}
    for prime N; neither V's list nor Phi_{2N} is built, so no term budget
    applies.  p >= 82 (2^p - 1 past isprime's proved range) is refused.
    """
    if p <= 2 or p % 2 == 0:
        raise ValueError("p must be an odd prime exponent > 2")
    if p >= PRIME_TEST_LIMIT.bit_length():  # 2^p - 1 >= PRIME_TEST_LIMIT
        raise ValueError(f"p={p}: 2^{p} - 1 is over isprime's proved limit {PRIME_TEST_LIMIT}")
    order = 2**p - 1
    if not isprime(order):
        raise ValueError(f"2^{p} - 1 = {order} is not prime")
    k = 2 ** ((p - 1) // 2) - 1
    knots = (FamilyParams(2 * k, k), FamilyParams(2 * k + 1, k))
    # classify_symmetry proves V == phi_tilde(g(k + 1)) on N's terms, and for
    # the odd prime N, phi_tilde(N) = Phi^sym_{2N}: Phi_{2N}(x) = Phi_N(-x)
    for n, _ in knots:
        if classify_symmetry(n, k).m != order:
            raise InternalInconsistencyError(f"V_W({n},{k}) != Phi_sym_{2 * order}")
    return MersenneWitness(p, order, k, knots)
