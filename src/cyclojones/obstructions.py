"""Root-of-unity obstructions for Jones polynomials.

A knot Jones polynomial V satisfies V(1) = 1, V'(1) = 0, V(zeta_3) = 1,
V(i) = +-1 and V(zeta_6) = +-(i*sqrt(3))^s.  All checks here are exact:
they read the residues of V modulo Phi_N, taken from one fold of V modulo
x^12 - 1.  The value at zeta_6 is a + b*zeta_6, and since
i*sqrt(3) = 2*zeta_6 - 1 squares to -3, the exponent s follows in closed
form from a and b.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .arith import factorint, primes_below
from .cyclotomic import _fold_residue
from .laurent import MAX_TERMS, LaurentPoly, _fold
from .wnk import f, g


@dataclass(frozen=True)
class SpecialValueReport:
    at_one: int
    derivative_at_one: int
    at_zeta3_is_one: bool
    at_i_value: Optional[int]  # +-1 when the value at i is a unit
    at_zeta6_exponent: Optional[int]  # s with V(zeta_6) = +-(i*sqrt(3))^s

    @property
    def passes_all(self) -> bool:
        return (
            self.at_one == 1
            and self.derivative_at_one == 0
            and self.at_zeta3_is_one
            and self.at_i_value is not None
            and self.at_zeta6_exponent is not None
        )

    def to_json(self) -> dict:
        return {
            "at_one": self.at_one,
            "derivative_at_one": self.derivative_at_one,
            "at_zeta3_is_one": self.at_zeta3_is_one,
            "at_i_value": self.at_i_value,
            "at_zeta6_exponent": self.at_zeta6_exponent,
            "passes_all": self.passes_all,
        }


def special_value_check(p: LaurentPoly) -> SpecialValueReport:
    """Run all special-value necessary conditions; failures are reported."""
    if not p:
        raise ValueError("cannot check the zero polynomial")
    at_one, deriv = p.value_and_derivative_at_one()
    folded = _fold(p, 12)  # one pass over V: 3, 4 and 6 all divide 12
    zeta3_ok = _fold_residue(folded, 3) == (1, 0)
    at_i = _fold_residue(folded, 4)
    at_i = at_i[0] if at_i in ((1, 0), (-1, 0)) else None

    # V(zeta_6) = a + b*zeta_6 must be +-(i*sqrt(3))^s.  As
    # (i*sqrt(3))^2 = -3, s = 2j means a = +-3^j, b = 0, and s = 2j + 1
    # means +-3^j * (2*zeta_6 - 1), that is a = -+3^j, b = -2a.
    a, b = _fold_residue(folded, 6)
    zeta6_exp = None
    if a and b in (0, -2 * a):
        j, rest = 0, abs(a)
        while rest % 3 == 0:
            rest //= 3
            j += 1
        if rest == 1:
            zeta6_exp = 2 * j + (b != 0)
    return SpecialValueReport(at_one, deriv, zeta3_ok, at_i, zeta6_exp)


def _prime_power_quotient(q: int, forbid_three: bool) -> bool:
    """True iff q == p^k for a single prime p (k >= 0), p != 3 when forbidden."""
    if q == 1:
        return True
    factors = factorint(q)
    if len(factors) != 1:
        return False
    (p,) = factors
    return not (forbid_three and p == 3)


def excluded_phi_index(order: int) -> bool:
    """True iff Phi_order provably cannot divide any knot Jones polynomial.

    The excluded shapes are p^k, 3p^k, 4p^k (any prime p) and 6p^k with
    p != 3, k >= 0 throughout; the bases themselves (1, 3, 4, 6) match
    via p^0.
    """
    if order < 1:
        raise ValueError("index must be >= 1")
    for base, forbid_three in ((1, False), (3, False), (4, False), (6, True)):
        if order % base == 0 and _prime_power_quotient(order // base, forbid_three):
            return True
    return False


def phitilde_admissible(k: int) -> bool:
    """Whether Phi~_{2k} may divide a Jones polynomial: requires 3 does not divide k."""
    if k % 2 == 0:
        raise ValueError("k must be odd")
    return k % 3 != 0


def _check_bound(bound: int) -> None:
    """ValueError unless 2 <= bound <= MAX_TERMS."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    if bound > MAX_TERMS:
        raise ValueError(f"bound {bound} is over the budget of {MAX_TERMS}")


def realized_orders(bound: int) -> list[int]:
    """Orders 2m <= bound with Phi_{2m} realized as a Jones-polynomial divisor.

    These are 2f(k) and 2g(k) for k >= 2; k = 1 gives the trivial product
    and is skipped.
    """
    _check_bound(bound)
    out = set()
    k = 2
    while 2 * f(k) <= bound or 2 * g(k) <= bound:
        for order in (2 * f(k), 2 * g(k)):
            if order <= bound:
                out.add(order)
        k += 1
    return sorted(out)


def open_question_candidates(bound: int) -> list[int]:
    """Orders N <= bound neither excluded nor realized as 2f(k) or 2g(k).

    "Realized" here means only the orders realized_orders lists.  An
    order on this list may still be realized by a divisor of some V: 46
    is listed, yet Phi_46 divides V_W(16,8) = Phi~_322 =
    Phi_14 * Phi_46 * Phi_322.  The excluded orders are those of
    excluded_phi_index, found by one prime sieve up to the bound: each
    prime power q = p^k (and q = 1) closes q, 3q, 4q and, for p != 3, 6q.
    """
    _check_bound(bound)
    candidate = bytearray([1]) * (bound + 1)
    candidate[0] = 0
    shapes = [(1, False)]  # (q, whether q is a positive power of 3)
    for p in primes_below(bound + 1):
        q = p
        while q <= bound:
            shapes.append((q, p == 3))
            q *= p
    for q, power_of_three in shapes:
        for base in (1, 3, 4) if power_of_three else (1, 3, 4, 6):
            if base * q <= bound:
                candidate[base * q] = 0
    for order in realized_orders(bound):
        candidate[order] = 0
    return list(compress(range(bound + 1), candidate))
