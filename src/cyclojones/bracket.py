"""Kauffman-bracket recursion for W(n,k): the independent oracle.

Brackets live in the variable A; the Jones closed form lives in t.  The
two are tied together by t = A^-4 and the writhe normalization, so exact
agreement of this recursion with the closed form cross-checks both.

The recursion removes one column of k at a time: a level holds the
brackets <W(n,k)> for all n in a range, and the next level is
produced by the kink formula

    <W(n,k+1)> = (A^-1 - A^3) * A^n * S_n - A^(2n-1) * <W(n-2,k)>

where S_n = sum_{i=0..n} A^(n-2i) g_(-n+2i) is a signed sum over the
previous level (g_a = <W(-a-2,k)>).  S_n and S_(n-2) differ by two terms,
so a level carries one running sum per parity of n and costs O(W)
additions for a level of width W.  A level producing n in [L, H] reads
the previous one at [min(-M-2, L-2), M-2], M = max(H, -L-2), and every
level is read at [-a, a] by verify_range, so each level holds the range
its reads span: at depth d below the top, n in
[-a - 2d, max(a, a + 2d - 6)] (_ranges).

Every A-exponent of <W(n,k)> is congruent to 3w mod 4 (w the writhe), so
the recursion runs on packed cells (lo, x): the polynomial
sum_j c_j A^(lo + 4j), a list in B = A^4 with the offset kept on the side,
packed as the one integer x = sum_j c_j 2^(32j) (Kronecker substitution
B = 2^32).  A shift by A^e only moves lo, a sum is one big-integer add of
the operand with the higher offset shifted up, and the kink factor
A^-1 (1 - B) takes x to x - (x << 32).  Adding two cells whose offsets
differ mod 4 means a broken theorem and raises InternalInconsistencyError.

Packed arithmetic is exact, and packed equality is polynomial equality as
long as every slot holds less than 2^31 in size.  That is proved level by
level: after each level one add and one mask per cell show that every
coefficient lies in [-8, 8) (the true ones are at most 6 in size: V's
coefficients are partial sums, one parity class at a time, of the six
+-1 terms of the closed form's numerator).  A cell of the next level sums
at most 2W + 3 of them (W the largest |n| of its level), under 2^31 for
any level the term budget allows.  A coefficient outside [-8, 8) raises
InternalInconsistencyError.

bracket_to_jones and jones_to_bracket apply <W(n,k)> = (-1)^k A^(3w)
V(A^-4) to a polynomial's terms, so a sparse input of huge span stays
O(terms); only the recursion holds cells.  Level 0 builds no list: the
cell of T(p, p+1) is its packed numerator divided by 2^64 - 1, one exact
big-integer division (_base_cell).  A BracketLevel holds cells only,
decoded when a bracket is read.  verify_range reads no list: with
V = t^s N / (1 - t^2) and N the six-term numerator of top exponent h, the
cell of <W(n,k)> times (1 - B^2) is -(-1)^k sum_e c_e B^(h - e), so each
cell x is checked as x - (x << 64) against that packed sum, with
lo = 3w - 4(h + s - 2).  A level is checked one row at a time: the packed
sums come from wnk._packed_row by integer steps along n, 3w by its second
difference, and the closed form's theorems (N(1) = N(-1) = 0, V(1) = 1,
V'(1) = 0) are proved once, for every (n, k), by wnk._prove_numerator.

Before any level is built, the levels are budgeted: cell (n, j) counts
max(e) - min(e) - 1 terms, e the six exponents of d_polynomial(n, j).
Each exponent is affine in n, so per level that count is the difference
of two convex piecewise-linear envelopes, summed in closed form over the
level's range (one arithmetic series per piece), and the levels are
summed widest first until the total passes MAX_TERMS.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import compress, count
from typing import Iterator

from .errors import InternalInconsistencyError, TagError
from .laurent import LaurentPoly, _from_dense
from .wnk import (
    MAX_TERMS,
    _closed_form,
    _merged,
    _packed_row,
    _prove_numerator,
    _span_rule,
    d_exponents,
    writhe_wnk,
)

# (lo, x): sum_j c_j A^(lo + 4j) with x = sum_j c_j 2^(32j), |c_j| < 2^31;
# x = 0 is zero.  A nonzero cell's lowest slot is nonzero.
Cell = tuple[int, int]


def _high(size: int) -> int:
    """2^31 in each of size 32-bit slots."""
    return int.from_bytes(b"\0\0\0\x80" * size, "little")


def _unpack(x: int) -> list[int]:
    """The coefficients c_j of x = sum_j c_j 2^(32j), |c_j| < 2^31, top one nonzero.

    Such an x has 32 (len - 1) <= x.bit_length() < 32 len.  Adding 2^31 per
    slot makes every slot nonnegative, and flipping the sign bits back reads
    each slot as a signed 32-bit integer.
    """
    if not x:
        return []
    size = (x.bit_length() >> 5) + 1
    high = _high(size)
    slots = array("i", ((x + high) ^ high).to_bytes(4 * size, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots.tolist()


def _decode(cell: Cell) -> LaurentPoly:
    """The A-polynomial of a cell, held as a dict: its exponents step by 4."""
    lo, x = cell
    coeffs = _unpack(x)
    return LaurentPoly._new(dict(compress(zip(count(lo, 4), coeffs), coeffs)), "A")


def _torus_numerator(p: int, q: int) -> list[tuple[int, int]]:
    """T(p,q)'s N, V = t^((p-1)(q-1)/2) N / (1 - t^2): four terms, ascending for p < q."""
    return [(0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)]


def torus_jones(p: int, q: int) -> LaurentPoly:
    """Jones polynomial of the (p,q) torus knot, p, q >= 1 coprime, under the span rule."""
    if p < 1 or q < 1:
        raise ValueError("torus parameters must be >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError(f"({p},{q}) is not coprime")
    merged = _merged(_torus_numerator(p, q))
    return _from_dense(*_closed_form(merged, (p - 1) * (q - 1) // 2, "T", p, q))


def _base_cell(n: int) -> Cell:
    """The cell of <W(n,0)>, i.e. of T(p, p+1), p = n for n >= 0 and -1-n below.

    With V = t^s N / (1 - t^2), the cell times 1 - B^2 is
    -sum_e c_e B^(h - e), h N's top exponent (verify_range's check at k = 0).  So
    the cell is N packed from the top, sum_e c_e 2^(32 (h - e)), divided by
    2^64 - 1, from lo = 3w - 4(s + h - 2).  Modulo 2^64 - 1 the packed N is
    E + 2^32 O, E and O the sums of the c_e at even and at odd h - e, each
    at most 2 in size: a zero remainder is exactly N(1) = N(-1) = 0, i.e.
    1 - t^2 divides N, and then the quotient packs V's list read backwards.
    A remainder raises InternalInconsistencyError.  The span rule applies
    to N's four terms before any shift is formed.
    """
    p = n if n >= 0 else -1 - n
    if not p:
        return 3 * writhe_wnk(n, 0), 1
    q = p + 1
    numerator = _torus_numerator(p, q)
    _span_rule(numerator, "T", p, q)
    e_top = numerator[-1][0]
    packed = sum(c << 32 * (e_top - e) for e, c in numerator)
    z = ((packed & -packed).bit_length() - 1) >> 5  # T(1, 2): t^3 - t^3 cancels
    x, r = divmod(packed >> 32 * z, 2**64 - 1)
    if r:
        raise InternalInconsistencyError(
            f"T({p},{q}): closed-form numerator not divisible by 1 - t^2"
        )
    return 3 * writhe_wnk(n, 0) - 4 * ((p - 1) * p // 2 + e_top - z - 2), x


def bracket_wnk_base(n: int) -> LaurentPoly:
    """<W(n,0)>: an oval with n arrows, i.e. the torus knot T(n', n'+1); _base_cell decoded."""
    return _decode(_base_cell(n))


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
    """Brackets <W(n,k)> for one fixed k, over a range of n values.

    values[n] is the packed cell of <W(n,k)>; bracket(n) decodes it.
    """

    k: int
    values: dict[int, Cell]

    def bracket(self, n: int) -> LaurentPoly:
        return _decode(_lookup(self.values, self.k, n))

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


def _cell_add(x: Cell, y: Cell) -> Cell:
    """x + y: one big-integer add.

    The operand with the higher offset is shifted up by 8 bits per unit
    of offset (32 bits per power of B = A^4).  Only a sum of two cells
    with the same offset can cancel in its lowest slot; its zero low slots
    are dropped, so a sum of cells with nonzero lowest slots has one too.
    Two nonzero cells whose offsets differ mod 4 raise
    InternalInconsistencyError: every sum the recursion forms is a sum of
    terms of one bracket's class.
    """
    lo, a = x
    lo_y, b = y
    if not b:
        return x
    if not a:
        return y
    d = lo_y - lo
    if d & 3:
        raise InternalInconsistencyError(
            f"adding A-exponents {lo} and {lo_y}, which differ mod 4"
        )
    if d > 0:
        return lo, a + (b << 8 * d)
    if d < 0:
        return lo_y, (a << -8 * d) + b
    s = a + b
    z = ((s & -s).bit_length() - 1) >> 5 if s else 0  # zero low slots
    return lo + 4 * z, s >> 32 * z


def _check_slots(level: BracketLevel) -> None:
    """Prove every coefficient of the level's cells lies in [-8, 8), or raise.

    Take S slots with |x| < 2^(32S) for every cell x, and add 8 to each of
    them.  The sum's base-2^32 digits all lie in [0, 16), with nothing above
    slot S - 1, exactly when x's coefficients all lie in [-8, 8).  The mask
    holds bits 4..31 of slots 0..S-1 and all of slot S (which a negative sum
    fills), so one add and one mask decide it for any integer x.  A failure
    raises InternalInconsistencyError: the next level's slots could overflow.
    """
    cells = level.values
    size = max((x.bit_length() for _, x in cells.values()), default=0) // 32 + 1
    eights = int.from_bytes(b"\x08\0\0\0" * size, "little")
    mask = int.from_bytes(b"\xf0\xff\xff\xff" * size + b"\xff" * 4, "little")
    for n, (_, x) in cells.items():
        if (x + eights) & mask:
            raise InternalInconsistencyError(
                f"level k={level.k}: a coefficient of the cell n={n} lies outside "
                "[-8, 8); packed slots could overflow"
            )


def _next_level(prev: BracketLevel, lo: int, hi: int) -> BracketLevel:
    """The level above prev, for lo <= n <= hi.

    It reads prev at [min(-M-2, lo-2), M-2], M = max(hi, -lo-2): the running
    sums S_0..S_M and the cells <W(n-2,k)>.
    """
    # One running sum per parity, seeded with S_-1 = 0 and S_0 = g_0:
    # S_n = S_(n-2) + A^n g_(-n) + A^(-n) g_n for n >= 1, and S_n = -S_(-n-2)
    # below -1.  Two additions per n, so the level costs O(width) additions
    # where summing each S_n from scratch would cost O(width^2).  S_-1 comes
    # from s_sum only because perfbench/test_perfbench_checks.py counts its calls.
    k, cells = prev.k, prev.values
    if s_sum(-1, prev):
        raise InternalInconsistencyError(f"level k={k}: S_-1 is not zero")
    sums = {-1: (0, 0), 0: _lookup(cells, k, -2)}
    for n in range(1, max(hi, -lo - 2) + 1):
        lo_g, g = _lookup(cells, k, n - 2)  # g_(-n)
        lo_h, h = _lookup(cells, k, -n - 2)  # g_n
        sums[n] = _cell_add(_cell_add(sums[n - 2], (lo_g + n, g)), (lo_h - n, h))
    out = {}
    for n in range(lo, hi + 1):
        lo_s, s = sums[n] if n >= -1 else sums[-n - 2]
        if n < -1:
            s = -s
        # A^n (A^-1 - A^3) S_n = A^(n-1) (1 - B) S_n
        lo_p, p = _lookup(cells, k, n - 2)
        out[n] = _cell_add((lo_s + n - 1, s - (s << 32)), (lo_p + 2 * n - 1, -p))
    level = BracketLevel(k + 1, out)
    _check_slots(level)
    return level


def _ranges(n_abs_max: int, k_max: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) of levels 0..k_max, widest first: level j holds lo <= n <= hi.

    Level j is read at [-a, a], a = n_abs_max (verify_range reads every
    level there), and by _next_level building level j + 1.  At depth
    d = k_max - j those reads span [-a - 2d, max(a, a + 2d - 6)].  Lazy, so
    a budget check over many levels stops after the first few.
    """
    a = n_abs_max
    for d in range(k_max, -1, -1):
        yield -a - 2 * d, max(a, a + 2 * d - 6)


def _upper_sum(lines: list[tuple[int, int]], lo: int, hi: int) -> int:
    """sum over integers lo <= n <= hi of max_i (a_i n + b_i), lines (a_i, b_i).

    The maximum is convex and piecewise linear.  Its pieces are found as an
    upper hull over the integers: taking the lines by ascending slope, each
    is on top of the earlier ones from the first n >= lo where it exceeds
    the last kept line, and a kept line it passes no later than that
    line's own start is dropped.  Each piece, clipped to hi, is added as an
    arithmetic series: at most one piece per slope.
    """
    hull: list[tuple[int, int, int]] = []  # (a, b, the first n where it is on top)
    for a, b in sorted(lines):
        start = lo
        while hull:
            a0, b0, s0 = hull[-1]
            if a > a0:  # a m + b > a0 m + b0 from this m on
                start = (b0 - b) // (a - a0) + 1
                if start > s0:
                    break
            hull.pop()  # also a line of equal slope and no higher intercept
            start = lo
        hull.append((a, b, start))
    total = 0
    end = hi
    for a, b, start in reversed(hull):
        if start <= end:
            total += a * (start + end) * (end - start + 1) // 2 + b * (end - start + 1)
            end = start - 1
    return total


def _level_terms(j: int, lo: int, hi: int) -> int:
    """sum over lo <= n <= hi of span(d_polynomial(n, j)) - 1 = max(e) - min(e) - 1.

    Each of d_exponents' six exponents is affine in n, read off at n = 0
    and n = 1, so the sum is two envelope sums: max(e) directly and min(e)
    as -max(-e).
    """
    lines = [(e1 - e0, e0) for e0, e1 in zip(d_exponents(0, j), d_exponents(1, j))]
    negated = [(-a, -b) for a, b in lines]
    return _upper_sum(lines, lo, hi) + _upper_sum(negated, lo, hi) - (hi - lo + 1)


def _check_budget(n_abs_max: int, k_max: int) -> None:
    """Refuse levels whose cells would hold more than MAX_TERMS terms in all.

    Cell (n, j) holds at most span(d_polynomial(n, j)) - 1 terms, read
    from the exponents alone.  The sum runs level by level over the ranges
    bracket_levels builds (_ranges), each level's range in closed form
    (_level_terms), widest level first, and stops as soon as it passes the
    budget, so a request with many levels is refused after the first few.
    """
    total = 0
    for j, (lo, hi) in enumerate(_ranges(n_abs_max, k_max)):
        total += _level_terms(j, lo, hi)
        if total > MAX_TERMS:
            raise ValueError(
                f"bracket levels for |n| <= {n_abs_max}, k <= {k_max} would hold "
                f"more than the budget of {MAX_TERMS} terms"
            )


def bracket_levels(n_abs_max: int, k_max: int) -> list[BracketLevel]:
    """Levels 0..k_max, each holding |n| <= n_abs_max and the cells the next one reads.

    Raises ValueError before building anything when the levels would hold
    more than MAX_TERMS terms in all.
    """
    _check_budget(n_abs_max, k_max)
    ranges = _ranges(n_abs_max, k_max)
    lo, hi = next(ranges)
    # W(n,0) and W(-1-n,0) are T(n', n'+1) with the same writhe n^2 + n: one cell
    cells = [_base_cell(n) for n in range(max(hi, -1 - lo) + 1)]
    levels = [BracketLevel(0, {n: cells[n if n >= 0 else -1 - n] for n in range(lo, hi + 1)})]
    _check_slots(levels[0])
    for lo, hi in ranges:
        levels.append(_next_level(levels[-1], lo, hi))
    return levels


def bracket_wnk(n: int, k: int) -> LaurentPoly:
    """<W(n,k)> by the level recursion (variable A).

    Raises ValueError before building anything when the cell is over the
    budget: for k = 0, by the torus builder's span rule (T(n', n'+1) spans
    what d_polynomial(n, 0) spans, 2n' + 1); for k >= 1, as in bracket_levels.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return bracket_wnk_base(n)
    return bracket_levels(abs(n), k)[k].bracket(n)


def _class_offset(lo: int, w3: int) -> int:
    """lo - 3w for an A-exponent lo of a nonzero <W(n,k)>, w3 = 3w and w the writhe.

    <W(n,k)> = (-1)^k A^(3w) V with V a t-polynomial and t = A^-4, so
    lo - 3w must be 0 mod 4.
    """
    e = lo - w3
    if e & 3:
        raise InternalInconsistencyError(
            f"A-exponent {e} not divisible by 4; writhe/bracket mismatch"
        )
    return e


def bracket_to_jones(n: int, k: int, bracket: LaurentPoly) -> LaurentPoly:
    """Normalize a bracket of W(n,k) by its writhe and substitute t = A^-4.

    <W(n,k)> = (-1)^k A^(3w) V_{W(n,k)}, w the writhe of W(n,k).  The
    exponents must share one class mod 4, and it must be 3w's; then A^e
    goes to (-1)^k t^((3w - e)/4).  Only the terms are visited.
    """
    if bracket.variable != "A":
        raise TagError("bracket must be an A-polynomial")
    terms = bracket.items()
    if not terms:
        return LaurentPoly.zero()
    lo = terms[0][0]
    for e, _ in terms:
        if (e - lo) & 3:
            raise InternalInconsistencyError(
                f"A-exponents {lo} and {e} of one bracket differ mod 4"
            )
    w3 = 3 * writhe_wnk(n, k)
    _class_offset(lo, w3)
    sign = -1 if k % 2 else 1
    return LaurentPoly._new({(w3 - e) >> 2: sign * c for e, c in terms}, "t")


def jones_to_bracket(n: int, k: int, v: LaurentPoly) -> LaurentPoly:
    """Inverse of bracket_to_jones: (-1)^k A^(3w) V(A^-4) on V's terms."""
    if v.variable != "t":
        raise TagError("Jones polynomial must be a t-polynomial")
    return v.substitute_power(-4, "A").scale((-1) ** k, 3 * writhe_wnk(n, k))


def verify_range(
    n_lo: int, n_hi: int, k_lo: int, k_hi: int
) -> list[tuple[int, int, bool]]:
    """Compare closed form and bracket recursion cell by cell, one row at a time.

    Levels are computed once for the whole sweep; results are ordered by
    (k, n).  A zero cell is a mismatch, and a nonzero one outside 3w's
    class mod 4 raises.  No LaurentPoly and no list is built on either
    side.  Every entry should be True: disagreement means a bug, not a
    property of the knot.
    """
    if n_lo > n_hi:
        raise ValueError(f"empty n range: n_lo={n_lo} > n_hi={n_hi}")
    if k_lo > k_hi:
        raise ValueError(f"empty k range: k_lo={k_lo} > k_hi={k_hi}")
    if k_lo < 0:
        raise ValueError(f"k_lo={k_lo} is negative; k must be >= 0")
    _prove_numerator()
    levels = bracket_levels(max(abs(n_lo), abs(n_hi)), k_hi)
    ns = range(n_lo, n_hi + 1)
    results = []
    for k in range(k_lo, k_hi + 1):
        cells = map(levels[k].values.__getitem__, ns)
        w0, w1, w2 = (3 * writhe_wnk(n, k) for n in range(n_lo, n_lo + 3))
        w3, step, bend = w0, w1 - w0, w2 - 2 * w1 + w0
        odd = k & 1
        for n, (lo, x), (top, shift, packed) in zip(ns, cells, _packed_row(k, n_lo, n_hi)):
            # packed is not 0 (sum e*c = -2 is proved), so a zero cell fails
            ok = lo - w3 == 8 - 4 * (top + shift) and x - (x << 64) == (packed if odd else -packed)
            if not ok and x:
                _class_offset(lo, w3)  # raises for a nonzero cell outside 3w's class
            results.append((n, k, ok))
            w3 += step
            step += bend
    return results
