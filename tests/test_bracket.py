import math
import time
import tracemalloc
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

import cyclojones.bracket
import cyclojones.wnk
from cyclojones.bracket import (
    BracketLevel,
    _base_cell,
    _cell_add,
    _check_budget,
    _check_slots,
    _decode,
    _level_terms,
    _next_level,
    _ranges,
    _unpack,
    bracket_levels,
    bracket_to_jones,
    bracket_wnk,
    bracket_wnk_base,
    jones_to_bracket,
    s_prime,
    s_sum,
    torus_jones,
    verify_range,
)
from cyclojones.errors import InexactDivisionError, InternalInconsistencyError, TagError
from cyclojones.laurent import LaurentPoly, parse_poly
from cyclojones.wnk import (
    MAX_TERMS,
    _jones_dense,
    _numerator,
    _packed_row,
    _prove_numerator,
    d_exponents,
    jones_wnk,
    writhe_wnk,
)

A_MINUS_8_MINUS_1 = LaurentPoly({-8: 1, 0: -1}, "A")
A_KINK = LaurentPoly({-1: 1, 3: -1}, "A")  # A^-1 - A^3


def reference_bracket(n, k, v):
    """<W(n,k)> = (-1)^k A^(3w) V(A^-4), written on the term dict."""
    return v.substitute_power(-4, "A").scale((-1) ** k, 3 * writhe_wnk(n, k))


def packed(lo, coeffs):
    """The packed cell of sum_j coeffs[j] A^(lo + 4j)."""
    return lo, sum(c << 32 * j for j, c in enumerate(coeffs))


def cell_poly(lo, coeffs):
    """The A-polynomial sum_j coeffs[j] A^(lo + 4j), on its term dict."""
    return LaurentPoly({lo + 4 * j: c for j, c in enumerate(coeffs)}, "A")


def cell_terms(n, j):
    """span(d_polynomial(n, j)) - 1, the terms the budget counts for cell (n, j)."""
    e = d_exponents(n, j)
    return max(e) - min(e) - 1


def reference_refuses(n_abs_max, k_max):
    """The budget's decision summed cell by cell, stopping once it passes MAX_TERMS."""
    total = 0
    for j, (lo, hi) in enumerate(_ranges(n_abs_max, k_max)):
        for n in range(lo, hi + 1):
            total += cell_terms(n, j)
            if total > MAX_TERMS:
                return True
    return False


def torus_bracket(n):
    """<W(n,0)> from T(n', n'+1)'s V, divided by _closed_form, through jones_to_bracket."""
    p = n if n >= 0 else -1 - n
    return jones_to_bracket(n, 0, torus_jones(p, p + 1) if p else LaurentPoly.one())


def read_ranges(n_abs_max, k_max):
    """(lo, hi) of levels 0..k_max from the reads alone, top level first.

    verify_range reads [-a, a] of every level; _next_level producing
    [lo, hi] reads [min(-M-2, lo-2), M-2], M = max(hi, -lo-2).
    """
    lo, hi = -n_abs_max, n_abs_max
    out = [(lo, hi)]
    for _ in range(k_max):
        m = max(hi, -lo - 2)
        lo, hi = min(-m - 2, lo - 2, -n_abs_max), max(m - 2, hi - 2, n_abs_max)
        out.append((lo, hi))
    return out[::-1]


def refuses(n_abs_max, k_max):
    try:
        _check_budget(n_abs_max, k_max)
    except ValueError:
        return True
    return False


def packed_terms(terms, top):
    """sum_e c_e 2^(32 (top - e)) over N's terms (e, c)."""
    return sum(c << 32 * (top - e) for e, c in terms)


def balanced_slots(x):
    """The digits c_j in [-2^31, 2^31) of x = sum_j c_j 2^(32j), by repeated division."""
    out = []
    while x:
        c = x % 2**32
        c -= 2**32 if c >= 2**31 else 0
        out.append(c)
        x = (x - c) >> 32
    return out


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: torus_jones(0, 1), "torus parameters must be >= 1"),
        (lambda: bracket_wnk(0, -1), "k must be >= 0"),
    ],
    ids=["torus_jones(0, 1)", "bracket_wnk(0, -1)"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestTorusJones:
    def test_unknot(self):
        assert torus_jones(1, 2) == LaurentPoly.one()

    def test_trefoil(self):
        assert torus_jones(2, 3) == parse_poly("t + t^3 - t^4")

    def test_2_5(self):
        assert torus_jones(2, 5) == parse_poly("t^2 + t^4 - t^5 + t^6 - t^7")

    def test_oracle_by_direct_substitution(self):
        # independent route: build numerator/prefactor from scratch and
        # cross-check by multiplying back through 1 - t^2
        for p, q in ((2, 3), (3, 4), (2, 7), (3, 5)):
            v = torus_jones(p, q)
            lhs = v.shift(-(p - 1) * (q - 1) // 2) * LaurentPoly({0: 1, 2: -1})
            assert lhs == LaurentPoly([(0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)])

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            torus_jones(2, 4)

    def test_matches_long_division(self):
        for p in range(1, 31):
            for q in range(1, 31):
                if math.gcd(p, q) == 1:
                    numerator = LaurentPoly([(0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)])
                    quotient = numerator.divide_exact(LaurentPoly({0: 1, 2: -1}))
                    assert torus_jones(p, q) == quotient.shift((p - 1) * (q - 1) // 2)

    def test_span_rule_before_the_division(self, monkeypatch):
        # T(m, m+1) spans 2m + 1 exponents: m = 2^19 is the first over the budget
        class Reached(Exception):
            pass

        def reached(s, d):
            raise Reached

        monkeypatch.setattr(cyclojones.wnk, "_stride_div", reached)
        with pytest.raises(ValueError, match=r"^T\(524288,524289\): the closed form spans 1048577 exponents"):
            torus_jones(2**19, 2**19 + 1)
        with pytest.raises(Reached):
            torus_jones(2**19 - 1, 2**19)

    def test_division_failure_names_the_knot(self, monkeypatch):
        def inexact(s, d):
            raise InexactDivisionError("planted")

        monkeypatch.setattr(cyclojones.wnk, "_stride_div", inexact)
        with pytest.raises(InternalInconsistencyError, match=r"^T\(2,3\): closed-form numerator not divisible"):
            torus_jones(2, 3)

    def test_k_zero_column_matches_closed_form(self):
        for n in range(2, 9):
            assert jones_wnk(n, 0) == torus_jones(n, n + 1)

    def test_n_zero_column_matches_closed_form(self):
        for k in range(1, 6):
            assert jones_wnk(0, k) == torus_jones(k, 2 * k + 1)


class TestBracketBase:
    def test_trivial_members(self):
        assert bracket_wnk_base(0) == LaurentPoly.one("A")
        assert bracket_wnk_base(-1) == LaurentPoly.one("A")

    def test_n_two(self):
        assert bracket_wnk_base(2) == LaurentPoly({14: 1, 6: 1, 2: -1}, "A")

    def test_cells_match_the_dict_formula(self):
        # level 0 against (-1)^k A^(3w) V(A^-4) on the torus knot's term dict
        level = bracket_levels(56, 3)[0]
        assert list(level.values) == list(range(-62, 57))
        for n in level.values:
            m = n if n >= 0 else -1 - n
            v = torus_jones(m, m + 1) if m else LaurentPoly.one()
            assert _decode(level.values[n]) == reference_bracket(n, 0, v)

    def test_division_matches_the_list_route(self):
        # one exact big-integer division per cell against _closed_form's list
        for n in range(-800, 801):
            assert _decode(_base_cell(n)) == torus_bracket(n)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("moved, sign", [(0, -1), (1, 1)], ids=["sign flipped", "moved by t"])
    def test_planted_torus_term_raises(self, monkeypatch, index, moved, sign):
        # one of N's four terms off: a flipped sign breaks N(1) = 0, an exponent
        # off by one N(-1) = 0, so 2^64 - 1 leaves a remainder
        true_numerator = cyclojones.bracket._torus_numerator

        def planted(p, q):
            terms = true_numerator(p, q)
            e, c = terms[index]
            terms[index] = e + moved, sign * c
            return terms

        monkeypatch.setattr(cyclojones.bracket, "_torus_numerator", planted)
        for n in (5, -6, 40):
            p = n if n >= 0 else -1 - n
            with pytest.raises(
                InternalInconsistencyError,
                match=rf"^T\({p},{p + 1}\): closed-form numerator not divisible by 1 - t\^2$",
            ):
                _base_cell(n)

    def test_negative_reflection(self):
        # W(n,0) and W(-1-n,0) are the same knot but framed differently,
        # so brackets agree after writhe normalization
        for n in range(-6, 6):
            assert bracket_to_jones(n, 0, bracket_wnk_base(n)) == bracket_to_jones(
                -1 - n, 0, bracket_wnk_base(-1 - n)
            )


class TestSSum:
    @staticmethod
    def level(k=0, window=12):
        return bracket_levels(window, k)[k]

    def test_minus_one_is_zero(self):
        assert s_sum(-1, self.level(0)) == LaurentPoly.zero("A")

    def test_s0_is_g0(self):
        # S_0 = g_0 = <W(-2,0)>: the trivial knot with writhe 2
        assert s_sum(0, self.level(0)) == LaurentPoly({6: 1}, "A")

    def test_negative_extension(self):
        level = self.level(0)
        assert s_sum(-3, level) == -s_sum(1, level)
        assert s_sum(-5, level) == -s_sum(3, level)

    def test_window_error(self):
        small = BracketLevel(0, {0: _base_cell(0)})
        with pytest.raises(InternalInconsistencyError, match="no entry for n="):
            s_sum(4, small)

    def test_recurrence(self):
        # S_{n+2} = S_n + A^{n+2} g_{-n-2} + A^{-n-2} g_{n+2}
        for k in (0, 1, 2):
            level = bracket_levels(10, k)[k]
            for n in range(-4, 5):
                lhs = s_sum(n + 2, level)
                rhs = (
                    s_sum(n, level)
                    + level.g(-n - 2).shift(n + 2)
                    + level.g(n + 2).shift(-n - 2)
                )
                assert lhs == rhs


class TestRunningSums:
    @staticmethod
    def reference_brackets(prev, ns):
        # each S_n summed from scratch by its definition
        return {
            n: A_KINK * s_sum(n, prev).shift(n) - prev.bracket(n - 2).shift(2 * n - 1)
            for n in ns
        }

    @pytest.mark.parametrize("a", [*range(9), 20])
    def test_levels_match_definition(self, a):
        # every cell each level holds, from the cells the level below holds
        for k in range(1, 6 if a < 9 else 7):
            levels = bracket_levels(a, k)
            for j in range(1, k + 1):
                got = {n: levels[j].bracket(n) for n in levels[j].values}
                assert got == self.reference_brackets(levels[j - 1], levels[j].values)

    def test_linear_additions_per_level(self, monkeypatch):
        # summing each S_n from scratch makes about 23 additions per cell here
        calls = 0
        cell_add = cyclojones.bracket._cell_add

        def counting_add(x, y, *op):
            nonlocal calls
            calls += 1
            return cell_add(x, y, *op)

        monkeypatch.setattr(cyclojones.bracket, "_cell_add", counting_add)
        levels = bracket_levels(40, 2)
        monkeypatch.undo()
        assert cyclojones.bracket._cell_add is cell_add
        cells = sum(len(level.values) for level in levels[1:])
        assert cells <= calls <= 3 * cells


class ReadCells(dict):
    """A level's cells that records every key read, and every key missed."""

    def __init__(self, cells, misses):
        super().__init__(cells)
        self.reads, self.misses = set(), misses

    def __getitem__(self, n):
        if n not in self:
            self.misses.append(n)
        self.reads.add(n)
        return super().__getitem__(n)


class TestReadSet:
    @pytest.mark.parametrize("a", [0, 1, 2, 3, 5, 8, 13, 21, 30])
    def test_every_held_cell_is_read(self, monkeypatch, a):
        # each level holds the span of what the next _next_level and
        # verify_range read, every held cell is read, and no read misses
        for k_max in range(13):
            levels, misses = [], []

            class Recorded(BracketLevel):
                def __new__(cls, k, values):
                    level = super().__new__(cls, k, ReadCells(values, misses))
                    levels.append(level)
                    return level

            monkeypatch.setattr(cyclojones.bracket, "BracketLevel", Recorded)
            assert all(ok for _, _, ok in verify_range(-a, a, 0, k_max))
            monkeypatch.undo()
            assert misses == []
            ranges = list(_ranges(a, k_max))
            assert ranges == read_ranges(a, k_max)
            assert [level.k for level in levels] == list(range(k_max + 1))
            for level, (lo, hi) in zip(levels, ranges):
                assert list(level.values) == list(range(lo, hi + 1))
                # at a = 0 the levels one and two below the top are read at n 0
                # and at n -2 (-4..-2) only: n = -1 lies inside the span, held unread
                gap = {-1} if a == 0 and 1 <= k_max - level.k <= 2 else set()
                assert level.values.reads == set(range(lo, hi + 1)) - gap, (k_max, level.k)

    def test_ranges_match_the_reads(self):
        # the closed form of _ranges against the read rule, and lazy
        for a in range(61):
            for k_max in range(41):
                assert list(_ranges(a, k_max)) == read_ranges(a, k_max)
        assert next(_ranges(0, 10**100)) == (-2 * 10**100, 2 * 10**100 - 6)


class TestDecodeOnRead:
    @pytest.mark.parametrize("a, k", [(0, 0), (0, 3), (2, 1), (3, 5), (8, 6)])
    def test_only_read_cells_are_decoded(self, monkeypatch, a, k):
        # verify_range compares each cell's list with the closed form's list,
        # and the recursion's S_0 seed is the cell g_0: no cell is decoded
        def refuse(*args):
            raise AssertionError("a bracket was decoded to a polynomial")

        monkeypatch.setattr(cyclojones.bracket, "_decode", refuse)
        monkeypatch.setattr(BracketLevel, "bracket", refuse)
        monkeypatch.setattr(cyclojones.bracket, "bracket_to_jones", refuse)
        assert all(ok for _, _, ok in verify_range(-a, a, 0, k))


class TestNoPolynomialOnTheSweep:
    def test_only_the_seeds_are_built(self, monkeypatch):
        # the sweep builds one LaurentPoly per level above 0: the zero S_-1 from s_sum
        built = 0
        init, new = LaurentPoly.__init__, LaurentPoly._new.__func__

        def counting_init(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        def counting_new(cls, *args):
            nonlocal built
            built += 1
            return new(cls, *args)

        monkeypatch.setattr(LaurentPoly, "__init__", counting_init)
        monkeypatch.setattr(LaurentPoly, "_new", classmethod(counting_new))
        assert all(ok for _, _, ok in verify_range(-6, 8, 0, 5))
        assert built == 5


class TestCellToJones:
    """Every cell a level holds, decoded, goes to the closed form's V by bracket_to_jones."""

    def test_every_cell_gives_jones(self):
        for level in bracket_levels(12, 8):
            for n, cell in level.values.items():
                assert bracket_to_jones(n, level.k, _decode(cell)) == jones_wnk(n, level.k)

    @pytest.mark.parametrize("moved", [1, 2, -1])
    def test_moved_offset_raises(self, moved):
        for n, k in ((1, 1), (-2, 2), (3, 0)):
            lo, coeffs = bracket_levels(3, 2)[k].values[n]
            with pytest.raises(InternalInconsistencyError, match="not divisible by 4"):
                bracket_to_jones(n, k, _decode((lo + moved, coeffs)))


class TestTrimmedCells:
    @pytest.mark.parametrize("a, k", [(24, 16), (40, 20)])
    def test_cells_hold_only_their_nonzero_spans(self, a, k):
        entries = 0
        for level in bracket_levels(a, k):
            for _, x in level.values.values():
                coeffs = _unpack(x)
                assert coeffs[0] and coeffs[-1]
                entries += len(coeffs)
        budget = 0  # the count bracket_levels checks against MAX_TERMS, cell by cell
        for j, (lo, hi) in enumerate(_ranges(a, k)):
            for n in range(lo, hi + 1):
                budget += cell_terms(n, j)
        assert entries <= budget
        assert sum(_level_terms(j, lo, hi) for j, (lo, hi) in enumerate(_ranges(a, k))) == budget


class TestBudgetClosedForm:
    @pytest.mark.parametrize("j", range(61))
    def test_level_sum_matches_cells(self, j):
        # every single cell, and every window lo..130 and -90..hi, ends included:
        # each window is cut by the crossings of the six exponent lines (up to
        # n = 2j + 1) in a different place
        lo_min, hi_max = -90, 130
        cells = [cell_terms(n, j) for n in range(lo_min, hi_max + 1)]
        for i, n in enumerate(range(lo_min, hi_max + 1)):
            assert _level_terms(j, n, n) == cells[i]
            assert _level_terms(j, n, hi_max) == sum(cells[i:])
            assert _level_terms(j, lo_min, n) == sum(cells[: i + 1])

    def test_same_refusals_as_the_cell_sum(self):
        # per k_max, the widest accepted n_abs_max and the next one, by both sums
        for k_max in range(43):
            lo, hi = -1, 2**20  # refuses(lo) is False or lo = -1; refuses(hi) is True
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if refuses(mid, k_max) else (mid, hi)
            if lo >= 0:
                assert not reference_refuses(lo, k_max)
            assert reference_refuses(hi, k_max)
        assert hi == 0 and lo == -1  # k_max = 42 is refused even at n 0..0

    @pytest.mark.parametrize(
        "n_abs_max, k_max, refused",
        [
            (0, 38, False),
            (0, 41, False),
            (0, 42, True),
            (100000, 1, True),
            (721, 0, False),
            (723, 0, False),
            (724, 0, True),
            (47, 20, False),
            (51, 20, False),
            (52, 20, True),
        ],
    )
    def test_budget_edges(self, n_abs_max, k_max, refused):
        # the edges, and the last accepted requests of the symmetric windows
        # that held two more cells per level than are read
        assert refuses(n_abs_max, k_max) is refused is reference_refuses(n_abs_max, k_max)

    def test_totals(self):
        # the counts the README quotes: the default sweep (n -6..8, k 0..5) and n -40..40, k 0..20
        for (a, k), total in {(8, 5): 3400, (40, 20): 712095}.items():
            assert sum(_level_terms(j, lo, hi) for j, (lo, hi) in enumerate(_ranges(a, k))) == total


def merged_packing(n, k):
    """(top, shift, packed) of N at W(n,k), read from its merged terms."""
    terms, shift = _numerator(n, k)
    top = terms[-1][0]
    return top, shift, packed_terms(terms, top)


class TestPackedNumerator:
    @pytest.mark.parametrize("k", range(31))
    def test_matches_the_merged_terms(self, k):
        # one row, n -60..60, stepped from its first points
        assert list(_packed_row(k, -60, 60)) == [merged_packing(n, k) for n in range(-60, 61)]

    @pytest.mark.parametrize(
        "cells, pair",
        [
            ([(n, 0) for n in range(-60, 61)], (3, 4)),  # k = 0: t^e3 = t^e4 = t
            ([(0, k) for k in range(31)], (0, 4)),  # n = 0: t^e0 = t^e4 = t
            ([(-1, k) for k in range(31)], (2, 5)),  # n = -1: t^e2 = t^e5 = 1
        ],
        ids=["k=0", "n=0", "n=-1"],
    )
    def test_coinciding_terms_cancel(self, cells, pair):
        # each cell read inside a whole row, n -60..60, that passes through it
        i, j = pair
        for n, k in cells:
            e = d_exponents(n, k)
            assert e[i] == e[j]
            assert len(_numerator(n, k)[0]) < 6
            assert list(_packed_row(k, -60, 60))[n + 60] == merged_packing(n, k)

    def test_cancelled_top_slots_dropped(self):
        # k = 0, n <= -2: the top raw terms +t - t cancel, so N's top lies below max(e)
        for n, (top, _, packed) in zip(range(-60, -1), _packed_row(0, -60, -2)):
            assert top < max(d_exponents(n, 0))
            assert packed & 0xFFFFFFFF


class TestPackedCells:
    def test_every_cell_is_the_closed_forms(self):
        # each cell of n -40..40, k 0..20, n < 0 and k = 0 included, decodes to
        # V's list read backwards with sign (-1)^k, from A^(3w - 4 * top)
        for level in bracket_levels(40, 20):
            k = level.k
            for n in range(-40, 41):
                lo, x = level.values[n]
                v_lo, v = _jones_dense(n, k)
                assert lo == 3 * writhe_wnk(n, k) - 4 * (v_lo + len(v) - 1)
                assert _unpack(x) == [(-1) ** k * c for c in reversed(v)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2**31) + 1, 2**31 - 1), max_size=40).filter(lambda c: not c or c[-1]))
    def test_pack_and_unpack(self, coeffs):
        lo, x = packed(5, coeffs)
        assert _unpack(x) == coeffs
        assert _decode((lo, x)) == cell_poly(lo, coeffs)


class TestSlotGuard:
    @staticmethod
    def level_of(x):
        return BracketLevel(3, {-1: packed(5, [1, -1]), 0: (0, x), 1: packed(-3, [6] * 9)})

    @pytest.mark.parametrize("coeffs", [[7], [-8], [1, -8, 7, 0, -1], [-8] * 30, [0, 0, 7]])
    def test_coefficients_in_range_pass(self, coeffs):
        _check_slots(self.level_of(packed(0, coeffs)[1]))

    @pytest.mark.parametrize("coeffs", [[8], [-9], [1, 8, -1], [1, -1, 9], [2**31 - 1], [-(2**31) + 1, 1]])
    def test_coefficient_past_the_guard_raises(self, coeffs):
        with pytest.raises(InternalInconsistencyError, match="outside"):
            _check_slots(self.level_of(packed(0, coeffs)[1]))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(), st.integers(-(2**200), 2**200).map(lambda x: x << 96)))
    def test_guard_passes_exactly_the_small_digits(self, x):
        # any integer at all: the guard passes iff its balanced 32-bit digits lie in [-8, 8)
        small = all(-8 <= c < 8 for c in balanced_slots(x))
        try:
            _check_slots(self.level_of(x))
        except InternalInconsistencyError:
            assert not small
        else:
            assert small

    def test_planted_digit_stops_the_recursion(self, monkeypatch):
        # level 0 with one coefficient of <W(2,0)> set to 8
        base = cyclojones.bracket._base_cell

        def planted(n):
            lo, x = base(n)
            return (lo, x + (7 << 32)) if n == 2 else (lo, x)

        monkeypatch.setattr(cyclojones.bracket, "_base_cell", planted)
        with pytest.raises(InternalInconsistencyError, match="k=0: a coefficient of the cell n=(2|-3) "):
            verify_range(-2, 2, 0, 2)

    def test_deepest_sweep_within_the_budget(self):
        # n 0..0, k 0..41: the most levels the budget allows
        assert all(ok for _, _, ok in verify_range(0, 0, 0, 41))
        with pytest.raises(ValueError, match="budget"):
            verify_range(0, 0, 0, 42)


def shifted_base_level(monkeypatch):
    # level 0 with the cell of <W(1,0)> moved by A^1: the recursion's sums refuse it
    base = cyclojones.bracket._base_cell

    def planted(n):
        lo, coeffs = base(n)
        return (lo + 1, coeffs) if n == 1 else (lo, coeffs)

    monkeypatch.setattr(cyclojones.bracket, "_base_cell", planted)
    bracket_levels(2, 2)


def one_term_off(monkeypatch):
    # a bracket with one term outside its class: bracket_to_jones refuses it
    b = bracket_wnk_base(1)
    bracket_to_jones(1, 0, b + LaurentPoly({b.max_exp + 1: 1}, "A"))


class TestModFourCheck:
    """The A-exponents of one bracket lie in one class mod 4 (a theorem)."""

    def test_cells_of_different_classes_refused(self):
        with pytest.raises(InternalInconsistencyError, match="differ mod 4"):
            _cell_add(packed(0, [1]), packed(6, [1, -1]))
        # zero has no class
        assert _cell_add(packed(1, []), packed(6, [1])) == packed(6, [1])
        assert _cell_add(packed(6, [1]), packed(1, [])) == packed(6, [1])
        assert _cell_add(packed(1, []), packed(6, [-1])) == packed(6, [-1])
        # a sum that cancels drops its zero low slots; the top has none
        assert _cell_add(packed(2, [1, 2, 3]), packed(2, [-1, -5, -3])) == packed(6, [-3])
        assert _cell_add(packed(2, [1, 2]), packed(-2, [3, -1, -2])) == packed(-2, [3])
        assert _cell_add(packed(2, [1]), packed(2, [-1]))[1] == 0

    @pytest.mark.parametrize(
        "x, y",
        [((-3, [1, 2]), (5, [7, 1])), ((-3, [1, 2, 3, 4]), (1, [5])), ((-7, [1] * 5), (1, [5, -1]))],
        ids=["apart", "inside", "overlapping"],
    )
    def test_sum_and_difference(self, x, y):
        px, py = cell_poly(*x), cell_poly(*y)
        x, y = packed(*x), packed(*y)
        for op in (add, sub):  # x - y is x plus the negated cell of y
            sums = (_cell_add(x, (y[0], op(0, y[1]))), _cell_add(y, (x[0], op(0, x[1]))))
            for (lo, s), expected in zip(sums, (op(px, py), op(py, px))):
                assert cell_poly(lo, balanced_slots(s)) == expected

    @pytest.mark.parametrize(
        "plant", [shifted_base_level, one_term_off], ids=["whole cell shifted", "one term off"]
    )
    def test_planted_odd_exponent_raises(self, monkeypatch, plant):
        with pytest.raises(InternalInconsistencyError, match="differ mod 4"):
            plant(monkeypatch)

    def test_narrow_window_names_the_missing_cell(self):
        # n -3..3 reads n -5..1: every cell but the lowest
        level = BracketLevel(0, {n: _base_cell(n) for n in range(-4, 2)})
        with pytest.raises(InternalInconsistencyError, match="no entry for n=-5"):
            _next_level(level, -3, 3)
        level.values[-5] = _base_cell(-5)
        assert list(_next_level(level, -3, 3).values) == list(range(-3, 4))


class TestSPrime:
    def test_minus_one_vanishes(self):
        for k in range(0, 6):
            assert s_prime(-1, k) == LaurentPoly.zero("A")

    def test_skew_symmetry(self):
        for k in range(0, 6):
            for n in range(-8, 9):
                assert s_prime(n, k) == -s_prime(-n - 2, k)

    def test_star_star_identity(self):
        # S_n * (A^-8 - 1) == S'_n on the computed levels
        for k in range(0, 5):
            level = bracket_levels(8, k)[k]
            for n in range(-6, 7):
                assert s_sum(n, level) * A_MINUS_8_MINUS_1 == s_prime(n, k)


class TestBracketWnk:
    def test_0_1(self):
        assert bracket_wnk(0, 1) == LaurentPoly({9: -1}, "A")

    def test_1_1(self):
        expected = LaurentPoly({17: -1, 13: 1, 9: -1, 5: 1, 1: -1}, "A")
        assert bracket_wnk(1, 1) == expected

    def test_k_zero_is_base(self):
        for n in range(-5, 6):
            assert bracket_wnk(n, 0) == bracket_wnk_base(n)

    def test_k_zero_oversized_rejected_before_building(self, monkeypatch):
        # the span rule runs on T(n', n'+1)'s four terms before the writhe or any shift
        def refuse(n, k):
            raise AssertionError("the cell was built")

        monkeypatch.setattr(cyclojones.bracket, "writhe_wnk", refuse)
        for n in (2**20, -(2**20)):
            with pytest.raises(ValueError, match="budget"):
                bracket_wnk(n, 0)

    def test_k_zero_refuses_what_jones_refuses(self, monkeypatch):
        # T(n', n'+1) spans 2n' + 1 exponents, as d_polynomial(n, 0) does:
        # n' = 2^19 - 1 is the last built, n' = 2^19 the first refused, for both signs of n
        class Reached(Exception):
            pass

        def reached(s, d):
            raise Reached

        reference = torus_bracket(2**19 - 1)  # n = -2^19 has the same writhe, so the same bracket
        for n in (2**19 - 1, -(2**19)):
            assert _decode(_base_cell(n)) == reference
        for n in (2**19, -(2**19) - 1):
            with pytest.raises(ValueError, match=r"^T\(524288,524289\): .* budget"):
                bracket_wnk(n, 0)
        # jones_wnk reaches its division at the same n the bracket builds, and refuses the rest
        monkeypatch.setattr(cyclojones.wnk, "_stride_div", reached)
        for n in (2**19 - 1, -(2**19)):
            with pytest.raises(Reached):
                jones_wnk(n, 0)
        for n in (2**19, -(2**19) - 1):
            with pytest.raises(ValueError, match=rf"^W\({n},0\): .* budget"):
                jones_wnk(n, 0)

    def test_k_zero_within_budget(self):
        b = bracket_wnk(1000, 0)
        assert bracket_to_jones(1000, 0, b) == torus_jones(1000, 1001)


class TestConversion:
    def test_0_1(self):
        assert bracket_to_jones(0, 1, LaurentPoly({9: -1}, "A")) == LaurentPoly.one()

    def test_zero_bracket(self):
        v = bracket_to_jones(3, 2, LaurentPoly.zero("A"))
        assert v == LaurentPoly.zero() and v.variable == "t"

    def test_2_0(self):
        b = LaurentPoly({14: 1, 6: 1, 2: -1}, "A")
        assert bracket_to_jones(2, 0, b) == parse_poly("t + t^3 - t^4")

    def test_roundtrip(self):
        v = jones_wnk(1, 1)
        assert bracket_to_jones(1, 1, jones_to_bracket(1, 1, v)) == v

    def test_bad_exponent_rejected(self):
        with pytest.raises(InternalInconsistencyError, match="not divisible by 4"):
            bracket_to_jones(0, 0, LaurentPoly({1: 1}, "A"))

    def test_jones_to_bracket_matches_the_dict_formula(self):
        for k in range(7):
            for n in range(-12, 13):
                v = jones_wnk(n, k)
                assert jones_to_bracket(n, k, v) == reference_bracket(n, k, v)
        assert jones_to_bracket(3, 1, LaurentPoly.zero()) == LaurentPoly.zero("A")

    def test_wrong_variable_rejected(self):
        with pytest.raises(TagError):
            bracket_to_jones(0, 0, parse_poly("t"))
        with pytest.raises(TagError):
            jones_to_bracket(0, 0, LaurentPoly.one("A"))

    @staticmethod
    def timed(convert, *args):
        """convert(*args), or the InternalInconsistencyError it raised, within 1 s and 10 MB."""
        tracemalloc.start()
        start = time.perf_counter()
        try:
            out = convert(*args)
        except InternalInconsistencyError as exc:
            out = exc
        finally:
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert seconds < 1 and peak < 10 * 2**20, (seconds, peak)
        return out

    @pytest.mark.parametrize(
        "convert, n, k, p, expected",
        [
            (
                jones_to_bracket, 0, 0,
                LaurentPoly({0: 1, 2 * 10**7: -1, -(2 * 10**7): 1}),
                LaurentPoly({0: 1, -(8 * 10**7): -1, 8 * 10**7: 1}, "A"),
            ),
            (
                bracket_to_jones, 1, 1,  # writhe 3: every A-exponent is 9 mod 4
                LaurentPoly({9 - 4 * 10**7: 1, 9: -1, 9 + 4 * 10**7: 2}, "A"),
                LaurentPoly({10**7: -1, 0: 1, -(10**7): -2}),
            ),
        ],
        ids=["jones_to_bracket", "bracket_to_jones"],
    )
    def test_wide_sparse_input_stays_sparse(self, convert, n, k, p, expected):
        # three terms spanning 4 * 10^7 t-exponents or 8 * 10^7 A-exponents: no list of that span
        assert self.timed(convert, n, k, p) == expected

    @pytest.mark.parametrize(
        "terms, message",
        [
            # mixed classes are named before the wrong class of the lowest exponent
            (
                {-(4 * 10**7) + 1: 1, 2: -1, 4 * 10**7: 1},
                "A-exponents -39999999 and 2 of one bracket differ mod 4",
            ),
            (
                {-(4 * 10**7): 1, 1: -1, 4 * 10**7: 1},
                "A-exponents -40000000 and 1 of one bracket differ mod 4",
            ),
            (
                {-(4 * 10**7) + 2: 1, 2: -1, 4 * 10**7 + 2: 1},
                "A-exponent -39999998 not divisible by 4; writhe/bracket mismatch",
            ),
        ],
        ids=["both", "mixed", "wrong class"],
    )
    def test_planted_wide_bracket_raises(self, terms, message):
        exc = self.timed(bracket_to_jones, 0, 0, LaurentPoly(terms, "A"))
        assert isinstance(exc, InternalInconsistencyError) and str(exc) == message

    def test_public_oracle(self):
        # the recursion's bracket through the public conversion, n < 0 and k = 0 included
        for k in range(7):
            for n in range(-12, 13):
                assert bracket_to_jones(n, k, bracket_wnk(n, k)) == jones_wnk(n, k), (n, k)

    def test_nonzero_s_minus_one_raises(self, monkeypatch):
        # S_-1 = 0 seeds each level; a nonzero one stops the recursion
        monkeypatch.setattr(cyclojones.bracket, "s_sum", lambda n, level: LaurentPoly.one("A"))
        with pytest.raises(InternalInconsistencyError, match="^level k=0: S_-1 is not zero$"):
            bracket_levels(2, 1)


class TestOracleEquivalence:
    def test_sweep(self):
        results = verify_range(-6, 8, 0, 6)
        assert len(results) == 105
        assert all(ok for _, _, ok in results)

    @pytest.mark.parametrize("bounds", [(-3, 7, 2, 5), (5, 5, 0, 4), (-9, -9, 0, 3), (-1, 0, 7, 7)])
    def test_windows(self, bounds):
        # rows that start at either sign of n, one cell wide included: the
        # stepped exponents, shift and writhe agree with every cell
        n_lo, n_hi, k_lo, k_hi = bounds
        assert verify_range(*bounds) == [
            (n, k, True) for k in range(k_lo, k_hi + 1) for n in range(n_lo, n_hi + 1)
        ]

    @pytest.mark.parametrize("shift, sign", [(1, 1), (-1, 1), (0, -1)])
    def test_planted_closed_form_mismatches(self, monkeypatch, shift, sign):
        # a closed form off by t^shift (its cell's lo off by 4) or by sign
        # disagrees with its cell only
        true_row = cyclojones.bracket._packed_row

        def planted(k, n_lo, n_hi):
            for n, (top, s, packed) in enumerate(true_row(k, n_lo, n_hi), n_lo):
                if (n, k) == (3, 2):
                    yield top, s + shift, sign * packed
                else:
                    yield top, s, packed

        monkeypatch.setattr(cyclojones.bracket, "_packed_row", planted)
        results = verify_range(-4, 4, 0, 3)
        assert [(n, k) for n, k, ok in results if not ok] == [(3, 2)]

    @pytest.mark.parametrize("index", [0, 2, -1], ids=["lowest", "middle", "top"])
    def test_planted_numerator_term_mismatches(self, monkeypatch, index):
        # one of N's merged terms with its sign flipped, past the theorem checks
        true_row = cyclojones.bracket._packed_row

        def planted(k, n_lo, n_hi):
            for n, (top, s, packed) in enumerate(true_row(k, n_lo, n_hi), n_lo):
                if (n, k) == (-2, 3):
                    e, c = _numerator(n, k)[0][index]
                    packed -= 2 * c << 32 * (top - e)
                yield top, s, packed

        monkeypatch.setattr(cyclojones.bracket, "_packed_row", planted)
        results = verify_range(-4, 4, 0, 3)
        assert [(n, k) for n, k, ok in results if not ok] == [(-2, 3)]

    @pytest.mark.parametrize(
        "exponents, signs",
        [
            (None, (1, -1, -1, 1, -1, 2)),  # N = 2 - t^2
            ((0, 1, 5, 5, 7, 7), None),  # N = 1 - t
            ((0, 2, 2, 0, 5, 5), None),  # N = 2 - 2t^2: V = 2
            ((1, 3, 0, 0, 0, 0), None),  # N = t - t^3: V = t
            ((-1, 1, 2, 0, 5, 5), None),  # N = t^-1 + 1 - t - t^2: V = t^-1 + 1
            ((0, 1, 2, 3, 4, 4), (8, 3, -4, 1, 1, -1)),  # N = 1 - t^2 + 7 + (t - 1)^3
            ((0, 1, 2, 3, 4, 4), (2, -3, 2, -1, 1, -1)),  # N = 1 - t^2 + (1 - t)^3
        ],
        ids=["N(1)=1", "N(-1)=2", "V(1)=2", "V'(1)=1", "V(1)=2 V'(1)=-1", "N(1)=8", "N(-1)=8"],
    )
    def test_broken_numerator_identity_raises(self, monkeypatch, exponents, signs):
        # each of the closed form's theorems broken at W(0,0), shift 0, stops
        # the sweep, and each of the four checks is the only one failing in
        # some case: sum e^2*c in V'(1)=1, sum e*c in V(1)=2 V'(1)=-1 (V = 2
        # fails both sums), N(1) and N(-1) in the last two.  Those add to
        # 1 - t^2 a constant or a multiple of (t - 1)^3, which leaves both sums
        # as they are; d's three + and three - terms cannot break N(1) or N(-1)
        # alone, so the last two change the coefficients too
        if exponents:
            monkeypatch.setattr(cyclojones.wnk, "d_exponents", lambda n, k: exponents)
        if signs:
            monkeypatch.setattr(cyclojones.wnk, "_N_SIGNS", signs)
        with pytest.raises(InternalInconsistencyError, match="numerator"):
            verify_range(0, 0, 0, 0)

    @pytest.mark.parametrize(
        "name, planted, match",
        [
            ("d_exponents", lambda true: lambda n, k: (*true(n, k)[:3], k * (n + 3) + 2, *true(n, k)[4:]),
             r"^W\(0,0\): numerator"),
            ("_N_SIGNS", lambda true: (true[1], true[0], *true[2:]), r"^W\(0,0\): numerator"),
            # zero at n = 0 and at k = 0, 1: the first grid point it reaches is W(1,2)
            ("_shift", lambda true: lambda n, k: true(n, k) + n * k * (k - 1) // 2,
             r"^W\(1,2\): numerator"),
            ("d_exponents", lambda true: lambda n, k: (true(n, k)[0] + k * k, *true(n, k)[1:]),
             "^numerator exponents .* not bilinear"),
        ],
        ids=["e3 + 1", "signs swapped", "shift + nk(k-1)/2", "e0 + k^2"],
    )
    def test_planted_proof_fault_raises(self, monkeypatch, name, planted, match):
        # the grid proof runs once per call, before any level is built
        monkeypatch.setattr(cyclojones.wnk, name, planted(getattr(cyclojones.wnk, name)))
        monkeypatch.setattr(cyclojones.bracket, "bracket_levels", None)
        with pytest.raises(InternalInconsistencyError, match=match):
            verify_range(-6, 8, 0, 5)
        with pytest.raises(InternalInconsistencyError, match=match):
            _prove_numerator()

    @pytest.mark.parametrize(
        "bounds, match",
        [
            ((2, 1, 0, 1), "n range"),
            ((0, 1, 2, 1), "k range"),
            ((0, 1, -1, 1), "k_lo=-1 is negative"),
        ],
        ids=["n_lo>n_hi", "k_lo>k_hi", "k_lo<0"],
    )
    def test_each_bad_bound_named(self, bounds, match):
        with pytest.raises(ValueError, match=match):
            verify_range(*bounds)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: verify_range(0, 100000, 0, 1),
            lambda: bracket_wnk(10**5, 1),
            lambda: bracket_levels(0, 10**8),
            lambda: bracket_wnk(0, 10**8),
            lambda: verify_range(0, 0, 0, 10**9),
        ],
        ids=[
            "verify_range(0, 100000, 0, 1)",
            "bracket_wnk(10**5, 1)",
            "bracket_levels(0, 10**8)",
            "bracket_wnk(0, 10**8)",
            "verify_range(0, 0, 0, 10**9)",
        ],
    )
    def test_oversized_rejected_before_building(self, monkeypatch, call):
        def refuse(n):
            raise AssertionError("_base_cell was called")

        monkeypatch.setattr(cyclojones.bracket, "_base_cell", refuse)
        with pytest.raises(ValueError, match="budget"):
            call()

    def test_within_budget_reaches_the_build(self, monkeypatch):
        # the levels for n -40..40, k 0..20 hold about 712k terms, under 2^20
        class Reached(Exception):
            pass

        def reached(n):
            raise Reached

        monkeypatch.setattr(cyclojones.bracket, "_base_cell", reached)
        with pytest.raises(Reached):
            verify_range(-40, 40, 0, 20)

    def test_single_cells(self):
        for n, k in ((3, 2), (-4, 3), (5, 1), (-6, 4)):
            assert bracket_to_jones(n, k, bracket_wnk(n, k)) == jones_wnk(n, k)
