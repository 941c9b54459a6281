import math
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

import cyclojones.bracket
import cyclojones.wnk
from cyclojones.bracket import (
    BracketLevel,
    _cell,
    _cell_add,
    _cell_to_jones,
    _check_slots,
    _pack,
    _unpack,
    _windows,
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
from cyclojones.laurent import LaurentPoly, _from_dense, parse_poly
from cyclojones.wnk import _jones_dense, d_exponents, jones_wnk, writhe_wnk

A_MINUS_8_MINUS_1 = LaurentPoly({-8: 1, 0: -1}, "A")
A_KINK = LaurentPoly({-1: 1, 3: -1}, "A")  # A^-1 - A^3


def reference_bracket(n, k, v):
    """<W(n,k)> = (-1)^k A^(3w) V(A^-4), written on the term dict."""
    return v.substitute_power(-4, "A").scale((-1) ** k, 3 * writhe_wnk(n, k))


def packed(lo, coeffs):
    """The packed cell of sum_j coeffs[j] A^(lo + 4j)."""
    return lo, sum(c << 32 * j for j, c in enumerate(coeffs))


def balanced_slots(x):
    """The digits c_j in [-2^31, 2^31) of x = sum_j c_j 2^(32j), by repeated division."""
    out = []
    while x:
        c = x % 2**32
        c -= 2**32 if c >= 2**31 else 0
        out.append(c)
        x = (x - c) >> 32
    return out


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
        with pytest.raises(ValueError, match="budget"):
            torus_jones(2**19, 2**19 + 1)
        with pytest.raises(Reached):
            torus_jones(2**19 - 1, 2**19)

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
        level = bracket_levels(56, 1)[0]
        for n in range(-60, 61):
            m = n if n >= 0 else -1 - n
            v = torus_jones(m, m + 1) if m else LaurentPoly.one()
            assert level.values[n] == _cell(reference_bracket(n, 0, v))

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
        small = BracketLevel(0, {0: _cell(bracket_wnk_base(0))})
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
    def reference_brackets(prev, window):
        # each S_n summed from scratch by its definition
        return {
            n: A_KINK * s_sum(n, prev).shift(n) - prev.bracket(n - 2).shift(2 * n - 1)
            for n in range(-window, window + 1)
        }

    @pytest.mark.parametrize("a", [*range(9), 20])
    def test_levels_match_definition(self, a):
        for k in range(1, 6 if a < 9 else 7):
            levels = bracket_levels(a, k)
            for j in range(1, k + 1):
                expected = self.reference_brackets(levels[j - 1], a + 2 * (k - j) + 2)
                assert {n: levels[j].bracket(n) for n in levels[j].values} == expected

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


class TestDecodeOnRead:
    @pytest.mark.parametrize("a, k", [(0, 0), (0, 3), (2, 1), (3, 5), (8, 6)])
    def test_only_read_cells_are_decoded(self, monkeypatch, a, k):
        # verify_range compares each cell's list with the closed form's list,
        # and the recursion's S_0 seed is the cell g_0: no cell is decoded
        def refuse(*args):
            raise AssertionError("a bracket was decoded to a polynomial")

        monkeypatch.setattr(cyclojones.bracket, "_from_dense", refuse)
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
    def test_matches_bracket_to_jones(self):
        for level in bracket_levels(12, 8):
            for n, cell in level.values.items():
                expected = bracket_to_jones(n, level.k, level.bracket(n))
                assert _cell_to_jones(n, level.k, cell) == expected

    @pytest.mark.parametrize("moved", [1, 2, -1])
    def test_moved_offset_raises(self, moved):
        for n, k in ((1, 1), (-2, 2), (3, 0)):
            lo, coeffs = bracket_levels(3, 2)[k].values[n]
            with pytest.raises(InternalInconsistencyError, match="not divisible by 4"):
                _cell_to_jones(n, k, (lo + moved, coeffs))


class TestTrimmedCells:
    @pytest.mark.parametrize("a, k", [(24, 16), (40, 20)])
    def test_cells_hold_only_their_nonzero_spans(self, a, k):
        entries = 0
        for level in bracket_levels(a, k):
            for _, x in level.values.values():
                coeffs = _unpack(x)
                assert coeffs[0] and coeffs[-1]
                entries += len(coeffs)
        budget = 0  # the count bracket_levels checks against MAX_TERMS
        for j, window in enumerate(_windows(a, k)):
            for n in range(-window, window + 1):
                e = d_exponents(n, j)
                budget += max(e) - min(e) - 1
        assert entries <= budget


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
        x = _pack(coeffs)
        assert x == sum(c << 32 * j for j, c in enumerate(coeffs))
        assert _unpack(x) == coeffs

    def test_pack_refuses_a_wide_coefficient(self):
        with pytest.raises(OverflowError):
            _pack([1, 2**31])


class TestSlotGuard:
    @staticmethod
    def level_of(x):
        return BracketLevel(3, {-1: packed(5, [1, -1]), 0: (0, x), 1: packed(-3, [6] * 9)})

    @pytest.mark.parametrize("coeffs", [[7], [-8], [1, -8, 7, 0, -1], [-8] * 30, [0, 0, 7]])
    def test_coefficients_in_range_pass(self, coeffs):
        _check_slots(self.level_of(_pack(coeffs)))

    @pytest.mark.parametrize("coeffs", [[8], [-9], [1, 8, -1], [1, -1, 9], [2**31 - 1], [-(2**31) + 1, 1]])
    def test_coefficient_past_the_guard_raises(self, coeffs):
        with pytest.raises(InternalInconsistencyError, match="outside"):
            _check_slots(self.level_of(_pack(coeffs)))

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
        # n 0..0, k 0..38: the widest windows per level the budget allows
        assert all(ok for _, _, ok in verify_range(0, 0, 0, 38))
        with pytest.raises(ValueError, match="budget"):
            verify_range(0, 0, 0, 39)


def shifted_base_level(monkeypatch):
    # level 0 with the cell of <W(1,0)> moved by A^1: the recursion's sums refuse it
    base = cyclojones.bracket._base_cell

    def planted(n):
        lo, coeffs = base(n)
        return (lo + 1, coeffs) if n == 1 else (lo, coeffs)

    monkeypatch.setattr(cyclojones.bracket, "_base_cell", planted)
    bracket_levels(2, 2)


def one_term_off(monkeypatch):
    # a bracket with one term outside its class is no cell: _cell refuses it
    b = bracket_wnk_base(1)
    bracket_to_jones(1, 0, b + LaurentPoly({b.max_exp + 1: 1}, "A"))


class TestModFourCheck:
    """The A-exponents of one bracket lie in one class mod 4 (a theorem)."""

    def test_cells_of_different_classes_refused(self):
        with pytest.raises(InternalInconsistencyError, match="differ mod 4"):
            _cell_add(packed(0, [1]), packed(6, [1, -1]))
        # zero has no class
        assert _cell_add(packed(1, []), packed(6, [1])) == packed(6, [1])
        assert _cell_add(packed(6, [1]), packed(1, []), sub) == packed(6, [1])
        assert _cell_add(packed(1, []), packed(6, [1]), sub) == packed(6, [-1])
        # a sum that cancels drops its zero low slots; the top has none
        assert _cell_add(packed(2, [1, 2, 3]), packed(2, [1, 5, 3]), sub) == packed(6, [-3])
        assert _cell_add(packed(2, [1, 2]), packed(-2, [3, -1, -2])) == packed(-2, [3])
        assert _cell_add(packed(2, [1]), packed(2, [1]), sub)[1] == 0

    @pytest.mark.parametrize(
        "x, y",
        [((-3, [1, 2]), (5, [7, 1])), ((-3, [1, 2, 3, 4]), (1, [5])), ((-7, [1] * 5), (1, [5, -1]))],
        ids=["apart", "inside", "overlapping"],
    )
    def test_sum_and_difference(self, x, y):
        px, py = (_from_dense(lo, c, "A", 4) for lo, c in (x, y))
        x, y = packed(*x), packed(*y)
        for op in (add, sub):
            for (lo, s), expected in ((_cell_add(x, y, op), op(px, py)), (_cell_add(y, x, op), op(py, px))):
                assert _from_dense(lo, balanced_slots(s), "A", 4) == expected

    @pytest.mark.parametrize(
        "plant", [shifted_base_level, one_term_off], ids=["whole cell shifted", "one term off"]
    )
    def test_planted_odd_exponent_raises(self, monkeypatch, plant):
        with pytest.raises(InternalInconsistencyError, match="differ mod 4"):
            plant(monkeypatch)

    def test_narrow_window_names_the_missing_cell(self):
        level = BracketLevel(0, {n: _cell(bracket_wnk_base(n)) for n in range(-4, 5)})
        with pytest.raises(InternalInconsistencyError, match="no entry for n=-5"):
            cyclojones.bracket._next_level(level, 3)


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
        def refuse(s, d):
            raise AssertionError("the stride division was called")

        monkeypatch.setattr(cyclojones.wnk, "_stride_div", refuse)
        for n in (2**20, -(2**20)):
            with pytest.raises(ValueError, match="budget"):
                bracket_wnk(n, 0)

    def test_k_zero_refuses_what_jones_refuses(self, monkeypatch):
        # both closed forms reach the division only for a numerator inside the budget
        def stop(s, d):
            raise InexactDivisionError("the stride division was reached")

        monkeypatch.setattr(cyclojones.wnk, "_stride_div", stop)
        for n in (2**19 - 1, 2**19, -(2**19) + 1, -(2**19), -(2**19) - 1):
            try:
                jones_wnk(n, 0)
            except ValueError:
                with pytest.raises(ValueError, match="budget"):
                    bracket_wnk(n, 0)
            except InternalInconsistencyError:
                with pytest.raises(InternalInconsistencyError, match="not divisible"):
                    bracket_wnk(n, 0)

    def test_k_zero_within_budget(self):
        b = bracket_wnk(1000, 0)
        assert bracket_to_jones(1000, 0, b) == torus_jones(1000, 1001)


class TestConversion:
    def test_0_1(self):
        assert bracket_to_jones(0, 1, LaurentPoly({9: -1}, "A")) == LaurentPoly.one()

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


class TestOracleEquivalence:
    def test_sweep(self):
        results = verify_range(-6, 8, 0, 6)
        assert len(results) == 105
        assert all(ok for _, _, ok in results)

    @pytest.mark.parametrize("shift, sign", [(1, 1), (-1, 1), (0, -1)])
    def test_planted_closed_form_mismatches(self, monkeypatch, shift, sign):
        # a closed form off by t^shift (its cell's lo off by 4) or by sign
        # disagrees with its cell only
        true_numerator = cyclojones.bracket._jones_numerator

        def planted(n, k):
            terms, s = true_numerator(n, k)
            if (n, k) == (3, 2):
                return [(e, sign * c) for e, c in terms], s + shift
            return terms, s

        monkeypatch.setattr(cyclojones.bracket, "_jones_numerator", planted)
        results = verify_range(-4, 4, 0, 3)
        assert [(n, k) for n, k, ok in results if not ok] == [(3, 2)]

    @pytest.mark.parametrize("index", [0, 2, -1], ids=["lowest", "middle", "top"])
    def test_planted_numerator_term_mismatches(self, monkeypatch, index):
        # one of the six terms with its sign flipped, past the theorem checks
        true_numerator = cyclojones.bracket._jones_numerator

        def planted(n, k):
            terms, s = true_numerator(n, k)
            if (n, k) == (-2, 3):
                e, c = terms[index]
                terms = [*terms]
                terms[index] = e, -c
            return terms, s

        monkeypatch.setattr(cyclojones.bracket, "_jones_numerator", planted)
        results = verify_range(-4, 4, 0, 3)
        assert [(n, k) for n, k, ok in results if not ok] == [(-2, 3)]

    @pytest.mark.parametrize(
        "terms, shift",
        [([(0, 1)], 0), ([(0, 1), (1, -1)], 0), ([(0, 2), (2, -2)], 0), ([(0, 1), (2, -1)], 1)],
        ids=["N(1)=1", "N(-1)=2", "V(1)=2", "V'(1)=1"],
    )
    def test_broken_numerator_identity_raises(self, monkeypatch, terms, shift):
        # each of the closed form's theorems, broken alone, stops the sweep
        monkeypatch.setattr(cyclojones.wnk, "_numerator", lambda n, k: (terms, shift))
        with pytest.raises(InternalInconsistencyError, match="numerator"):
            verify_range(0, 0, 0, 0)

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
        [lambda: verify_range(0, 100000, 0, 1), lambda: bracket_wnk(10**5, 1)],
        ids=["verify_range(0, 100000, 0, 1)", "bracket_wnk(10**5, 1)"],
    )
    def test_oversized_rejected_before_building(self, monkeypatch, call):
        def refuse(n):
            raise AssertionError("_base_cell was called")

        monkeypatch.setattr(cyclojones.bracket, "_base_cell", refuse)
        with pytest.raises(ValueError, match="budget"):
            call()

    def test_within_budget_reaches_the_build(self, monkeypatch):
        # the levels for n -40..40, k 0..20 hold about 836k terms, under 2^20
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
