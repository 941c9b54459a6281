from operator import add, sub

import pytest

import cyclojones.bracket
import cyclojones.wnk
from cyclojones.bracket import (
    BracketLevel,
    _cell,
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
from cyclojones.wnk import jones_wnk

A_MINUS_8_MINUS_1 = LaurentPoly({-8: 1, 0: -1}, "A")
A_KINK = LaurentPoly({-1: 1, 3: -1}, "A")  # A^-1 - A^3


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
        # verify_range reads (2a + 1)(k + 1) cells, and the recursion itself
        # decodes none: its S_0 seed is the cell g_0
        decodes = 0
        from_dense = cyclojones.bracket._from_dense

        def counting(*args):
            nonlocal decodes
            decodes += 1
            return from_dense(*args)

        monkeypatch.setattr(cyclojones.bracket, "_from_dense", counting)
        assert all(ok for _, _, ok in verify_range(-a, a, 0, k))
        assert 0 < decodes <= (2 * a + 1) * (k + 1)


class TestModFourCheck:
    """The A-exponents of one bracket lie in one class mod 4 (a theorem)."""

    def test_cells_of_different_classes_refused(self):
        with pytest.raises(InternalInconsistencyError, match="differ mod 4"):
            cyclojones.bracket._cell_add((0, [1]), (6, [1, -1]))
        # zero has no class
        assert cyclojones.bracket._cell_add((1, []), (6, [1])) == (6, [1])
        assert cyclojones.bracket._cell_add((6, [1]), (1, []), sub) == (6, [1])
        assert cyclojones.bracket._cell_add((1, []), (6, [1]), sub) == (6, [-1])

    @pytest.mark.parametrize(
        "x, y",
        [((-3, [1, 2]), (5, [7, 1])), ((-3, [1, 2, 3, 4]), (1, [5])), ((-7, [1] * 5), (1, [5, -1]))],
        ids=["apart", "inside", "overlapping"],
    )
    def test_sum_and_difference(self, x, y):
        px, py = (_from_dense(lo, c, "A", 4) for lo, c in (x, y))
        for op in (add, sub):
            assert _from_dense(*cyclojones.bracket._cell_add(x, y, op), "A", 4) == op(px, py)
            assert _from_dense(*cyclojones.bracket._cell_add(y, x, op), "A", 4) == op(py, px)

    @pytest.mark.parametrize(
        "plant",
        [lambda b: b.shift(1), lambda b: b + LaurentPoly({b.max_exp + 1: 1}, "A")],
        ids=["whole cell shifted", "one term off"],
    )
    def test_planted_odd_exponent_raises(self, monkeypatch, plant):
        base = cyclojones.bracket.bracket_wnk_base

        def planted(n):
            return plant(base(n)) if n == 1 else base(n)

        monkeypatch.setattr(cyclojones.bracket, "bracket_wnk_base", planted)
        with pytest.raises(InternalInconsistencyError, match="differ mod 4"):
            bracket_levels(2, 2)

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
        def refuse(p, q):
            raise AssertionError("torus_jones was called")

        monkeypatch.setattr(cyclojones.bracket, "torus_jones", refuse)
        for n in (2**20, -(2**20)):
            with pytest.raises(ValueError, match="budget"):
                bracket_wnk(n, 0)

    def test_k_zero_refuses_what_jones_refuses(self, monkeypatch):
        # jones_wnk reaches the division only for a cell inside the budget
        def stop(s, d):
            raise InexactDivisionError("the stride division was reached")

        monkeypatch.setattr(cyclojones.wnk, "_stride_div", stop)
        monkeypatch.setattr(cyclojones.bracket, "bracket_wnk_base", lambda n: "built")
        for n in (2**19 - 1, 2**19, -(2**19) + 1, -(2**19), -(2**19) - 1):
            try:
                jones_wnk(n, 0)
            except ValueError:
                with pytest.raises(ValueError, match="budget"):
                    bracket_wnk(n, 0)
            except InternalInconsistencyError:
                assert bracket_wnk(n, 0) == "built"

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
            raise AssertionError("bracket_wnk_base was called")

        monkeypatch.setattr(cyclojones.bracket, "bracket_wnk_base", refuse)
        with pytest.raises(ValueError, match="budget"):
            call()

    def test_within_budget_reaches_the_build(self, monkeypatch):
        # the levels for n -40..40, k 0..20 hold about 836k terms, under 2^20
        class Reached(Exception):
            pass

        def reached(n):
            raise Reached

        monkeypatch.setattr(cyclojones.bracket, "bracket_wnk_base", reached)
        with pytest.raises(Reached):
            verify_range(-40, 40, 0, 20)

    def test_single_cells(self):
        for n, k in ((3, 2), (-4, 3), (5, 1), (-6, 4)):
            assert bracket_to_jones(n, k, bracket_wnk(n, k)) == jones_wnk(n, k)
