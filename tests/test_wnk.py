import time

import pytest

import cyclojones.wnk
from cyclojones.arith import PRIME_TEST_LIMIT
from cyclojones.cyclotomic import _alternating, is_cyclotomic_product, phi, phi_sym, phi_tilde
from cyclojones.errors import InexactDivisionError, InternalInconsistencyError
from cyclojones.laurent import LaurentPoly, _from_dense, parse_poly
from cyclojones.wnk import (
    _jones_dense,
    Family,
    FamilyParams,
    classify_symmetry,
    crossing_bound,
    d_polynomial,
    f,
    g,
    generate_table,
    is_trivial_unknot,
    jones_wnk,
    mersenne_knot,
    quadruplet,
    writhe_wnk,
)
from sympy import divisors


def dense_symmetric(n, k):
    """Whether V_W(n,k) = V(1/t), read from its dense list: exponents lo..-lo, palindromic."""
    lo, v = _jones_dense(n, k)
    return 2 * lo + len(v) == 1 and v == v[::-1]


class TestDPolynomial:
    def test_0_1(self):
        assert d_polynomial(0, 1) == parse_poly("t^2 - 1")

    def test_1_1(self):
        assert d_polynomial(1, 1) == parse_poly("t^6 - t^5 + t - 1")

    def test_k_minus_1_collapse(self):
        # n = k-1 collapses to (t^(k^2+k-1) + 1)(t - 1)
        for k in (1, 2, 3, 5):
            expected = LaurentPoly({k * k + k - 1: 1, 0: 1}) * parse_poly("t - 1")
            assert d_polynomial(k - 1, k) == expected


class TestJonesWnk:
    def test_unknot(self):
        assert jones_wnk(0, 1) == LaurentPoly.one()

    def test_figure_eight(self):
        assert jones_wnk(1, 1) == parse_poly("t^-2 - t^-1 + 1 - t + t^2")

    def test_trefoil(self):
        assert jones_wnk(2, 0) == parse_poly("t + t^3 - t^4")

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            jones_wnk(0, -1)

    @pytest.mark.parametrize("n", range(-8, 13))
    @pytest.mark.parametrize("k", range(0, 7))
    def test_knot_conditions_hold(self, n, k):
        # division exactness and (V(1), V'(1)) == (1, 0) are asserted inside
        v = jones_wnk(n, k)
        assert v.value_and_derivative_at_one() == (1, 0)

    def test_dense_list_matches_sparse_division(self):
        # the reference divides by 1 - t^2 with _long_division, not the stride kernel
        one_minus_t2 = LaurentPoly({0: 1, 2: -1})
        for n in range(-40, 41):
            for k in range(0, 21):
                lo, v = _jones_dense(n, k)
                assert v[0] and v[-1], (n, k)
                shift = n * (n - 1) // 2 + k * (k - 1) - 2 * n * k
                reference = (-d_polynomial(n, k)).divide_exact(one_minus_t2).shift(shift)
                assert _from_dense(lo, v) == reference, (n, k)

    def test_kink_reflection_at_k_zero(self):
        for n in range(-8, 8):
            assert jones_wnk(n, 0) == jones_wnk(-1 - n, 0)

    def test_doubled_column_identities(self):
        for k in range(1, 9):
            assert jones_wnk(2 * k, k) == jones_wnk(2 * k + 1, k)
        for k in range(0, 7):
            assert jones_wnk(k, k) == jones_wnk(k, k + 1)


class TestQuadratics:
    def test_f_values(self):
        assert f(1) == 1
        assert f(2) == 5

    def test_g_values(self):
        assert g(2) == 7
        assert g(4) == 31


class TestClassifySymmetry:
    def test_family_k_minus_1(self):
        cls = classify_symmetry(1, 2)
        assert cls.family is Family.K_MINUS_1
        assert cls.m == 5 and cls.source == "f(2)"
        assert jones_wnk(1, 2) == phi_sym(10)

    def test_family_2k_plus_1(self):
        cls = classify_symmetry(5, 2)
        assert cls.family is Family.TWO_K_PLUS_1
        assert cls.m == 17 and cls.source == "g(3)"
        assert jones_wnk(5, 2) == phi_sym(34)

    def test_not_symmetric(self):
        assert not classify_symmetry(2, 4).symmetric

    def test_k_zero_reported_not_symmetric(self):
        assert not classify_symmetry(5, 0).symmetric
        assert not classify_symmetry(0, 0).symmetric

    def test_equivalence_sweep(self):
        for k in range(1, 9):
            for n in range(-10, 21):
                expected = n in (k - 1, k, 2 * k, 2 * k + 1)
                cls = classify_symmetry(n, k)
                assert cls.symmetric == expected
                assert jones_wnk(n, k).is_symmetric() == expected
                if expected:
                    assert cls.m % 2 == 1
                    assert jones_wnk(n, k) == phi_tilde(cls.m)

    def test_builds_no_cyclotomic_polynomial(self, monkeypatch):
        # V is proved phi_tilde(m) on N's terms, not compared with a product
        phi.cache_clear()
        phi_tilde.cache_clear()

        def refuse(*args):
            raise AssertionError("LaurentPoly.__mul__ was called")

        monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
        for k in range(1, 31):
            for n, expected in quadruplet(k).items():
                assert classify_symmetry(n, k) == expected
        assert phi.cache_info().currsize == 0
        assert phi_tilde.cache_info().currsize == 0

    def test_builds_no_list(self, monkeypatch):
        # both halves of the proof read N's terms: V's dense list is never built
        def refuse(*args):
            raise AssertionError("the closed form's list was built")

        monkeypatch.setattr(cyclojones.wnk, "_closed_form", refuse)
        monkeypatch.setattr(cyclojones.wnk, "_stride_div", refuse)
        for k in range(1, 31):
            for n in range(-5, 70):
                classify_symmetry(n, k)
        # V has 2^p - 1 terms, past the term budget for p = 31 and 61
        for p in (19, 31, 61):
            k = 2 ** ((p - 1) // 2) - 1
            assert mersenne_knot(p) == (p, 2**p - 1, k, ((2 * k, k), (2 * k + 1, k)))

    def test_planted_symmetric_non_member_raises(self, monkeypatch):
        # the equivalence's other half: a non-member's V must not be symmetric.
        # W(1,2)'s exponents raised by one, under W(2,4)'s prefactor t^-3, make
        # t^-2 N(1,2) = (1 - t^2) phi_tilde(5), and keep N's theorems
        raised = tuple(e + 1 for e in cyclojones.wnk.d_exponents(1, 2))
        monkeypatch.setattr(cyclojones.wnk, "d_exponents", lambda n, k: raised)
        with pytest.raises(InternalInconsistencyError, match=r"W\(2,4\).*V is symmetric"):
            classify_symmetry(2, 4)

    def test_planted_indivisible_numerator_raises(self, monkeypatch):
        # -t^7 + t^4 + t^3 - t^2 + t - 1 is not divisible by 1 - t^2, so it
        # cannot stand in for a non-member's V: N's theorems are asserted
        monkeypatch.setattr(cyclojones.wnk, "d_exponents", lambda n, k: (7, 4, 3, 2, 1, 0))
        with pytest.raises(InternalInconsistencyError, match=r"W\(2,4\): numerator N\(1\)=0, N\(-1\)=2"):
            classify_symmetry(2, 4)

    def test_agrees_with_the_dense_reference_on_a_grid(self):
        # every cell of n -60..79, k 1..29 against V's dense list: 116 are symmetric
        symmetric = 0
        for k in range(1, 30):
            for n in range(-60, 80):
                cls = classify_symmetry(n, k)
                assert cls.symmetric == dense_symmetric(n, k), (n, k)
                if cls.symmetric:
                    symmetric += 1
                    assert _jones_dense(n, k) == _alternating(cls.m), (n, k)
        assert symmetric == 116

    def test_symmetric_cases_factor_cyclotomically(self):
        for k in range(1, 7):
            for n in (k - 1, k, 2 * k, 2 * k + 1):
                cls = classify_symmetry(n, k)
                fact = is_cyclotomic_product(jones_wnk(n, k))
                if cls.m == 1:
                    assert fact.factors == ()
                else:
                    assert fact is not None
                    assert [d for d, _ in fact.factors] == [
                        2 * d for d in divisors(cls.m) if d > 1
                    ]

    def test_d_polynomial_antipalindromic_in_symmetric_cases(self):
        for k in range(1, 8):
            for n in (k - 1, k, 2 * k, 2 * k + 1):
                assert d_polynomial(n, k).antipalindromic_shift() is not None


class TestTrivialUnknot:
    def test_known_trivial_members(self):
        assert is_trivial_unknot(0, 1)
        for n in (1, 0, -1, -2):
            assert is_trivial_unknot(n, 0)

    def test_nontrivial_members(self):
        assert not is_trivial_unknot(2, 0)
        assert not is_trivial_unknot(1, 1)


class TestWritheAndCrossing:
    def test_worked_example(self):
        assert writhe_wnk(2, 3) == 15

    def test_k_zero_column(self):
        assert writhe_wnk(3, 0) == 12
        for n in range(-5, 6):
            assert writhe_wnk(n, 0) == n * n + n

    def test_origin(self):
        assert writhe_wnk(0, 0) == 0

    def test_crossing_bounds(self):
        assert crossing_bound(4, 2) == 39
        assert crossing_bound(1, 1) == 4

    def test_crossing_bound_domain(self):
        with pytest.raises(ValueError):
            crossing_bound(0, 0)
        with pytest.raises(ValueError):
            crossing_bound(-1, 2)


class TestGenerateTable:
    def test_first_quadruplet(self):
        rows = generate_table(1)
        assert [r.params for r in rows] == [
            FamilyParams(0, 1),
            FamilyParams(1, 1),
            FamilyParams(2, 1),
            FamilyParams(3, 1),
        ]
        assert rows[0].polynomial == LaurentPoly.one()
        assert rows[1].polynomial == phi_sym(10)
        assert rows[2].polynomial == phi_sym(14)
        assert rows[3].polynomial == phi_sym(14)

    def test_k2_doubled_entries(self):
        rows = {r.params: r for r in generate_table(2)}
        assert rows[FamilyParams(4, 2)].polynomial == phi_sym(34)
        assert rows[FamilyParams(5, 2)].polynomial == phi_sym(34)

    def test_k4_composite_entries(self):
        rows = {r.params: r for r in generate_table(4)}
        assert rows[FamilyParams(8, 4)].polynomial == phi_tilde(49)
        assert rows[FamilyParams(9, 4)].polynomial == phi_tilde(49)
        assert rows[FamilyParams(8, 4)].polynomial_name == "Phi_tilde_98"

    def test_row_json_fields(self):
        row = generate_table(1)[1].to_json()
        assert row["n"] == 1 and row["k"] == 1 and row["m"] == 5
        assert row["crossing_bound"] == 4

    @pytest.mark.parametrize("k_max", [1, 3, 6])
    def test_rows_take_the_proved_phi_tilde(self, monkeypatch, k_max):
        # classify_symmetry's one numerator proof per row proves V == phi_tilde(m)
        calls = 0
        original = cyclojones.wnk._numerator

        def counting(n, k):
            nonlocal calls
            calls += 1
            return original(n, k)

        monkeypatch.setattr(cyclojones.wnk, "_numerator", counting)
        rows = generate_table(k_max)
        assert calls == 4 * k_max
        for i in range(0, len(rows), 4):
            assert rows[i + 2].polynomial is rows[i + 3].polynomial

    def test_unproved_phi_tilde_raises(self, monkeypatch):
        # V shifted by t, t^(s+1) N / (1 - t^2), is not phi_tilde(m): the member's check fails
        original = cyclojones.wnk._numerator

        def shifted(n, k):
            terms, shift = original(n, k)
            return terms, shift + 1

        monkeypatch.setattr(cyclojones.wnk, "_numerator", shifted)
        with pytest.raises(InternalInconsistencyError, match=r"V != phi_tilde"):
            classify_symmetry(8, 4)
        with pytest.raises(InternalInconsistencyError, match=r"V != phi_tilde"):
            generate_table(2)


class TestTableBudget:
    # column k holds f(k) + f(k+1) + 2 g(k+1) terms: 1,042,958 up to
    # k = 79 and 1,082,320 up to k = 80
    class Reached(Exception):
        pass

    def reached(self, n, k):
        raise self.Reached

    def test_largest_table_within_budget(self, monkeypatch):
        monkeypatch.setattr(cyclojones.wnk, "classify_symmetry", self.reached)
        with pytest.raises(self.Reached):
            generate_table(79)

    @pytest.mark.parametrize("k_max", [80, 722, 1000, 10**18])
    def test_over_budget_refused_before_classifying(self, monkeypatch, k_max):
        monkeypatch.setattr(cyclojones.wnk, "classify_symmetry", self.reached)
        with pytest.raises(ValueError, match="budget"):
            generate_table(k_max)

    def test_term_count(self):
        rows = generate_table(7)
        for k in range(1, 8):
            column = rows[4 * k - 4 : 4 * k]
            assert [r.params for r in column] == [FamilyParams(n, k) for n in quadruplet(k)]
            assert sum(len(r.polynomial) for r in column) == f(k) + f(k + 1) + 2 * g(k + 1)


class TestQuotientCheck:
    def test_planted_numerator_raises(self, monkeypatch):
        # -t^7 + t^4 + t^3 - t^2 + t - 1 vanishes at t = 1 but not at t = -1
        monkeypatch.setattr(cyclojones.wnk, "d_exponents", lambda n, k: (7, 4, 3, 2, 1, 0))
        with pytest.raises(InternalInconsistencyError, match=r"W\(3,1\).*not divisible"):
            jones_wnk(3, 1)

    def test_planted_derivative_raises(self, monkeypatch):
        # W(1,1)'s numerator under W(3,1)'s prefactor t^-3 instead of t^-2:
        # V(1) = 1 still (sum e*c = -2), but the shift by t^-1 makes V'(1) = -1,
        # so sum e^2*c = 4 (s - 1) V(1) - 4 V'(1) = -12 against 4 s - 4 = -16
        true_exponents = cyclojones.wnk.d_exponents
        monkeypatch.setattr(cyclojones.wnk, "d_exponents", lambda n, k: true_exponents(1, 1))
        with pytest.raises(
            InternalInconsistencyError,
            match=r"W\(3,1\): numerator .*sum e\*c=-2, sum e\^2\*c=-12; expected \(0, 0, -2, -16\)",
        ):
            jones_wnk(3, 1)

    def test_division_reached_for_a_cell(self, monkeypatch):
        calls = []

        def record(s, d):
            calls.append(d)
            raise InexactDivisionError("planted remainder")

        monkeypatch.setattr(cyclojones.wnk, "_stride_div", record)
        with pytest.raises(InternalInconsistencyError, match=r"W\(1,1\).*not divisible"):
            jones_wnk(1, 1)
        assert calls == [2]


class TestTermBudget:
    @pytest.mark.parametrize("n, k", [(10**9, 1), (-(10**9), 0)])
    def test_oversized_rejected_before_dividing(self, monkeypatch, n, k):
        def refuse(s, d):
            raise AssertionError("the stride division was called")

        monkeypatch.setattr(cyclojones.wnk, "_stride_div", refuse)
        with pytest.raises(ValueError, match=rf"^W\({n},{k}\): the closed form spans .* budget"):
            jones_wnk(n, k)

    @pytest.mark.parametrize(
        "n, k, over", [(1447, 723, False), (1448, 724, True), (349525, 1, False), (349526, 1, True)]
    )
    def test_span_rule_edges(self, monkeypatch, n, k, over):
        # the builder refuses over the span rule and reaches the division within it
        class Reached(Exception):
            pass

        def reached(s, d):
            raise Reached

        monkeypatch.setattr(cyclojones.wnk, "_stride_div", reached)
        if over:
            with pytest.raises(ValueError, match=rf"^W\({n},{k}\): the closed form spans .* budget"):
                jones_wnk(n, k)
        else:
            with pytest.raises(Reached):
                jones_wnk(n, k)

    def test_largest_mersenne_member_within_budget(self):
        # W(1022, 511) is the p = 19 witness; its numerator spans 2^19
        assert d_polynomial(1022, 511).span() <= cyclojones.wnk.MAX_TERMS


class TestMersenne:
    def test_p3(self):
        witness = mersenne_knot(3)
        assert witness.order == 7 and witness.k == 1
        assert witness.knots == (FamilyParams(2, 1), FamilyParams(3, 1))
        assert jones_wnk(2, 1) == phi_sym(14)

    def test_p5(self):
        witness = mersenne_knot(5)
        assert witness.order == 31 and witness.k == 3
        assert witness.knots == (FamilyParams(6, 3), FamilyParams(7, 3))
        assert jones_wnk(6, 3) == phi_sym(62)

    def test_p7(self):
        witness = mersenne_knot(7)
        assert witness.order == 127 and witness.k == 7
        assert jones_wnk(14, 7) == phi_sym(254)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            mersenne_knot(11)  # 2047 = 23 * 89
        # past the term budget, and 81, the largest odd p with 2^p - 1 below PRIME_TEST_LIMIT
        assert 2**81 - 1 < PRIME_TEST_LIMIT <= 2**82 - 1
        for p in (67, 81):
            with pytest.raises(ValueError, match=rf"^2\^{p} - 1 = \d+ is not prime"):
                mersenne_knot(p)

    @pytest.mark.parametrize("p", [89, 10**12 + 1])
    def test_past_isprime_rejected_before_building(self, monkeypatch, p):
        # 2^p - 1 >= PRIME_TEST_LIMIT is refused before 2^p is formed
        def refuse(*args):
            raise AssertionError(f"{args} was reached")

        monkeypatch.setattr(cyclojones.wnk, "_numerator", refuse)
        monkeypatch.setattr(cyclojones.wnk, "isprime", refuse)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^p={p}: 2\^{p} - 1 is over isprime's proved limit"):
            mersenne_knot(p)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("p", [17, 19, 31, 61])
    def test_within_budget_reaches_the_build(self, monkeypatch, p):
        class Reached(Exception):
            pass

        def reached(n, k):
            raise Reached

        monkeypatch.setattr(cyclojones.wnk, "_numerator", reached)
        with pytest.raises(Reached):
            mersenne_knot(p)

    def test_planted_coefficient_raises(self, monkeypatch):
        # one of N's terms with its sign flipped
        original = cyclojones.wnk._numerator

        def flipped(n, k):
            terms, shift = original(n, k)
            e, c = terms[len(terms) // 2]
            terms[len(terms) // 2] = e, -c
            return terms, shift

        monkeypatch.setattr(cyclojones.wnk, "_numerator", flipped)
        with pytest.raises(InternalInconsistencyError, match=r"W\(6,3\)"):
            mersenne_knot(5)

    def test_planted_classification_raises(self, monkeypatch):
        # a classification that does not name Phi~_{2N} is caught before a witness is returned
        monkeypatch.setattr(cyclojones.wnk, "classify_symmetry", lambda n, k: cyclojones.wnk.NOT_SYMMETRIC)
        with pytest.raises(InternalInconsistencyError, match=r"^V_W\(2,1\) != Phi_sym_14$"):
            mersenne_knot(3)

    def test_planted_fault_at_the_second_witness_raises(self, monkeypatch):
        # N's terms flipped only at W(2k+1, k) = W(7,3): W(6,3) still proves
        original = cyclojones.wnk._numerator

        def flipped(n, k):
            terms, shift = original(n, k)
            if (n, k) == (7, 3):
                e, c = terms[0]
                terms[0] = e, -c
            return terms, shift

        monkeypatch.setattr(cyclojones.wnk, "_numerator", flipped)
        with pytest.raises(InternalInconsistencyError, match=r"W\(7,3\)"):
            mersenne_knot(5)

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 19])
    def test_agrees_with_the_dense_reference(self, p):
        # both witnesses' V, built densely, are Phi~_{2N}'s alternating list
        witness = mersenne_knot(p)
        assert witness.order == 2**p - 1
        for n, k in witness.knots:
            assert _jones_dense(n, k) == _alternating(witness.order)

    @pytest.mark.parametrize("order", [7, 31, 127, 8191])
    def test_alternating_list_is_phi_sym(self, order):
        # the identity mersenne_knot relies on: Phi_{2N}(x) = Phi_N(-x) for odd prime N
        assert phi_sym(2 * order) == _from_dense(*_alternating(order))
