import cmath

import pytest
import sympy
from hypothesis import given, strategies as st

from cyclojones.errors import InexactDivisionError, ParseError, TagError
from cyclojones.laurent import (
    LaurentPoly,
    ResidueElement,
    parse_poly,
    poly_from_json,
    poly_to_json,
    print_poly,
)


def P(text):
    return parse_poly(text)


small_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-5, 5), st.integers(-9, 9), max_size=6),
)
nonzero_polys = small_polys.filter(bool)

V_41 = P("t^-2 - t^-1 + 1 - t + t^2")


class TestRingOps:
    def test_difference_of_squares(self):
        assert P("t - 1") * P("t + 1") == P("t^2 - 1")

    def test_cancellation_drops_zero_coeff(self):
        q = P("t^-1 + 1") + LaurentPoly({0: -1})
        assert q == P("t^-1")
        assert q.items() == [(-1, 1)]

    def test_alternating_factor_times_t_plus_one(self):
        # (t+1)(t^4 - t^3 + t^2 - t + 1) == t^5 + 1
        alt = LaurentPoly({e: (-1) ** e for e in range(5)})
        assert P("t + 1") * alt == P("t^5 + 1")

    def test_tag_mismatch_rejected(self):
        with pytest.raises(TagError):
            LaurentPoly({1: 1}, "t") + LaurentPoly({1: 1}, "A")
        with pytest.raises(TagError):
            LaurentPoly({1: 1}, "t") * LaurentPoly({1: 1}, "A")

    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_polys)
    def test_additive_inverse(self, a):
        assert a + (-a) == LaurentPoly.zero()


class TestSubstitutePower:
    def test_t_to_a_minus_4(self):
        assert P("t").substitute_power(-4, "A") == LaurentPoly({-4: 1}, "A")

    def test_constant_fixed(self):
        assert LaurentPoly.one().substitute_power(7) == LaurentPoly.one()

    def test_exponent_doubling(self):
        assert P("t^2 - t").substitute_power(2) == P("t^4 - t^2")

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            P("t").substitute_power(0)


class TestDivideExact:
    def test_self_division(self):
        assert P("t^2 - 1").divide_exact(P("t^2 - 1")) == LaurentPoly.one()

    def test_long_division(self):
        quotient = P("t^6 - t^5 + t - 1").divide_exact(P("t^2 - 1"))
        assert quotient == P("t^4 - t^3 + t^2 - t + 1")
        # oracle: multiplying back must reproduce the dividend
        assert quotient * P("t^2 - 1") == P("t^6 - t^5 + t - 1")

    def test_remainder_raises(self):
        with pytest.raises(InexactDivisionError):
            P("t^3").divide_exact(P("t^2 - 1"))

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            P("t").divide_exact(LaurentPoly.zero())

    def test_non_dividing_lead_raises(self):
        # over Q the quotient would be (t - 1)/2 with remainder 2
        with pytest.raises(InexactDivisionError):
            P("t^2 + 1").divide_exact(P("2t + 2"))

    def test_non_monic_exact(self):
        assert P("2t^2 - 2").divide_exact(P("2t + 2")) == P("t - 1")
        assert P("1 - t^4").divide_exact(P("1 - t^2")) == P("1 + t^2")

    @given(small_polys, nonzero_polys)
    def test_product_division_roundtrip(self, p, q):
        assert (p * q).divide_exact(q) == p

    @given(small_polys, nonzero_polys)
    def test_division_is_exact_or_raises(self, p, q):
        try:
            r = p.divide_exact(q)
        except InexactDivisionError:
            return
        assert r * q == p


class TestSymmetryPredicates:
    def test_figure_eight_is_symmetric(self):
        assert V_41.is_symmetric()

    def test_shifted_poly_not_symmetric(self):
        assert not P("1 + t + t^2").is_symmetric()

    def test_zero_is_symmetric(self):
        assert LaurentPoly.zero().is_symmetric()

    def test_palindromic_shift_values(self):
        assert P("1 + t + t^2").palindromic_shift() == -2
        assert V_41.palindromic_shift() == 0
        assert P("t - 1").palindromic_shift() is None

    def test_palindromic_shift_zero_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly.zero().palindromic_shift()

    def test_antipalindromic_shift_values(self):
        assert P("t^2 - 1").antipalindromic_shift() == -2
        assert P("t - 1").antipalindromic_shift() == -1
        assert P("1 + t + t^2").antipalindromic_shift() is None

    @given(nonzero_polys)
    def test_shift_zero_implies_symmetric(self, p):
        if p.palindromic_shift() == 0:
            assert p.is_symmetric()

    @given(nonzero_polys)
    def test_symmetric_implies_flat_derivative(self, p):
        if p.is_symmetric():
            assert p.value_and_derivative_at_one()[1] == 0


class TestValueAndDerivative:
    def test_figure_eight_knot_conditions(self):
        assert V_41.value_and_derivative_at_one() == (1, 0)

    def test_monomial(self):
        for n in (-3, 2, 7):
            assert LaurentPoly({n: 1}).value_and_derivative_at_one() == (1, n)

    def test_zero(self):
        assert LaurentPoly.zero().value_and_derivative_at_one() == (0, 0)


class TestResidueEvaluation:
    def test_phi3_is_zero(self):
        assert P("t^2 + t + 1").evaluate_residue(3).is_zero()

    def test_figure_eight_at_zeta3(self):
        assert V_41.evaluate_residue(3).constant_value() == 1

    def test_t_to_the_five_mod_phi5(self):
        assert P("t^5").evaluate_residue(5).constant_value() == 1

    @pytest.mark.parametrize("order", range(2, 31))
    def test_inverse_resolution(self, order):
        # t * t^(order-1) reduces to 1
        p = LaurentPoly({order: 1})
        assert p.evaluate_residue(order).constant_value() == 1

    @given(
        st.dictionaries(st.integers(-25, 25), st.integers(-9, 9), max_size=6),
        st.integers(2, 20),
    )
    def test_residue_matches_complex_embedding(self, terms, order):
        p = LaurentPoly(terms)
        numeric = p.evaluate_complex(order)
        embedded = p.evaluate_residue(order).to_complex()
        assert abs(numeric - embedded) < 1e-9

    @given(st.lists(st.integers(-50, 50), max_size=60), st.integers(2, 40))
    def test_from_coeffs_matches_sympy_rem(self, coeffs, order):
        x = sympy.Symbol("x")
        dividend = sympy.Poly(list(reversed(coeffs)) or [0], x, domain="ZZ")
        rem = dividend.rem(sympy.Poly(sympy.cyclotomic_poly(order, x), x, domain="ZZ"))
        expected = [int(c) for c in reversed(rem.all_coeffs())]
        expected += [0] * (sympy.totient(order) - len(expected))
        assert ResidueElement.from_coeffs(order, coeffs).coeffs == tuple(expected)


class TestComplexEvaluation:
    def test_root_at_one(self):
        assert abs(P("t - 1").evaluate_complex(1, 0)) < 1e-12

    def test_i_is_root_of_t2_plus_1(self):
        assert abs(P("t^2 + 1").evaluate_complex(4, 1)) < 1e-12

    def test_primitive_root_convention(self):
        value = P("t").evaluate_complex(8, 1)
        assert cmath.isclose(value, cmath.exp(2j * cmath.pi / 8))


class TestTextAndJson:
    def test_parse_figure_eight(self):
        assert parse_poly("t^-2 - t^-1 + 1 - t + t^2") == LaurentPoly(
            {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}
        )

    def test_span(self):
        assert P("t^-2 + t^2").span() == 4
        with pytest.raises(ValueError):
            LaurentPoly.zero().span()

    def test_dangling_exponent(self):
        with pytest.raises(ParseError):
            parse_poly("2t^")

    def test_mixed_variables_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("t + A")

    def test_parse_a_world(self):
        p = parse_poly("-A^9")
        assert p.variable == "A" and p == LaurentPoly({9: -1}, "A")

    @given(small_polys)
    def test_print_parse_roundtrip(self, p):
        assert parse_poly(print_poly(p)) == p

    @given(small_polys)
    def test_json_roundtrip(self, p):
        assert poly_from_json(poly_to_json(p)) == p

    def test_json_exponents_ascending(self):
        exps = [e for e, _ in poly_to_json(V_41)["terms"]]
        assert exps == sorted(exps)
