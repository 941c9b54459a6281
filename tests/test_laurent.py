import cmath
import gc
import json
import re
import time
import tracemalloc

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import cyclojones.cyclotomic
from cyclojones import laurent
from cyclojones.cyclotomic import _cyclotomic_multiplicities, euler_totient, is_cyclotomic_product, residue
from cyclojones.obstructions import special_value_check
from cyclojones.wnk import _merged
from cyclojones.errors import InexactDivisionError, ParseError, TagError
from cyclojones.laurent import (
    VARIABLES,
    LaurentPoly,
    _dense,
    _fold,
    _from_dense,
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

    @pytest.mark.parametrize(
        "merge, expected",
        [
            (lambda: LaurentPoly([(2, 1), (-1, 1), (2, -1), (3, 0)])._terms, {-1: 1}),
            (lambda: (V_41 + (-V_41))._terms, {}),
            (lambda: (P("1 + t") * P("1 - t"))._terms, {0: 1, 2: -1}),
            (lambda: _merged([(2, 1), (-1, 1), (2, -1), (3, 0)]), [(-1, 1)]),
        ],
        ids=["construction", "p + (-p)", "(1 + t)(1 - t)", "wnk._merged"],
    )
    def test_cancelled_terms_leave_no_key(self, merge, expected):
        # every entry point takes the one merge rule: a cancelled exponent keeps no key
        assert merge() == expected

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


class TestInputChecks:
    @pytest.mark.parametrize("p", [V_41, _from_dense(-2, [1, -1, 1, -1, 1])], ids=["dict", "dense"])
    @pytest.mark.parametrize(
        "call, outcome",
        [
            (lambda p: LaurentPoly(p.items(), "x"), ValueError("unknown variable tag 'x'")),
            (lambda p: p + "x", TypeError("cannot combine LaurentPoly with str")),
            (lambda p: p.evaluate_complex(0), ValueError("order must be >= 1")),
            (lambda p: p.__eq__("x"), NotImplemented),
            (lambda p: p == "x", False),
            (lambda p: list(p), V_41.items()),
            (lambda p: 3 - p, P("-t^-2 + t^-1 + 2 + t - t^2")),
            (lambda p: p.scale(0, 5), LaurentPoly.zero()),
            (lambda p: LaurentPoly(p.items(), "A").scale(0, 5).variable, "A"),
        ],
        ids=["variable x", "p + str", "order 0", "__eq__ str", "p == str", "iter", "3 - p", "scale 0", "scale 0 keeps A"],
    )
    def test_checks_and_small_paths(self, p, call, outcome):
        if isinstance(outcome, Exception):
            with pytest.raises(type(outcome), match=f"^{re.escape(str(outcome))}$"):
                call(p)
        else:
            assert call(p) == outcome


def schoolbook(p, q):
    """Reference product over every term pair, zero coefficients dropped."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@st.composite
def wide_polys(draw, variable):
    """0 to 300 terms filling all down to 1/64 of their span, at stride 4
    for A (as brackets are), from a start of either sign, with
    coefficients up to 2^200 in size."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 300))
    fill = draw(st.sampled_from([1, 2, 8, 64]))
    bits = draw(st.sampled_from([1, 2, 8, 31, 64, 200]))
    stride = 4 if variable == "A" else 1
    start = draw(st.integers(-1000, 1000))
    slots = rng.sample(range(n * fill), n)
    return LaurentPoly(
        {start + stride * j: rng.randint(-(2**bits), 2**bits) for j in slots}, variable
    )


@st.composite
def product_operands(draw):
    """Two operands of one tag, sparse or dense, of 0 to 300 terms; when
    cancelling, c*(1 + x^s + ... + x^(s(m-1))) and (1 - x^s)*h, whose
    product c*(1 - x^(sm))*h has a run of zero coefficients."""
    variable = draw(st.sampled_from(VARIABLES))
    cancelling = draw(st.booleans())
    if not cancelling:
        return draw(wide_polys(variable)), draw(wide_polys(variable))
    s = 4 if variable == "A" else 1
    m = draw(st.integers(9, 300))
    c = draw(st.integers(1, 2**200))
    h = draw(wide_polys(variable))
    a = LaurentPoly({s * i: c for i in range(m)}, variable)
    return a, LaurentPoly(schoolbook(LaurentPoly({0: 1, s: -1}, variable), h), variable)


class TestProducts:
    @settings(max_examples=60, deadline=None)
    @given(product_operands(), st.integers(-(2**200), 2**200))
    def test_matches_schoolbook(self, operands, k):
        a, b = operands
        expected = schoolbook(a, b)
        for product in (a * b, b * a):
            assert product.variable == a.variable
            assert dict(product.items()) == expected
            assert all(c for _, c in product.items())
        constant = LaurentPoly({0: k}, a.variable)
        for product in (a * k, k * a):
            assert product.variable == a.variable
            assert dict(product.items()) == schoolbook(a, constant)

    @pytest.mark.parametrize("n", [20, 64])
    def test_extreme_coefficients(self, n):
        # the middle coefficient of c*(1 + ... + x^(n-1)) squared is n*c^2,
        # as large as a coefficient of such a product can be, for c of 1 to 40 bits
        for bits in range(1, 41):
            c = 2**bits - 1
            ones = LaurentPoly({e: c for e in range(n)})
            alternating = LaurentPoly({e: (-1) ** e * c for e in range(n)})
            for p, q in ((ones, ones), (ones, -ones), (alternating, alternating)):
                assert dict((p * q).items()) == schoolbook(p, q)

    def test_wide_sparse_operand_stays_schoolbook(self):
        dense = LaurentPoly({e: e + 1 for e in range(-200, 200)})
        wide = LaurentPoly({-(10**6): 1, 0: -1})
        expected = dense.shift(-(10**6)) - dense
        assert wide * dense == expected and dense * wide == expected


class TestHash:
    def test_constants_hash_like_ints(self):
        assert hash(LaurentPoly.one("A")) == hash(1)
        assert hash(LaurentPoly.zero()) == hash(0)
        assert {1: "x"}.get(LaurentPoly.one()) == "x"
        assert len({LaurentPoly.one(), 1}) == 1

    # a tiny domain, so that equal pairs are drawn often
    tiny_polys = st.builds(
        LaurentPoly,
        st.dictionaries(st.integers(-1, 1), st.integers(-1, 1), max_size=2),
        st.sampled_from(VARIABLES),
    )

    @given(tiny_polys, st.one_of(tiny_polys, st.integers(-1, 1)))
    def test_equal_implies_equal_hash(self, p, q):
        if p == q:
            assert hash(p) == hash(q)


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

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown variable tag"):
            P("t").substitute_power(2, "x")


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


@st.composite
def stride_lists(draw):
    """(coefficients, d), of every length up to 20d: both division paths."""
    d = draw(st.integers(1, 40))
    size = draw(st.integers(0, 20 * d))
    rnd = draw(st.randoms(use_true_random=False))
    return [rnd.randint(-50, 50) for _ in range(size)], d


@st.composite
def stride_dividends(draw):
    """(coefficients, d): a multiple of 1 - x^d or, half the time, any list."""
    coeffs, d = draw(stride_lists())
    if draw(st.booleans()):
        num = coeffs + [0] * d
        for i, c in enumerate(coeffs):
            num[i + d] -= c
        coeffs = num
    return coeffs, d


class TestStrideKernel:
    @settings(max_examples=200, deadline=None)
    @given(stride_dividends())
    def test_exact_division_matches_long_division(self, case):
        coeffs, d = case
        quot, rem = laurent._long_division(coeffs, [1] + [0] * (d - 1) + [-1])
        s = list(coeffs)
        if any(rem):
            with pytest.raises(InexactDivisionError):
                laurent._stride_div(s, d)
        else:
            laurent._stride_div(s, d)
            assert s == quot

    @settings(deadline=None)
    @given(stride_lists())
    def test_series_division_inverts_multiplication(self, case):
        coeffs, d = case
        s = list(coeffs)
        laurent._stride_div(s, d, exact=False)
        assert len(s) == len(coeffs)
        laurent._stride_mul(s, d)
        assert s == coeffs

    def test_both_paths(self):
        # 1 - x^40 = (1 - x^2)(1 + x^2 + ... + x^38): long residue classes
        # for d = 2, blocks for d = 20
        for d in (2, 20):
            s = [1] + [0] * 39 + [-1]
            laurent._stride_div(s, d)
            assert s == [1 if e % d == 0 else 0 for e in range(40 - d + 1)]

    def test_short_dividend(self):
        s = [0, 0]
        laurent._stride_div(s, 3)
        assert s == []
        with pytest.raises(InexactDivisionError):
            laurent._stride_div([0, 1], 3)


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

    @pytest.mark.parametrize("method", ["palindromic_shift", "antipalindromic_shift"])
    def test_zero_shift_names_its_method(self, method):
        message = "^" + method.replace("_", " ") + " undefined for the zero polynomial"
        for zero in (LaurentPoly.zero(), _from_dense(4, [0, 0])):
            assert zero.is_symmetric()
            with pytest.raises(ValueError, match=message):
                getattr(zero, method)()

    @pytest.mark.parametrize(
        "lo, coeffs",
        [(-2, [1, -1, 1, -1, 1]), (3, [2, 1, 2]), (-1, [1, 0, 1]), (0, [1, 1, 1]), (0, [-1, 1]), (0, [5])],
        ids=["V_41", "2t^3 + t^4 + 2t^5", "t^-1 + t", "1 + t + t^2", "t - 1", "5"],
    )
    def test_symmetric_means_shift_zero(self, lo, coeffs):
        symmetric = 2 * lo + len(coeffs) == 1 and coeffs == coeffs[::-1]
        for p in both_forms(lo, coeffs):  # dense, then dict
            assert p.is_symmetric() == (p.palindromic_shift() == 0) == symmetric

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
        assert residue(P("t^2 + t + 1"), 3) == (0, 0)

    def test_figure_eight_at_zeta3(self):
        assert residue(V_41, 3) == (1, 0)

    def test_t_to_the_five_mod_phi5(self):
        assert residue(P("t^5"), 5) == (1, 0, 0, 0)

    @pytest.mark.parametrize("p", [LaurentPoly.zero(), V_41], ids=["zero", "V_41"])
    @pytest.mark.parametrize("order", [0, -3])
    def test_index_below_one_refused(self, p, order):
        with pytest.raises(ValueError, match="cyclotomic index must be >= 1"):
            residue(p, order)

    @pytest.mark.parametrize("order", [2 * 10**7, 10**9])
    def test_over_budget_refused_before_folding(self, monkeypatch, order):
        def refuse(p, n):
            raise AssertionError("the fold was reached")

        monkeypatch.setattr(cyclojones.cyclotomic, "_fold", refuse)
        with pytest.raises(ValueError, match=rf"^Phi_{order} has degree phi\({order}\) > .* budget"):
            residue(P("t - 1"), order)

    @pytest.mark.parametrize("order", range(2, 31))
    def test_inverse_resolution(self, order):
        # t * t^(order-1) reduces to 1
        p = LaurentPoly({order: 1})
        assert residue(p, order) == (1,) + (0,) * (euler_totient(order) - 1)

    @given(
        st.dictionaries(st.integers(-25, 25), st.integers(-9, 9), max_size=6),
        st.integers(2, 20),
    )
    def test_residue_matches_complex_embedding(self, terms, order):
        p = LaurentPoly(terms)
        numeric = p.evaluate_complex(order)
        z = cmath.exp(2j * cmath.pi / order)
        embedded = sum(c * z**j for j, c in enumerate(residue(p, order)))
        assert abs(numeric - embedded) < 1e-9

    @given(st.lists(st.integers(-50, 50), max_size=60), st.integers(2, 40))
    def test_matches_sympy_rem(self, coeffs, order):
        x = sympy.Symbol("x")
        dividend = sympy.Poly(list(reversed(coeffs)) or [0], x, domain="ZZ")
        rem = dividend.rem(sympy.Poly(sympy.cyclotomic_poly(order, x), x, domain="ZZ"))
        expected = [int(c) for c in reversed(rem.all_coeffs())]
        expected += [0] * (sympy.totient(order) - len(expected))
        assert residue(LaurentPoly(enumerate(coeffs)), order) == tuple(expected)


class TestComplexEvaluation:
    def test_root_at_one(self):
        assert abs(P("t - 1").evaluate_complex(1, 0)) < 1e-12

    def test_i_is_root_of_t2_plus_1(self):
        assert abs(P("t^2 + 1").evaluate_complex(4, 1)) < 1e-12

    def test_primitive_root_convention(self):
        value = P("t").evaluate_complex(8, 1)
        assert cmath.isclose(value, cmath.exp(2j * cmath.pi / 8))

    def test_work_does_not_grow_with_the_order(self):
        # one root per term, so an order past any list of roots takes no longer
        order = 10**12 + 7
        start = time.perf_counter()
        value = P("t^5 - 1 + 2t^-3").evaluate_complex(order, 2)
        assert time.perf_counter() - start < 1
        z = cmath.exp(4j * cmath.pi / order)
        assert abs(value - (z**5 - 1 + 2 * z**-3)) < 1e-9


# (text, variable=, value or (ParseError message, position))
GRAMMAR = [
    (" -  3 t^2 +\t4 ", None, LaurentPoly({2: -3, 0: 4})),
    ("−t + 1", None, LaurentPoly({1: -1, 0: 1})),
    ("t^+3 - 2", None, LaurentPoly({3: 1, 0: -2})),
    ("A^-2", None, LaurentPoly({-2: 1}, "A")),
    ("7", None, LaurentPoly({0: 7})),
    # a fixed id, so the case name does not follow the "7A^0" print form
    pytest.param(
        "7", "A", LaurentPoly({0: 7}, "A"), id="'7'-'A'-LaurentPoly(7, variable='A')"
    ),
    ("", None, ("empty polynomial", 0)),
    (" \t", None, ("empty polynomial", 2)),
    ("t 2", None, ("expected '+' or '-' between terms", 2)),
    ("t ^2", None, ("expected '+' or '-' between terms", 2)),
    ("2t^ + 1", None, ("dangling exponent", 3)),
    ("t^- 1", None, ("dangling exponent", 2)),
    ("t + ", None, ("expected a term", 4)),
    ("1 - - t", None, ("expected a term", 4)),
    ("t + A", None, ("mixed variables in one polynomial", 4)),
    ("A^2", "t", ("expected variable 't'", 0)),
]


class TestTextAndJson:
    @pytest.mark.parametrize("text, variable, expected", GRAMMAR, ids=repr)
    def test_grammar(self, text, variable, expected):
        if isinstance(expected, LaurentPoly):
            assert parse_poly(text, variable) == expected
            return
        message, position = expected
        with pytest.raises(ParseError) as info:
            parse_poly(text, variable)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position

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

    @given(
        st.builds(
            LaurentPoly,
            st.dictionaries(st.integers(-5, 5), st.integers(-9, 9), max_size=6),
            st.sampled_from(VARIABLES),
        )
    )
    @example(LaurentPoly.one("A"))
    @example(LaurentPoly({0: -3}, "A"))
    def test_print_parse_roundtrip(self, p):
        # the zero polynomial prints as "0", which reads back as t
        assert parse_poly(print_poly(p)) == (p if p else LaurentPoly.zero())

    @given(small_polys)
    def test_json_roundtrip(self, p):
        assert poly_from_json(poly_to_json(p)) == p

    def test_json_exponents_ascending(self):
        exps = [e for e, _ in poly_to_json(V_41)["terms"]]
        assert exps == sorted(exps)

    def test_json_text_and_untracked_terms(self):
        obj = poly_to_json(V_41)
        assert json.dumps(obj) == (
            '{"variable": "t", "terms": [[-2, "1"], [-1, "-1"], [0, "1"], [1, "-1"], [2, "1"]]}'
        )
        # a large V's terms must not stay in the collector's lists, in either form
        dense_obj = poly_to_json(_from_dense(-2, [1, -1, 1, -1, 1]))
        assert json.dumps(dense_obj) == json.dumps(obj)
        gc.collect()
        assert not any(map(gc.is_tracked, obj["terms"] + dense_obj["terms"]))


def has_dict(p):
    """Whether p holds an exponent dict in its slot."""
    try:
        LaurentPoly._terms.__get__(p)
    except AttributeError:
        return False
    return True


def dict_requests(p, read):
    """How many times read() asks p for an exponent dict through LaurentPoly._map."""
    asked = []
    original = LaurentPoly._map

    def counted(self):
        asked.append(self is p)
        return original(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LaurentPoly, "_map", counted)
        read()
    return sum(asked)


# small coefficients, zero often, or one of many distinct ones above 2^64
dense_coeffs = st.one_of(
    st.integers(-3, 3),
    st.integers(2**64, 2**80),
    st.integers(-(2**80), -(2**64)),
)


@st.composite
def dense_lists(draw):
    """(lo, coeffs) with zero runs at either end and inside, lo of either sign."""
    lo = draw(st.integers(-60, 60))
    body = draw(st.lists(dense_coeffs, max_size=80))
    pad_lo, pad_hi = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return lo, [0] * pad_lo + body + [0] * pad_hi


def both_forms(lo, coeffs):
    """The dense-built polynomial and the dict-built one with the same terms."""
    return _from_dense(lo, list(coeffs)), LaurentPoly(
        {lo + j: c for j, c in enumerate(coeffs) if c}
    )


class TestDenseForm:
    @settings(max_examples=150, deadline=None)
    @given(dense_lists())
    @example((0, []))
    @example((-7, [0, 0, 0]))
    @example((3, [0, 2**70, 0, -(2**70) - 1, 0]))
    def test_readers_agree(self, lo_coeffs):
        dense, sparse = both_forms(*lo_coeffs)
        assert dense.items() == sparse.items()
        assert len(dense) == len(sparse) and bool(dense) == bool(sparse)
        lo, coeffs = lo_coeffs
        for e in range(lo - 2, lo + len(coeffs) + 2):
            assert dense.coeff(e) == sparse.coeff(e)
        if sparse:
            assert (dense.min_exp, dense.max_exp, dense.span()) == (
                sparse.min_exp, sparse.max_exp, sparse.span()
            )
            assert _dense(dense) == _dense(sparse)
        else:
            # an all-zero list gives the zero polynomial
            assert dense == LaurentPoly.zero() and not dense
            with pytest.raises(ValueError):
                dense.min_exp
        for n in range(1, 31):
            assert _fold(dense, n) == _fold(sparse, n)
        for n in range(1, 13):
            assert residue(dense, n) == residue(sparse, n)
        assert dense.value_and_derivative_at_one() == sparse.value_and_derivative_at_one()
        assert json.dumps(poly_to_json(dense)) == json.dumps(poly_to_json(sparse))
        assert print_poly(dense) == print_poly(sparse)
        # the symmetry readers on the list, on its mirror about t^0 and on its
        # antipalindromic mirror, in both forms
        mirror = coeffs + [1] + coeffs[::-1]
        anti = coeffs + [0] + [-c for c in reversed(coeffs)]
        for low, cs in ((lo, coeffs), (-len(coeffs), mirror), (lo, anti)):
            p, q = both_forms(low, cs)
            assert p.is_symmetric() == q.is_symmetric()
            assert p.reversed().items() == q.reversed().items()
            assert (p.reversed()._cs is None) == (p._cs is None)
            if q:
                assert p.palindromic_shift() == q.palindromic_shift()
                assert p.antipalindromic_shift() == q.antipalindromic_shift()
        assert all(p.is_symmetric() for p in both_forms(-len(coeffs), mirror))
        if any(coeffs):
            assert all(p.antipalindromic_shift() is not None for p in both_forms(lo, anti))

    @settings(max_examples=100, deadline=None)
    @given(dense_lists(), dense_lists())
    def test_ring_operations_agree(self, first, second):
        p, p_sparse = both_forms(*first)
        q, q_sparse = both_forms(*second)
        assert p == p_sparse and p_sparse == p
        assert hash(p) == hash(p_sparse)
        assert (p == q) == (p_sparse == q_sparse)
        assert (p + q).items() == (p_sparse + q_sparse).items()
        assert p.substitute_power(-4, "A") == p_sparse.substitute_power(-4, "A")
        product = p * q
        assert product.items() == (p_sparse * q_sparse).items()
        if q:
            assert product.divide_exact(q) == p_sparse
            assert (p_sparse * q_sparse).divide_exact(q_sparse) == p
            try:
                expected = p_sparse.divide_exact(q_sparse)
            except InexactDivisionError:
                with pytest.raises(InexactDivisionError):
                    p.divide_exact(q)
            else:
                assert p.divide_exact(q) == expected

    @settings(max_examples=100, deadline=None)
    @given(dense_lists(), st.integers(-3, 3).filter(bool) | dense_coeffs.filter(bool), st.integers(-70, 70))
    @example((5, [7]), -1, -5)  # a constant, from both forms
    @example((0, [0, 0, 3, 0]), 1, -2)
    def test_scale_keeps_the_dense_form(self, lo_coeffs, c, e):
        p, p_sparse = both_forms(*lo_coeffs)
        scaled, expected = p.scale(c, e), p_sparse.scale(c, e)
        assert scaled == expected and expected == scaled
        assert hash(scaled) == hash(expected)
        assert scaled.items() == expected.items()
        assert p.shift(e) == p_sparse.shift(e) and hash(p.shift(e)) == hash(p_sparse.shift(e))
        if p:
            assert scaled._cs is not None and p.shift(e)._cs is not None
            assert dict_requests(p, lambda: (p.scale(c, e), p.shift(e), p.reversed(), -p)) == 0
        if expected.items() and expected.max_exp == 0 == expected.min_exp:
            assert scaled == expected.coeff(0) and hash(scaled) == hash(expected.coeff(0))

    def test_readers_build_no_dict(self):
        # the tuple readers never ask a dense form for an exponent dict
        v = _from_dense(-3, [0, 1, -1, 0, 1, -1, 1, 0])

        def read():
            v.items(), v.coeff(1), len(v), bool(v), v.min_exp, v.max_exp, v.span(), _dense(v), _fold(v, 12)
            v.value_and_derivative_at_one(), poly_to_json(v), special_value_check(v)
            v.scale(-2, 3), v.shift(5), v.reversed(), -v

        assert dict_requests(v, read) == 0
        # non-symmetric, symmetric, palindromic off t^0 and antipalindromic
        for p in (v, _from_dense(-2, [1, -1, 1, -1, 1]), _from_dense(3, [2, 1, 2]), _from_dense(0, [1, 0, -1])):
            read = lambda: (p.is_symmetric(), p.palindromic_shift(), p.antipalindromic_shift())
            assert dict_requests(p, read) == 0
        # so deciding a cyclotomic product reads the tuple only
        w = _from_dense(-2, [1, -1, 1, -1, 1])
        assert dict_requests(w, lambda: _cyclotomic_multiplicities(w)) == 0
        # and factoring it asks no dict of the operand it divides
        assert dict_requests(w, lambda: is_cyclotomic_product(w)) == 0
        assert is_cyclotomic_product(w).factors == ((10, 1),)
        # the six methods that need an order-free map ask once each
        q = _from_dense(0, [1, 1])
        readers = (lambda: v == q, lambda: hash(v), lambda: v + q, lambda: v * q,
                   lambda: v.substitute_power(2), lambda: v.evaluate_complex(5))
        assert [dict_requests(v, read) for read in readers] == [1] * 6
        assert v == _from_dense(-2, [1, -1, 0, 1, -1, 1])

    def test_one_form_for_life(self):
        # every public method leaves a dense form holding its tuple and no dict
        v = _from_dense(-2, [1, -1, 1, -1, 1])
        w = _from_dense(3, [1, -1, 1, -1, 1])
        for other in (V_41, w, 2):
            v == other, v != other, v + other, other + v, v - other, other - v, v * other, other * v
        v.divide_exact(w), v.divide_exact(V_41), hash(v), -v, v.scale(3, 1), v.shift(2), v.reversed()
        v.substitute_power(-4, "A"), v.evaluate_complex(7, 2), v.value_and_derivative_at_one()
        v.is_symmetric(), v.palindromic_shift(), v.antipalindromic_shift(), v.span(), list(v)
        v.items(), v.coeff(0), len(v), bool(v), str(v), repr(v), poly_to_json(v), {v: 1}
        for p in (v, w):
            assert p._cs is not None and not has_dict(p)

    @settings(max_examples=100, deadline=None)
    @given(dense_lists())
    @example((0, [0, 5, 0]))  # a constant
    def test_negation_keeps_the_dense_form(self, lo_coeffs):
        p, p_sparse = both_forms(*lo_coeffs)
        negated, expected = -p, -p_sparse
        if p:
            assert negated._cs is not None and not has_dict(negated)
        assert negated == expected and expected == negated
        assert hash(negated) == hash(expected)
        assert negated.items() == expected.items()
        assert p - p == 0 and p + negated == 0 and -negated == p_sparse

    def test_dense_copy_is_fresh(self):
        p = _from_dense(-2, [1, 0, -5, 7])
        lo, coeffs = _dense(p)
        coeffs[0] = 99
        coeffs.append(3)
        assert _dense(p) == (-2, [1, 0, -5, 7])
        assert p.items() == [(-2, 1), (0, -5), (1, 7)]

    def test_which_builders_keep_the_dense_form(self):
        from cyclojones.bracket import torus_jones
        from cyclojones.cyclotomic import phi, phi_tilde

        for p in (phi(15), phi_tilde(7), torus_jones(2, 5)):
            assert p._cs is not None
        for p in (phi(1), phi(12), parse_poly("t^-1 - 1 + t")):
            assert p._cs is None

    def test_wide_sparse_input_stays_sparse(self):
        p = LaurentPoly({10**12: 1, 0: -1, -(10**12): 1})
        residue(p, 7)  # the first call fills the cache of phi(7)
        tracemalloc.start()
        try:
            report = special_value_check(p)
            folded = residue(p, 7)
            obj = poly_to_json(p)
            text = print_poly(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p._cs is None
        assert peak < 100_000
        assert (report.at_one, report.derivative_at_one) == (1, 0)
        assert folded == residue(LaurentPoly({10**12 % 7: 1, 0: -1, -(10**12) % 7: 1}), 7)
        assert obj["terms"] == [(-(10**12), "1"), (0, "-1"), (10**12, "1")]
        assert text == "t^-1000000000000 - 1 + t^1000000000000"
