import json
from functools import reduce
from math import comb
from operator import mul

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy import divisors

import cyclojones.cyclotomic
from cyclojones.cli import main
from cyclojones.arith import divisors as arith_divisors
from cyclojones.cyclotomic import (
    MAX_DECISION_WORK,
    MAX_NUMERIC_DEGREE,
    MAX_QR_DEGREE,
    _aberth_measure,
    _cyclotomic_multiplicities,
    _divisor_sums,
    _exponent_sequence,
    _index_bound,
    _net_exponents,
    euler_totient,
    is_cyclotomic_product,
    mahler_measure,
    phi,
    phi_sym,
    phi_tilde,
    phitilde_root_exponents,
)
from cyclojones.errors import InternalInconsistencyError
from cyclojones.laurent import MAX_TERMS, LaurentPoly, _dense, parse_poly
from cyclojones.wnk import generate_table, jones_wnk


@pytest.fixture(autouse=True)
def fresh_decision():
    # the decision keeps its last answer; a test that patches what the
    # decision reads must not meet one kept by an earlier test
    cyclojones.cyclotomic._decision.cache_clear()


def t_power_minus_one(n):
    return LaurentPoly({n: 1, 0: -1})


def _squarefree_with_four_primes(n):
    exponents = sympy.factorint(n).values()
    return len(exponents) >= 4 and max(exponents) == 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: euler_totient(0), "totient needs n >= 1"),
        (lambda: is_cyclotomic_product(LaurentPoly.zero()), "the zero polynomial is not a cyclotomic product"),
        (lambda: phitilde_root_exponents(4), "root exponents need odd m >= 3"),
    ],
    ids=["euler_totient(0)", "is_cyclotomic_product(0)", "phitilde_root_exponents(4)"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestTotient:
    def test_one(self):
        assert euler_totient(1) == 1

    def test_ten(self):
        assert euler_totient(10) == 4

    def test_large_squarefree(self):
        assert euler_totient(9282) == 2304  # 2*3*7*13*17

    def test_cross_check_by_counting(self):
        import math

        for n in range(1, 60):
            count = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
            assert euler_totient(n) == count


class TestPhi:
    def test_first_indices(self):
        assert phi(1) == parse_poly("t - 1")
        assert phi(2) == parse_poly("t + 1")
        assert phi(10) == parse_poly("t^4 - t^3 + t^2 - t + 1")

    def test_phi10_by_explicit_division(self):
        # oracle: (t^10 - 1) / (Phi_1 * Phi_2 * Phi_5)
        divisor = phi(1) * phi(2) * phi(5)
        assert phi(10) == t_power_minus_one(10).divide_exact(divisor)

    def test_degree_is_totient(self):
        for n in range(1, 120):
            assert phi(n).max_exp == euler_totient(n)

    def test_budget_boundary(self):
        # phi(2^21) = MAX_TERMS: built; phi(2^22) is twice that: refused
        assert phi(2**21) == LaurentPoly({2**20: 1, 0: 1})
        for build in (phi, phi_sym):
            with pytest.raises(ValueError, match="budget"):
                build(2**22)
        with pytest.raises(ValueError, match="budget"):
            phi(9699690)  # 2*3*5*...*19, degree 1658880

    def test_huge_index_refused_before_factoring(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factorint({n}) was called")

        monkeypatch.setattr(cyclojones.cyclotomic, "factorint", refuse)
        with pytest.raises(ValueError, match="budget"):
            phi(2 * MAX_TERMS**2 + 1)

    # sympy's own construction is quadratic in the degree (about 100 s for
    # every n <= 3000), so the oracle covers n <= 400, every squarefree
    # n <= 3000 with four or more primes (the most Moebius factors),
    # 30030 = 2*3*5*7*11*13 and a sample of the other n <= 3000.
    @pytest.mark.parametrize(
        "n",
        list(range(1, 401))
        + [n for n in range(401, 3001) if _squarefree_with_four_primes(n)]
        + [30030],
    )
    def test_matches_sympy(self, n):
        x = sympy.Symbol("x")
        coeffs = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()[::-1]
        assert phi(n) == LaurentPoly(enumerate(map(int, coeffs)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(401, 3000))
    def test_matches_sympy_sampled(self, n):
        self.test_matches_sympy(n)

    @pytest.mark.parametrize("n", list(range(1, 301)))
    def test_divisor_product_identity(self, n):
        product = LaurentPoly.one()
        for d in divisors(n):
            product = product * phi(d)
        assert product == t_power_minus_one(n)


class TestPhiSym:
    def test_paper_values(self):
        assert phi_sym(10) == parse_poly("t^-2 - t^-1 + 1 - t + t^2")
        assert phi_sym(14) == parse_poly("t^-3 - t^-2 + t^-1 - 1 + t - t^2 + t^3")

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            phi_sym(2)

    def test_symmetric_in_range(self):
        for n in range(3, 201):
            assert phi_sym(n).is_symmetric()


class TestPhiTilde:
    def test_m_one_is_unit(self):
        assert phi_tilde(1) == LaurentPoly.one()

    def test_m_five_is_phi_sym_10(self):
        assert phi_tilde(5) == phi_sym(10)

    def test_m_49_is_composite_product(self):
        assert phi_tilde(49) == phi_sym(14) * phi_sym(98)
        assert phi_tilde(49) != phi_sym(98)

    def test_even_m_rejected(self):
        with pytest.raises(ValueError):
            phi_tilde(4)

    def test_budget(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(m):
            raise Reached

        monkeypatch.setattr(cyclojones.cyclotomic, "divisors", reached)
        with pytest.raises(ValueError, match="budget"):
            phi_tilde(MAX_TERMS + 1)
        with pytest.raises(Reached):
            phi_tilde(MAX_TERMS - 1)

    def test_wrong_factor_raises(self, capsys, monkeypatch):
        original = cyclojones.cyclotomic._moebius

        def planted(n, primes):
            # 1/Phi_10 in place of Phi_10: a division leaves a remainder
            out = original(n, primes)
            return [(d, -mu) for d, mu in out] if n == 10 else out

        monkeypatch.setattr(cyclojones.cyclotomic, "_moebius", planted)
        self.assert_fails_check(capsys, 15)

    def test_wrong_alternating_entry_raises(self, capsys, monkeypatch):
        original = cyclojones.cyclotomic._alternating

        def planted(m):
            lo, coeffs = original(m)
            coeffs[1] += 2
            return lo, coeffs

        monkeypatch.setattr(cyclojones.cyclotomic, "_alternating", planted)
        self.assert_fails_check(capsys, 15)

    @staticmethod
    def assert_fails_check(capsys, m):
        phi_tilde.cache_clear()
        with pytest.raises(InternalInconsistencyError, match="phi_tilde"):
            phi_tilde(m)
        assert main(["phitilde", "-m", str(m)]) == 2
        assert "product and alternating forms disagree" in capsys.readouterr().err

    def test_check_leaves_phi_cache_alone(self):
        phi_tilde.cache_clear()
        before = phi.cache_info().currsize
        phi_tilde(15015)
        generate_table(10)
        assert phi.cache_info().currsize == before

    def test_product_identity_over_odd_m(self):
        # phi_tilde(m) * (t+1) * t^((m-1)/2) == t^m + 1
        t_plus_1 = parse_poly("t + 1")
        for m in range(1, 200, 2):
            lhs = (phi_tilde(m) * t_plus_1).shift((m - 1) // 2)
            assert lhs == LaurentPoly({m: 1, 0: 1})


class TestIsCyclotomicProduct:
    def test_t2_minus_1(self):
        fact = is_cyclotomic_product(parse_poly("t^2 - 1"))
        assert fact is not None
        assert fact.monomial_shift == 0
        assert fact.sign == 1
        assert fact.factors == ((1, 1), (2, 1))

    def test_phi_tilde_98(self):
        fact = is_cyclotomic_product(phi_tilde(49))
        assert fact.monomial_shift == -24
        assert fact.sign == 1
        assert fact.factors == ((14, 1), (98, 1))

    def test_non_cyclotomic(self):
        assert is_cyclotomic_product(parse_poly("t^2 - 2")) is None

    def test_json_form(self):
        # V_W(4,2) = t^-8 * Phi_34
        obj = is_cyclotomic_product(jones_wnk(4, 2)).to_json()
        assert obj == {"monomial_shift": -8, "sign": 1, "factors": [[34, 1]]}
        assert json.loads(json.dumps(obj)) == obj

    def test_non_palindromic_rejected_before_division(self, monkeypatch):
        inputs = [jones_wnk(8, 5), parse_poly("t^-3 + 2t - t^5")]

        def refuse(d):
            raise AssertionError(f"phi({d}) was built")

        monkeypatch.setattr(cyclojones.cyclotomic, "phi", refuse)
        for p in inputs:
            assert is_cyclotomic_product(p) is None

    def test_negative_multiplicity_rejected(self):
        # palindromic with unit ends, and its e_d fit the 2*deg budget; the
        # m_n they give (m_4 = -1, sum m_n phi(n) = 483 != 24) reject it
        p = parse_poly("1 - t^9 + t^12 - t^15 + t^24")
        assert is_cyclotomic_product(p) is None
        assert mahler_measure(p) > 1.3

    def test_negated_shifted_square(self):
        p = (phi(4) * phi(4) * phi(3)).scale(-1, -7)
        fact = is_cyclotomic_product(p)
        assert fact.sign == -1 and fact.monomial_shift == -7
        assert fact.factors == ((3, 1), (4, 2))
        assert fact.reconstruct() == p

    def test_all_phi_tilde_reconstruct(self):
        for m in range(1, 100, 2):
            p = phi_tilde(m)
            fact = is_cyclotomic_product(p)
            assert fact is not None
            assert fact.reconstruct() == p
            assert [d for d, _ in fact.factors] == [
                2 * d for d in divisors(m) if d > 1
            ]


    def test_planted_multiplicity_disagrees(self, monkeypatch):
        # V_W(4,2) = t^-8 Phi_34: a sequence naming Phi_34 twice is caught by the division
        monkeypatch.setattr(cyclojones.cyclotomic, "_cyclotomic_multiplicities", lambda p: [(34, 2)])
        with pytest.raises(
            InternalInconsistencyError,
            match=r"^exponent sequence \[\(34, 2\)\] and exact division \[\(34, 1\)\] disagree$",
        ):
            is_cyclotomic_product(jones_wnk(4, 2))

    def test_builds_only_the_factors_found(self, monkeypatch):
        # V_W(16,8) = Phi_14 * Phi_46 * Phi_322, shifted; phi(1) is phi's own seed
        built = []
        original = cyclojones.cyclotomic.phi

        def recording(n):
            built.append(n)
            return original(n)

        monkeypatch.setattr(cyclojones.cyclotomic, "phi", recording)
        fact = is_cyclotomic_product(jones_wnk(16, 8))
        assert fact.factors == ((14, 1), (46, 1), (322, 1))
        assert {14, 46, 322} <= set(built) <= set(divisors(322))


class TestSeriesBudget:
    """The exponent sequence of degree D reads a series of _index_bound(D) + 1 terms.

    Degree 189,294 takes 1,048,573 of them and is decided; 189,295 takes
    1,048,579, over MAX_TERMS, and is refused before P is made dense.
    """

    def test_edge(self):
        assert _index_bound(189294) + 1 <= MAX_TERMS < _index_bound(189295) + 1

    def test_largest_degree_decided(self):
        # 1 + t^D is the product of the Phi_d with d | 2D and d not dividing D
        deg = 189294
        factors = _cyclotomic_multiplicities(LaurentPoly({deg: 1, 0: 1}))
        assert factors == [(d, 1) for d in divisors(2 * deg) if deg % d]

    @pytest.mark.parametrize("deg", [189295, 2 * 10**7])
    def test_over_budget_refused_before_dense(self, monkeypatch, deg):
        def refuse(p):
            raise AssertionError("P was made dense")

        monkeypatch.setattr(cyclojones.cyclotomic, "_dense", refuse)
        p = LaurentPoly({deg: 1, 0: 1})
        for decide in (is_cyclotomic_product, mahler_measure):
            with pytest.raises(ValueError, match=rf"^deciding a cyclotomic product of degree {deg} .* budget"):
                decide(p)


class TestWorkBudget:
    """The decision passes over at most MAX_DECISION_WORK series entries.

    Each unit of |e_d| is one stride pass over the series of _index_bound(D)
    + 1 entries, and a pass that would take the count past the budget is
    refused with ValueError before it is made.
    """

    def test_budget_covers_the_numeric_degree_budget(self):
        # a decision makes at most 2D passes, so no degree mahler_measure
        # could measure numerically reaches the budget, and the next one can
        work = [2 * deg * (_index_bound(deg) + 1) for deg in range(1, MAX_NUMERIC_DEGREE + 2)]
        assert max(work[:-1]) == MAX_DECISION_WORK < work[-1]

    def test_edge_on_one_input(self, monkeypatch):
        # V_W(64,32), degree 2176: e_d at four d, so four passes over 10,473 entries
        v = jones_wnk(64, 32)
        assert _index_bound(v.span()) + 1 == 10473
        monkeypatch.setattr(cyclojones.cyclotomic, "MAX_DECISION_WORK", 4 * 10473)
        assert _cyclotomic_multiplicities(v) == [(14, 1), (622, 1), (4354, 1)]
        monkeypatch.setattr(cyclojones.cyclotomic, "MAX_DECISION_WORK", 4 * 10473 - 1)
        cyclojones.cyclotomic._decision.cache_clear()  # the answer above is kept
        with pytest.raises(ValueError, match=r"^deciding a cyclotomic product takes at least 4 stride passes over 10473 terms"):
            _cyclotomic_multiplicities(v)

    def test_edge_at_the_budget(self):
        # (1 - t^a)^40 takes 40 passes over _index_bound(40 a) + 1 entries:
        # 38,501,000 at a = 4344 and 38,509,840 at a = 4345, around 38,504,000
        def power(a):
            return LaurentPoly({a * i: (-1) ** i * comb(40, i) for i in range(41)})

        assert 40 * (_index_bound(40 * 4344) + 1) <= MAX_DECISION_WORK < 40 * (_index_bound(40 * 4345) + 1)
        assert _cyclotomic_multiplicities(power(4344)) == [(n, 40) for n in arith_divisors(4344)]
        for decide in (_cyclotomic_multiplicities, is_cyclotomic_product, mahler_measure):
            with pytest.raises(ValueError, match=r"^deciding a cyclotomic product takes at least 40 stride passes over 962746 terms, over the work budget of 38504000 "):
                decide(power(4345))

    def test_the_work_budget_comes_after_the_exponent_budget(self, monkeypatch):
        # over 2D passes is a proved no, whatever the work budget
        monkeypatch.setattr(cyclojones.cyclotomic, "MAX_DECISION_WORK", 0)
        assert _exponent_sequence([1, 0, -3, 0, 0], 2) is None
        with pytest.raises(ValueError, match="work budget"):
            _exponent_sequence([1, 0, -2, 0, 0], 2)

    def test_degree_20400_is_decided(self):
        # V_W(200,100): four passes over 106,357 entries
        assert _cyclotomic_multiplicities(jones_wnk(200, 100)) == [(46, 1), (1774, 1), (40802, 1)]


class TestDivisorWalk:
    """The m_n are named by walking the divisors of each d with e_d != 0."""

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.integers(1, 600), st.integers(-4, 4).filter(bool), min_size=1, max_size=8))
    def test_equals_the_stride_sums(self, exps):
        seq = [exps.get(d, 0) for d in range(max(exps) + 1)]
        reference = [(n, m) for n in range(1, len(seq)) if (m := sum(seq[n::n]))]
        factors = _divisor_sums(exps)
        assert factors == reference
        # Gauss: sum_{n | d} phi(n) = d, so the degree needs no totient
        assert sum(d * e for d, e in exps.items()) == sum(euler_totient(n) * m for n, m in factors)

    def test_decision_walks_each_nonzero_d_once_and_takes_no_totient(self, monkeypatch):
        def refuse(n):
            raise AssertionError("the decision took a totient")

        walked = []

        def recording(d):
            walked.append(d)
            return arith_divisors(d)

        monkeypatch.setattr(cyclojones.cyclotomic, "euler_totient", refuse)
        monkeypatch.setattr(cyclojones.cyclotomic, "divisors", recording)
        factors = _cyclotomic_multiplicities(jones_wnk(64, 32))
        assert factors == [(14, 1), (622, 1), (4354, 1)]
        assert sorted(walked) == sorted(d for d, e in _net_exponents(factors).items() if e)

    def test_planted_sequence_of_another_degree_is_refused(self, monkeypatch):
        # t^-8 Phi_34's e_d and e_5 = 1: every m_n >= 0, but sum d e_d = 21 != 16
        true = cyclojones.cyclotomic._exponent_sequence
        monkeypatch.setattr(cyclojones.cyclotomic, "_exponent_sequence", lambda s, b: {**true(s, b), 5: 1})
        assert _cyclotomic_multiplicities(jones_wnk(4, 2)) is None

    @pytest.mark.parametrize(
        "drop, p",
        [
            (1, jones_wnk(4, 2)),  # t^-8 Phi_34
            (1, jones_wnk(64, 32)),
            (0, LaurentPoly({2: 1, 0: -1})),  # Phi_1 * Phi_2: Phi_1 goes unnamed
        ],
    )
    def test_planted_dropped_divisor_raises(self, monkeypatch, drop, p):
        # the degree check walks no divisor, so the wrong names pass the
        # decision and exact division catches them
        def dropping(d):
            divs = arith_divisors(d)
            return divs[:drop] + divs[drop + 1:]

        monkeypatch.setattr(cyclojones.cyclotomic, "divisors", dropping)
        with pytest.raises(InternalInconsistencyError, match="and exact division"):
            is_cyclotomic_product(p)


class TestDecisionMemo:
    """The decision past the cheap exits is kept for the last coefficient list."""

    @staticmethod
    def record_sequences(monkeypatch):
        runs = []
        true = cyclojones.cyclotomic._exponent_sequence

        def recording(series, budget):
            runs.append(len(series))
            return true(series, budget)

        monkeypatch.setattr(cyclojones.cyclotomic, "_exponent_sequence", recording)
        return runs

    def test_factor_then_measure_decides_once(self, monkeypatch):
        runs = self.record_sequences(monkeypatch)
        v = jones_wnk(16, 8)
        assert is_cyclotomic_product(v).factors == ((14, 1), (46, 1), (322, 1))
        assert mahler_measure(v) == 1.0
        assert len(runs) == 1

    def test_a_shift_takes_the_kept_answer(self, monkeypatch):
        runs = self.record_sequences(monkeypatch)
        v = jones_wnk(16, 8)
        factors = _cyclotomic_multiplicities(v)
        assert _cyclotomic_multiplicities(v.shift(5)) == factors
        assert is_cyclotomic_product(v.shift(5)).monomial_shift == v.min_exp + 5
        assert len(runs) == 1
        assert cyclojones.cyclotomic._decision.cache_info().hits == 2

    def test_one_answer_is_kept(self, monkeypatch):
        runs = self.record_sequences(monkeypatch)
        v, w = jones_wnk(16, 8), jones_wnk(4, 2)
        for p in (v, w, v):
            is_cyclotomic_product(p)
        info = cyclojones.cyclotomic._decision.cache_info()
        assert info.maxsize == 1 and info.currsize == 1
        assert len(runs) == 3

    def test_refusals_raise_on_every_call(self, monkeypatch):
        # a work refusal is not kept, and the series refusal of a sparse
        # input comes before it is made dense, leaving the kept answer alone
        v = jones_wnk(64, 32)
        assert _cyclotomic_multiplicities(v) == [(14, 1), (622, 1), (4354, 1)]
        monkeypatch.setattr(cyclojones.cyclotomic, "MAX_DECISION_WORK", 0)
        w = jones_wnk(16, 8)
        for _ in range(2):
            with pytest.raises(ValueError, match="over the work budget"):
                _cyclotomic_multiplicities(w)

        def refuse(p):
            raise AssertionError("P was made dense")

        monkeypatch.setattr(cyclojones.cyclotomic, "_dense", refuse)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^deciding a cyclotomic product of degree 20000000 "):
                _cyclotomic_multiplicities(LaurentPoly({2 * 10**7: 1, 0: 1}))
        # V is dense-built, so its kept answer is found without _dense
        assert _cyclotomic_multiplicities(v) == [(14, 1), (622, 1), (4354, 1)]

    def test_a_changed_answer_is_not_kept(self):
        v = jones_wnk(16, 8)
        factors = _cyclotomic_multiplicities(v)
        factors[0] = (7, 2)
        factors.append((99, 1))
        assert _cyclotomic_multiplicities(v) == [(14, 1), (46, 1), (322, 1)]


class TestLargestFirst:
    """is_cyclotomic_product divides the named Phi_n out from the largest index down."""

    def test_order_and_failing_trials(self, monkeypatch):
        # V_W(16,8) = Phi_14 * Phi_46 * Phi_322, shifted: each factor takes one
        # useful division and one that fails, largest first, and each failing
        # one meets a quotient of lower degree than its Phi_n, so it fails
        # before the long division's first step
        calls = []
        true = cyclojones.laurent._long_division

        def recording(num, den):
            num = list(num)
            calls.append((len(num), len(den)))
            return true(num, den)

        monkeypatch.setattr(cyclojones.laurent, "_long_division", recording)
        fact = is_cyclotomic_product(jones_wnk(16, 8))
        assert fact.factors == ((14, 1), (46, 1), (322, 1))
        degrees = [euler_totient(n) for n in (322, 46, 14)]
        assert [den - 1 for _, den in calls] == [d for d in degrees for _ in range(2)]
        assert all(num < den for num, den in calls[1::2])

    def test_planted_exponent_sequence_raises(self, monkeypatch):
        # t^-8 Phi_34 planted as (1 - x^16): degree 16 and every m_n >= 0, so
        # the decision names Phi_1 Phi_2 Phi_4 Phi_8 Phi_16 and division refuses them
        monkeypatch.setattr(cyclojones.cyclotomic, "_exponent_sequence", lambda s, b: {16: 1})
        assert _cyclotomic_multiplicities(jones_wnk(4, 2)) == [(1, 1), (2, 1), (4, 1), (8, 1), (16, 1)]
        with pytest.raises(InternalInconsistencyError, match=r"and exact division \[\(1, 0\), \(2, 0\), \(4, 0\), \(8, 0\), \(16, 0\)\] disagree$"):
            is_cyclotomic_product(jones_wnk(4, 2))


X = sympy.symbols("x")

# sign * x^shift * prod Phi_n^m over a dict {n: m}
products = st.tuples(
    st.sampled_from([1, -1]),
    st.integers(-6, 6),
    st.dictionaries(st.integers(1, 80), st.integers(1, 3), max_size=4),
)

# the same over n <= 400 and more factors, trimmed to degree <= 600
wide_products = st.tuples(
    st.sampled_from([1, -1]),
    st.integers(-50, 50),
    st.dictionaries(st.integers(1, 400), st.integers(1, 3), max_size=8),
)


def _product(sign, shift, mults):
    out = LaurentPoly.monomial(sign, shift)
    for n, m in mults.items():
        for _ in range(m):
            out = out * phi(n)
    return out


class TestFactoringProperties:
    @settings(max_examples=60, deadline=None)
    @given(products)
    def test_products_factor_to_their_list(self, case):
        sign, shift, mults = case
        fact = is_cyclotomic_product(_product(sign, shift, mults))
        assert fact is not None
        assert (fact.sign, fact.monomial_shift) == (sign, shift)
        assert fact.factors == tuple(sorted(mults.items()))

    @settings(max_examples=30, deadline=None)
    @given(wide_products)
    def test_wide_products_factor_and_measure_one(self, case):
        # factors are kept while the degree stays <= 600
        sign, shift, mults = case
        kept = {}
        for n, m in mults.items():
            if sum(euler_totient(i) * k for i, k in kept.items()) + euler_totient(n) * m <= 600:
                kept[n] = m
        p = _product(sign, shift, kept)
        fact = is_cyclotomic_product(p)
        assert (fact.sign, fact.monomial_shift) == (sign, shift)
        assert fact.factors == tuple(sorted(kept.items()))
        assert mahler_measure(p) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(products, st.integers(0, 10**6), st.integers(-2, 2))
    def test_symmetric_perturbations_agree_with_sympy(self, case, at, c):
        # factors are kept while the degree stays <= 40, where sympy's
        # factor_list is quick; c * (x^j + x^(D-j)) keeps a palindrome one
        sign, _, mults = case
        small = {}
        for n, m in mults.items():
            if sum(euler_totient(i) * k for i, k in small.items()) + euler_totient(n) * m <= 40:
                small[n] = m
        q = _product(sign, 0, small)
        deg = q.max_exp
        j = at % (deg + 1)
        p = q + LaurentPoly({j: c}) + LaurentPoly({deg - j: c})
        assume(p)
        coeff, irreducibles = sympy.factor_list(
            sympy.Poly([p.coeff(e) for e in range(p.max_exp, -1, -1)], X)
        )
        not_cyclotomic = abs(coeff) != 1 or any(
            not f.is_cyclotomic and f != sympy.Poly(X, X) for f, _ in irreducibles
        )
        assert (is_cyclotomic_product(p) is None) == not_cyclotomic

    def test_index_bound_covers_every_totient_preimage(self):
        # n / phi(n) < 6 below the primorial 223092870, so phi(n) <= 3000
        # forces n < 18000
        limit = 18000
        tot = list(range(limit + 1))
        for q in range(2, limit + 1):
            if tot[q] == q:  # prime
                for n in range(q, limit + 1, q):
                    tot[n] -= tot[n] // q
        largest = [0] * 3001  # largest n with phi(n) == D
        for n in range(1, limit + 1):
            if tot[n] <= 3000:
                largest[tot[n]] = n
        best = 0
        for deg in range(1, 3001):
            best = max(best, largest[deg])  # largest n with phi(n) <= deg
            assert best <= _index_bound(deg) <= 1.5 * best


class TestSpecialCyclotomicValues:
    def test_value_at_one_is_p(self):
        for p in (2, 3, 5, 7):
            for k in (1, 2, 3):
                value, _ = phi(p**k).value_and_derivative_at_one()
                assert value == p

    def test_moduli_at_special_roots(self):
        for p in (2, 5, 7):
            for k in (1, 2):
                q = p**k
                assert abs(abs(phi(3 * q).evaluate_complex(3)) - p) < 1e-9
                assert abs(abs(phi(4 * q).evaluate_complex(4)) - p) < 1e-9
                assert abs(abs(phi(6 * q).evaluate_complex(6)) - p) < 1e-9


class TestMahlerMeasure:
    def test_unit_root(self):
        assert mahler_measure(parse_poly("t - 1")) == pytest.approx(1.0)

    def test_phi_sym_10(self):
        assert mahler_measure(phi_sym(10)) == pytest.approx(1.0, abs=1e-6)

    def test_golden_ratio(self):
        assert mahler_measure(parse_poly("t^2 - t - 1")) == pytest.approx(
            (1 + 5**0.5) / 2, abs=1e-6
        )

    def test_all_cyclotomic_measure_one(self):
        for n in range(1, 101):
            assert mahler_measure(phi(n)) == pytest.approx(1.0, abs=1e-6)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            mahler_measure(LaurentPoly.zero())

    def test_cyclotomic_measure_is_exact(self):
        # degree 576; np.roots gave 1 + 3e-12, digits that depend on the BLAS
        assert mahler_measure(jones_wnk(32, 16)) == 1.0
        assert mahler_measure(phi_tilde(49).scale(-1, 5)) == 1.0


def _qr_measure(coeffs):
    """The measure from np.roots, as mahler_measure took it before the iteration."""
    descending = coeffs[::-1]
    measure = float(abs(descending[0]))
    for r in np.roots(descending):
        measure *= max(1.0, abs(r))
    return measure


def _power(text, e):
    return reduce(mul, [parse_poly(text)] * e)


# M(V_W(n,k)) for non-symmetric members on both sides of MAX_QR_DEGREE, from
# mpmath.polyroots(descending coefficients, maxsteps=600, extraprec=40) at
# mp.dps = 40, whose error estimate was 2.3e-41 on each; W(28,4) has degree
# 167, and W(-40,3) (degree 198) was the iteration's worst member against
# np.roots over n -40..40, k 0..15.
MPMATH_MEASURES = {
    (-19, 2, 74): "1.692830954218472184748975926948162",
    (-11, 5, 75): "1.731329449849652901919348518325906",
    (-26, 1, 76): "1.685020717275162899352767145584869",
    (13, 4, 77): "1.728944036659289867993474768666036",
    (-7, 11, 89): "1.683363141402204677056890702086189",
    (28, 4, 167): "1.696690528363844228804114761000735",
    (-40, 3, 198): "1.714995993641564453022441838795616",
}


class TestNumericMahler:
    @pytest.mark.parametrize("n, k, deg", list(MPMATH_MEASURES))
    def test_agrees_with_mpmath(self, n, k, deg):
        v = jones_wnk(n, k)
        assert v.span() == deg and not is_cyclotomic_product(v)
        reference = float(MPMATH_MEASURES[n, k, deg])
        assert mahler_measure(v) == pytest.approx(reference, rel=1e-12, abs=0)
        if deg > MAX_QR_DEGREE:  # taken from the iteration, without a fallback
            assert _aberth_measure(_dense(v)[1]) == mahler_measure(v)

    @pytest.mark.parametrize("n, k", [(-12, 0), (-8, 1), (-6, 2)])
    def test_iteration_agrees_with_live_mpmath(self, n, k):
        # the iteration itself at degree 21..22, against 32 digits
        coeffs = _dense(jones_wnk(n, k))[1]
        with mpmath.workdps(32):
            roots = mpmath.polyroots(coeffs[::-1], maxsteps=100, extraprec=10)
            reference = abs(coeffs[-1]) * mpmath.fprod(max(1, abs(r)) for r in roots)
        assert _aberth_measure(coeffs) == pytest.approx(float(reference), rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "p, exact, iterated",
        [
            (_power("t^4 - 2", 20), 2.0**20, False),
            (_power("t^2 - t - 1", 40), ((1 + 5**0.5) / 2) ** 40, False),
            (_power("3t^2 - 1", 40), 3.0**40, False),
            (parse_poly("1000000t - 1") * parse_poly("t^79 + t + 3"), 3e6, True),
            (parse_poly("t^100 - 2"), 2.0, True),
        ],
        ids=["(t^4-2)^20", "(t^2-t-1)^40", "(3t^2-1)^40", "(10^6t-1)(t^79+t+3)", "t^100-2"],
    )
    def test_exact_measures(self, p, exact, iterated):
        # a 20- or 40-fold root passes the per-root test at wrong places, and
        # the set check sends it back to np.roots
        assert p.span() > MAX_QR_DEGREE
        coeffs = _dense(p)[1]
        assert (_aberth_measure(coeffs) is not None) == iterated
        assert mahler_measure(p) == pytest.approx(exact, rel=1e-9, abs=0)
        if not iterated:
            assert mahler_measure(p) == _qr_measure(coeffs)

    @pytest.mark.parametrize(
        "p",
        [
            jones_wnk(32, 16),
            parse_poly("7"),
            parse_poly("t^2 - t - 1"),
            parse_poly("t^3 - 2"),
            jones_wnk(28, 4),
            _power("t^4 - 2", 20),
        ],
        ids=[
            "exact", "constant", "np.roots t^2-t-1", "np.roots t^3-2",
            "Aberth W(28,4)", "set-check fallback (t^4-2)^20",
        ],
    )
    def test_returns_a_builtin_float(self, p):
        assert type(mahler_measure(p)) is float

    def test_step_cap_falls_back_to_np_roots(self, monkeypatch):
        monkeypatch.setattr(cyclojones.cyclotomic, "_ABERTH_STEPS", 2)
        v = jones_wnk(28, 4)
        coeffs = _dense(v)[1]
        assert _aberth_measure(coeffs) is None
        assert mahler_measure(v) == _qr_measure(coeffs)

    def test_qr_side_is_np_roots_bit_for_bit(self):
        members = [(-19, 2), (-11, 5), (15, 3), (-9, 5), (-12, 0), (7, 1), (3, 0), (-32, 0)]
        degrees = set()
        for n, k in members:
            v = jones_wnk(n, k)
            degrees.add(v.span())
            assert mahler_measure(v) == _qr_measure(_dense(v)[1])
        assert max(degrees) == MAX_QR_DEGREE and min(degrees) < 10

    def test_degree_budget_edge(self, monkeypatch):
        edge = LaurentPoly({MAX_NUMERIC_DEGREE: 1, 0: -2})
        assert mahler_measure(edge) == pytest.approx(2.0, rel=1e-9, abs=0)
        # a cyclotomic product is exact at any degree
        assert mahler_measure(phi_tilde(2 * MAX_NUMERIC_DEGREE + 1)) == 1.0

        def refuse(coeffs):
            raise AssertionError("numeric root finding was started")

        monkeypatch.setattr(cyclojones.cyclotomic, "_aberth_measure", refuse)
        monkeypatch.setattr(np, "roots", refuse)
        over = LaurentPoly({MAX_NUMERIC_DEGREE + 1: 1, 0: -2})
        with pytest.raises(ValueError, match=f"degree {MAX_NUMERIC_DEGREE + 1} is over the budget"):
            mahler_measure(over)


class TestPhitildeRootExponents:
    @pytest.mark.parametrize(
        "m,expected",
        [(5, [1, 3, 7, 9]), (3, [1, 5]), (7, [1, 3, 5, 9, 11, 13])],
    )
    def test_exponent_lists(self, m, expected):
        assert phitilde_root_exponents(m) == expected

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 15])
    def test_exponents_are_roots_numerically(self, m):
        p = phi_tilde(m)
        for j in phitilde_root_exponents(m):
            assert abs(p.evaluate_complex(2 * m, j)) < 1e-8
        # the omitted exponent m is not a root: zeta_{2m}^m = -1
        assert abs(p.evaluate_complex(2 * m, m)) > 0.5

    def test_length_is_m_minus_one(self):
        for m in range(3, 40, 2):
            assert len(phitilde_root_exponents(m)) == m - 1
