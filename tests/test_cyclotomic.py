import json

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy import divisors

import cyclojones.cyclotomic
from cyclojones.cyclotomic import (
    _index_bound,
    euler_totient,
    is_cyclotomic_product,
    mahler_measure,
    phi,
    phi_sym,
    phi_tilde,
    phitilde_root_exponents,
)
from cyclojones.errors import InternalInconsistencyError
from cyclojones.laurent import MAX_TERMS, LaurentPoly, parse_poly
from cyclojones.wnk import jones_wnk


def t_power_minus_one(n):
    return LaurentPoly({n: 1, 0: -1})


def _squarefree_with_four_primes(n):
    exponents = sympy.factorint(n).values()
    return len(exponents) >= 4 and max(exponents) == 1


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

    def test_wrong_factor_raises(self, monkeypatch):
        original = cyclojones.cyclotomic.phi

        def planted(n):
            p = original(n)
            return p + LaurentPoly({1: 1}) if n == 10 else p

        phi_tilde.cache_clear()
        monkeypatch.setattr(cyclojones.cyclotomic, "phi", planted)
        with pytest.raises(InternalInconsistencyError, match="phi_tilde"):
            phi_tilde(15)

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


X = sympy.symbols("x")

# sign * x^shift * prod Phi_n^m over a dict {n: m}
products = st.tuples(
    st.sampled_from([1, -1]),
    st.integers(-6, 6),
    st.dictionaries(st.integers(1, 80), st.integers(1, 3), max_size=4),
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
