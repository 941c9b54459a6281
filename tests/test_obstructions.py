import json

import pytest

from cyclojones.cyclotomic import phi, phi_sym, residue
from cyclojones.laurent import MAX_TERMS, LaurentPoly
from cyclojones.obstructions import (
    excluded_phi_index,
    open_question_candidates,
    phitilde_admissible,
    realized_orders,
    SpecialValueReport,
    special_value_check,
)
from cyclojones.wnk import jones_wnk

PAPER_CANDIDATES = [18, 26, 35, 40, 45, 46, 50, 54, 55, 56, 60]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: special_value_check(LaurentPoly.zero()), "cannot check the zero polynomial"),
        (lambda: excluded_phi_index(0), "index must be >= 1"),
    ],
    ids=["special_value_check(0)", "excluded_phi_index(0)"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestSpecialValueCheck:
    def test_unknot(self):
        report = special_value_check(LaurentPoly.one())
        assert report.passes_all
        assert report.at_zeta6_exponent == 0
        assert report.at_i_value == 1

    def test_figure_eight(self):
        report = special_value_check(phi_sym(10))
        assert report.passes_all
        assert report.at_i_value in (1, -1)
        # V_{4_1}(zeta_6) = -1 = -(i*sqrt(3))^0
        assert report.at_zeta6_exponent == 0

    def test_phi_sym_6_fails(self):
        # zeta_6 is a root, so no power of i*sqrt(3) can match
        report = special_value_check(phi_sym(6))
        assert report.at_zeta6_exponent is None
        assert not report.passes_all

    def test_zeta6_exponent_closed_form(self):
        # 2t - 1 takes the value i*sqrt(3) at zeta_6, and t^6 the value 1
        base = LaurentPoly({1: 2, 0: -1})
        power = LaurentPoly.one()
        for s in range(25):
            for j in (-1, 0, 2):
                for sign in (1, -1):
                    v = power.scale(sign, 6 * j)
                    assert special_value_check(v).at_zeta6_exponent == s, (s, j, sign)
            assert special_value_check(power.scale(2)).at_zeta6_exponent is None
            power = power * base
        assert special_value_check(LaurentPoly({1: 3, 0: -1})).at_zeta6_exponent is None

    def test_json_form(self):
        # V_W(3,1) = Phi^sym_14
        obj = special_value_check(jones_wnk(3, 1)).to_json()
        assert obj == {
            "at_one": 1,
            "derivative_at_one": 0,
            "at_zeta3_is_one": True,
            "at_i_value": 1,
            "at_zeta6_exponent": 0,
            "passes_all": True,
        }
        assert json.loads(json.dumps(obj)) == obj

    def test_shifted_poly_fails_derivative(self):
        report = special_value_check(LaurentPoly({3: 1}))
        assert report.at_one == 1 and report.derivative_at_one == 3
        assert not report.passes_all

    def test_all_wnk_jones_pass(self):
        for n in range(-6, 9):
            for k in range(0, 6):
                assert special_value_check(jones_wnk(n, k)).passes_all, (n, k)

    @staticmethod
    def separate_residues_report(p):
        # the report from three residue calls, one fold of p per root order
        at_i = residue(p, 4)
        a, b = residue(p, 6)
        zeta6_exp = None
        for s in range(64):
            j, odd = divmod(s, 2)
            if (abs(a), b) == (3**j, -2 * a if odd else 0):
                zeta6_exp = s
                break
        return SpecialValueReport(
            *p.value_and_derivative_at_one(),
            residue(p, 3) == (1, 0),
            at_i[0] if at_i in ((1, 0), (-1, 0)) else None,
            zeta6_exp,
        )

    def test_one_fold_matches_separate_residues(self):
        polys = [jones_wnk(n, k) for n in range(-12, 13) for k in range(0, 7)]
        polys += [jones_wnk(136, 68), phi_sym(6), LaurentPoly({3: 1})]
        polys.append(LaurentPoly({-7: 3, 5: -2, 11: 9}))
        for p in polys:
            assert special_value_check(p) == self.separate_residues_report(p)

    def test_zeta6_exponent_matches_modulus(self):
        # |V(zeta_6)| must equal sqrt(3)^s for the reported s
        for n, k in ((1, 1), (2, 1), (3, 2), (-5, 2)):
            v = jones_wnk(n, k)
            s = special_value_check(v).at_zeta6_exponent
            assert abs(abs(v.evaluate_complex(6)) - 3 ** (s / 2)) < 1e-6


class TestExcludedPhiIndex:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 8, 9, 12, 20, 24, 25, 49, 27])
    def test_excluded(self, order):
        assert excluded_phi_index(order)

    @pytest.mark.parametrize("order", PAPER_CANDIDATES + [10, 14, 22, 34, 38, 58])
    def test_not_excluded(self, order):
        assert not excluded_phi_index(order)

    def test_excluded_polys_fail_a_special_value(self):
        # each excluded Phi_N takes a non-unit modulus at the matching
        # evaluation point, so it cannot divide any Jones polynomial
        for order in range(2, 61):
            if not excluded_phi_index(order):
                continue
            p = phi(order)
            value, _ = p.value_and_derivative_at_one()
            moduli = [
                abs(value),
                abs(p.evaluate_complex(3)),
                abs(p.evaluate_complex(4)),
            ]
            zeta6 = abs(p.evaluate_complex(6))
            # zeta_6 check passes only when the modulus is a power of sqrt(3)
            import math

            s = 2 * math.log(zeta6) / math.log(3) if zeta6 > 1e-9 else None
            zeta6_ok = s is not None and abs(s - round(s)) < 1e-6
            ok_at_one = value == 1
            assert not (
                ok_at_one
                and abs(moduli[1] - 1) < 1e-9
                and abs(moduli[2] - 1) < 1e-9
                and zeta6_ok
            ), order


class TestPhitildeAdmissible:
    def test_values(self):
        assert not phitilde_admissible(9)
        assert phitilde_admissible(5)
        assert phitilde_admissible(49)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            phitilde_admissible(4)


class TestRealizedOrders:
    def test_up_to_60(self):
        assert realized_orders(60) == [10, 14, 22, 34, 38, 58]

    def test_up_to_14(self):
        assert realized_orders(14) == [10, 14]

    def test_below_first(self):
        assert realized_orders(9) == []

    def test_budget(self):
        assert realized_orders(MAX_TERMS)[-1] <= MAX_TERMS
        for listing in (realized_orders, open_question_candidates):
            with pytest.raises(ValueError, match="budget"):
                listing(MAX_TERMS + 1)


class TestOpenQuestionCandidates:
    def test_paper_list(self):
        assert open_question_candidates(60) == PAPER_CANDIDATES

    def test_prefix(self):
        assert open_question_candidates(26) == [18, 26]

    def test_empty_below_18(self):
        assert open_question_candidates(17) == []

    def test_partition(self):
        bound = 60
        candidates = set(open_question_candidates(bound))
        realized = set(realized_orders(bound))
        excluded = {n for n in range(2, bound + 1) if excluded_phi_index(n)}
        assert not candidates & realized
        assert candidates | realized | excluded == set(range(2, bound + 1))

    def test_sieve_matches_per_order_filter(self):
        # every bound up to 300, then a stride of bounds up to 5000
        realized = set(realized_orders(5000))
        unexcluded = [n for n in range(2, 5001) if not excluded_phi_index(n)]
        for bound in [*range(2, 301), *range(301, 5000, 37), 5000]:
            expected = [n for n in unexcluded if n <= bound and n not in realized]
            assert open_question_candidates(bound) == expected
