import json

import pytest

import cyclojones.bracket
import cyclojones.wnk
from cyclojones.cli import main
from cyclojones.cyclotomic import phi_sym
from cyclojones.laurent import parse_poly, poly_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJonesCommand:
    def test_figure_eight(self, capsys):
        code, out, _ = run(capsys, "jones", "-n", "1", "-k", "1")
        assert code == 0
        assert out.strip() == "t^-2 - t^-1 + 1 - t + t^2"

    def test_unknot(self, capsys):
        code, out, _ = run(capsys, "jones", "-n", "0", "-k", "1")
        assert code == 0 and out.strip() == "1"

    def test_trefoil(self, capsys):
        code, out, _ = run(capsys, "jones", "-n", "2", "-k", "0")
        assert code == 0 and out.strip() == "t + t^3 - t^4"

    def test_negative_n(self, capsys):
        code, out, _ = run(capsys, "jones", "-n", "-4", "-k", "2")
        assert code == 0
        assert parse_poly(out.strip()).value_and_derivative_at_one() == (1, 0)

    def test_bracket_variable(self, capsys):
        code, out, _ = run(capsys, "jones", "-n", "0", "-k", "1", "--variable", "A")
        assert code == 0 and out.strip() == "-A^9"

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "jones", "-n", "1", "-k", "1", "--format", "json")
        assert code == 0
        assert poly_from_json(json.loads(out)) == phi_sym(10)

    def test_invalid_k_exits_1(self, capsys):
        code, _, err = run(capsys, "jones", "-n", "0", "-k", "-1")
        assert code == 1 and err


class TestVerifyCommand:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "0..0", "--k", "0..0")
        assert code == 0 and out.strip() == "OK 1/1"

    def test_default_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "-3..3", "--k", "0..2")
        assert code == 0 and out.strip() == "OK 21/21"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "-2..2", "--k", "0..1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"total": 10, "ok": 10, "mismatches": []}

    @staticmethod
    def _flip_one_cell(monkeypatch):
        true_jones = cyclojones.bracket.jones_wnk

        def flipped(n, k):
            v = true_jones(n, k)
            if (n, k) == (1, 1):
                v = v + parse_poly("t^7")  # flip one coefficient
            return v

        monkeypatch.setattr(cyclojones.bracket, "jones_wnk", flipped)

    def test_injected_fault_exits_2(self, capsys, monkeypatch):
        self._flip_one_cell(monkeypatch)
        code, out, _ = run(capsys, "verify", "--n", "0..2", "--k", "0..1")
        assert code == 2
        assert "MISMATCH n=1 k=1" in out

    def test_injected_fault_json_exits_2(self, capsys, monkeypatch):
        self._flip_one_cell(monkeypatch)
        code, out, _ = run(capsys, "verify", "--n", "0..2", "--k", "0..1", "--format", "json")
        assert code == 2
        assert json.loads(out) == {"total": 6, "ok": 5, "mismatches": [{"n": 1, "k": 1}]}

    def test_bad_range_exits_1(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "bogus")
        assert code == 1


class TestTableCommand:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "table", "--k-max", "4")
        assert code == 0
        assert "W(8,4)" in out and "Phi_tilde_98" in out
        assert "W(1,1)" in out and "Phi_sym_10" in out

    def test_json_table(self, capsys):
        code, out, _ = run(capsys, "table", "--k-max", "2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 8
        by_params = {(r["n"], r["k"]): r for r in rows}
        assert poly_from_json(by_params[(4, 2)]["polynomial"]) == phi_sym(34)
        assert by_params[(1, 1)]["crossing_bound"] == 4


class TestClassifyCommand:
    def test_default_columns(self, capsys):
        code, out, _ = run(capsys, "classify", "--k-max", "1")
        assert code == 0
        assert "W(1,1)" in out and "n=k" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--k-max", "1", "--n", "0..4", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        families = {r["n"]: r["family"] for r in rows}
        assert families[4] == "not_symmetric"
        assert families[2] == "n=2k"


class TestPhiCommands:
    def test_phi(self, capsys):
        code, out, _ = run(capsys, "phi", "10")
        assert code == 0 and out.strip() == "1 - t + t^2 - t^3 + t^4"

    def test_phi_sym(self, capsys):
        code, out, _ = run(capsys, "phi", "10", "--sym")
        assert code == 0 and out.strip() == "t^-2 - t^-1 + 1 - t + t^2"

    def test_phitilde(self, capsys):
        code, out, _ = run(capsys, "phitilde", "-m", "5")
        assert code == 0 and out.strip() == "t^-2 - t^-1 + 1 - t + t^2"

    def test_even_m_exits_1(self, capsys):
        code, _, err = run(capsys, "phitilde", "-m", "4")
        assert code == 1


class TestObstructCommand:
    def test_paper_list(self, capsys):
        code, out, _ = run(capsys, "obstruct", "--max", "60")
        assert code == 0
        assert out.strip() == "18 26 35 40 45 46 50 54 55 56 60"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "obstruct", "--max", "40", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["candidates"] == [18, 26, 35, 40]
        assert obj["realized"] == [10, 14, 22, 34, 38]


class TestWritheCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "writhe", "-n", "2", "-k", "3")
        assert code == 0
        assert "writhe=15" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "writhe", "-n", "4", "-k", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["writhe"] == 14 and obj["crossing_bound"] == 39


class TestMersenneCommand:
    def test_p5(self, capsys):
        code, out, _ = run(capsys, "mersenne", "-p", "5")
        assert code == 0
        assert out.strip() == "N=31 k=3 knots W(6,3) W(7,3) V=Phi_sym_62"

    def test_composite_exits_1(self, capsys):
        code, _, err = run(capsys, "mersenne", "-p", "11")
        assert code == 1

    def test_over_budget_exits_1(self, capsys, monkeypatch):
        def refuse(n, k):
            raise AssertionError(f"jones_wnk({n}, {k}) was called")

        monkeypatch.setattr(cyclojones.wnk, "jones_wnk", refuse)
        code, out, err = run(capsys, "mersenne", "-p", "31")
        assert code == 1 and not out
        assert "2^31 - 1 terms" in err and "budget" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "mersenne", "-p", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["N"] == 7 and obj["knots"] == [[2, 1], [3, 1]]


class TestUsage:
    def test_unknown_command_exits_1(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_option_exits_1(self, capsys):
        assert run(capsys, "jones", "-n", "1")[0] == 1
