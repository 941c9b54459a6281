import json
import shlex
from pathlib import Path

import pytest

import cyclojones.bracket
import cyclojones.wnk
from cyclojones.cli import main
from cyclojones.cyclotomic import phi_sym
from cyclojones.laurent import LaurentPoly, parse_poly, poly_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_cli_lines() -> list[tuple[str, list[str]]]:
    """(command, comments) for each line of the README's CLI block.

    A line that holds only a comment continues the command above it.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    entries: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            entries.append((command.strip(), []))
        if comment.strip():
            entries[-1][1].append(comment.strip())
    return entries


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

    def test_planted_numerator_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cyclojones.wnk, "d_exponents", lambda n, k: (7, 4, 3, 2, 1, 0))
        code, _, err = run(capsys, "jones", "-n", "3", "-k", "1")
        assert code == 2
        assert "not divisible by 1 - t^2" in err

    def test_negative_n(self, capsys):
        code, out, _ = run(capsys, "jones", "-n", "-4", "-k", "2")
        assert code == 0
        assert parse_poly(out.strip()).value_and_derivative_at_one() == (1, 0)

    def test_bracket_variable(self, capsys):
        code, out, _ = run(capsys, "jones", "-n", "0", "-k", "1", "--variable", "A")
        assert code == 0 and out.strip() == "-A^9"

    def test_bracket_variable_constant(self, capsys):
        code, out, _ = run(capsys, "jones", "-n", "0", "-k", "0", "--variable", "A")
        assert code == 0 and out.strip() == "A^0"
        assert parse_poly(out) == LaurentPoly.one("A")

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "jones", "-n", "1", "-k", "1", "--format", "json")
        assert code == 0
        assert poly_from_json(json.loads(out)) == phi_sym(10)


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
    def _flip_two_cells(monkeypatch):
        true_jones = cyclojones.bracket.jones_wnk

        def flipped(n, k):
            v = true_jones(n, k)
            if (n, k) in ((2, 0), (0, 1)):
                v = v + parse_poly("t^7")  # flip one coefficient
            return v

        monkeypatch.setattr(cyclojones.bracket, "jones_wnk", flipped)

    def test_injected_fault_exits_2(self, capsys, monkeypatch):
        # mismatches are listed in (k, n) order, the order verify_range returns
        self._flip_two_cells(monkeypatch)
        code, out, _ = run(capsys, "verify", "--n", "0..2", "--k", "0..1")
        assert code == 2
        assert out.splitlines() == ["MISMATCH n=2 k=0", "MISMATCH n=0 k=1", "FAIL 4/6"]

    def test_injected_fault_json_exits_2(self, capsys, monkeypatch):
        self._flip_two_cells(monkeypatch)
        code, out, _ = run(capsys, "verify", "--n", "0..2", "--k", "0..1", "--format", "json")
        assert code == 2
        assert json.loads(out) == {
            "total": 6, "ok": 4, "mismatches": [{"n": 2, "k": 0}, {"n": 0, "k": 1}]
        }

    def test_writhe_fault_exits_2(self, capsys, monkeypatch):
        true_writhe = cyclojones.bracket.writhe_wnk

        def planted(n, k):
            return true_writhe(n, k) + ((n, k) == (1, 1))

        monkeypatch.setattr(cyclojones.bracket, "writhe_wnk", planted)
        code, _, err = run(capsys, "verify", "--n", "0..2", "--k", "0..1")
        assert code == 2
        assert "not divisible by 4" in err

    def test_odd_bracket_exponent_exits_2(self, capsys, monkeypatch):
        true_base = cyclojones.bracket.bracket_wnk_base

        def planted(n):
            return true_base(n).shift(1) if n == 1 else true_base(n)

        monkeypatch.setattr(cyclojones.bracket, "bracket_wnk_base", planted)
        code, _, err = run(capsys, "verify", "--n", "0..2", "--k", "0..1")
        assert code == 2
        assert "differ mod 4" in err

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

    # over-budget inputs are refused before anything is built
    @pytest.mark.parametrize(
        "argv",
        [
            ["phi", "9699690"],
            ["phi", "9699690", "--sym"],
            ["phi", str(2**41 + 1)],
            ["phitilde", "-m", "4000001"],
            ["obstruct", "--max", "100000000"],
            ["table", "--k-max", "80"],
            ["table", "--k-max", "1000"],
        ],
        ids=" ".join,
    )
    def test_over_budget_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("error: ") and "budget" in err

    # out-of-range values are rejected by the library; the CLI reports them
    @pytest.mark.parametrize(
        "argv",
        [
            ["jones", "-n", "0", "-k", "-1"],
            ["jones", "-n", "1000000000", "-k", "1"],
            ["writhe", "-n", "0", "-k", "-1"],
            ["verify", "--n", "0..1", "--k", "-1..1"],
            ["verify", "--n", "0..100000", "--k", "0..1"],
            ["table", "--k-max", "0"],
            ["classify", "--k-max", "0"],
            ["phi", "0"],
            ["phi", "2", "--sym"],
            ["phitilde", "-m", "4"],
            ["phitilde", "-m", "-3"],
            ["obstruct", "--max", "1"],
            ["mersenne", "-p", "11"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("error: ")
        if argv[0] == "verify":
            assert ("k_lo" if "-1..1" in argv else "budget") in err


class TestReadmeCli:
    """Each line of the README's CLI block does what its comment says."""

    # the lines whose first comment is their exact output
    PRINTED = [
        "cyclojones jones -n 1 -k 1",
        "cyclojones verify --n -2..2 --k 0..1 --format json",
        "cyclojones obstruct --max 60",
        "cyclojones mersenne -p 5",
    ]

    def test_block_holds_the_checked_lines(self):
        entries = dict(readme_cli_lines())
        assert all(command.startswith("cyclojones ") for command in entries)
        assert all(entries.get(command) for command in self.PRINTED)
        assert any(c and c[0].startswith("exit 1: ") for c in entries.values())

    @pytest.mark.parametrize(
        "command, comments", [pytest.param(c, m, id=c) for c, m in readme_cli_lines()]
    )
    def test_line(self, capsys, command, comments):
        code, out, err = run(capsys, *shlex.split(command)[1:])
        if comments and comments[0].startswith("exit 1: "):
            assert code == 1 and not out and err.startswith("error: ")
            return
        assert code == 0, err
        if command in self.PRINTED:
            assert out.rstrip("\n") == comments[0]
