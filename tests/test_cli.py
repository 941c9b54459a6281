import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cyclojones.bracket
import cyclojones.wnk
from cyclojones.cli import entry, main
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
        true_row = cyclojones.bracket._packed_row

        def flipped(k, n_lo, n_hi):
            for n, (top, shift, packed) in enumerate(true_row(k, n_lo, n_hi), n_lo):
                if (n, k) in ((2, 0), (0, 1)):
                    e, c = cyclojones.wnk._numerator(n, k)[0][0]
                    packed -= 2 * c << 32 * (top - e)  # flip N's lowest term
                yield top, shift, packed

        monkeypatch.setattr(cyclojones.bracket, "_packed_row", flipped)

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

    @pytest.mark.parametrize(
        "name, planted",
        [
            ("d_exponents", lambda true: lambda n, k: (*true(n, k)[:3], k * (n + 3) + 2, *true(n, k)[4:])),
            ("_N_SIGNS", lambda true: (true[1], true[0], *true[2:])),
            ("_shift", lambda true: lambda n, k: true(n, k) + n * k * (k - 1) // 2),
            ("d_exponents", lambda true: lambda n, k: (true(n, k)[0] + k * k, *true(n, k)[1:])),
        ],
        ids=["e3 + 1", "signs swapped", "shift + nk(k-1)/2", "e0 + k^2"],
    )
    def test_planted_proof_fault_exits_2(self, capsys, monkeypatch, name, planted):
        # the closed form's theorems, proved once per call on the grid n, k in {0, 1, 2}
        monkeypatch.setattr(cyclojones.wnk, name, planted(getattr(cyclojones.wnk, name)))
        code, out, err = run(capsys, "verify")
        assert code == 2 and not out
        assert "numerator" in err

    def test_writhe_fault_exits_2(self, capsys, monkeypatch):
        true_writhe = cyclojones.bracket.writhe_wnk

        def planted(n, k):
            return true_writhe(n, k) + ((n, k) == (1, 1))

        monkeypatch.setattr(cyclojones.bracket, "writhe_wnk", planted)
        code, _, err = run(capsys, "verify", "--n", "0..2", "--k", "0..1")
        assert code == 2
        assert "not divisible by 4" in err

    def test_odd_bracket_exponent_exits_2(self, capsys, monkeypatch):
        # the level-0 cell of <W(1,0)> moved by A^1, out of its class mod 4
        true_base = cyclojones.bracket._base_cell

        def planted(n):
            lo, coeffs = true_base(n)
            return (lo + 1, coeffs) if n == 1 else (lo, coeffs)

        monkeypatch.setattr(cyclojones.bracket, "_base_cell", planted)
        code, _, err = run(capsys, "verify", "--n", "0..2", "--k", "0..1")
        assert code == 2
        assert "differ mod 4" in err

    def test_broken_numerator_identity_exits_2(self, capsys, monkeypatch):
        # N = t - t^3 at W(0,0), under t^0: V = t has V'(1) = 1
        monkeypatch.setattr(cyclojones.wnk, "d_exponents", lambda n, k: (1, 3, 0, 0, 0, 0))
        code, _, err = run(capsys, "verify", "--n", "0..2", "--k", "0..1")
        assert code == 2
        assert "numerator" in err

    def test_wrong_torus_term_exits_2(self, capsys, monkeypatch):
        # T(n', n'+1)'s top term t^(2n'+1) moved to t^(2n'+2): N(-1) = 2, a remainder
        true_numerator = cyclojones.bracket._torus_numerator

        def planted(p, q):
            *rest, (e, c) = true_numerator(p, q)
            return [*rest, (e + 1, c)]

        monkeypatch.setattr(cyclojones.bracket, "_torus_numerator", planted)
        code, _, err = run(capsys, "verify", "--n", "0..2", "--k", "0..1")
        assert code == 2
        assert "closed-form numerator not divisible by 1 - t^2" in err

    def test_digit_past_the_guard_exits_2(self, capsys, monkeypatch):
        # a coefficient of 8 in the level-0 cell of <W(1,0)>
        true_base = cyclojones.bracket._base_cell

        def planted(n):
            lo, x = true_base(n)
            return (lo, x + 8) if n == 1 else (lo, x)

        monkeypatch.setattr(cyclojones.bracket, "_base_cell", planted)
        code, _, err = run(capsys, "verify", "--n", "0..2", "--k", "0..1")
        assert code == 2
        assert "outside [-8, 8)" in err

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
        code, out, _ = run(capsys, "classify", "--k-max", "3", "--format", "json")
        assert code == 0
        assert [(r["n"], r["k"]) for r in json.loads(out)] == [
            (n, k) for k in range(1, 4) for n in cyclojones.wnk.quadruplet(k)
        ]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--k-max", "1", "--n", "0..4", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        families = {r["n"]: r["family"] for r in rows}
        assert families[4] == "not_symmetric"
        assert families[2] == "n=2k"


class TestClassifyBudget:
    """The request is counted, k_max times the members per column, before any is classified.

    Each member is one O(1) proof, and a request of more than MAX_TERMS =
    2^20 members is refused: k_max = 262,144 default columns of four
    members is within the budget and 262,145 is over it.  The count never
    takes len() of the n range, which overflows past 2^63.
    """

    class Reached(Exception):
        pass

    @pytest.fixture(autouse=True)
    def patch_classify(self, monkeypatch):
        def reached(n, k):
            raise self.Reached

        monkeypatch.setattr(cyclojones.wnk, "classify_symmetry", reached)

    @pytest.mark.parametrize("k_max", [1000, 262143, 262144])
    def test_within_budget_reaches_classify(self, k_max):
        with pytest.raises(self.Reached):
            main(["classify", "--k-max", str(k_max)])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--k-max", "262145"],
            ["--k-max", str(10**18)],
            ["--k-max", "1", "--n", "0..1000000000"],
            ["--k-max", "1", "--n", f"0..{10**20}"],
        ],
        ids=" ".join,
    )
    def test_over_budget_exits_1_before_classifying(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", *argv)
        assert time.perf_counter() - start < 0.1
        assert code == 1 and not out
        assert err.startswith("error: ") and "budget" in err


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

    @pytest.mark.parametrize("p, order", [(31, 2147483647), (61, 2305843009213693951)])
    def test_past_the_term_budget(self, capsys, p, order):
        # V has 2^p - 1 terms; the proof on N's six terms needs no budget
        code, out, _ = run(capsys, "mersenne", "-p", str(p), "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["N"] == order == 2**p - 1
        assert obj["polynomial_name"] == f"Phi_sym_{2 * order}"

    @pytest.mark.parametrize("p", [89, 10**12 + 1])
    def test_past_isprime_exits_1_at_once(self, capsys, monkeypatch, p):
        def refuse(n, k):
            raise AssertionError(f"_numerator({n}, {k}) was called")

        monkeypatch.setattr(cyclojones.wnk, "_numerator", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, "mersenne", "-p", str(p))
        assert time.perf_counter() - start < 0.5
        assert code == 1 and not out
        assert err.startswith(f"error: p={p}: 2^{p} - 1 is over isprime's proved limit")

    def test_planted_coefficient_exits_2(self, capsys, monkeypatch):
        true_numerator = cyclojones.wnk._numerator

        def flipped(n, k):
            terms, shift = true_numerator(n, k)
            e, c = terms[0]
            terms[0] = e, -c
            return terms, shift

        monkeypatch.setattr(cyclojones.wnk, "_numerator", flipped)
        code, out, err = run(capsys, "mersenne", "-p", "5")
        assert code == 2 and not out
        assert "W(6,3)" in err

    def test_planted_fault_at_the_second_witness_exits_2(self, capsys, monkeypatch):
        true_numerator = cyclojones.wnk._numerator

        def flipped(n, k):
            terms, shift = true_numerator(n, k)
            if (n, k) == (7, 3):
                e, c = terms[0]
                terms[0] = e, -c
            return terms, shift

        monkeypatch.setattr(cyclojones.wnk, "_numerator", flipped)
        code, out, err = run(capsys, "mersenne", "-p", "5")
        assert code == 2 and not out
        assert "W(7,3)" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "mersenne", "-p", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["N"] == 7 and obj["knots"] == [[2, 1], [3, 1]]


COMMANDS = ["jones", "verify", "classify", "table", "phi", "phitilde", "obstruct", "writhe", "mersenne"]


class TestUsage:
    # argv, exit code, and for exit 1 a text the error must name
    CONTRACT = [
        (["frobnicate"], 1, "frobnicate"),
        (["jones", "-n", "1", "-k", "1", "--bogus"], 1, "--bogus"),
        (["jones", "-n", "1"], 1, "-k"),
        (["phi"], 1, "INDEX"),
        (["jones", "-n", "x", "-k", "1"], 1, "'x'"),
        (["jones", "-n", "1", "-k", "1", "--format", "xml"], 1, "'xml'"),
        (["writhe", "-n", "1", "-k", "1", "extra"], 1, "extra"),
        ([], 1, "COMMAND"),
        # exact option names, no abbreviations: --k is not --k-max
        (["classify", "--k", "3"], 1, "--k"),
        # --help is the only help option
        (["-h"], 1, ""),
        (["verify", "-h"], 1, "-h"),
        (["--help"], 0, None),
        *[([command, "--help"], 0, None) for command in COMMANDS],
        # values led by "-": negative numbers, and ranges in either form
        (["verify", "--n", "-2..2"], 0, None),
        (["verify", "--n=-2..2"], 0, None),
        (["classify", "--n", "-2..6"], 0, None),
        (["jones", "-n", "-4", "-k", "2"], 0, None),
        (["jones", "-n1", "-k1"], 0, None),
        # a malformed or empty range, and an even Mersenne exponent
        (["verify", "--n", "x..3"], 1, "range bounds must be integers, got 'x..3'"),
        (["verify", "--n", "5..3"], 1, "empty range '5..3'"),
        (["mersenne", "-p", "4"], 1, "p must be an odd prime exponent > 2"),
    ]

    @pytest.mark.parametrize(
        "argv, code, named", CONTRACT, ids=[" ".join(argv) or "(none)" for argv, _, _ in CONTRACT]
    )
    def test_contract(self, capsys, argv, code, named):
        got, out, err = run(capsys, *argv)  # --help returns; a SystemExit would fail here
        assert got == code
        if code == 1:
            assert not out and err.startswith("error: ") and named in err
        else:
            assert out and not err
            if "--help" in argv:
                assert out.startswith("usage: cyclojones")

    @pytest.mark.parametrize("argv, code", [(["--n", "-2..2", "--k", "0..1"], 0), (["--n", "x"], 1)])
    def test_entry_reads_sys_argv(self, capsys, monkeypatch, argv, code):
        monkeypatch.setattr(sys, "argv", ["cyclojones", "verify", *argv])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code
        assert capsys.readouterr().out == ("OK 10/10\n" if code == 0 else "")

    def test_module_runs_entry(self):
        # python -m cyclojones.cli runs entry() under __main__
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "cyclojones.cli", "verify"], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout) == (0, "OK 90/90\n"), proc.stderr

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
            ["verify", "--n", "0..0", "--k", "0..100000000"],
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
            ["mersenne", "-p", "67"],
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
        "cyclojones mersenne -p 61",
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
