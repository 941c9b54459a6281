"""Fast tests of the benchmark itself: every output check rejects a
corrupted output, and the harness counts such an op as failed.

A plain ``pytest`` run from the repository root collects this file, so
everything here runs small inputs only.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import json  # noqa: E402
import re  # noqa: E402
import zlib  # noqa: E402

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 3


def record_of(workload, op):
    return workload.record(op, workload.run(op))


def failed_ops(name, op, rec) -> int:
    """Failed ops the harness counts for ``rec`` seen in ROUNDS rounds."""
    res = {"reference": [rec], "same": [ROUNDS]}
    return run.count_wrong(checks.CHECKS[name], [op], res, [])


def bump_last_digit(text: str) -> str:
    m = list(re.finditer(r"\d", text))[-1]
    return text[: m.start()] + str((int(m.group()) + 1) % 10) + text[m.end():]


def bump_coeff(d):
    lo, coeffs = d
    return lo, (coeffs[0] + 1,) + coeffs[1:]


def test_verify_sweep_check():
    op = ("verify", 2, 1, ((0, 0), (1, 1), (-2, 1)))
    rec = record_of(workloads.VerifySweep, op)
    assert failed_ops("verify_sweep", op, rec) == 0
    n, k, _ = rec[3]
    flipped = rec[:3] + ((n, k, False),) + rec[4:]
    assert failed_ops("verify_sweep", op, flipped) == ROUNDS
    assert failed_ops("verify_sweep", op, rec[:-1]) == ROUNDS


@pytest.mark.parametrize("n, k", [(4, 2), (1, 2), (3, 2), (-3, 1)])
def test_cyclo_factor_check(n, k):
    op = ("factor", n, k)
    v, fac, measure = rec = record_of(workloads.CycloFactor, op)
    assert failed_ops("cyclo_factor", op, rec) == 0
    assert failed_ops("cyclo_factor", op, (bump_coeff(v), fac, measure)) == ROUNDS
    if fac is None:
        assert failed_ops("cyclo_factor", op, (v, fac, 1.0)) == ROUNDS
        assert failed_ops("cyclo_factor", op, (v, (v[0], 1, ((2, 1),)), measure)) == ROUNDS
    else:
        shift, sign, factors = fac
        assert failed_ops("cyclo_factor", op, (v, None, measure)) == ROUNDS
        assert failed_ops("cyclo_factor", op, (v, (shift, sign, factors[1:]), measure)) == ROUNDS
        assert failed_ops("cyclo_factor", op, (v, fac, measure + 1e-6)) == ROUNDS


def test_big_poly_member_check():
    op = ("member", 4, 2)
    family, m, v, passes, text = rec = record_of(workloads.BigPoly, op)
    assert failed_ops("big_poly", op, rec) == 0
    assert failed_ops("big_poly", op, ("n=k", m, v, passes, text)) == ROUNDS
    assert failed_ops("big_poly", op, (family, m, bump_coeff(v), passes, text)) == ROUNDS
    assert failed_ops("big_poly", op, (family, m, v, False, text)) == ROUNDS
    obj = json.loads(zlib.decompress(text))
    obj["terms"][0][1] = "2"
    bad = zlib.compress(json.dumps(obj).encode())
    assert failed_ops("big_poly", op, (family, m, v, passes, bad)) == ROUNDS


def test_big_poly_mersenne_check():
    op = ("mersenne", 5)
    p, order, k, knots = rec = record_of(workloads.BigPoly, op)
    assert failed_ops("big_poly", op, rec) == 0
    assert failed_ops("big_poly", op, (p, order, k + 1, knots)) == ROUNDS
    assert failed_ops("big_poly", op, (p, order + 2, k, knots)) == ROUNDS


CLI_ARGVS = [
    ["jones", "-n", "3", "-k", "2"],
    ["jones", "-n", "2", "-k", "1"],
    ["jones", "-n", "-4", "-k", "0", "--variable", "A"],
    ["jones", "-n", "5", "-k", "3", "--format", "json"],
    ["jones", "-n", "-2", "-k", "2", "--variable", "A", "--format", "json"],
    ["writhe", "-n", "2", "-k", "3"],
    ["writhe", "-n", "-2", "-k", "1", "--format", "json"],
    ["phi", "10", "--sym"],
    ["phi", "12"],
    ["phi", "15", "--format", "json"],
    ["phitilde", "-m", "15"],
    ["phitilde", "-m", "9", "--format", "json"],
    ["classify", "--k-max", "2", "--n", "-1..3"],
    ["table", "--k-max", "2"],
    ["obstruct", "--max", "60"],
    ["obstruct", "--max", "120", "--format", "json"],
    ["mersenne", "-p", "3"],
    ["verify", "--n", "-2..2", "--k", "0..1"],
]


@pytest.mark.parametrize("argv", CLI_ARGVS, ids=lambda a: " ".join(a))
def test_cli_catalog_check(argv):
    op = ("cli", tuple(argv))
    out = record_of(workloads.CliCatalog, op)
    assert failed_ops("cli_catalog", op, out) == 0
    assert failed_ops("cli_catalog", op, bump_last_digit(out)) == ROUNDS
    assert failed_ops("cli_catalog", op, "") == ROUNDS


def test_obstruct_rule_matches_the_paper():
    assert checks.open_orders(60) == [18, 26, 35, 40, 45, 46, 50, 54, 55, 56, 60]


class _Stub:
    """Op 0 returns a fresh value each call, op 1 raises, op 2 is steady."""

    name = "stub"
    calls = 0

    @classmethod
    def run(cls, op):
        cls.calls += 1
        if op == 1:
            raise RuntimeError("exit code 1")
        return cls.calls if op == 0 else "steady"

    @staticmethod
    def record(op, out):
        return out


def test_harness_counts_raised_and_changed_ops():
    res = run.run_rounds(_Stub, [0, 1, 2], 0.02, caches=[])
    rounds = res["rounds"]
    assert rounds >= 2
    assert res["raised"] == rounds
    assert res["mismatched"] == rounds - 1
    assert res["same"] == [1, 0, rounds]
    assert len(res["latencies"]) == 3 * rounds


def test_tracer_counts_and_restores():
    from cyclojones.laurent import LaurentPoly
    from cyclojones import bracket

    add, levels = LaurentPoly.__add__, bracket.bracket_levels
    caches = tracing.library_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for cache in caches:
            cache.cache_clear()
        workloads.VerifySweep.run(("verify", 2, 1, ()))
        workloads.CycloFactor.run(("factor", 4, 2))
        tracer.before_cache_clear()
    finally:
        tracer.uninstall()
    assert LaurentPoly.__add__ is add and bracket.bracket_levels is levels
    metrics = tracer.metrics(1)
    assert set(tracing.COUNTS + tracing.SELF_TIMES) <= set(metrics)
    assert metrics["bracket.s_sum_calls"] > 0 and metrics["bracket.level_cells"] > 0
    assert metrics["cyclotomic.useful_divisions"] == 1  # V_W(4,2) = Phi_34, shifted
    assert metrics["cyclotomic.trial_divisions"] > metrics["cyclotomic.useful_divisions"]
    assert metrics["cyclotomic.phi_misses"] > 0 and metrics["cyclotomic.factorint_calls"] > 0
