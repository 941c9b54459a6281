"""The four workloads: how each makes its ops from a seed and runs one op.

A workload is a list of ops, a *round*, made once from the seed.  The
timed loop repeats whole rounds, so every run does the same work in the
same proportions however long it lasts.  Every round has 5 mod 10 ops
(15, 35, 45, 25): the median and the 90th percentile of the latencies of
R repeated rounds then fall in the middle of one op's R samples, not on
the boundary between two ops of different cost.  ``run`` is the timed
call into the library; ``record`` turns its output into a compact value
the checks read after the timed phase (full polynomials of a round would
otherwise dominate the peak memory the benchmark reports).
"""

from __future__ import annotations

import io
import json
import random
import sys
import zlib

from cyclojones import bracket, cli, cyclotomic, laurent, obstructions, wnk


def dense(p) -> tuple[int, tuple[int, ...]]:
    """(lowest exponent, ascending coefficients) of a nonzero LaurentPoly."""
    items = p.items()
    lo = items[0][0]
    coeffs = [0] * (items[-1][0] - lo + 1)
    for e, c in items:
        coeffs[e - lo] = c
    return lo, tuple(coeffs)


def symmetric_twins(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Two pairs of members with equal V: phi_tilde(f(k)) and phi_tilde(g(k+1)).

    V_W(k-1,k) = V_W(k-1,k-1) and V_W(2k,k) = V_W(2k+1,k), so a seed that
    picks one member of each pair changes the input, not the work.
    """
    return ((k - 1, k), (k - 1, k - 1)), ((2 * k, k), (2 * k + 1, k))


# -- verify_sweep ------------------------------------------------------------
#
# Each op cross-checks closed form and bracket recursion on the rectangle
# n in -a..a, k in 0..k_max.  Nearly all the time is the bracket recursion
# and LaurentPoly add/shift on small sparse A-polynomials; no cyclotomic
# work runs.  A round visits every (a, k_max) in 10..14 x 6..8 once, in an
# order the seed fixes, so every seed weighs the sizes alike; the seed
# also picks the cells whose V the checks recompute.


class VerifySweep:
    name = "verify_sweep"

    @staticmethod
    def make_ops(seed: int) -> list:
        rng = random.Random(seed)
        ops = []
        for a in range(10, 15):
            for k_max in range(6, 9):
                cells = [(n, k) for k in range(k_max + 1) for n in range(-a, a + 1)]
                ops.append(("verify", a, k_max, tuple(rng.sample(cells, 3))))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def run(op):
        _, a, k_max, _ = op
        return bracket.verify_range(-a, a, 0, k_max)

    @staticmethod
    def record(op, out):
        return tuple((n, k, bool(ok)) for n, k, ok in out)


# -- cyclo_factor ------------------------------------------------------------
#
# Each op computes V, factors it into cyclotomic polynomials and takes its
# Mahler measure: the trial-division loop (one factorint per candidate
# index, most divide_exact calls raising) and np.roots.  No bracket work.
# About half the ops are symmetric members (for k = 2..9 one member of
# each twin pair, so degree <= 198); the rest are other members, including
# n < 0, one per degree band of width 5 over 10..104.  Those are drawn once
# with a fixed seed, the same for every run: their cost depends on more
# than the degree (factors Phi_d that do divide shorten the search), so a
# pick by the run's seed would move the percentiles.  The run's seed picks
# the twins and the order.


def _nonsymmetric_members() -> list[tuple[int, int]]:
    bands: list[list[tuple[int, int]]] = [[] for _ in range(19)]
    for k in range(0, 12):
        for n in range(-25, 30):
            if k >= 1 and n in (k - 1, k, 2 * k, 2 * k + 1) or wnk.is_trivial_unknot(n, k):
                continue
            band = (wnk.jones_wnk(n, k).span() - 10) // 5
            if 0 <= band < 19:
                bands[band].append((n, k))
    fixed = random.Random(0)
    return [fixed.choice(members) for members in bands]


class CycloFactor:
    name = "cyclo_factor"

    @staticmethod
    def make_ops(seed: int) -> list:
        rng = random.Random(seed)
        ops = []
        for k in range(2, 10):
            for pair in symmetric_twins(k):
                ops.append(("factor", *rng.choice(pair)))
        ops += [("factor", n, k) for n, k in _nonsymmetric_members()]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def run(op):
        _, n, k = op
        v = wnk.jones_wnk(n, k)
        fac = cyclotomic.is_cyclotomic_product(v)
        return v, fac, cyclotomic.mahler_measure(v)

    @staticmethod
    def record(op, out):
        v, fac, measure = out
        fac_rec = None
        if fac is not None:
            fac_rec = (fac.monomial_shift, fac.sign, tuple(tuple(f) for f in fac.factors))
        return dense(v), fac_rec, float(measure)


# -- big_poly ----------------------------------------------------------------
#
# Each op takes one quadruplet member at even k in 30..68 and classifies it,
# computes V (up to ~10^4 terms), runs the special-value checks and writes
# its JSON.  This is the only workload on the large dense path: the
# schoolbook products inside phi_tilde, exact divisions that succeed on
# large operands, residue folds of a large V, and peak memory.  A round has
# one member of each twin pair for every such k (the seed picks which, and
# the order), plus mersenne_knot(13) three times and mersenne_knot(17) twice
# (V with 8191 and 131071 terms).


class BigPoly:
    name = "big_poly"

    @staticmethod
    def make_ops(seed: int) -> list:
        rng = random.Random(seed)
        ops = []
        for k in range(30, 70, 2):
            for pair in symmetric_twins(k):
                ops.append(("member", *rng.choice(pair)))
        ops += [("mersenne", 13)] * 3 + [("mersenne", 17)] * 2
        rng.shuffle(ops)
        return ops

    @staticmethod
    def run(op):
        if op[0] == "mersenne":
            return wnk.mersenne_knot(op[1])
        _, n, k = op
        cls = wnk.classify_symmetry(n, k)
        v = wnk.jones_wnk(n, k)
        report = obstructions.special_value_check(v)
        return cls, v, report, laurent.poly_to_json(v)

    @staticmethod
    def record(op, out):
        if op[0] == "mersenne":
            return (out.exponent, out.order, out.k, tuple(tuple(p) for p in out.knots))
        cls, v, report, obj = out
        # the JSON text compresses ~50x; kept so the checks can parse it back
        text = zlib.compress(json.dumps(obj).encode())
        return cls.family.value, cls.m, dense(v), bool(report.passes_all), text


# -- cli_catalog -------------------------------------------------------------
#
# Each op is one in-process cli.main(argv) call, over every subcommand at
# small sizes: fixed costs per call (click parsing, formatting, the
# obstructions module, cache hits).  The seed picks twins with equal V
# (V_W(n,0) = V_W(-1-n,0), V_W(-3,k) = V_W(-1,k+1), V_W(-2,k) = V_W(0,k+1)
# and the symmetric twins), primes of like size, writhe arguments, small
# bounds and the order: the cheap calls sit at the median, so their cost
# must not depend on the seed.  Output goes to one reused buffer per
# stream; a fresh StringIO per call leaves a wrapper per stream in click's
# stream cache, which grows memory by about 0.4 KB a call.

_STDOUT = io.StringIO()
_STDERR = io.StringIO()


class CliCatalog:
    name = "cli_catalog"

    @staticmethod
    def make_ops(seed: int) -> list:
        rng = random.Random(seed)

        def twin(*pair):
            return [str(x) for x in rng.choice(pair)]

        def writhe_args():  # the writhe costs the same for any (n, k)
            return ["-n", str(rng.randint(-6, 8)), "-k", str(rng.randint(0, 5))]

        def pick(*values):
            return str(rng.choice(values))

        def obstruct(base):
            # bases 200..500 spread the costs so that no gap sits at the 90th percentile
            return str(rng.randint(base, base + 20))

        lo = rng.randint(-3, 1)
        jones = [
            (twin((4, 0), (-5, 0)), []),
            (twin((-3, 2), (-1, 3)), ["--variable", "A"]),
            (twin((3, 4), (3, 3)), ["--format", "json"]),
            (twin((6, 3), (7, 3)), ["--variable", "A", "--format", "json"]),
            (twin((-2, 3), (0, 4)), []),
            (twin((6, 0), (-7, 0)), ["--format", "json"]),
        ]
        argvs = [["jones", "-n", n, "-k", k, *extra] for (n, k), extra in jones]
        argvs += [
            ["writhe", *writhe_args()],
            ["writhe", *writhe_args(), "--format", "json"],
            ["writhe", *writhe_args()],
            ["phi", pick(53, 59), "--sym"],
            ["phi", pick(43, 47)],
            ["phi", pick(37, 41), "--format", "json"],
            ["phitilde", "-m", pick(43, 47)],
            ["phitilde", "-m", pick(53, 59), "--format", "json"],
            ["classify", "--k-max", "2", "--n", f"{lo}..{lo + 4}"],
            ["table", "--k-max", "3"],
            ["obstruct", "--max", "60"],
            ["obstruct", "--max", obstruct(200)],
            ["obstruct", "--max", obstruct(400)],
            ["obstruct", "--max", obstruct(300), "--format", "json"],
            ["obstruct", "--max", obstruct(500), "--format", "json"],
            ["mersenne", "-p", "3"],
            ["mersenne", "-p", "5"],
            ["mersenne", "-p", "7"],
            ["verify", "--n", f"{lo}..{lo + 4}", "--k", "0..2"],
        ]
        rng.shuffle(argvs)
        return [("cli", tuple(argv)) for argv in argvs]

    @staticmethod
    def run(op):
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = _STDOUT, _STDERR
        try:
            code = cli.main(list(op[1]))
        finally:
            sys.stdout, sys.stderr = saved
        text = _STDOUT.getvalue()
        for buf in (_STDOUT, _STDERR):
            buf.seek(0)
            buf.truncate()
        if code != 0:
            raise RuntimeError(f"exit code {code} from {' '.join(op[1])}")
        return text

    @staticmethod
    def record(op, out):
        return out


WORKLOADS = {w.name: w for w in (VerifySweep, CycloFactor, BigPoly, CliCatalog)}
