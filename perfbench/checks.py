"""Output checks, run after the timed phase.

Every check compares an op's recorded output with a computation made
apart from the library (in sympy, or in plain integer code here) or with
a property the method must have.  None compares with a stored copy of an
earlier output.  A check raises ``CheckError`` with the reason; the
harness counts the op as failed.

The formulas used, all from the paper:

* closed form   V_{W(n,k)} = t^(n(n-1)/2 + k(k-1) - 2nk) * D(t) / (t^2 - 1);
* torus knots   V_{T(p,q)} = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2),
  with W(n,0) = T(n', n'+1), n' = n for n >= 0 and -1-n for n < 0;
* symmetric families: V = the symmetric polynomial with m alternating
  coefficients +1, -1, ..., +1, where m = f(k) for n = k-1, f(k+1) for
  n = k and g(k+1) for n = 2k, 2k+1 (f(k) = k^2+k-1, g(k) = 2k^2-1);
  that polynomial is the product of Phi^sym_{2d} over d | m, d > 1;
* writhe        w = n^2 + n + 2k^2 + k - 2nk, and the bracket is
  <W(n,k)> = (-A^3)^w V(A^-4).
"""

from __future__ import annotations

import json
import math
import re
import zlib
from functools import lru_cache

import sympy

T = sympy.Symbol("t")
MAHLER_TOL = 1e-9  # |M - 1| allowed for a cyclotomic V (drift is ~1e-12 at degree 576)


class CheckError(Exception):
    """An op's output is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- reference computations --------------------------------------------------

Dense = tuple  # (lowest exponent, ascending coefficient tuple)


def normalize(terms: dict[int, int]) -> Dense:
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return 0, ()
    lo, hi = min(terms), max(terms)
    return lo, tuple(terms.get(e, 0) for e in range(lo, hi + 1))


def to_terms(d: Dense) -> dict[int, int]:
    lo, coeffs = d
    return {lo + i: c for i, c in enumerate(coeffs) if c}


def from_sympy(expr) -> Dense:
    """Terms of a Laurent polynomial given as a sympy expression in t."""
    expr = sympy.expand(expr)
    terms: dict[int, int] = {}
    for term in sympy.Add.make_args(expr):
        c, e = term.as_coeff_exponent(T)
        require(c.is_Integer and e.is_Integer, f"non-integer term {term}")
        terms[int(e)] = terms.get(int(e), 0) + int(c)
    return normalize(terms)


def f(k: int) -> int:
    return k * k + k - 1


def g(k: int) -> int:
    return 2 * k * k - 1


def family_index(n: int, k: int):
    """(family label, m) of a symmetric member, or ("not_symmetric", None)."""
    if k >= 1:
        if n == k - 1:
            return "n=k-1", f(k)
        if n == k:
            return "n=k", f(k + 1)
        if n == 2 * k:
            return "n=2k", g(k + 1)
        if n == 2 * k + 1:
            return "n=2k+1", g(k + 1)
    return "not_symmetric", None


def alternating(m: int) -> Dense:
    """The symmetric polynomial with m alternating coefficients +1, -1, ..., +1."""
    return -(m - 1) // 2, tuple(1 if i % 2 == 0 else -1 for i in range(m))


@lru_cache(maxsize=None)
def closed_form(n: int, k: int) -> Dense:
    """V_{W(n,k)} from the paper's closed form, divided out in sympy."""
    # D(t) has negative exponents for n < 0; multiply through by t^s first.
    exps = [((k + 2) * n + 1, -1), ((k + 1) * (n + 1) + k + 1, 1),
            ((k + 1) * (n + 1), 1), (k * (n + 3) + 1, -1), (1, 1), (0, -1)]
    s = -min(e for e, _ in exps)
    num = sympy.Poly(sum(c * T ** (e + s) for e, c in exps), T)
    quo, rem = sympy.div(num, sympy.Poly(T**2 - 1, T))
    require(rem.is_zero, f"closed form of W({n},{k}) not divisible by t^2 - 1")
    pref = n * (n - 1) // 2 + k * (k - 1) - 2 * n * k - s
    coeffs = quo.all_coeffs()[::-1]
    return normalize({i + pref: int(c) for i, c in enumerate(coeffs)})


@lru_cache(maxsize=None)
def torus(p: int, q: int) -> Dense:
    if p == 0:
        return 0, (1,)
    num = sympy.Poly(1 - T ** (p + 1) - T ** (q + 1) + T ** (p + q), T)
    quo, rem = sympy.div(num, sympy.Poly(1 - T**2, T))
    require(rem.is_zero, f"torus formula T({p},{q}) not exact")
    shift = (p - 1) * (q - 1) // 2
    return normalize({i + shift: int(c) for i, c in enumerate(quo.all_coeffs()[::-1])})


def knot_conditions(d: Dense, label: str) -> None:
    """V(1) = 1 and V'(1) = 0, evaluated in sympy: V = t^lo P(t) with P a
    polynomial, so V(1) = P(1) and V'(1) = lo P(1) + P'(1)."""
    lo, coeffs = d
    poly = sympy.Poly(list(reversed(coeffs)), T)
    at_one = poly.eval(1)
    require(at_one == 1, f"{label}: V(1) != 1")
    require(lo * at_one + poly.diff(T).eval(1) == 0, f"{label}: V'(1) != 0")


def expected_jones(n: int, k: int) -> Dense:
    """Reference V: alternating form, torus formula, or the closed form."""
    _, m = family_index(n, k)
    if m is not None:
        return alternating(m)
    if k == 0:
        p = n if n >= 0 else -1 - n
        return torus(p, p + 1)
    return closed_form(n, k)


def writhe(n: int, k: int) -> int:
    return n * n + n + 2 * k * k + k - 2 * n * k


def bracket_from_jones(n: int, k: int, v: Dense) -> Dense:
    """<W(n,k)> = (-A^3)^w V(A^-4)."""
    w = writhe(n, k)
    sign = -1 if w % 2 else 1
    return normalize({3 * w - 4 * e: sign * c for e, c in to_terms(v).items()})


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def excluded(order: int) -> bool:
    """Orders p^a, 3p^a, 4p^a and 6p^a (p != 3), a >= 0."""
    for base, forbid_three in ((1, False), (3, False), (4, False), (6, True)):
        if order % base:
            continue
        primes = prime_factors(order // base)
        if not primes or (len(primes) == 1 and not (forbid_three and primes[0] == 3)):
            return True
    return False


def realized(bound: int) -> list[int]:
    out = set()
    k = 2
    while 2 * f(k) <= bound:
        out.update(o for o in (2 * f(k), 2 * g(k)) if o <= bound)
        k += 1
    return sorted(out)


def open_orders(bound: int) -> list[int]:
    done = set(realized(bound))
    return [n for n in range(2, bound + 1) if not excluded(n) and n not in done]


# -- text formats ------------------------------------------------------------

_TERM = re.compile(r"^(\d*)(?:([tA])(?:\^(-?\d+))?)?$")


def parse_text(text: str) -> tuple[str, Dense]:
    """Parse '[-]term (+|-) term ...' as printed by the CLI."""
    tokens = text.strip().replace(" + ", " +").replace(" - ", " -").split()
    require(bool(tokens), "empty polynomial text")
    terms: dict[int, int] = {}
    var = "t"
    for tok in tokens:
        sign = -1 if tok[0] == "-" else 1
        body = tok.lstrip("+-")
        m = _TERM.match(body)
        require(m is not None and body != "", f"bad term {tok!r}")
        coeff, v, exp = m.groups()
        require(bool(coeff) or bool(v), f"bad term {tok!r}")
        if v:
            var = v
        e = (int(exp) if exp else 1) if v else 0
        terms[e] = terms.get(e, 0) + sign * (int(coeff) if coeff else 1)
    return var, normalize(terms)


def parse_json_poly(obj) -> tuple[str, Dense]:
    require(isinstance(obj, dict) and set(obj) == {"variable", "terms"}, "bad JSON shape")
    exps = [int(e) for e, _ in obj["terms"]]
    require(exps == sorted(exps) and len(set(exps)) == len(exps), "JSON exponents not ascending")
    require(all(isinstance(c, str) and int(c) != 0 for _, c in obj["terms"]), "bad JSON coefficient")
    return obj["variable"], normalize({int(e): int(c) for e, c in obj["terms"]})


# -- per-workload checks -----------------------------------------------------


def check_verify_sweep(op, rec) -> None:
    _, a, k_max, sample = op
    cells = [(n, k) for k in range(k_max + 1) for n in range(-a, a + 1)]
    require(len(rec) == (2 * a + 1) * (k_max + 1), "wrong number of cells")
    require(sorted((n, k) for n, k, _ in rec) == sorted(cells), "wrong set of cells")
    require(all(ok for _, _, ok in rec), "a cell is not True")
    from cyclojones import wnk  # recomputed only for the sampled cells
    from workloads import dense

    for n in range(-a, a + 1):
        p = n if n >= 0 else -1 - n
        require(dense(wnk.jones_wnk(n, 0)) == torus(p, p + 1), f"W({n},0) != T({p},{p + 1})")
    symmetric = [(n, k) for n, k in cells if family_index(n, k)[1] is not None]
    for n, k in list(sample) + symmetric[-2:]:
        v = dense(wnk.jones_wnk(n, k))
        knot_conditions(v, f"W({n},{k})")
        require(v == expected_jones(n, k), f"V_W({n},{k}) differs from the reference")


def check_cyclo_factor(op, rec) -> None:
    _, n, k = op
    v, fac, measure = rec
    require(v == expected_jones(n, k), f"V_W({n},{k}) differs from the reference")
    lo, coeffs = v
    symmetric = lo == -(lo + len(coeffs) - 1) and coeffs == coeffs[::-1]
    require((fac is not None) == symmetric, "factorization found iff V symmetric fails")
    if fac is not None:
        shift, sign, factors = fac
        product = sympy.Poly(sign, T)
        for d, mult in factors:
            product *= sympy.Poly(sympy.cyclotomic_poly(d, T), T) ** mult
        require(normalize({shift + i: int(c) for i, c in enumerate(product.all_coeffs()[::-1])}) == v,
                "factorization does not multiply back to V")
        _, m = family_index(n, k)
        require(m is not None, "symmetric V off the four families")
        expected = tuple((2 * d, 1) for d in sympy.divisors(m) if d > 1)
        require(tuple(sorted(factors)) == expected, f"factors {factors} != Phi_2d for d | {m}")
        require(abs(measure - 1) <= MAHLER_TOL, f"Mahler measure {measure} of a cyclotomic V")
    else:
        require(measure > 1 + MAHLER_TOL, f"Mahler measure {measure} <= 1 for a non-cyclotomic V")


def check_big_poly(op, rec) -> None:
    if op[0] == "mersenne":
        p = op[1]
        exponent, order, k, knots = rec
        kk = 2 ** ((p - 1) // 2) - 1
        require(exponent == p and order == 2**p - 1, "wrong Mersenne order")
        require(k == kk and knots == ((2 * kk, kk), (2 * kk + 1, kk)), "wrong Mersenne witness")
        return
    _, n, k = op
    family, m, v, passes_all, text = rec
    require((family, m) == family_index(n, k), f"W({n},{k}) classified {family} m={m}")
    require(v == alternating(m), f"V_W({n},{k}) is not the alternating polynomial of {m}")
    require(passes_all, f"special values of W({n},{k}) fail")
    var, parsed = parse_json_poly(json.loads(zlib.decompress(text)))
    require(var == "t" and parsed == v, "JSON does not parse back to V")


def check_cli_catalog(op, out) -> None:
    argv = op[1]
    cmd, opts, i = argv[0], {}, 1
    while i < len(argv):
        if argv[i] == "--sym" or not argv[i][1:2].isalpha() and not argv[i].startswith("--"):
            i += 1  # a flag or the positional index, both read from argv below
        else:
            opts[argv[i]] = argv[i + 1]
            i += 2
    as_json = opts.get("--format") == "json"
    lines = out.splitlines()
    if cmd == "jones":
        n, k = int(opts["-n"]), int(opts["-k"])
        var, v = parse_json_poly(json.loads(out)) if as_json else parse_text(out)
        expected = expected_jones(n, k)
        want_var = opts.get("--variable", "t")
        if want_var == "A":
            expected = bracket_from_jones(n, k, expected)
        else:
            knot_conditions(v, f"W({n},{k})")
        require(var == want_var or (v == (0, (1,)) and not as_json), "wrong variable")
        require(v == expected, f"jones output for W({n},{k}) differs from the reference")
    elif cmd == "writhe":
        n, k = int(opts["-n"]), int(opts["-k"])
        bound = k * k + (n + k) ** 2 - 1 if n >= 0 and n + k > 0 else None
        if as_json:
            require(json.loads(out) == {"n": n, "k": k, "writhe": writhe(n, k),
                                        "crossing_bound": bound}, "wrong writhe JSON")
        else:
            want = f"writhe={writhe(n, k)}" + (f" crossing_bound={bound}" if bound is not None else "")
            require(lines == [want], f"writhe output {out!r} != {want!r}")
    elif cmd in ("phi", "phitilde"):
        if cmd == "phitilde":
            expected = alternating(int(opts["-m"]))
        else:
            index = int(argv[1])
            expected = from_sympy(sympy.cyclotomic_poly(index, T))
            if "--sym" in argv:
                expected = (expected[0] - int(sympy.totient(index)) // 2, expected[1])
        var, v = parse_json_poly(json.loads(out)) if as_json else parse_text(out)
        require(v == expected, f"{' '.join(argv)} differs from sympy")
    elif cmd == "classify":
        k_max = int(opts["--k-max"])
        lo, hi = (int(x) for x in opts["--n"].split(".."))
        want = []
        for k in range(1, k_max + 1):
            for n in range(lo, hi + 1):
                fam, m = family_index(n, k)
                src = None
                if m is not None:
                    src = f"f({k})" if fam == "n=k-1" else (f"f({k + 1})" if fam == "n=k" else f"g({k + 1})")
                want.append(f"W({n},{k}) {fam}" + (f" m={m} ({src})" if m is not None else ""))
        require(lines == want, "classify output differs")
    elif cmd == "table":
        want = [f"{'K':<10}{'V':<14}{'c<=':>5}"]
        for k in range(1, int(opts["--k-max"]) + 1):
            for n in (k - 1, k, 2 * k, 2 * k + 1):
                _, m = family_index(n, k)
                name = "1" if m == 1 else (f"Phi_sym_{2 * m}" if is_prime(m) else f"Phi_tilde_{2 * m}")
                want.append(f"{f'W({n},{k})':<10}{name:<14}{k * k + (n + k) ** 2 - 1:>5}")
        require(lines == want, "table output differs")
    elif cmd == "obstruct":
        bound = int(opts["--max"])
        if as_json:
            require(json.loads(out) == {"max": bound, "candidates": open_orders(bound),
                                        "realized": realized(bound)}, "obstruct JSON differs")
        else:
            require(lines == [" ".join(map(str, open_orders(bound)))], "obstruct list differs")
            if bound == 60:
                require(lines == ["18 26 35 40 45 46 50 54 55 56 60"], "obstruct --max 60 differs")
    elif cmd == "mersenne":
        p = int(opts["-p"])
        order, kk = 2**p - 1, 2 ** ((p - 1) // 2) - 1
        want = f"N={order} k={kk} knots W({2 * kk},{kk}) W({2 * kk + 1},{kk}) V=Phi_sym_{2 * order}"
        require(lines == [want], f"mersenne output {out!r}")
    elif cmd == "verify":
        ns = [int(x) for x in opts["--n"].split("..")]
        ks = [int(x) for x in opts["--k"].split("..")]
        total = (ns[1] - ns[0] + 1) * (ks[1] - ks[0] + 1)
        require(lines == [f"OK {total}/{total}"], f"verify output {out!r}")
    else:
        raise CheckError(f"no check for {cmd}")


CHECKS = {
    "verify_sweep": check_verify_sweep,
    "cyclo_factor": check_cyclo_factor,
    "big_poly": check_big_poly,
    "cli_catalog": check_cli_catalog,
}
