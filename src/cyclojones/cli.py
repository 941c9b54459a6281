"""Command-line front end.

Exit codes: 0 success, 1 usage or validation error, 2 internal
mathematical inconsistency (a proved identity failed to hold, which means
a bug, not bad input).  A usage error (an unknown command or option, a
missing or malformed value, an extra argument, no command at all) and a
value the library refuses are both reported as ``error: …`` on stderr with
exit 1.  ``--help``, at the top level or after a command, prints the help
on stdout and exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bracket, cyclotomic, obstructions, wnk
from .errors import CyclojonesError, InternalInconsistencyError
from .laurent import MAX_TERMS, poly_to_json, print_poly


class _Help(Exception):
    """--help was given and its text printed."""


class _Parser(argparse.ArgumentParser):
    """argparse with the CLI's contract: options match exactly, never by
    prefix, --help is the only help option and returns, and errors raise."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise ValueError(message)

    def exit(self, status=0, message=None):  # reached only from the --help action
        raise _Help


parser = _Parser(
    prog="cyclojones",
    description="Jones polynomials of the knot family W(n,k) and their cyclotomic structure.",
)
_commands = parser.add_subparsers(title="commands", dest="command", metavar="COMMAND",
                                  required=True)


def _option(*flags, **kwargs):
    return flags, kwargs


_FORMAT = _option("--format", dest="fmt", choices=["text", "json"], default="text",
                  help="Output format.")


def _command(name, *options):
    """Register the decorated function as subcommand ``name`` with ``options``."""
    def register(func):
        sub = _commands.add_parser(name, help=func.__doc__, description=func.__doc__)
        for flags, kwargs in (*options, _FORMAT):
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(func=func)
        return func
    return register


def _parse_range(text: str) -> range:
    """Parse "a..b" (inclusive) into a range."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like 'a..b', got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range bounds must be integers, got {text!r}")
    if lo_i > hi_i:
        raise ValueError(f"empty range {text!r}")
    return range(lo_i, hi_i + 1)


@_command(
    "jones",
    _option("-n", type=int, required=True, help="Kink arrow count (any integer)."),
    _option("-k", type=int, required=True, help="Strand count (>= 0)."),
    _option("--variable", choices=["t", "A"], default="t",
            help="t for the Jones polynomial, A for the Kauffman bracket."),
)
def cmd_jones(n, k, variable, fmt):
    """Print the Jones polynomial (or bracket) of W(n,k)."""
    v = wnk.jones_wnk(n, k)
    if variable == "A":
        v = bracket.jones_to_bracket(n, k, v)
    print(json.dumps(poly_to_json(v)) if fmt == "json" else print_poly(v))


@_command(
    "verify",
    _option("--n", dest="n_range", default="-6..8", metavar="A..B", help="n sweep as 'a..b'."),
    _option("--k", dest="k_range", default="0..5", metavar="A..B", help="k sweep as 'a..b'."),
)
def cmd_verify(n_range, k_range, fmt):
    """Cross-check the closed form against the bracket recursion."""
    ns = _parse_range(n_range)
    ks = _parse_range(k_range)
    results = bracket.verify_range(ns.start, ns.stop - 1, ks.start, ks.stop - 1)
    bad = [(n, k) for n, k, ok in results if not ok]  # in (k, n) order
    total = len(results)
    if fmt == "json":
        print(json.dumps({
            "total": total,
            "ok": total - len(bad),
            "mismatches": [{"n": n, "k": k} for n, k in bad],
        }))
    elif bad:
        for n, k in bad:
            print(f"MISMATCH n={n} k={k}")
        print(f"FAIL {total - len(bad)}/{total}")
    else:
        print(f"OK {total}/{total}")
    if bad:
        return 2


@_command(
    "classify",
    _option("--k-max", type=int, default=4, help="Classify for k = 1..k_max."),
    _option("--n", dest="n_range", default=None, metavar="A..B",
            help="n sweep as 'a..b' (default: the four symmetric columns)."),
)
def cmd_classify(k_max, n_range, fmt):
    """Symmetry classification of W(n,k)."""
    if k_max < 1:
        raise ValueError("k-max must be >= 1")
    ns = _parse_range(n_range) if n_range else None
    # the request budget, counted before any member's O(1) proof (len() overflows past 2^63)
    members = k_max * (ns.stop - ns.start if ns else 4)
    if members > MAX_TERMS:
        raise ValueError(f"{members} members to classify, over the budget of {MAX_TERMS}")

    def line(n, k, cls):  # a member's output row: rows are held as text, joined as json.dumps does
        if fmt == "json":
            return json.dumps({"n": n, "k": k, **cls.to_json()})
        extra = f" m={cls.m} ({cls.source})" if cls.symmetric else ""
        return f"W({n},{k}) {cls.family.value}{extra}"

    lines = [line(n, k, wnk.classify_symmetry(n, k))
             for k in range(1, k_max + 1) for n in (ns or wnk.quadruplet(k))]
    print(f"[{', '.join(lines)}]" if fmt == "json" else "\n".join(lines))


@_command(
    "table",
    _option("--k-max", type=int, default=4, help="Rows for k = 1..k_max."),
)
def cmd_table(k_max, fmt):
    """The quadruplet table of cyclotomic Jones polynomials."""
    rows = wnk.generate_table(k_max)
    if fmt == "json":
        print(json.dumps([row.to_json() for row in rows]))
        return
    print(f"{'K':<10}{'V':<14}{'c<=':>5}")
    for row in rows:
        n, k = row.params
        print(f"{f'W({n},{k})':<10}{row.polynomial_name:<14}{row.crossing_bound:>5}")


@_command(
    "phi",
    _option("index", type=int, metavar="INDEX"),
    _option("--sym", action="store_true", help="Symmetric Laurent form (index >= 3)."),
)
def cmd_phi(index, sym, fmt):
    """Print a cyclotomic polynomial."""
    p = cyclotomic.phi_sym(index) if sym else cyclotomic.phi(index)
    print(json.dumps(poly_to_json(p)) if fmt == "json" else print_poly(p))


@_command(
    "phitilde",
    _option("-m", type=int, required=True, help="Odd index; prints the product over divisors."),
)
def cmd_phitilde(m, fmt):
    """Print the alternating cyclotomic product of odd index m."""
    p = cyclotomic.phi_tilde(m)
    print(json.dumps(poly_to_json(p)) if fmt == "json" else print_poly(p))


@_command(
    "obstruct",
    _option("--max", dest="bound", type=int, default=60, help="Upper bound on the order."),
)
def cmd_obstruct(bound, fmt):
    """Orders of roots of unity not yet excluded or realized."""
    candidates = obstructions.open_question_candidates(bound)
    if fmt == "json":
        print(json.dumps({
            "max": bound,
            "candidates": candidates,
            "realized": obstructions.realized_orders(bound),
        }))
    else:
        print(" ".join(str(n) for n in candidates))


@_command(
    "writhe",
    _option("-n", type=int, required=True),
    _option("-k", type=int, required=True),
)
def cmd_writhe(n, k, fmt):
    """Writhe (and crossing bound where defined) of the W(n,k) diagram."""
    w = wnk.writhe_wnk(n, k)
    bound = wnk.crossing_bound(n, k) if (n >= 0 and n + k > 0) else None
    if fmt == "json":
        print(json.dumps({"n": n, "k": k, "writhe": w, "crossing_bound": bound}))
    else:
        msg = f"writhe={w}"
        if bound is not None:
            msg += f" crossing_bound={bound}"
        print(msg)


@_command(
    "mersenne",
    _option("-p", type=int, required=True, help="Odd prime exponent with 2^p - 1 prime."),
)
def cmd_mersenne(p, fmt):
    """Knots realizing Phi^sym_{2N} for the Mersenne prime N = 2^p - 1."""
    witness = wnk.mersenne_knot(p)
    (n1, k), (n2, _) = witness.knots
    if fmt == "json":
        print(json.dumps({
            "p": witness.exponent,
            "N": witness.order,
            "k": witness.k,
            "knots": [[n1, k], [n2, k]],
            "polynomial_name": f"Phi_sym_{2 * witness.order}",
        }))
    else:
        print(
            f"N={witness.order} k={witness.k} knots W({n1},{k}) W({n2},{k}) "
            f"V=Phi_sym_{2 * witness.order}"
        )


# options whose value may start with "-" without being a number ("--n -2..2"):
# main() passes them as "--n=-2..2", the only form argparse reads such values in
_RANGE_OPTIONS = ("--n", "--k")


def _joined(argv: list[str]) -> list[str]:
    """argv with each range option and its value joined by "="."""
    out, i = [], 0
    while i < len(argv):
        if argv[i] in _RANGE_OPTIONS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    """Run the CLI with the documented exit-code contract."""
    try:
        args = vars(parser.parse_args(_joined(sys.argv[1:] if argv is None else argv)))
        del args["command"]
        rv = args.pop("func")(**args)
    except _Help:
        return 0
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except (CyclojonesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return int(rv) if isinstance(rv, int) else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
