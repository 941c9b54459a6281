"""Command-line front end.

Exit codes: 0 success, 1 usage or validation error, 2 internal
mathematical inconsistency (a proved identity failed to hold, which means
a bug, not bad input).
"""

from __future__ import annotations

import json
import sys

import click

from . import bracket, cyclotomic, obstructions, wnk
from .errors import CyclojonesError, InternalInconsistencyError
from .laurent import poly_to_json, print_poly


def _parse_range(text: str) -> range:
    """Parse "a..b" (inclusive) into a range."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise click.UsageError(f"range must look like 'a..b', got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise click.UsageError(f"range bounds must be integers, got {text!r}")
    if lo_i > hi_i:
        raise click.UsageError(f"empty range {text!r}")
    return range(lo_i, hi_i + 1)


format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text",
    help="Output format.",
)


@click.group()
def cli():
    """Jones polynomials of the knot family W(n,k) and their cyclotomic structure."""


@cli.command("jones")
@click.option("-n", type=int, required=True, help="Kink arrow count (any integer).")
@click.option("-k", type=int, required=True, help="Strand count (>= 0).")
@click.option("--variable", type=click.Choice(["t", "A"]), default="t",
              help="t for the Jones polynomial, A for the Kauffman bracket.")
@format_option
def cmd_jones(n, k, variable, fmt):
    """Print the Jones polynomial (or bracket) of W(n,k)."""
    if k < 0:
        raise click.UsageError("k must be >= 0")
    v = wnk.jones_wnk(n, k)
    if variable == "A":
        v = bracket.jones_to_bracket(n, k, v)
    if fmt == "json":
        click.echo(json.dumps(poly_to_json(v)))
    else:
        click.echo(print_poly(v))


@cli.command("verify")
@click.option("--n", "n_range", default="-6..8", help="n sweep as 'a..b'.")
@click.option("--k", "k_range", default="0..5", help="k sweep as 'a..b'.")
@format_option
def cmd_verify(n_range, k_range, fmt):
    """Cross-check the closed form against the bracket recursion."""
    ns = _parse_range(n_range)
    ks = _parse_range(k_range)
    if ks.start < 0:
        raise click.UsageError("k range must be nonnegative")
    results = bracket.verify_range(ns.start, ns.stop - 1, ks.start, ks.stop - 1)
    bad = [(n, k) for n, k, ok in sorted(results, key=lambda r: (r[1], r[0])) if not ok]
    total = len(results)
    if fmt == "json":
        click.echo(json.dumps({
            "total": total,
            "ok": total - len(bad),
            "mismatches": [{"n": n, "k": k} for n, k in bad],
        }))
    elif bad:
        for n, k in bad:
            click.echo(f"MISMATCH n={n} k={k}")
        click.echo(f"FAIL {total - len(bad)}/{total}")
    else:
        click.echo(f"OK {total}/{total}")
    if bad:
        return 2


@cli.command("classify")
@click.option("--k-max", type=int, default=4, help="Classify for k = 1..k_max.")
@click.option("--n", "n_range", default=None, help="n sweep as 'a..b' (default: the four symmetric columns).")
@format_option
def cmd_classify(k_max, n_range, fmt):
    """Symmetry classification of W(n,k)."""
    if k_max < 1:
        raise click.UsageError("k-max must be >= 1")
    rows = []
    for k in range(1, k_max + 1):
        ns = _parse_range(n_range) if n_range else (k - 1, k, 2 * k, 2 * k + 1)
        for n in ns:
            cls = wnk.classify_symmetry(n, k)
            rows.append((n, k, cls))
    if fmt == "json":
        click.echo(json.dumps([
            {"n": n, "k": k, **cls.to_json()} for n, k, cls in rows
        ]))
    else:
        for n, k, cls in rows:
            extra = f" m={cls.m} ({cls.source})" if cls.symmetric else ""
            click.echo(f"W({n},{k}) {cls.family.value}{extra}")


@cli.command("table")
@click.option("--k-max", type=int, default=4, help="Rows for k = 1..k_max.")
@format_option
def cmd_table(k_max, fmt):
    """The quadruplet table of cyclotomic Jones polynomials."""
    if k_max < 1:
        raise click.UsageError("k-max must be >= 1")
    rows = wnk.generate_table(k_max)
    if fmt == "json":
        click.echo(json.dumps([row.to_json() for row in rows]))
        return
    header = f"{'K':<10}{'V':<14}{'c<=':>5}"
    click.echo(header)
    for row in rows:
        n, k = row.params
        click.echo(f"{f'W({n},{k})':<10}{row.polynomial_name:<14}{row.crossing_bound:>5}")


@cli.command("phi")
@click.argument("index", type=int)
@click.option("--sym", is_flag=True, help="Symmetric Laurent form (index >= 3).")
@format_option
def cmd_phi(index, sym, fmt):
    """Print a cyclotomic polynomial."""
    if index < 1 or (sym and index < 3):
        raise click.UsageError("index must be >= 1 (>= 3 with --sym)")
    p = cyclotomic.phi_sym(index) if sym else cyclotomic.phi(index)
    click.echo(json.dumps(poly_to_json(p)) if fmt == "json" else print_poly(p))


@cli.command("phitilde")
@click.option("-m", type=int, required=True, help="Odd index; prints the product over divisors.")
@format_option
def cmd_phitilde(m, fmt):
    """Print the alternating cyclotomic product of odd index m."""
    if m < 1 or m % 2 == 0:
        raise click.UsageError("m must be odd and >= 1")
    p = cyclotomic.phi_tilde(m)
    click.echo(json.dumps(poly_to_json(p)) if fmt == "json" else print_poly(p))


@cli.command("obstruct")
@click.option("--max", "bound", type=int, default=60, help="Upper bound on the order.")
@format_option
def cmd_obstruct(bound, fmt):
    """Orders of roots of unity not yet excluded or realized."""
    if bound < 2:
        raise click.UsageError("max must be >= 2")
    candidates = obstructions.open_question_candidates(bound)
    if fmt == "json":
        click.echo(json.dumps({
            "max": bound,
            "candidates": candidates,
            "realized": obstructions.realized_orders(bound),
        }))
    else:
        click.echo(" ".join(str(n) for n in candidates))


@cli.command("writhe")
@click.option("-n", type=int, required=True)
@click.option("-k", type=int, required=True)
@format_option
def cmd_writhe(n, k, fmt):
    """Writhe (and crossing bound where defined) of the W(n,k) diagram."""
    if k < 0:
        raise click.UsageError("k must be >= 0")
    w = wnk.writhe_wnk(n, k)
    bound = wnk.crossing_bound(n, k) if (n >= 0 and n + k > 0) else None
    if fmt == "json":
        click.echo(json.dumps({"n": n, "k": k, "writhe": w, "crossing_bound": bound}))
    else:
        msg = f"writhe={w}"
        if bound is not None:
            msg += f" crossing_bound={bound}"
        click.echo(msg)


@cli.command("mersenne")
@click.option("-p", type=int, required=True, help="Odd prime exponent with 2^p - 1 prime.")
@format_option
def cmd_mersenne(p, fmt):
    """Knots realizing Phi^sym_{2N} for the Mersenne prime N = 2^p - 1."""
    try:
        witness = wnk.mersenne_knot(p)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    (n1, k), (n2, _) = witness.knots
    if fmt == "json":
        click.echo(json.dumps({
            "p": witness.exponent,
            "N": witness.order,
            "k": witness.k,
            "knots": [[n1, k], [n2, k]],
            "polynomial_name": f"Phi_sym_{2 * witness.order}",
        }))
    else:
        click.echo(
            f"N={witness.order} k={witness.k} knots W({n1},{k}) W({n2},{k}) "
            f"V=Phi_sym_{2 * witness.order}"
        )


def main(argv=None) -> int:
    """Run the CLI with the documented exit-code contract."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except InternalInconsistencyError as exc:
        click.echo(f"internal inconsistency: {exc}", err=True)
        return 2
    except (CyclojonesError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return int(rv) if isinstance(rv, int) else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
