"""Cyclotomic polynomials and cyclotomic-product detection.

Builds Phi_n, its symmetric recentering Phi^sym_n and the alternating
products Phi~_{2m} (m odd), reduces Laurent polynomials modulo Phi_n
(their exact values at primitive n-th roots of unity), and detects Laurent
polynomials that are a monomial times a product of cyclotomic
polynomials.  The cyclotomic exponent sequence P = +-prod (1 - x^d)^e_d
decides that question and names the factors; exact division by those
factors alone confirms them, the largest index first.  The last decision
is kept, so factoring a polynomial and then measuring it decide once.
The decision costs its stride passes, one
over the series per unit of |e_d|, and refuses past MAX_DECISION_WORK
entries passed.  The rest is O(sum of tau(d)) over the few d with
e_d != 0: the degree is sum d e_d, since sum_{n | d} phi(n) = d (Gauss),
and Phi_n's multiplicity is the sum of e_d over the multiples d of n,
named by walking each d's divisors.  The Mahler measure of a cyclotomic
product is exactly 1; other inputs are measured numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count, islice, repeat
from typing import Iterable, Optional

from .arith import SMALL_PRIMES, divisors, factorint
from .errors import InexactDivisionError, InternalInconsistencyError, NumericError
from .laurent import (
    MAX_TERMS,
    LaurentPoly,
    _dense,
    _fold,
    _from_dense,
    _long_division,
    _stride_div,
    _stride_mul,
)


@lru_cache(maxsize=None)
def euler_totient(n: int) -> int:
    """phi(n) via prime factorization."""
    if n < 1:
        raise ValueError("totient needs n >= 1")
    out = 1
    for p, e in factorint(n).items():
        out *= p ** (e - 1) * (p - 1)
    return out


@lru_cache(maxsize=None)
def phi(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial, exact, degree phi(n).

    Squarefree n > 1 is built by _stride_product as the Moebius product
    Phi_n = prod over d | n of (1 - x^d)^mu(n/d).  Non-squarefree n
    reduces to its radical via Phi_n(x) = Phi_rad(n)(x^(n/rad(n))).  An n
    whose Phi_n would have more than MAX_TERMS terms is refused before
    anything is built; as phi(n) >= sqrt(n/2), n > 2 * MAX_TERMS^2 is
    refused before factoring.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if n > 2 * MAX_TERMS**2 or euler_totient(n) > MAX_TERMS:
        raise ValueError(
            f"Phi_{n} has degree phi({n}) > {MAX_TERMS}, over the term budget"
        )
    if n == 1:
        return LaurentPoly({1: 1, 0: -1})
    primes = list(factorint(n))
    radical = math.prod(primes)
    if radical != n:
        return phi(radical).substitute_power(n // radical)
    return _from_dense(0, _stride_product(_moebius(n, primes)))


def _moebius(n: int, primes: Iterable[int]) -> list[tuple[int, int]]:
    """The (d, mu(n/d)) over the d | n with n/d squarefree; primes are n's.

    Phi_n = prod (1 - x^d)^mu(n/d) for n > 1, and Phi_1 = -(1 - x).
    """
    signed = [(n, 1)]
    for p in primes:
        signed += [(d // p, -mu) for d, mu in signed]
    return signed


def _net_exponents(factors: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The e_d with prod Phi_n^mult == +-prod (1 - x^d)^e_d over the (n, mult).

    The sign is - exactly when Phi_1's multiplicity is odd.
    """
    net: dict[int, int] = {}
    for n, mult in factors:
        for d, mu in _moebius(n, factorint(n)):
            net[d] = net.get(d, 0) + mu * mult
    return net


def _stride_product(exponents: Iterable[tuple[int, int]]) -> list[int]:
    """Ascending coefficients of the polynomial prod (1 - x^d)^e over the (d, e).

    Built on one dense list: the factors with e > 0 multiply it, then
    those with e < 0, largest d first, divide it exactly.  Each division
    checks its remainder (the top d entries of its running sum), so a
    product that is not a polynomial raises InexactDivisionError.
    """
    exponents = sorted(exponents)
    s = [1]
    for d, e in exponents:
        for _ in range(e):
            s.extend(repeat(0, d))
            _stride_mul(s, d)
    for d, e in reversed(exponents):
        for _ in range(-e):
            _stride_div(s, d)
    return s


def residue(p: LaurentPoly, n: int) -> tuple[int, ...]:
    """P modulo Phi_n: its exact value at a primitive n-th root of unity.

    Ascending coefficients, of length phi(n).  P is first folded modulo
    x^n - 1, which Phi_n divides, so negative exponents need no care.
    """
    phi(n)  # refuses n < 1, and a Phi_n over the budget before the fold allocates n entries
    return _fold_residue(_fold(p, n), n)


def _fold_residue(folded: list[int], n: int) -> tuple[int, ...]:
    """P modulo Phi_n from P's fold modulo x^m - 1, for any multiple m of n.

    x^n - 1 divides x^m - 1, so the fold reduces to one modulo x^n - 1 by
    summing every n-th entry; that one is divided by Phi_n.
    """
    den = _dense(phi(n))[1]
    return tuple(_long_division([sum(folded[r::n]) for r in range(n)], den)[1])


def phi_sym(n: int) -> LaurentPoly:
    """x^(-phi(n)/2) * Phi_n: the symmetric Laurent form, n >= 3."""
    if n < 3:
        raise ValueError("phi_sym needs n >= 3 so that phi(n) is even")
    return phi(n).shift(-euler_totient(n) // 2)


def _alternating(m: int) -> tuple[int, list[int]]:
    """Phi~_{2m} as (lowest exponent, coefficients): +1, -1, ..., +1 on -h..h, h = (m-1)/2."""
    h = (m - 1) // 2
    return -h, [1, -1] * h + [1]


@lru_cache(maxsize=None)
def phi_tilde(m: int) -> LaurentPoly:
    """Product of Phi^sym_{2d} over divisors d > 1 of odd m.

    Built as its symmetric list of m alternating coefficients +1, -1, ...,
    +1, which is checked on every cache miss against the product of the
    Phi_{2d} that _stride_product takes from their summed Moebius
    exponents, (1 - x)(1 - x^2m) / ((1 - x^2)(1 - x^m)) for m > 1: O(m),
    with no Phi_{2d} built.  A remainder or a mismatch would mean broken
    polynomial arithmetic.  It has m terms, so m > MAX_TERMS is refused
    before anything is built.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("phi_tilde is defined for odd m >= 1")
    if m > MAX_TERMS:
        raise ValueError(f"phi_tilde({m}) has {m} terms, over the budget of {MAX_TERMS} terms")
    net = _net_exponents((2 * d, 1) for d in divisors(m) if d > 1)
    lo, alternating = _alternating(m)
    try:
        product = _stride_product(net.items())
    except InexactDivisionError:
        product = None
    if product != alternating:
        raise InternalInconsistencyError(
            f"phi_tilde({m}): product and alternating forms disagree"
        )
    return _from_dense(lo, alternating)


@dataclass(frozen=True)
class CyclotomicFactorization:
    """P == sign * x^monomial_shift * prod Phi_d^mult over factors."""

    monomial_shift: int
    sign: int
    factors: tuple[tuple[int, int], ...]  # (index, multiplicity), ascending

    def reconstruct(self) -> LaurentPoly:
        """The product itself, by _stride_product on the factors' Moebius exponents.

        Phi_1 = -(1 - x), so each unit of its multiplicity flips the sign.
        """
        sign = self.sign * (-1) ** dict(self.factors).get(1, 0)
        coeffs = _stride_product(_net_exponents(self.factors).items())
        return _from_dense(self.monomial_shift, [sign * c for c in coeffs])

    def to_json(self) -> dict:
        return {
            "monomial_shift": self.monomial_shift,
            "sign": self.sign,
            "factors": [[d, m] for d, m in self.factors],
        }


def _index_bound(deg: int) -> int:
    """An L with n <= L for every n whose totient is at most deg.

    n = phi(n) * prod p/(p - 1) over the primes p dividing n, and
    prod (p - 1) divides phi(n).  Both factors are largest for the first
    primes, so L takes them while prod (p - 1) <= deg.  The primes below
    1000 suffice for any degree below 10^400.
    """
    primes_prod = 1
    totient_prod = 1
    for p in SMALL_PRIMES:
        if totient_prod * (p - 1) > deg:
            break
        primes_prod *= p
        totient_prod *= p - 1
    return deg * primes_prod // totient_prod


def _exponent_sequence(series: list[int], budget: int) -> Optional[dict[int, int]]:
    """The nonzero e_d, as {d: e_d}, with series == prod (1 - x^d)^e_d modulo x^len(series).

    series is ascending with constant term 1, and is overwritten.  Once
    the factors below d are divided out, e_d is minus the x^d coefficient;
    (1 - x^d)^e_d is then divided out too, one stride pass over the series
    per unit of |e_d|, so the cost is sum |e_d| * len(series) entries.
    Only the nonzero entries are visited, found at C speed.  Returns None
    as soon as sum |e_d| exceeds budget; raises ValueError before a pass
    that would take the entries passed over MAX_DECISION_WORK.
    """
    top = len(series)
    exps = {}
    used = 0
    # islice reads the list live, and the passes for d rewrite only the
    # entries from d on, none of which it has read past d: each entry is
    # read after every pass for the d below it (no pass changes the length)
    for d in compress(count(1), islice(series, 1, None)):
        e = -series[d]
        used += abs(e)
        if used > budget:
            return None
        if used * top > MAX_DECISION_WORK:
            raise ValueError(f"deciding a cyclotomic product takes at least {used} stride "
                             f"passes over {top} terms, over the work budget of "
                             f"{MAX_DECISION_WORK} terms passed")
        exps[d] = e
        for _ in range(e):
            _stride_div(series, d, exact=False)
        for _ in range(-e):
            _stride_mul(series, d)
    return exps


def _cyclotomic_multiplicities(p: LaurentPoly) -> Optional[list[tuple[int, int]]]:
    """The (n, m_n) with P == sign * x^a * prod Phi_n^m_n, n ascending, or None.

    Decided by the exponent sequence alone.  With P shifted to a
    polynomial of degree D and normalised to constant term 1, a product
    of Phi_n is exactly prod (1 - x^d)^e_d with m_n = sum of e_d over the
    multiples d of n, and each such n has phi(n) <= D, so n <= L =
    _index_bound(D).  The e_d are read from the power series of P modulo
    x^(L+1); sum |e_d| <= sum m_n 2^omega(n) <= 2D caps the work on other
    inputs.  The degree sum m_n phi(n) is sum e_d sum_{n | d} phi(n) =
    sum d e_d (Gauss), so it needs no totient; the m_n are named by
    walking the divisors of each d with e_d != 0, in O(#e_d * tau(d)),
    not once per n <= L.  If every m_n >= 0 and the degree is D, that
    product is a polynomial of degree D <= L agreeing with P/P(0) modulo
    x^(L+1), so the two are equal: a yes here is a theorem, not a guess.

    The cheap exits run on every call: the reflection test, the +-1 ends,
    and the refusal, with ValueError before P is made dense, of a series
    of over MAX_TERMS terms (past degree 189,294).  The rest is decided
    once per coefficient list: _decision keeps the last answer, keyed by
    P's coefficients without its shift, so is_cyclotomic_product(P) and
    then mahler_measure(P), or of x^a * P, share one decision.  A decision
    whose stride passes would pass over more than MAX_DECISION_WORK
    entries raises ValueError, and a refusal is never kept.
    """
    if p.palindromic_shift() is None and p.antipalindromic_shift() is None:
        return None  # Phi_1 is antipalindromic and every other Phi_n palindromic
    const = p.coeff(p.min_exp)
    if p.coeff(p.max_exp) not in (1, -1) or const not in (1, -1):
        return None
    deg = p.span()
    top = _index_bound(deg) + 1
    if top > MAX_TERMS:
        raise ValueError(f"deciding a cyclotomic product of degree {deg} takes a series "
                         f"of {top} terms, over the budget of {MAX_TERMS} terms")
    # a dense form's own coefficient tuple is the key, not a copy
    factors = _decision(p._cs or tuple(_dense(p)[1]), top)
    return None if factors is None else list(factors)


@lru_cache(maxsize=1)
def _decision(coeffs: tuple[int, ...], top: int) -> Optional[tuple[tuple[int, int], ...]]:
    """The (n, m_n) of _cyclotomic_multiplicities, or None, from P's ascending coefficients.

    top is the series length, _index_bound(D) + 1.  The answer is a
    tuple, so no caller can change the one kept.  The key tuple hashes at
    C speed, where a LaurentPoly's hash builds a dict and a frozenset.
    """
    deg = len(coeffs) - 1
    const = coeffs[0]
    series = [c * const for c in coeffs] + [0] * (top - deg - 1)
    exps = _exponent_sequence(series, 2 * deg)
    if exps is None or sum(d * e for d, e in exps.items()) != deg:
        return None
    factors = _divisor_sums(exps)
    return None if any(m < 0 for _, m in factors) else tuple(factors)


def _divisor_sums(exps: dict[int, int]) -> list[tuple[int, int]]:
    """The nonzero m_n = sum of e_d over the multiples d of n, as (n, m_n), n ascending.

    Each e_d is added to the divisors of its d: O(sum of tau(d)) over the keys.
    """
    mults: dict[int, int] = {}
    for d, e in exps.items():
        for n in divisors(d):
            mults[n] = mults.get(n, 0) + e
    return sorted((n, m) for n, m in mults.items() if m)


def is_cyclotomic_product(p: LaurentPoly) -> Optional[CyclotomicFactorization]:
    """Factor P as sign * x^a * prod Phi_n^mult, or return None.

    The exponent sequence decides and names the factors (see
    _cyclotomic_multiplicities, whose decision mahler_measure then reuses);
    exact division then confirms them.  Only the Phi_n it names are built,
    and each is divided out until it no longer divides, so every
    multiplicity returned is measured by exact division and the quotient
    left over must be exactly 1.  The largest index is divided out first:
    once the large factors are gone, a failing trial division usually
    meets a quotient of lower degree than its Phi_n and fails with no
    long-division step.  The factors are reported with n ascending.  An
    input whose exponent sequence is over the term or work budget is
    refused with ValueError.
    """
    if not p:
        raise ValueError("the zero polynomial is not a cyclotomic product")
    expected = _cyclotomic_multiplicities(p)
    if expected is None:
        return None
    shift = p.min_exp
    sign = p.coeff(p.max_exp)
    rem = p.scale(sign, -shift)
    factors = []
    for n, _ in reversed(expected):
        mult = 0
        while True:
            try:
                rem = rem.divide_exact(phi(n))
            except InexactDivisionError:
                break
            mult += 1
        factors.append((n, mult))
    factors.reverse()
    if factors != expected or rem != 1:
        raise InternalInconsistencyError(
            f"exponent sequence {expected} and exact division {factors} disagree"
        )
    return CyclotomicFactorization(shift, sign, tuple(factors))


# np.roots takes the eigenvalues of the companion matrix with LAPACK's
# dhseqr, which hands a matrix of order over NMIN = 75 to its multishift QR
# (dlaqr0), about three times slower per degree than the small-matrix QR
MAX_QR_DEGREE = 75
# the Aberth iteration's largest arrays are D x D and D x K complex, K < 2 D + 2:
# about 90 MB and under 1 s at this degree, where np.roots takes about 8 s
MAX_NUMERIC_DEGREE = 2000
# the exact decision's work budget, in series entries passed over: 2D stride
# passes over _index_bound(D) + 1 entries at D = MAX_NUMERIC_DEGREE, so no
# input that could be measured numerically is refused.  A seeded palindromic
# input of degree 5000 with coefficients in -3..3 reaches it in about 3.4 s
# (2 vCPUs, CPython 3.11), where its whole sequence would take about 25 s.
MAX_DECISION_WORK = 2 * MAX_NUMERIC_DEGREE * (_index_bound(MAX_NUMERIC_DEGREE) + 1)
_ABERTH_STEPS = 50
_EPS = 2.0**-52
# a_D prod (x - z_i) - P on the unit circle, in units of eps * ||a||_1:
# converged root sets of W(n,k) stay below about 120, clusters around a
# repeated root reach 10^14
_SET_TOL = 1e4


def _start_points(a):
    """Aberth's start points: on the circles of the Newton polygon of (j, log|a_j|).

    Each edge of the upper convex hull from j to j' gives j' - j points on
    the circle of radius (|a_j| / |a_j'|)^(1/(j' - j)), equally spaced and
    turned by 2 pi j / D + 0.7 so that no two circles line up (Bini 1996).
    The hull is walked one vertex at a time: from j, the next vertex is the
    farthest point of steepest slope.
    """
    import numpy as np

    deg = len(a) - 1
    xs = np.flatnonzero(a)
    ys = np.log(np.abs(a[xs]))
    vertices, slopes = [0], []
    i = 0
    while i < xs.size - 1:
        rise = (ys[i + 1 :] - ys[i]) / (xs[i + 1 :] - xs[i])
        i += rise.size - int(np.argmax(rise[::-1]))
        vertices.append(i)
        slopes.append(rise[i - vertices[-2] - 1])
    starts = xs[vertices]
    counts = np.diff(starts)
    first = np.repeat(starts[:-1], counts)
    turn = 2 * np.pi * ((np.arange(deg) - first) / np.repeat(counts, counts) + first / deg) + 0.7
    # radius exp(-slope) on each edge
    return np.exp(1j * turn - np.repeat(slopes, counts))


def _aberth_measure(coeffs: list[int]) -> Optional[float]:
    """The Mahler measure from the Aberth-Ehrlich iteration, or None if unchecked.

    coeffs ascending, degree D >= 1, nonzero ends.  Each step moves every
    unconverged root estimate z_i by w_i = N_i / (1 - N_i sum_{j != i}
    1/(z_i - z_j)), N_i = p(z_i)/p'(z_i) (Aberth 1973): O(D^2) per step.
    An estimate with |z| > 1 is evaluated on the reversed polynomial at
    1/z, so no power of z overflows.  Once |p(z)| <= 2 (D + 1) eps
    sum |a_j| |z|^j, which rounding alone can reach, it takes one more
    step and is frozen.  That
    test is per root and passes on a cluster of wrong estimates around a
    repeated root, so the whole set is checked at the end: a_D prod
    (x - z_i) must equal P within _SET_TOL eps ||a||_1 at K >= D + 1
    points x on the unit circle, which fixes all D + 1 coefficients.
    None after _ABERTH_STEPS steps, or when the check fails.
    """
    import numpy as np

    deg = len(coeffs) - 1
    a = np.array(coeffs, dtype=float)
    rev = a[::-1]
    weights = np.arange(1, deg + 1)
    # p, its reverse and their derivatives, cut into nb rows of b
    # coefficients: sum_j c_j u^j = sum_i u^(b i) (row i at u), with no
    # power of u above b nb and no (D + 1) x D array of powers
    b = math.isqrt(deg) + 1
    nb = -(-(deg + 1) // b)
    polys = np.zeros((4, nb * b))
    polys[0, : deg + 1], polys[1, : deg + 1] = a, rev
    polys[2, :deg], polys[3, :deg] = weights * a[1:], weights * rev[1:]
    bounds = np.abs(polys[:2]).reshape(2 * nb, b)
    polys = polys.reshape(4 * nb, b).astype(complex)
    tol = 2 * (deg + 1) * _EPS
    z = _start_points(a)
    active = np.arange(deg)
    for _ in range(_ABERTH_STEPS):
        za = z[active]
        outer = np.abs(za) > 1
        u = za.copy()
        u[outer] = 1 / za[outer]
        low = np.empty((b, za.size), complex)
        low[0] = 1
        low[1:] = u
        np.cumprod(low, axis=0, out=low)
        high = np.empty((nb, za.size), complex)
        high[0] = 1
        high[1:] = low[-1] * u
        np.cumprod(high, axis=0, out=high)
        values = (polys @ low).reshape(4, nb, -1)
        values *= high
        val, rval, der, rder = values.sum(axis=1)
        sizes = (bounds @ np.abs(low)).reshape(2, nb, -1)
        sizes *= np.abs(high)
        bound, rbound = sizes.sum(axis=1)
        val[outer], der[outer], bound[outer] = rval[outer], rder[outer], rbound[outer]
        moving = np.abs(val) > tol * bound
        # a converged estimate takes this one more step and then stays: on
        # the W(n,k) of degree 76..260 that cuts the set check's worst
        # error from about 3500 to 120 units, and the measure's error at
        # W(-40,3) from 4.6e-13 to 5e-16 (against mpmath at 40 digits)
        step = val != 0
        idx, zs, us = active[step], za[step], u[step]
        q = der[step] / val[step]
        # p'/p at z = 1/u from the reversed polynomial's q'/q at u
        ratio = np.where(outer[step], us * (deg - us * q), q)
        diff = zs[:, None] - z
        diff[np.arange(idx.size), idx] = 1
        np.reciprocal(diff, out=diff)
        newton = 1 / ratio
        z[idx] = zs - newton / (1 - newton * (diff.sum(axis=1) - 1))
        del diff
        if not np.isfinite(z[idx]).all():
            return None
        active = active[moving]
        if not active.size:
            break
    else:
        return None
    size = 1 << deg.bit_length()
    outer = np.abs(z) > 1
    # x - z = -z (1 - x/z): the factors -z of the outer roots go into lead
    lead = a[-1] * np.prod(-z[outer])
    scale = np.where(outer, -1 / z, 1)
    factors = np.multiply.outer(scale, np.exp(-2j * np.pi / size * np.arange(size)))
    factors += np.where(outer, 1, -z)[:, None]
    err = np.abs(lead * factors.prod(axis=0) - np.fft.fft(a, size)).max()
    if not err <= _SET_TOL * _EPS * np.abs(a).sum():
        return None
    return float(abs(lead))


def mahler_measure(p: LaurentPoly) -> float:
    """|lead| * prod max(1, |root|) over the complex roots.

    Exactly 1.0 for a cyclotomic product, decided by the exponent
    sequence: its leading coefficient is +-1 and its roots are roots of
    unity (by Kronecker's theorem these are the only integer polynomials
    of measure 1 with P(0) != 0); an input whose decision is over the term
    or work budget is refused with ValueError.  The decision is the one
    is_cyclotomic_product takes, kept for the last coefficient list
    decided, so measuring a V just factored (or x^a times it) decides
    nothing again.  Any other input is measured numerically, and numpy is
    imported there, on first use.  Up to degree
    MAX_QR_DEGREE = 75 the roots come from np.roots.  Above it they come
    from the Aberth-Ehrlich iteration of _aberth_measure, whose whole root
    set is checked against P on the unit circle; if it does not converge
    or the check fails (as it does around a repeated root), np.roots is
    taken after all.  np.roots' last digits can vary with the BLAS build and thread
    count.  Every path returns a built-in float, not np.float64.  A
    non-cyclotomic input of degree over MAX_NUMERIC_DEGREE is refused
    with ValueError before any numeric work.
    """
    if not p:
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    if _cyclotomic_multiplicities(p) is not None:
        return 1.0
    deg = p.span()
    if deg > MAX_NUMERIC_DEGREE:
        raise ValueError(
            f"a numeric Mahler measure of degree {deg} is over the budget of "
            f"degree {MAX_NUMERIC_DEGREE}"
        )
    coeffs = _dense(p)[1]
    if deg == 0:
        return float(abs(coeffs[0]))
    import numpy as np

    if deg > MAX_QR_DEGREE:
        # a diverging estimate ends in None, and np.roots, not in a warning
        with np.errstate(all="ignore"):
            measure = _aberth_measure(coeffs)
        if measure is not None:
            return measure
    coeffs.reverse()  # descending for np.roots
    try:
        roots = np.roots(coeffs)
    except np.linalg.LinAlgError as exc:
        raise NumericError("root finding did not converge") from exc
    measure = float(abs(coeffs[0]))
    for r in roots:
        measure *= max(1.0, abs(r))
    return float(measure)


def phitilde_root_exponents(m: int) -> list[int]:
    """Exponents j with Phi~_{2m}(zeta_{2m}^j) == 0: odd j in [1, 2m-1], j != m."""
    if m < 3 or m % 2 == 0:
        raise ValueError("root exponents need odd m >= 3")
    return [j for j in range(1, 2 * m, 2) if j != m]
