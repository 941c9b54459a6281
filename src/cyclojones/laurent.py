"""Exact Laurent polynomials over the integers, held sparse or dense.

This is the universal value type of the package: Jones polynomials,
Kauffman brackets and cyclotomic polynomials are all instances.  A
polynomial is a map from (possibly negative) exponents to nonzero
arbitrary-precision integer coefficients, plus a variable tag ("t" or
"A").  Arithmetic is tag-agnostic but refuses to mix tags, so t-world and
A-world values cannot be combined silently.

Values are immutable; every operation returns a fresh polynomial.

A polynomial holds its terms in one of two forms, the one it was built
in, for life.  Whatever nonzero polynomial `_from_dense` builds keeps the
dense form: the lowest exponent and the coefficient tuple with its zero
ends trimmed.  Every other polynomial holds a sparse dict {exponent:
coefficient}, so a sparse input of huge span stays O(terms).  `items`,
`coeff`, `len`, `min_exp`, `max_exp`, the (anti)palindromic shifts,
`value_and_derivative_at_one`, `_dense`, `_fold` and `poly_to_json` read
the dense form directly, at C speed; `is_symmetric` reads it through
`palindromic_shift`, and `reversed`, `scale`, `shift` and negation keep
it.  `==`, `hash`, `+`, `*`, `substitute_power` and `evaluate_complex`
take an exponent dict from `_map`, which builds a dense form's afresh and
stores it nowhere.  Terms merge by one rule,
`_accumulate`, which drops every coefficient that cancels: construction,
sums, products and wnk._merged.

The module holds the package's one long division, `_long_division` on
dense coefficient lists (`_dense` and `_from_dense` convert; `_fold`
reduces modulo x^n - 1).  It serves exact division here and, in the
cyclotomic module, the exact values modulo Phi_n.

Every cyclotomic object in the package is a product of factors
(1 - x^d)^(+-1), so one stride kernel on dense lists serves them:
`_stride_mul` multiplies by 1 - x^d (a shifted subtraction) and
`_stride_div` divides by it (a running sum with stride d), exactly, with
the top d entries checked as the remainder, or as a power series.  It
builds Phi_n as a Moebius product, checks Phi~_{2m} and rebuilds a
cyclotomic factorization from their Moebius exponents, takes the closed
forms' quotients by 1 - t^2 and reads the cyclotomic exponent sequence.

Products are the schoolbook loop over term pairs, so a sparse operand
with a huge span stays O(terms), and a product of two large dense
operands is quadratic in their terms.  No path in the package multiplies
two large polynomials: the cyclotomic products are all stride passes.
"""

from __future__ import annotations

import cmath
import re
from itertools import accumulate, compress, count
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import InexactDivisionError, ParseError, TagError

# Term budget for every builder the CLI reaches: the closed forms refuse a
# numerator of wider span, the bracket sweep larger levels, phi, phi_sym and
# phi_tilde larger polynomials, generate_table a larger table, and the
# obstruction lists a larger bound.  classify_symmetry and mersenne_knot build
# nothing span-sized and need no budget.
MAX_TERMS = 2**20

VARIABLES = ("t", "A")

TermsLike = Union[Mapping[int, int], Iterable[tuple[int, int]], None]


class LaurentPoly:
    """Laurent polynomial with integer coefficients."""

    # _terms is the exponent dict of a polynomial built from terms; a
    # dense-built one never sets it, and holds _cs, its trimmed coefficient
    # tuple (None otherwise), and _lo, its lowest exponent.
    __slots__ = ("_terms", "_variable", "_cs", "_lo")

    def __init__(self, terms: TermsLike = None, variable: str = "t"):
        if variable not in VARIABLES:
            raise ValueError(f"unknown variable tag {variable!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = _accumulate({}, items or ())
        self._variable = variable
        self._cs = None

    def _map(self) -> dict[int, int]:
        """The exponent dict: the one held, or a fresh one from the dense form."""
        cs = self._cs
        return self._terms if cs is None else dict(compress(zip(count(self._lo), cs), cs))

    # -- basic structure ---------------------------------------------------

    @property
    def variable(self) -> str:
        return self._variable

    def items(self) -> list[tuple[int, int]]:
        """Terms as (exponent, coefficient) pairs, exponents ascending."""
        cs = self._cs
        if cs is not None:
            return list(compress(zip(count(self._lo), cs), cs))
        return sorted(self._terms.items())

    def coeff(self, e: int) -> int:
        cs = self._cs
        if cs is not None:
            i = e - self._lo
            return cs[i] if 0 <= i < len(cs) else 0
        return self._terms.get(e, 0)

    def __bool__(self) -> bool:
        # a dense form is never empty
        return self._cs is not None or bool(self._terms)

    def __len__(self) -> int:
        cs = self._cs
        if cs is not None:
            return len(cs) - cs.count(0)
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.items())

    @property
    def min_exp(self) -> int:
        if self._cs is not None:
            return self._lo
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    @property
    def max_exp(self) -> int:
        if self._cs is not None:
            return self._lo + len(self._cs) - 1
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    def span(self) -> int:
        """max exponent minus min exponent; requires a nonzero polynomial."""
        return self.max_exp - self.min_exp

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other}, self._variable)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._variable == other._variable and self._map() == other._map()

    def __hash__(self) -> int:
        # constants equal their int, so they must hash like it
        terms = self._map()
        if terms.keys() <= {0}:
            return hash(terms.get(0, 0))
        return hash((self._variable, frozenset(terms.items())))

    def __repr__(self) -> str:
        return f"LaurentPoly({self!s}, variable={self._variable!r})"

    def __str__(self) -> str:
        return print_poly(self)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variable: str = "t") -> "LaurentPoly":
        return cls(None, variable)

    @classmethod
    def one(cls, variable: str = "t") -> "LaurentPoly":
        return cls({0: 1}, variable)

    @classmethod
    def monomial(cls, c: int, e: int, variable: str = "t") -> "LaurentPoly":
        return cls({e: c}, variable)

    @classmethod
    def _new(cls, terms: dict[int, int], variable: str) -> "LaurentPoly":
        """Wrap a dict with no zero coefficients, without copying or checking it."""
        out = object.__new__(cls)
        out._terms = terms
        out._variable = variable
        out._cs = None
        return out

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({0: other}, self._variable)
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")
        if other._variable != self._variable:
            raise TagError(
                f"mixing variables {self._variable!r} and {other._variable!r}"
            )
        return other

    def __add__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        other = self._coerce(other)
        return self._new(_accumulate(dict(self._map()), other._map().items()), self._variable)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return self.scale(-1)

    def __sub__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        other = self._coerce(other)
        # iterate the smaller factor on the outside
        a, b = (self, other) if len(self) <= len(other) else (other, self)
        outer, inner = a._map().items(), b._map().items()
        terms = ((e1 + e2, c1 * c2) for e1, c1 in outer for e2, c2 in inner)
        return self._new(_accumulate({}, terms), self._variable)

    __rmul__ = __mul__

    def scale(self, c: int, e: int = 0) -> "LaurentPoly":
        """Multiply by the monomial c*x^e; a dense form stays dense."""
        if c == 0:
            return LaurentPoly.zero(self._variable)
        cs = self._cs
        if cs is not None:
            return _from_dense(self._lo + e, [ci * c for ci in cs], self._variable)
        return self._new({ei + e: ci * c for ei, ci in self._terms.items()}, self._variable)

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by x^e."""
        return self.scale(1, e)

    def substitute_power(self, e: int, new_variable: Optional[str] = None) -> "LaurentPoly":
        """Substitute x -> x^e, optionally changing the variable tag.

        This is the bracket/Jones change of variable (t = A^-4 and back);
        e must be nonzero so the substitution is invertible on monomials.
        """
        if e == 0:
            raise ValueError("substitution exponent must be nonzero")
        variable = new_variable or self._variable
        if variable not in VARIABLES:
            raise ValueError(f"unknown variable tag {variable!r}")
        return self._new({ei * e: ci for ei, ci in self._map().items()}, variable)

    def divide_exact(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        """Return R with other*R == self, raising if no such R exists."""
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly.zero(self._variable)
        # strip monomial factors so both sides are ordinary polynomials
        a, num = _dense(self)
        b, den = _dense(other)
        quot, rem = _long_division(num, den)
        if any(rem):
            raise InexactDivisionError("division left a remainder")
        return _from_dense(a - b, quot, self._variable)

    # -- symmetry predicates -----------------------------------------------

    def reversed(self) -> "LaurentPoly":
        """P(x^-1); a dense form stays dense."""
        cs = self._cs
        if cs is not None:
            return _from_dense(-self.max_exp, cs[::-1], self._variable)
        return self._new({-e: c for e, c in self._terms.items()}, self._variable)

    def is_symmetric(self) -> bool:
        """True iff P(x^-1) == P(x)."""
        return not self or self.palindromic_shift() == 0

    def palindromic_shift(self) -> Optional[int]:
        """The unique n with P(x^-1) == x^n * P(x), or None.

        Symmetric means this returns 0.  Requires P != 0 (for the zero
        polynomial every n works).
        """
        if not self:
            raise ValueError("palindromic shift undefined for the zero polynomial")
        return self._reflection_shift(1)

    def antipalindromic_shift(self) -> Optional[int]:
        """The unique a with P(x^-1) == -x^a * P(x), or None.  Requires P != 0."""
        if not self:
            raise ValueError("antipalindromic shift undefined for the zero polynomial")
        return self._reflection_shift(-1)

    def _reflection_shift(self, sign: int) -> Optional[int]:
        """The n with P(x^-1) == sign * x^n * P(x), or None, for P != 0 and sign +-1."""
        n = -self.max_exp - self.min_exp
        cs = self._cs
        if cs is not None:  # a dense form's ends are nonzero: compare it with its reverse
            return n if cs == (cs[::-1] if sign > 0 else tuple(map(neg, reversed(cs)))) else None
        return n if self.reversed() == self.scale(sign, n) else None

    def value_and_derivative_at_one(self) -> tuple[int, int]:
        """(P(1), P'(1)) by exact summation."""
        cs = self._cs
        if cs is not None:
            # sum_j (lo + j) c_j = (lo - 1) P(1) + sum_j (j + 1) c_j, and the
            # last sum is the sum of the suffix sums
            value = sum(cs)
            return value, (self._lo - 1) * value + sum(accumulate(reversed(cs)))
        value = sum(self._terms.values())
        deriv = sum(map(mul, self._terms, self._terms.values()))
        return value, deriv

    # -- evaluation --------------------------------------------------------

    def evaluate_complex(self, order: int, j: int = 1) -> complex:
        """Evaluate at exp(2*pi*i*j/order) in double precision.

        Exponents are reduced modulo order first, which is exact on roots
        of unity and keeps the arithmetic well conditioned for the huge
        exponents cyclotomic polynomials carry.  Only the roots the terms
        reach are computed, so the work does not grow with the order.
        """
        if order < 1:
            raise ValueError("order must be >= 1")
        terms = self._map().items()
        return sum((c * cmath.exp(2j * cmath.pi * (e * j % order) / order) for e, c in terms), 0j)


def _accumulate(data: dict[int, int], terms: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Add terms into data and return it; a coefficient that cancels is dropped."""
    for e, c in terms:
        c = data.get(e, 0) + c
        if c:
            data[e] = c
        elif e in data:
            del data[e]
    return data


def _dense(p: LaurentPoly) -> tuple[int, list[int]]:
    """(lowest exponent, ascending coefficients) of a nonzero polynomial.

    The list is fresh: the caller may change it.
    """
    if p._cs is not None:
        return p._lo, list(p._cs)
    lo = p.min_exp
    return lo, _fill(p._terms.items(), lo, p.max_exp)


def _fill(terms: Iterable[tuple[int, int]], lo: int, hi: int) -> list[int]:
    """Ascending coefficients on the exponents lo..hi from terms with distinct exponents there."""
    out = [0] * (hi - lo + 1)
    for e, c in terms:
        out[e - lo] = c
    return out


def _from_dense(lo: int, coeffs: list[int], variable: str = "t") -> LaurentPoly:
    """The polynomial sum_j coeffs[j] x^(lo + j).

    It keeps coeffs, its zero ends trimmed, as its dense form; an all-zero
    list gives the zero polynomial.
    """
    if not any(coeffs):
        return LaurentPoly._new({}, variable)
    # first and last nonzero entries, found at C speed
    first = next(compress(count(), coeffs))
    last = len(coeffs) - next(compress(count(1), reversed(coeffs)))
    if first or last < len(coeffs) - 1:
        coeffs = coeffs[first:last + 1]
    out = object.__new__(LaurentPoly)
    out._variable = variable
    out._lo = lo + first
    out._cs = tuple(coeffs)
    return out


def _fold(p: LaurentPoly, n: int) -> list[int]:
    """Ascending coefficients of P modulo x^n - 1, of length n.

    x^n == 1 there, so every exponent (negative ones too) reduces mod n.
    A dense form is summed one slice per class, then rotated by its lowest
    exponent.
    """
    cs = p._cs
    if cs is None:
        out = [0] * n
        for e, c in p._terms.items():
            out[e % n] += c
        return out
    sums = [sum(cs[r::n]) for r in range(min(n, len(cs)))] + [0] * (n - len(cs))
    # sums[r] belongs to the exponent lo + r
    s = p._lo % n
    return sums[n - s:] + sums[:n - s]


# A stride division takes one accumulate per residue class once the classes
# hold at least this many entries, and blocks of d entries below: the
# measured break-even lies between 10 and 30.
_STRIDE_CLASS_MIN = 16


def _stride_mul(s: list[int], d: int) -> None:
    """s *= 1 - x^d in place, modulo x^len(s): one shifted subtraction.

    Extend s by d zeros first for the full product.
    """
    s[d:] = map(sub, s[d:], s[:-d])


def _stride_div(s: list[int], d: int, exact: bool = True) -> None:
    """s /= 1 - x^d in place: a running sum with stride d.

    As a power series (exact=False) the quotient modulo x^len(s) is left
    in s.  With exact=True, s is a polynomial and its top d entries are
    the remainder: the running sum continues past the quotient's degree
    only through them, so all are zero exactly when 1 - x^d divides s.
    A nonzero one raises InexactDivisionError; otherwise they are dropped,
    leaving the quotient.
    """
    n = len(s)
    if n >= _STRIDE_CLASS_MIN * d:
        for r in range(d):
            s[r::d] = accumulate(s[r::d])
    else:
        for start in range(d, n, d):
            s[start:start + d] = map(add, s[start:start + d], s[start - d:start])
    if exact:
        if any(s[-d:]):
            raise InexactDivisionError(f"division by 1 - x^{d} left a remainder")
        del s[-d:]


def _long_division(num: Iterable[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of ascending coefficient lists over the integers.

    den must have a nonzero last (leading) coefficient.  Only its nonzero
    terms are visited, so sparse divisors such as x^2 - 1 stay cheap.  A
    leading coefficient of the running remainder that den's leading
    coefficient does not divide raises InexactDivisionError, since no
    integer quotient can exist then.
    """
    dd = len(den) - 1
    lead = den[dd]
    tail = [(j, c) for j, c in enumerate(den[:dd]) if c]
    rem = list(num)
    quot = [0] * max(len(rem) - dd, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + dd]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise InexactDivisionError("leading coefficient does not divide")
            quot[i] = q
            for j, cj in tail:
                rem[i + j] -= q * cj
    return quot, rem[:dd]


# -- text and JSON forms ---------------------------------------------------


def print_poly(p: LaurentPoly) -> str:
    """Render with ascending exponents, e.g. "t^-2 - t^-1 + 1 - t + t^2".

    A nonzero constant A-polynomial prints as "A^0", "-3A^0" and so on,
    so that it parses back with its tag; the zero polynomial prints as "0"
    for either tag.
    """
    if not p:
        return "0"
    var = p.variable
    constant_a = var == "A" and p.min_exp == 0 == p.max_exp
    pieces: list[str] = []
    for i, (e, c) in enumerate(p.items()):
        mag = abs(c)
        if e == 0 and not constant_a:
            body = str(mag)
        else:
            coeff = "" if mag == 1 else str(mag)
            power = "" if e == 1 else f"^{e}"
            body = f"{coeff}{var}{power}"
        if i == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces)


# one term, every part optional: sign, coefficient, variable, ^exponent (no blank in it)
_TERM = re.compile(r"([+-]?)\s*(\d*)\s*(?:([tA])(?:\^([+-]?\d*))?)?\s*")


def parse_poly(text: str, variable: Optional[str] = None) -> LaurentPoly:
    """Parse the textual grammar: signed terms of [coeff][var][^exp].

    The variable is inferred from the text (default "t" for pure
    constants); pass `variable` to require a specific tag.
    """
    s = text.replace("−", "-")  # unicode minus
    pos = len(s) - len(s.lstrip())
    terms: list[tuple[int, int]] = []
    seen_var: Optional[str] = None
    while pos < len(s):
        m = _TERM.match(s, pos)
        sign, digits, var, exp = m.groups()
        if terms and not sign:
            raise ParseError("expected '+' or '-' between terms", pos)
        if not (digits or var):
            raise ParseError("expected a term", m.start(2))
        if exp is not None and not exp.lstrip("+-"):
            raise ParseError("dangling exponent", m.start(4))
        if var:
            if seen_var not in (None, var):
                raise ParseError("mixed variables in one polynomial", m.start(2))
            seen_var = var
        terms.append((int(exp or 1) if var else 0, int(sign + (digits or "1"))))
        pos = m.end()
    if not terms:
        raise ParseError("empty polynomial", pos)
    if variable is not None and seen_var not in (None, variable):
        raise ParseError(f"expected variable {variable!r}", 0)
    return LaurentPoly(terms, (seen_var or "t") if variable is None else variable)


def poly_to_json(p: LaurentPoly) -> dict:
    """JSON form: coefficients as decimal strings, exponents ascending."""
    # (e, "c") tuples, which json writes as [e, "c"]: the collector untracks a tuple
    # of atoms, while the ~10^4 lists of a large V would keep full collections busy
    cs = p._cs
    if cs is None:
        return {"variable": p.variable, "terms": [(e, str(c)) for e, c in p.items()]}
    # one str per distinct coefficient: a V's are all +-1
    text = {c: str(c) for c in set(cs)}
    terms = list(compress(zip(count(p._lo), map(text.__getitem__, cs)), cs))
    return {"variable": p.variable, "terms": terms}


def poly_from_json(obj: dict) -> LaurentPoly:
    return LaurentPoly(
        [(int(e), int(c)) for e, c in obj["terms"]], obj["variable"]
    )
