"""Exact sparse Laurent polynomials over the integers.

This is the universal value type of the package: Jones polynomials,
Kauffman brackets and cyclotomic polynomials are all instances.  A
polynomial is a sparse map from (possibly negative) exponents to nonzero
arbitrary-precision integer coefficients, plus a variable tag ("t" or
"A").  Arithmetic is tag-agnostic but refuses to mix tags, so t-world and
A-world values cannot be combined silently.

Values are immutable; every operation returns a fresh polynomial.

The module holds the package's one long division, `_long_division` on
dense coefficient lists (`_dense` converts).  It serves exact division,
the construction of cyclotomic polynomials and reduction modulo them.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import InexactDivisionError, ParseError, TagError

VARIABLES = ("t", "A")

TermsLike = Union[Mapping[int, int], Iterable[tuple[int, int]], None]


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms", "_variable")

    def __init__(self, terms: TermsLike = None, variable: str = "t"):
        if variable not in VARIABLES:
            raise ValueError(f"unknown variable tag {variable!r}")
        data: dict[int, int] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for e, c in items:
                c = data.get(e, 0) + c
                if c:
                    data[e] = c
                elif e in data:
                    del data[e]
        self._terms = data
        self._variable = variable

    # -- basic structure ---------------------------------------------------

    @property
    def variable(self) -> str:
        return self._variable

    def items(self) -> list[tuple[int, int]]:
        """Terms as (exponent, coefficient) pairs, exponents ascending."""
        return sorted(self._terms.items())

    def coeff(self, e: int) -> int:
        return self._terms.get(e, 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.items())

    @property
    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    @property
    def max_exp(self) -> int:
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
        return self._variable == other._variable and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._variable, frozenset(self._terms.items())))

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
    def var(cls, variable: str = "t") -> "LaurentPoly":
        return cls({1: 1}, variable)

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
        data = dict(self._terms)
        for e, c in other._terms.items():
            c = data.get(e, 0) + c
            if c:
                data[e] = c
            elif e in data:
                del data[e]
        out = LaurentPoly.zero(self._variable)
        out._terms = data
        return out

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.zero(self._variable)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __sub__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        other = self._coerce(other)
        data: dict[int, int] = {}
        # iterate the smaller factor on the outside
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                c = data.get(e, 0) + c1 * c2
                if c:
                    data[e] = c
                elif e in data:
                    del data[e]
        out = LaurentPoly.zero(self._variable)
        out._terms = data
        return out

    __rmul__ = __mul__

    def scale(self, c: int, e: int = 0) -> "LaurentPoly":
        """Multiply by the monomial c*x^e."""
        if c == 0:
            return LaurentPoly.zero(self._variable)
        out = LaurentPoly.zero(self._variable)
        out._terms = {ei + e: ci * c for ei, ci in self._terms.items()}
        return out

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
        out = LaurentPoly.zero(new_variable or self._variable)
        out._terms = {ei * e: ci for ei, ci in self._terms.items()}
        return out

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
        out = LaurentPoly.zero(self._variable)
        out._terms = {e + a - b: c for e, c in enumerate(quot) if c}
        return out

    # -- symmetry predicates -----------------------------------------------

    def reversed(self) -> "LaurentPoly":
        """P(x^-1)."""
        out = LaurentPoly.zero(self._variable)
        out._terms = {-e: c for e, c in self._terms.items()}
        return out

    def is_symmetric(self) -> bool:
        """True iff P(x^-1) == P(x)."""
        return all(self._terms.get(-e) == c for e, c in self._terms.items())

    def palindromic_shift(self) -> Optional[int]:
        """The unique n with P(x^-1) == x^n * P(x), or None.

        Symmetric means this returns 0.  Requires P != 0 (for the zero
        polynomial every n works).
        """
        if not self:
            raise ValueError("palindromic shift undefined for the zero polynomial")
        n = -self.max_exp - self.min_exp
        return n if self.reversed() == self.shift(n) else None

    def antipalindromic_shift(self) -> Optional[int]:
        """The unique a with P(x^-1) == -x^a * P(x), or None.  Requires P != 0."""
        if not self:
            raise ValueError("antipalindromic shift undefined for the zero polynomial")
        a = -self.max_exp - self.min_exp
        return a if self.reversed() == self.scale(-1, a) else None

    def value_and_derivative_at_one(self) -> tuple[int, int]:
        """(P(1), P'(1)) by exact summation."""
        value = sum(self._terms.values())
        deriv = sum(e * c for e, c in self._terms.items())
        return value, deriv

    # -- evaluation --------------------------------------------------------

    def evaluate_complex(self, order: int, j: int = 1) -> complex:
        """Evaluate at exp(2*pi*i*j/order) in double precision.

        Exponents are reduced modulo order first, which is exact on roots
        of unity and keeps the arithmetic well conditioned for the huge
        exponents cyclotomic polynomials carry.
        """
        if order < 1:
            raise ValueError("order must be >= 1")
        roots = [cmath.exp(2j * cmath.pi * r / order) for r in range(order)]
        return sum((c * roots[(e * j) % order] for e, c in self._terms.items()), 0j)

    def evaluate_residue(self, order: int) -> "ResidueElement":
        """Exact value at a primitive order-th root of unity.

        Returns the residue of P modulo the order-th cyclotomic polynomial;
        negative exponents are resolved via x^-1 == x^(order-1), valid
        because the cyclotomic polynomial divides x^order - 1.
        """
        if order < 2:
            raise ValueError("order must be >= 2")
        folded = [0] * order
        for e, c in self._terms.items():
            folded[e % order] += c
        return ResidueElement.from_coeffs(order, folded)


class ResidueElement:
    """Element of Z[x]/(Phi_N), stored as a residue of degree < phi(N)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int, ...]):
        from .cyclotomic import euler_totient

        if order < 2:
            raise ValueError("order must be >= 2")
        if len(coeffs) != euler_totient(order):
            raise ValueError("coefficient vector must have length phi(order)")
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_coeffs(cls, order: int, coeffs: Iterable[int]) -> "ResidueElement":
        """Reduce an arbitrary coefficient list modulo Phi_order."""
        from .cyclotomic import euler_totient, phi

        rem = _long_division(coeffs, _dense(phi(order))[1])[1]
        return cls(order, tuple(rem) + (0,) * (euler_totient(order) - len(rem)))

    @classmethod
    def from_int(cls, order: int, value: int) -> "ResidueElement":
        return cls.from_coeffs(order, [value])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = ResidueElement.from_int(self.order, other)
        if not isinstance(other, ResidueElement):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"ResidueElement(order={self.order}, coeffs={self.coeffs})"

    def _check(self, other: "ResidueElement") -> None:
        if self.order != other.order:
            raise ValueError("residues live in different rings")

    def __add__(self, other: "ResidueElement") -> "ResidueElement":
        self._check(other)
        return ResidueElement(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "ResidueElement":
        return ResidueElement(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "ResidueElement") -> "ResidueElement":
        return self + (-other)

    def __mul__(self, other: "ResidueElement") -> "ResidueElement":
        self._check(other)
        n = len(self.coeffs)
        conv = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for jj, b in enumerate(other.coeffs):
                    conv[i + jj] += a * b
        return ResidueElement.from_coeffs(self.order, conv)

    def __pow__(self, n: int) -> "ResidueElement":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = ResidueElement.from_int(self.order, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def constant_value(self) -> Optional[int]:
        """The residue as an integer if it is constant, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def to_complex(self, j: int = 1) -> complex:
        """Numeric embedding sending x to exp(2*pi*i*j/order)."""
        z = cmath.exp(2j * cmath.pi * j / self.order)
        out = 0j
        for c in reversed(self.coeffs):
            out = out * z + c
        return out


def _dense(p: LaurentPoly) -> tuple[int, list[int]]:
    """(lowest exponent, ascending coefficients) of a nonzero polynomial."""
    lo = p.min_exp
    out = [0] * (p.max_exp - lo + 1)
    for e, c in p._terms.items():
        out[e - lo] = c
    return lo, out


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
    """Render with ascending exponents, e.g. "t^-2 - t^-1 + 1 - t + t^2"."""
    if not p:
        return "0"
    var = p.variable
    pieces: list[str] = []
    for i, (e, c) in enumerate(p.items()):
        mag = abs(c)
        if e == 0:
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


def parse_poly(text: str, variable: Optional[str] = None) -> LaurentPoly:
    """Parse the textual grammar: signed terms of [coeff][var][^exp].

    The variable is inferred from the text (default "t" for pure
    constants); pass `variable` to require a specific tag.
    """
    s = text.replace("−", "-")  # unicode minus
    n = len(s)
    pos = 0
    terms: list[tuple[int, int]] = []
    seen_var: Optional[str] = None

    def skip_ws(i: int) -> int:
        while i < n and s[i].isspace():
            i += 1
        return i

    pos = skip_ws(pos)
    if pos == n:
        raise ParseError("empty polynomial", pos)
    first = True
    while pos < n:
        sign = 1
        if s[pos] in "+-":
            if s[pos] == "-":
                sign = -1
            pos = skip_ws(pos + 1)
        elif not first:
            raise ParseError("expected '+' or '-' between terms", pos)
        first = False
        start = pos
        coeff_digits = ""
        while pos < n and s[pos].isdigit():
            coeff_digits += s[pos]
            pos += 1
        pos = skip_ws(pos)
        var_here = None
        exp = None
        if pos < n and s[pos] in "tA":
            var_here = s[pos]
            pos += 1
            if pos < n and s[pos] == "^":
                pos += 1
                exp_start = pos
                if pos < n and s[pos] in "+-":
                    pos += 1
                while pos < n and s[pos].isdigit():
                    pos += 1
                if pos == exp_start or not s[exp_start:pos].lstrip("+-"):
                    raise ParseError("dangling exponent", exp_start)
                exp = int(s[exp_start:pos])
        if var_here is None and not coeff_digits:
            raise ParseError("expected a term", start)
        if var_here is not None:
            if seen_var is not None and seen_var != var_here:
                raise ParseError("mixed variables in one polynomial", start)
            seen_var = var_here
        c = int(coeff_digits) if coeff_digits else 1
        e = (exp if exp is not None else 1) if var_here is not None else 0
        terms.append((e, sign * c))
        pos = skip_ws(pos)

    var = seen_var or "t"
    if variable is not None:
        if seen_var is not None and seen_var != variable:
            raise ParseError(f"expected variable {variable!r}", 0)
        var = variable
    return LaurentPoly(terms, var)


def poly_to_json(p: LaurentPoly) -> dict:
    """JSON form: coefficients as decimal strings, exponents ascending."""
    return {"variable": p.variable, "terms": [[e, str(c)] for e, c in p.items()]}


def poly_from_json(obj: dict) -> LaurentPoly:
    return LaurentPoly(
        [(int(e), int(c)) for e, c in obj["terms"]], obj["variable"]
    )
