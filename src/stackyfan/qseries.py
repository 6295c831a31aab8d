"""Exact algebra of polynomials and rational functions in t with rational
exponents, plus ascending power-series expansion.

A rational function is kept in canonical form on the grid s = t^{1/N}, where
N is the lcm of the exponent denominators: integer coefficients and no common
factor between numerator and denominator, at every size.  The common factors
are removed by `cyclotomic.lowest_terms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import lowest_terms
from .errors import DivisionByZero, NoExpansionAtZero


class FracPoly:
    """Laurent polynomial with exact rational coefficients and rational
    exponents; zero coefficients are never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[Fraction(e)] = c
        self.terms = clean

    @classmethod
    def constant(cls, c):
        return cls({Fraction(0): Fraction(c)})

    @classmethod
    def t_power(cls, e, c=1):
        return cls({Fraction(e): Fraction(c)})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.constant(1)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, FracPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return FracPoly(out)

    def __neg__(self):
        return FracPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return FracPoly(out)

    def scale(self, c):
        c = Fraction(c)
        return FracPoly({e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int):
        result = FracPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def grid(self) -> int:
        """lcm of the exponent denominators."""
        g = 1
        for e in self.terms:
            g = g * e.denominator // math.gcd(g, e.denominator)
        return g

    def min_exp(self):
        return min(self.terms) if self.terms else Fraction(0)

    def max_exp(self):
        return max(self.terms) if self.terms else Fraction(0)

    def coeff(self, e):
        return self.terms.get(Fraction(e), Fraction(0))

    def truncate(self, cutoff) -> "TruncatedSeries":
        cutoff = Fraction(cutoff)
        return TruncatedSeries(
            {e: c for e, c in self.terms.items() if e <= cutoff}, cutoff)

    def __repr__(self):
        return f"FracPoly({format_poly(self)})"


def _poly(terms) -> FracPoly:
    """FracPoly from {Fraction: nonzero Fraction} without re-checking."""
    p = FracPoly.__new__(FracPoly)
    p.terms = terms
    return p


class FracRational:
    """Rational function num/den in canonical form.

    Canonical form: on the grid s = t^{1/N}, numerator and denominator are
    polynomials in s with no common factor (so at most one of them is
    divisible by s), integer coefficients with no common content, and a
    positive lowest coefficient in the denominator.  Equal values have equal
    forms at every size, so `==` compares the two forms term by term.

    With `grid=n`, num and den are {int exponent: int coefficient} dicts on
    the grid s = t^{1/n} instead of FracPolys.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, grid=None):
        if grid is None:
            num, den = (p if isinstance(p, FracPoly) else FracPoly.constant(p)
                        for p in (num, 1 if den is None else den))
            grid, (num, den) = _to_grid(num, den)
        else:
            num = {e: c for e, c in num.items() if c}
            den = {e: c for e, c in den.items() if c}
        if not den:
            raise DivisionByZero("zero denominator")
        self.num, self.den = _canonical(num, den, grid)

    @classmethod
    def _coprime(cls, num: FracPoly, den: FracPoly) -> "FracRational":
        """num/den for coprime integral num, den with nonnegative exponents
        and no common power of t: only content and sign are normalised."""
        self = object.__new__(cls)
        if num.is_zero():
            self.num, self.den = FracPoly.zero(), FracPoly.one()
            return self
        g = math.gcd(*(c.numerator for p in (num, den) for c in p.terms.values()))
        if den.terms[den.min_exp()] < 0:
            g = -g
        if g != 1:
            num, den = num.scale(Fraction(1, g)), den.scale(Fraction(1, g))
        self.num, self.den = num, den
        return self

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den == FracPoly.one()

    def __eq__(self, other):
        if not isinstance(other, FracRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _coerce(other)
        return FracRational(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __sub__(self, other):
        other = _coerce(other)
        return FracRational(self.num * other.den - other.num * self.den,
                            self.den * other.den)

    def __neg__(self):
        return FracRational._coprime(-self.num, self.den)

    def __mul__(self, other):
        # (a/b)(c/d) = (a/gcd(a,d))(c/gcd(c,b)) / ((b/gcd(c,b))(d/gcd(a,d))):
        # lowest terms from two reductions of the smaller cross pairs
        other = _coerce(other)
        x = FracRational(self.num, other.den)
        y = FracRational(other.num, self.den)
        return FracRational._coprime(x.num * y.num, x.den * y.den)

    def __truediv__(self, other):
        other = _coerce(other)
        if other.num.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return self * FracRational._coprime(other.den, other.num)

    def __repr__(self):
        return f"FracRational({format_rational(self)})"


def _coerce(x) -> FracRational:
    if isinstance(x, FracRational):
        return x
    if isinstance(x, FracPoly):
        return FracRational(x)
    return FracRational(FracPoly.constant(x))


def substitute_reciprocal(f: FracRational) -> FracRational:
    """Replace t by 1/t.  Reversal keeps lowest terms, so no gcd is needed."""
    top = max(f.num.max_exp(), f.den.max_exp())
    num, den = (_poly({top - e: c for e, c in p.terms.items()})
                for p in (f.num, f.den))
    return FracRational._coprime(num, den)


# ---------------------------------------------------------------------------
# Canonicalisation: integer coefficient lists on the grid s = t^{1/N}


def _to_grid(*polys):
    """(N, [{int exponent: int coefficient}]) for polys scaled by one common
    rational factor onto the grid s = t^{1/N}."""
    n = math.lcm(*(e.denominator for p in polys for e in p.terms))
    d = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return n, [{e.numerator * (n // e.denominator):
                c.numerator * (d // c.denominator) for e, c in p.terms.items()}
               for p in polys]


def _canonical(a: dict, b: dict, n: int):
    """Canonical (num, den) FracPolys of a/b, given as {exponent: int}
    dicts on the grid s = t^{1/n}."""
    if not a:
        return FracPoly.zero(), FracPoly.one()
    (lo_a, a), (lo_b, b) = _coefficient_list(a), _coefficient_list(b)
    if len(a) > 1 and len(b) > 1:
        a, b = lowest_terms(a, b)
    g = math.gcd(*a, *b)
    if b[0] < 0:
        g = -g
    shift = lo_a - lo_b
    return tuple(
        _poly({Fraction(i + lo, n): Fraction(c // g)
               for i, c in enumerate(p) if c})
        for p, lo in ((a, max(shift, 0)), (b, max(-shift, 0))))


def _coefficient_list(p: dict):
    """(lowest exponent, coefficient list from it) of {exponent: int}."""
    lo = min(p)
    out = [0] * (max(p) - lo + 1)
    for e, c in p.items():
        out[e - lo] = c
    return lo, out


@dataclass
class TruncatedSeries:
    """Ascending series with exact coefficients, valid up to a cutoff
    exponent; exponents may be negative (Laurent tails)."""

    terms: dict = field(default_factory=dict)
    cutoff: Fraction = Fraction(0)

    def __post_init__(self):
        self.cutoff = Fraction(self.cutoff)
        self.terms = {Fraction(e): Fraction(c) for e, c in self.terms.items()
                      if c != 0 and Fraction(e) <= self.cutoff}

    def coeff(self, e):
        return self.terms.get(Fraction(e), Fraction(0))


def series_equal(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    """Exact coefficient agreement at all exponents <= min(cutoffs)."""
    bound = min(a.cutoff, b.cutoff)
    exps = {e for e in a.terms if e <= bound} | {e for e in b.terms if e <= bound}
    return all(a.coeff(e) == b.coeff(e) for e in exps)


def _expand(f: FracRational, cutoff, laurent: bool) -> TruncatedSeries:
    cutoff = Fraction(cutoff)
    if f.num.is_zero():
        return TruncatedSeries({}, cutoff)
    n_grid, (a, b, _) = _to_grid(f.num, f.den, FracPoly.t_power(cutoff))
    pole, b = _coefficient_list(b)
    if pole > 0 and not laurent:
        raise NoExpansionAtZero("denominator vanishes at t = 0")
    # long division: coefficients of a/b in ascending s powers
    top = int(math.floor(cutoff * n_grid)) + pole
    inv0 = Fraction(1, b[0])
    b_nonzero = [(j, bj) for j, bj in enumerate(b) if j > 0 and bj != 0]
    coeffs = []
    rem = [a.get(k, 0) for k in range(top + 1)]
    for k in range(top + 1):
        c = rem[k] * inv0
        coeffs.append(c)
        if c != 0:
            for j, bj in b_nonzero:
                if k + j > top:
                    break
                rem[k + j] -= c * bj
    return TruncatedSeries(
        {Fraction(k - pole, n_grid): c for k, c in enumerate(coeffs) if c != 0},
        cutoff)


def expand_series(f: FracRational, cutoff) -> TruncatedSeries:
    """Ascending expansion of f at t = 0, exact up to the cutoff exponent."""
    return _expand(f, cutoff, laurent=False)


def expand_laurent(f: FracRational, cutoff) -> TruncatedSeries:
    """Like expand_series but allows a pole at t = 0 (finite Laurent tail)."""
    return _expand(f, cutoff, laurent=True)


# ---------------------------------------------------------------------------
# Canonical text rendering: the bit-exact contract for CLI output and
# test fixtures.

def _format_exponent(var, e: Fraction) -> str:
    if e == 1:
        return var
    if e.denominator == 1:
        return f"{var}^{e.numerator}"
    return f"{var}^{{{e}}}"


def _format_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_poly(poly: FracPoly, var: str = "t") -> str:
    if poly.is_zero():
        return "0"
    parts = []
    for e in sorted(poly.terms):
        c = poly.terms[e]
        mag = abs(c)
        if e == 0:
            body = _format_coeff(mag)
        elif mag == 1:
            body = _format_exponent(var, e)
        elif mag.denominator == 1:
            body = f"{mag.numerator}{_format_exponent(var, e)}"
        else:
            body = f"({_format_coeff(mag)}){_format_exponent(var, e)}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def format_rational(f: FracRational, var: str = "t") -> str:
    if f.is_polynomial():
        return format_poly(f.num, var)
    return f"({format_poly(f.num, var)})/({format_poly(f.den, var)})"


def format_series(s: TruncatedSeries, var: str = "t") -> str:
    return format_poly(FracPoly(s.terms), var) + f" + O({_format_exponent(var, s.cutoff)})"
