"""Exact algebra of polynomials and rational functions in t with rational
exponents, plus ascending power-series expansion.

`FracPoly` maps Fraction exponents to Fraction coefficients, a convenience
for building values.  `FracRational` keeps only its canonical form on one
integer grid s = t^{1/N}, as coprime {int exponent: int coefficient} dicts,
and a `TruncatedSeries` keeps {int k: c} for the terms c t^{k/n}.  Lists
of coefficients are built only where `cyclotomic` folds them to remove
common factors, and for the long division of an expansion.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import lowest_terms, reduce_binomials
from .errors import DivisionByZero, NoExpansionAtZero, admit

# the longest coefficient list on the grid s = t^{1/n} that qseries may
# build for a fold or a long division, from the span of its exponents: it
# grows with n, which the box budget bounds only through the group orders.
# P2 with weights (29, 31, 37) and lambda = (1/2, 1/3, -1/5) asks for a
# numerator list of 5,621,448
DENSE_LENGTH_BUDGET = 4 * 10 ** 6


def _sparse_sum(p: dict, q: dict) -> dict:
    """Sum of {exponent: coefficient} polynomials; may hold zeros."""
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return out


def _sparse_product(p: dict, q: dict) -> dict:
    """Product of {exponent: coefficient} polynomials, without zeros."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


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
    def t_power(cls, e, c=1):
        return cls({Fraction(e): Fraction(c)})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.t_power(0)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, FracPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return FracPoly(_sparse_sum(self.terms, other.terms))

    def __neg__(self):
        return FracPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return FracPoly(_sparse_product(self.terms, other.terms))

    def __pow__(self, n: int):
        result = FracPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        return f"FracPoly({format_poly(self)})"


class FracRational:
    """Rational function stored only in canonical form (n, shift, a, b):
    s^shift * a(s)/b(s) with s = t^{1/n}, for {int exponent: int} dicts a, b
    with no zero and with nonzero constant terms, no common factor or content
    and b[0] > 0, on the least grid: gcd(n, shift, every exponent) = 1.  Zero
    is (1, 0, {}, {0: 1}).  Equal values have equal forms at every size, so
    `==` compares the four slots.

    Built from FracPolys or rational scalars num and den or, with `grid=n`,
    from {int exponent: int coefficient} dicts on the grid s = t^{1/n};
    `num` and `den` rebuild FracPolys with nonnegative exponents."""

    __slots__ = ("n", "shift", "a", "b")

    def __init__(self, num, den=None, grid=None):
        if grid is None:
            num, den = (p.terms if isinstance(p, FracPoly) else {0: p}
                        for p in (num, 1 if den is None else den))
            # one common rational factor moves both onto the grid of the
            # lcm of the exponent denominators, with int coefficients
            grid = math.lcm(*(e.denominator for p in (num, den) for e in p))
            d = math.lcm(*(c.denominator for p in (num, den)
                           for c in p.values()))
            num, den = ({e.numerator * (grid // e.denominator):
                         c.numerator * (d // c.denominator)
                         for e, c in p.items()} for p in (num, den))
        num, den = ({e: c for e, c in p.items() if c} for p in (num, den))
        if not den:
            raise DivisionByZero("zero denominator")
        lo_a, lo_b = min(num, default=0), min(den)
        a, b = ({e - lo: c for e, c in p.items()}
                for p, lo in ((num, lo_a), (den, lo_b)))
        self._set(grid, lo_a - lo_b, *_reduce(a, b))

    def _set(self, n, shift, a, b):
        """Store s^shift a/b on the grid t^{1/n} (a, b coprime dicts with
        nonzero constant terms, a empty for 0) without content or sign, on
        the least grid."""
        if not a:
            n, shift, b = 1, 0, {0: 1}
        g = math.gcd(*a.values(), *b.values()) * (1 if b[0] > 0 else -1)
        if g != 1:
            a, b = ({e: c // g for e, c in p.items()} for p in (a, b))
        k = math.gcd(n, shift, *a, *b)
        if k > 1:
            n, shift = n // k, shift // k
            a, b = ({e // k: c for e, c in p.items()} for p in (a, b))
        self.n, self.shift, self.a, self.b = n, shift, a, b
        return self

    num = property(lambda f: _grid_poly(f.a, max(f.shift, 0), f.n))
    den = property(lambda f: _grid_poly(f.b, max(-f.shift, 0), f.n))

    def is_zero(self):
        return not self.a

    def is_polynomial(self):
        return self.b == {0: 1} and self.shift >= 0

    def __eq__(self, other):
        if not isinstance(other, FracRational):
            return NotImplemented
        return (self.n == other.n and self.shift == other.shift
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.n, self.shift, frozenset(self.a.items()),
                     frozenset(self.b.items())))

    def _on(self, n):
        """(shift, a, b) on the grid t^{1/n}, a multiple of self.n."""
        k = n // self.n
        a, b = ({e * k: c for e, c in p.items()} for p in (self.a, self.b))
        return self.shift * k, a, b

    def __add__(self, other):
        other = _coerce(other)
        n = math.lcm(self.n, other.n)
        (h1, a1, b1), (h2, a2, b2) = self._on(n), other._on(n)
        a1, a2 = ({e + h: c for e, c in p.items()}
                  for p, h in ((a1, h1), (a2, h2)))
        return FracRational(
            _sparse_sum(_sparse_product(a1, b2), _sparse_product(a2, b1)),
            _sparse_product(b1, b2), grid=n)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __neg__(self):
        return _rational(self.n, self.shift,
                         {e: -c for e, c in self.a.items()}, self.b)

    def __mul__(self, other):
        # (a/b)(c/d) = (a/gcd(a,d))(c/gcd(c,b)) / ((b/gcd(c,b))(d/gcd(a,d))):
        # lowest terms from two reductions of the smaller cross pairs
        other = _coerce(other)
        n = math.lcm(self.n, other.n)
        (h1, a1, b1), (h2, a2, b2) = self._on(n), other._on(n)
        a1, b2 = _reduce(a1, b2)
        a2, b1 = _reduce(a2, b1)
        return _rational(n, h1 + h2, _sparse_product(a1, a2),
                         _sparse_product(b1, b2))

    def __truediv__(self, other):
        other = _coerce(other)
        if not other.a:
            raise DivisionByZero("division by the zero rational function")
        return self * _rational(other.n, -other.shift, other.b, other.a)

    def __repr__(self):
        return f"FracRational({format_rational(self)})"


def _coerce(x) -> FracRational:
    return x if isinstance(x, FracRational) else FracRational(x)


def substitute_reciprocal(f: FracRational) -> FracRational:
    """Replace t by 1/t: s^shift a(s)/b(s) becomes s^(deg b - deg a - shift)
    times the quotient of the reflected terms, still in lowest terms."""
    da, db = max(f.a, default=0), max(f.b)
    return _rational(f.n, db - da - f.shift,
                     {da - e: c for e, c in f.a.items()},
                     {db - e: c for e, c in f.b.items()})


# ---------------------------------------------------------------------------
# Canonicalisation: {exponent: coefficient} dicts on the grid s = t^{1/N}


def _rational(n, shift, a, b) -> FracRational:
    return object.__new__(FracRational)._set(n, shift, a, b)


def over_binomials(n, num: dict, exps: dict) -> FracRational:
    """num(s) / prod_d (1 - s^d)^{exps[d]}, s = t^{1/n}, num without zeros,
    reduced over those binomials, whose product is admitted but not built.
    With no binomial the terms of num are the form, and no list is built."""
    lo = min(num, default=0)
    a, b = {e - lo: c for e, c in num.items()}, {0: 1}
    if exps and a:
        a = _coefficient_list(a)
        _dense_length(1 + sum(d * e for d, e in exps.items()))
        a, b = map(_sparse, reduce_binomials(a, 1, exps, _dense_length))
    return _rational(n, lo, a, b)


def _reduce(a: dict, b: dict):
    """a/b in lowest terms, for dicts with nonzero constant terms; folded as
    coefficient lists only when both have more than one term."""
    if len(a) < 2 or len(b) < 2:
        return a, b
    a, b = lowest_terms(_coefficient_list(a), _coefficient_list(b))
    return _sparse(a), _sparse(b)


def _dense_length(length: int) -> int:
    """The length, or a BudgetExceeded if it is over DENSE_LENGTH_BUDGET."""
    return admit(length, DENSE_LENGTH_BUDGET, "a coefficient list of length",
                 "is")


def _coefficient_list(p: dict) -> list:
    """The coefficients of p, whose exponents are >= 0, by exponent."""
    out = [0] * _dense_length(max(p, default=-1) + 1)
    for e, c in p.items():
        out[e] = c
    return out


def _sparse(p: list) -> dict:
    """{exponent: coefficient} of a coefficient list, without zeros."""
    return {i: c for i, c in enumerate(p) if c}


def _grid_poly(p: dict, lo, n) -> FracPoly:
    """The FracPoly s^lo p(s) for s = t^{1/n}."""
    return FracPoly({Fraction(e + lo, n): c for e, c in p.items()})


class TruncatedSeries:
    """Ascending series sum c_k t^{k/n} with exact coefficients, valid up to
    a cutoff exponent, stored like a FracRational on its grid: n, and
    coeffs {int k: int or Fraction c_k} holding no zero and no k/n over the
    cutoff; k may be negative (Laurent tails).  `terms` is a read-only view
    {Fraction exponent: coefficient}."""

    __slots__ = ("n", "coeffs", "cutoff")

    def __init__(self, n: int, coeffs: dict, cutoff):
        self.n, self.cutoff = n, Fraction(cutoff)
        top = self.cutoff.numerator * n // self.cutoff.denominator
        self.coeffs = {k: c for k, c in coeffs.items() if c and k <= top}

    terms = property(lambda s: {Fraction(k, s.n): c
                                for k, c in s.coeffs.items()})


def times_one_minus_t(n: int, counts: dict, d: int, cutoff) -> TruncatedSeries:
    """(1 - t)^d sum_k counts[k] s^k, s = t^{1/n}, truncated at the cutoff:
    the oracles' product, with the coefficients (-1)^j C(d, j) of s^{jn}."""
    out = {}
    for j in range(d + 1):
        c, step = (-1) ** j * math.comb(d, j), j * n
        for k, v in counts.items():
            out[k + step] = out.get(k + step, 0) + c * v
    return TruncatedSeries(n, out, cutoff)


def series_equal(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    """Exact coefficient agreement at all exponents <= min(cutoffs), read
    on the lcm of the two grids."""
    n, bound = math.lcm(a.n, b.n), min(a.cutoff, b.cutoff)
    lifted = [TruncatedSeries(n, {k * (n // s.n): c
                                  for k, c in s.coeffs.items()}, bound).coeffs
              for s in (a, b)]
    return lifted[0] == lifted[1]


def _expand(f: FracRational, cutoff, laurent: bool) -> TruncatedSeries:
    cutoff = Fraction(cutoff)
    if not f.a:
        return TruncatedSeries(1, {}, cutoff)
    n, shift, a, b = f.n, f.shift, f.a, f.b
    if shift < 0 and not laurent:
        raise NoExpansionAtZero("denominator vanishes at t = 0")
    # long division of a by b in ascending s powers, up to the last index
    # k with (k + shift)/n <= cutoff; exact in ints when b[0] = 1, as for
    # every denominator the invariant formulas build
    top = _dense_length(cutoff.numerator * n // cutoff.denominator - shift)
    inv0 = 1 if b[0] == 1 else Fraction(1, b[0])
    tail = sorted((j, bj) for j, bj in b.items() if j)
    q = [a.get(k, 0) for k in range(top + 1)]
    for k in range(len(q)):
        c = q[k] = q[k] * inv0
        if c:
            for j, bj in tail:
                if k + j > top:
                    break
                q[k + j] -= c * bj
    return TruncatedSeries(n, dict(enumerate(q, shift)), cutoff)


def expand_series(f: FracRational, cutoff) -> TruncatedSeries:
    """Ascending expansion of f at t = 0, exact up to the cutoff exponent."""
    return _expand(f, cutoff, laurent=False)


def expand_laurent(f: FracRational, cutoff) -> TruncatedSeries:
    """Like expand_series but allows a pole at t = 0 (finite Laurent tail)."""
    return _expand(f, cutoff, laurent=True)


# ---------------------------------------------------------------------------
# Canonical text rendering: the bit-exact contract for CLI output and
# test fixtures.

def format_ratio(i: int, n: int) -> str:
    """i / n in lowest terms, for n > 0, as str(Fraction(i, n)) writes it:
    the one writer of a quotient in the output."""
    g = math.gcd(i, n)
    return str(i // g) if g == n else f"{i // g}/{n // g}"


def format_power(var, i: int, n: int = 1) -> str:
    """var^{i/n}, the exponent written by format_ratio and braced unless it
    is an integer: q^1, q^{1/2}."""
    e = format_ratio(i, n)
    return f"{var}^{{{e}}}" if "/" in e else f"{var}^{e}"


def _power(var, i: int, n: int = 1) -> str:
    """var^{i/n} as a term or a cutoff spells it: var alone for i/n = 1."""
    return var if i == n else format_power(var, i, n)


def _text(var, terms) -> str:
    """The text of the sum of c var^{i/n} over (i, n, c) in ascending order,
    c a nonzero int or Fraction: the one place that spells a term."""
    out = ""
    for i, n, c in terms:
        mag = abs(c)
        body = str(mag) if mag != 1 or not i else ""
        if i:
            body = (body if mag.denominator == 1 else f"({body})") + \
                _power(var, i, n)
        out += (" + " if c > 0 else " - ") + body
    return "0" if not out else out[3:] if out[1] == "+" else "-" + out[3:]


def format_poly(poly, var: str = "t") -> str:
    """The text of a FracPoly, from its terms."""
    return _text(var, ((e.numerator, e.denominator, c)
                       for e, c in sorted(poly.terms.items())))


def format_rational(f: FracRational, var: str = "t") -> str:
    """Read from the grid: s^shift a(s)/b(s) with s = t^{1/n}, ascending."""
    num, den = (_text(var, ((e + max(h, 0), f.n, c)
                            for e, c in sorted(p.items())))
                for p, h in ((f.a, f.shift), (f.b, -f.shift)))
    return num if f.is_polynomial() else f"({num})/({den})"


def format_series(s: TruncatedSeries, var: str = "t") -> str:
    """Read from the grid: the terms c_k t^{k/n} ascending, then O(cutoff)."""
    cutoff = _power(var, s.cutoff.numerator, s.cutoff.denominator)
    terms = _text(var, ((k, s.n, c) for k, c in sorted(s.coeffs.items())))
    return f"{terms} + O({cutoff})"
