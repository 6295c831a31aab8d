import functools
import math
import random
from fractions import Fraction

import pytest

from conftest import series_of
from stackyfan import qseries
from stackyfan.errors import BudgetExceeded, DivisionByZero, NoExpansionAtZero
from stackyfan.qseries import (FracPoly, FracRational, TruncatedSeries,
                               expand_laurent,
                               expand_series, format_poly, format_rational,
                               format_series, series_equal,
                               substitute_reciprocal)


def P(terms):
    return FracPoly(terms)


def test_poly_mul_difference_of_squares():
    assert P({0: 1, 1: 1}) * P({0: 1, 1: -1}) == P({0: 1, 2: -1})


def test_dense_lists_over_the_budget_raise_before_they_are_built():
    # canonical forms are {exponent: coefficient} dicts, so a sum on the
    # grid t^{1/5000000} and a polynomial of degree 4000000 build no list;
    # reducing (1 - t^4000000)/(1 - t) folds lists of 4000001 entries, and
    # the expansion of 1/(1 - t) up to t^4000001 runs over that many
    fine = FracRational(P({0: 1, 1: 1})) + \
        FracRational(P({Fraction(1, 5 * 10 ** 6): 1}))
    assert fine.n == 5 * 10 ** 6 and len(fine.a) == 3 and fine.is_polynomial()
    long = FracRational(P({0: 1, 4 * 10 ** 6: 1}))
    assert (long.n, long.a, long.b) == (1, {0: 1, 4 * 10 ** 6: 1}, {0: 1})
    with pytest.raises(BudgetExceeded, match="length 4000001 is over the "
                                             "limit of 4000000"):
        FracRational(P({0: 1, 4 * 10 ** 6: -1}), P({0: 1, 1: -1}))
    with pytest.raises(BudgetExceeded, match="length 4000001 "):
        expand_series(FracRational(1, P({0: 1, 1: -1})), 4 * 10 ** 6 + 1)


def test_poly_fractional_exponents():
    half = P({Fraction(1, 2): 1})
    assert half * half == P({1: 1})


def test_poly_cancellation_pruning():
    s = P({0: 1, Fraction(1, 2): 1}) + P({Fraction(1, 2): -1})
    assert s == P({0: 1}) and len(s.terms) == 1


def test_poly_ring_axioms_random():
    rng = random.Random(3)

    def rand_poly():
        return P({Fraction(rng.randint(-3, 6), rng.choice([1, 2, 3])):
                  rng.randint(-4, 4) for _ in range(rng.randint(0, 4))})

    for _ in range(30):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
        assert f + g == g + f


def test_rational_gcd_cancellation():
    r = FracRational(P({0: -1, 1: 1}), P({0: -1, 2: 1}))
    assert r == FracRational(P({0: 1}), P({0: 1, 1: 1}))


def test_rational_mul_clears_factor():
    r = FracRational(P({0: 1, 1: 1, 2: 1}), P({0: 1, 1: 1}))
    assert r * FracRational(P({0: 1, 1: 1})) == \
        FracRational(P({0: 1, 1: 1, 2: 1}))


def test_rational_half_grid_canonical():
    # (t - 1)/(t^{1/2} - 1) = t^{1/2} + 1
    r = FracRational(P({0: -1, 1: 1}), P({0: -1, Fraction(1, 2): 1}))
    assert r.is_polynomial()
    assert r.num == P({0: 1, Fraction(1, 2): 1})


def test_rational_div_round_trip_random():
    rng = random.Random(9)

    def rand_poly():
        return P({Fraction(rng.randint(0, 5), rng.choice([1, 2])):
                  rng.randint(-3, 3) for _ in range(rng.randint(1, 4))})

    for _ in range(25):
        f = FracRational(rand_poly(), P({0: 1, 1: 1}))
        g_num = rand_poly()
        if g_num.is_zero():
            continue
        g = FracRational(g_num)
        assert (f * g) / g == f


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        FracRational(P({0: 1})) / FracRational(P({}))
    with pytest.raises(DivisionByZero):
        FracRational(P({0: 1}), P({}))


def test_substitute_reciprocal_examples():
    r = substitute_reciprocal(FracRational(P({0: 1, 1: 1})))
    assert r == FracRational(P({0: 1, 1: 1}), P({1: 1}))
    palindromic = FracRational(P({0: 1, 1: 1, 2: 1}))
    flipped = FracRational(P({2: 1})) * substitute_reciprocal(palindromic)
    assert flipped == palindromic
    r = substitute_reciprocal(FracRational(P({0: 1}), P({0: 1, 1: -1})))
    assert r == FracRational(P({1: 1}), P({0: -1, 1: 1}))


def test_substitute_reciprocal_involution():
    rng = random.Random(21)
    for _ in range(20):
        num = P({Fraction(rng.randint(0, 4), rng.choice([1, 2])):
                 rng.randint(-3, 3) for _ in range(3)})
        den = P({0: 1, 1: rng.randint(1, 3)})
        if num.is_zero():
            continue
        f = FracRational(num, den)
        assert substitute_reciprocal(substitute_reciprocal(f)) == f


def test_expand_geometric():
    s = expand_series(FracRational(P({0: 1}), P({0: 1, 1: -1})), 3)
    assert s.terms == {Fraction(0): 1, Fraction(1): 1, Fraction(2): 1,
                       Fraction(3): 1}


def test_expand_weighted_example():
    # (1+t+t^2)/(1+t) * 1/(1-t)^2 = 1 + 2t + 4t^2 + ...
    num = P({0: 1, 1: 1, 2: 1})
    den = P({0: 1, 1: 1}) * (P({0: 1, 1: -1}) ** 2)
    s = expand_series(FracRational(num, den), 2)
    assert s.terms == {Fraction(0): 1, Fraction(1): 2, Fraction(2): 4}


def test_expand_half_grid():
    # (1 - t)/(1 - t^{3/2}) = 1 - t + t^{3/2} - t^{5/2} + t^3 + ...
    s = expand_series(FracRational(P({0: 1, 1: -1}),
                                   P({0: 1, Fraction(3, 2): -1})), 3)
    assert s.terms == {Fraction(0): 1, Fraction(1): -1, Fraction(3, 2): 1,
                       Fraction(5, 2): -1, Fraction(3): 1}


def test_expand_no_expansion_at_zero():
    with pytest.raises(NoExpansionAtZero):
        expand_series(FracRational(P({0: 1}), P({1: 1})), 2)


def test_expand_laurent_pole():
    s = expand_laurent(FracRational(P({0: 1}), P({1: 1, 2: -1})), 1)
    assert s.terms == {Fraction(-1): 1, Fraction(0): 1, Fraction(1): 1}


def test_series_equal_cutoff_semantics():
    a = series_of({0: 1, 1: 1}, 1)
    b = series_of({0: 1, 1: 1, 2: 9}, 2)
    c = series_of({0: 1, 1: 2}, 1)
    assert series_equal(a, b)
    assert not series_equal(a, c)
    assert series_equal(series_of({}, 3), series_of({}, 5))


def test_series_holds_no_zero_and_nothing_past_its_cutoff():
    s = TruncatedSeries(2, {0: 0, 1: 5, 2: 1, 3: 1}, 1)
    assert s.coeffs == {1: 5, 2: 1}
    assert s.terms == {Fraction(1, 2): 5, Fraction(1): 1}
    # the top index is floor(cutoff * n), also for a negative cutoff
    s = TruncatedSeries(3, {-4: 1, -3: 2, -2: 3}, Fraction(-5, 6))
    assert s.coeffs == {-4: 1, -3: 2}


def test_series_equal_on_the_lcm_of_two_grids():
    # 1 + t + t^2 on the grids 2 and 3 meet on the grid 6
    a = TruncatedSeries(2, {0: 1, 2: 1, 4: 1}, 2)
    b = TruncatedSeries(3, {0: 1, 3: 1, 6: 1}, 2)
    assert series_equal(a, b) and series_equal(b, a)
    # the same indices on the two grids are not the same terms
    assert not series_equal(TruncatedSeries(2, {0: 1, 1: 1}, 2),
                            TruncatedSeries(3, {0: 1, 1: 1}, 2))
    # unequal cutoffs: a term past one cutoff only is not compared, one
    # within both is
    c = TruncatedSeries(3, {0: 1, 3: 1, 5: 7}, 2)
    assert series_equal(TruncatedSeries(2, {0: 1, 2: 1}, Fraction(3, 2)), c)
    assert not series_equal(TruncatedSeries(2, {0: 1, 2: 1}, 2), c)
    # negative (Laurent) exponents
    laurent = TruncatedSeries(2, {-1: 1, 0: 2}, 1)
    assert series_equal(laurent, TruncatedSeries(6, {-3: 1, 0: 2}, 1))
    assert not series_equal(laurent, TruncatedSeries(3, {-1: 1, 0: 2}, 1))
    # Fraction coefficients, as from a denominator with b[0] != 1:
    # 1/(2 - t) = 1/2 + t/4 + t^2/8 + ...
    f = expand_series(FracRational(1, P({0: 2, 1: -1})), 2)
    assert f.terms == {0: Fraction(1, 2), 1: Fraction(1, 4),
                       2: Fraction(1, 8)}
    assert series_equal(f, TruncatedSeries(
        3, {0: Fraction(1, 2), 3: Fraction(1, 4), 6: Fraction(1, 8)}, 2))
    assert not series_equal(f, TruncatedSeries(
        3, {0: Fraction(1, 2), 3: Fraction(1, 4), 6: Fraction(1, 7)}, 2))


def test_format_poly():
    assert format_poly(P({})) == "0"
    assert format_poly(P({0: 1, Fraction(1, 2): 1, 1: 1})) == \
        "1 + t^{1/2} + t"
    assert format_poly(P({0: 1, 1: -2, 3: Fraction(1, 2)})) == \
        "1 - 2t + (1/2)t^3"
    assert format_poly(P({2: -1})) == "-t^2"
    assert format_poly(P({1: 1}), "q") == "q"


def test_format_rational_and_series():
    r = FracRational(P({0: 1, 1: 1, 2: 1}), P({0: 1, 1: 1}))
    assert format_rational(r) == "(1 + t + t^2)/(1 + t)"
    s = series_of({0: 1, Fraction(1, 2): 1}, Fraction(3, 2))
    assert format_series(s) == "1 + t^{1/2} + O(t^{3/2})"


def test_canonical_form_in_lowest_terms_on_a_fine_grid():
    # dense length 2000 on the grid N = 3603
    binom = P({0: 1, Fraction(1000, 1201): -1})
    r = FracRational(binom * P({0: 1, Fraction(1, 3): 1}), binom)
    assert r.is_polynomial()
    assert format_rational(r) == "1 + t^{1/3}"


# ---------------------------------------------------------------------------
# Rendering from the grid: seeded comparison with the FracPoly route


def _reference_power(var, e):
    if e == 1:
        return var
    return f"{var}^{e.numerator}" if e.denominator == 1 else f"{var}^{{{e}}}"


def _reference_format_poly(poly, var="t"):
    """The text of a FracPoly read term by term from its Fraction exponents
    and coefficients: the route format_rational took through num and den."""
    power = functools.partial(_reference_power, var)
    parts = []
    for e in sorted(poly.terms):
        c = poly.terms[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif mag == 1:
            body = power(e)
        elif mag.denominator == 1:
            body = f"{mag.numerator}{power(e)}"
        else:
            body = f"({mag}){power(e)}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) or "0"


def _reference_format_rational(f, var="t"):
    if f.is_polynomial():
        return _reference_format_poly(f.num, var)
    return (f"({_reference_format_poly(f.num, var)})/"
            f"({_reference_format_poly(f.den, var)})")


def _random_canonical(rng):
    """A canonical form on a grid n | 12, of value zero in about one case
    in ten; the denominator is 1 or a random polynomial, in one case in
    three times a power of t that leaves a negative shift."""
    n = rng.choice([1, 2, 4, 6, 12])

    def poly():
        return P({Fraction(rng.randint(0, 3 * n), n):
                  rng.choice([-1, 1, -1, 1, 2, -3, 7, -12])
                  for _ in range(rng.randint(1, 6))})

    num = P({}) if rng.random() < 0.1 else poly()
    den = P({0: 1}) if rng.random() < 0.3 else poly()
    if rng.random() < 0.3:
        den = den * P({Fraction(rng.randint(1, 2 * n), n): 1})
    return FracRational(num, den)


def _grid_terms(f):
    """(exponent numerator on the grid, n, coefficient) of every term."""
    return [(i + max(s, 0), f.n, c) for p, s in ((f.a, f.shift),
                                                 (f.b, -f.shift))
            for i, c in p.items()]


def test_format_rational_matches_the_fracpoly_route(monkeypatch):
    rng = random.Random(2008)
    forms = [_random_canonical(rng) for _ in range(300)]
    terms = [t for f in forms for t in _grid_terms(f)]
    # the sample reaches every case of the text contract
    assert any(f.is_zero() for f in forms)
    assert any(f.shift < 0 for f in forms)
    assert any(n > 1 and 1 < math.gcd(i, n) < n for i, n, _ in terms)
    assert any(n > 1 and i == n for i, n, _ in terms)
    assert {-1, 1} <= {c for *_, c in terms}
    assert any(abs(c) > 1 for *_, c in terms)
    cases = [(f, var) for f in forms for var in ("t", "q", "uv")]
    expected = [_reference_format_rational(f, var) for f, var in cases]
    assert [format_rational(f, var) for f, var in cases] == expected

    def forbidden(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(qseries, "Fraction", forbidden)
    assert [format_rational(f, var) for f, var in cases] == expected


def test_format_poly_and_series_match_the_fracpoly_route():
    # Fraction coefficients and negative exponents, which no canonical
    # form has, go through the same per-term text
    rng = random.Random(437)
    for _ in range(100):
        terms = {Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 6])):
                 Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 5]))
                 for _ in range(rng.randint(0, 6))}
        var = rng.choice(["t", "q", "uv"])
        poly = P(terms)
        assert format_poly(poly, var) == _reference_format_poly(poly, var)
        cutoff = Fraction(rng.randint(-4, 9), rng.choice([1, 2, 3]))
        series = series_of(terms, cutoff)
        assert format_series(series, var) == \
            f"{_reference_format_poly(P(series.terms), var)} + " \
            f"O({_reference_power(var, cutoff)})"


# ---------------------------------------------------------------------------
# Canonical forms: seeded random property test


def _random_poly(rng, grid, top):
    """Nonzero, with up to four terms."""
    p = P({Fraction(rng.randint(-grid, top * grid), grid):
           Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
           for _ in range(rng.randint(1, 4))})
    return P({0: 1}) if p.is_zero() else p


def _binomial(e):
    return P({0: 1, e: -1})


def _random_fraction(rng, grid):
    """(num, den, extra).  A long den is a product of binomials 1 - t^c with
    dense length above 1200; a short one is a non-binomial polynomial such
    as 1 + 2t times short binomials.  num shares some factors with den, and
    num * extra / (den * extra) is the same value."""
    if grid > 3:
        cs = [Fraction(1301, grid)] + [Fraction(rng.randint(grid // 2, 2 * grid),
                                                 grid)
                                        for _ in range(rng.randint(1, 3))]
        den = P({0: rng.choice([1, -2, 3])})
        for c in cs:
            den = den * _binomial(c)
        shared = [rng.choice(cs) * rng.choice([Fraction(1, 2), 1, 2])
                  for _ in range(rng.randint(0, 3))]
        extra = _binomial(rng.choice(cs) * 2) * P({Fraction(-1, grid): 2})
    else:
        den = rng.choice([P({0: 1, 1: 2}), P({0: 3, Fraction(1, 2): -1, 1: 2}),
                          P({Fraction(1, 2): 1, 2: -5})])
        den = den * _random_poly(rng, grid, 2)
        shared = [Fraction(rng.randint(1, 4), grid)
                  for _ in range(rng.randint(0, 2))]
        for c in shared:
            den = den * _binomial(c)
        extra = _random_poly(rng, 2, 2)
    num = _random_poly(rng, rng.choice([1, 2, grid]), 3)
    for c in shared:
        num = num * _binomial(c)
    return num, den, extra


def _on_grid(sympy, s, poly, grid):
    return sympy.Poly.from_dict({(int(e * grid),): int(c)
                                 for e, c in poly.terms.items()}, s)


def test_canonical_forms_random():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    rng = random.Random(20080437)
    for i in range(16):
        grid = [420, 1, 1201, 2, 420, 3, 1201, 2][i % 8]
        num, den, extra = _random_fraction(rng, grid)
        f = FracRational(num, den)
        if grid > 3:
            assert math.lcm(*(e.denominator for e in den.terms)) * \
                max(den.terms) > 1200
        # canonical forms are fixed points of canonicalisation
        again = FracRational(f.num, f.den)
        assert (again.num, again.den) == (f.num, f.den)
        for p in (f.num, f.den):
            assert all(c.denominator == 1 for c in p.terms.values())
            assert min(p.terms) >= 0
        # == agrees with exact cross-multiplication; equal values hash equal
        same = FracRational(num * extra, den * extra)
        assert same == f and hash(same) == hash(f)
        g_num, g_den, _ = _random_fraction(rng, grid)
        g = FracRational(g_num, g_den)
        n = math.lcm(f.n, g.n)
        a_f, b_f = _on_grid(sympy, s, f.num, n), _on_grid(sympy, s, f.den, n)
        a_g, b_g = _on_grid(sympy, s, g.num, n), _on_grid(sympy, s, g.den, n)
        assert (f == g) == (a_f * b_g == a_g * b_f)
        if grid <= 3:
            assert (f + g) - g == f
        # numerator and denominator coprime, checked independently
        assert sympy.gcd(a_f, b_f).degree() == 0


# ---------------------------------------------------------------------------
# Expansion: seeded comparison with sympy's series


def test_expansion_matches_sympy_random():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    rng = random.Random(437)
    for i in range(8):
        grid = [1, 2, 6, 420][i % 4]
        pole = i >= 4
        # denominators such as 3 - 2t^{1/grid}, whose lowest coefficient is
        # not +-1, times a short random factor; a pole at 0 in half the cases
        den = P({0: rng.choice([3, -2, 5, 1]), Fraction(1, grid): -2}) * P(
            {0: rng.randint(1, 3),
             Fraction(rng.randint(1, 12), grid): rng.randint(-3, 3)})
        if pole:
            den = den * P({Fraction(rng.randint(1, 9), grid): 1})
        num = P({Fraction(rng.randint(0, 12), grid): rng.randint(-4, 4)
                 for _ in range(3)}) + P({0: 5, Fraction(1, grid): 1})
        f = FracRational(num, den)
        assert f.n == grid
        assert all(type(x) is int for x in (f.n, f.shift, *f.a, *f.b,
                                            *f.a.values(), *f.b.values()))
        cutoff = Fraction(rng.randint(0, 20), grid)
        a, b = (sum(int(c) * s ** int(e * grid) for e, c in p.terms.items())
                for p in (num, den))
        top = int(cutoff * grid)
        ref = sympy.series(a / b, s, 0, top + 1).removeO()
        # lifted by s^64 past any pole to read it as a polynomial
        lifted = sympy.Poly(sympy.expand(ref * s ** 64), s)
        expected = {Fraction(k - 64, grid): Fraction(int(c.p), int(c.q))
                    for (k,), c in lifted.terms() if c}
        if pole:
            with pytest.raises(NoExpansionAtZero):
                expand_series(f, cutoff)
            got = expand_laurent(f, cutoff)
        else:
            got = expand_series(f, cutoff)
        assert got.terms == expected and got.cutoff == cutoff
