"""Output checks for benchmark requests.

Every expected value here is computed from the fan document alone, with
code that shares nothing with the package under test: box elements come
from the group Z^d / <b_i> of each maximal cone, lattice points from a
plain scan with exact inverse matrices, and rational functions are parsed
back from the rendered text.  A check returns None when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import combinations

# Lines by which the program reports that one of its own cross-checks failed.
SELF_CHECK_FAILURES = ("): FAILED", "invariance: false", "symmetric: false",
                       "refinement: no")

FAILURE_KINDS = ("exception", "exit_code", "check")


def classify(code, output, exc, check) -> str | None:
    """The failure kind of one request, or None when it succeeded.

    An exception escaping the entry point, a failed self-check line, an
    exit code other than 0 and a wrong output are told apart in that order.
    """
    if exc is not None:
        return "exception"
    if any(marker in output for marker in SELF_CHECK_FAILURES):
        return "check"
    if code != 0:
        return "exit_code"
    return "check" if check(output) is not None else None


# ---------------------------------------------------------------------------
# Exact lattice geometry of a fan document


def _inverse(columns):
    """Inverse of the square matrix with the given columns, or None."""
    d = len(columns)
    rows = [[Fraction(columns[j][i]) for j in range(d)]
            + [Fraction(int(i == k)) for k in range(d)] for i in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(d):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[d:] for row in rows]


def _det(columns) -> Fraction:
    rows = [[Fraction(x) for x in col] for col in columns]
    d, det = len(rows), Fraction(1)
    for col in range(d):
        piv = next((r for r in range(col, d) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, d):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def _apply(matrix, v):
    return tuple(sum(m * x for m, x in zip(row, v)) for row in matrix)


class FanGeometry:
    """Rays, weights and cones of one document, with the reference values
    the checks compare against.  Every maximal cone must be full
    dimensional, as in all generated documents."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.rank = doc["rank"]
        self.b = [tuple(a * x for x in r)
                  for r, a in zip(doc["rays"], doc["weights"])]
        self.maximal = [tuple(sorted(c)) for c in doc["cones"]]
        cones = set()
        for c in self.maximal:
            if len(c) != self.rank:
                raise ValueError("reference checks need full-dimensional cones")
            for k in range(len(c) + 1):
                cones.update(combinations(c, k))
        self.cones = sorted(cones)
        self._inverses = {c: _inverse([self.b[i] for i in c])
                          for c in self.maximal}
        self._box = None

    def b_coordinates(self, point):
        """(maximal cone, coordinates w.r.t. its b_i) of a point of the
        support, or None outside it."""
        for c in self.maximal:
            q = _apply(self._inverses[c], point)
            if all(x >= 0 for x in q):
                return c, q
        return None

    def psi(self, point):
        found = self.b_coordinates(point)
        return None if found is None else sum(found[1], Fraction(0))

    def box(self) -> dict:
        """cone -> sorted list of (point, q) over BOX(cone)."""
        if self._box is None:
            self._box = self._enumerate_box()
        return self._box

    def _enumerate_box(self):
        out = {c: {} for c in self.cones}
        for sigma in self.maximal:
            inv = self._inverses[sigma]
            gens = [tuple(x % 1 for x in (row[j] for row in inv))
                    for j in range(self.rank)]
            zero = (Fraction(0),) * self.rank
            group, frontier = {zero}, [zero]
            while frontier:
                nxt = []
                for g in frontier:
                    for h in gens:
                        s = tuple((x + y) % 1 for x, y in zip(g, h))
                        if s not in group:
                            group.add(s)
                            nxt.append(s)
                frontier = nxt
            for q in group:
                tau = tuple(i for i, x in zip(sigma, q) if x != 0)
                q_tau = tuple(x for x in q if x != 0)
                point = tuple(int(sum(x * self.b[i][k] for i, x in zip(tau, q_tau)))
                              for k in range(self.rank))
                out[tau][point] = q_tau
        return {c: sorted(elems.items()) for c, elems in out.items()}

    def delta_at_one(self, lam) -> Fraction:
        """The weighted delta-vector at t = 1: sum over cones tau of
        |BOX(tau)| times sum over maximal sigma >= tau of
        prod_{i in sigma} 1/(lam_i + 1)."""
        total = Fraction(0)
        for tau, elems in self.box().items():
            for sigma in self.maximal:
                if set(tau) <= set(sigma):
                    w = Fraction(1)
                    for i in sigma:
                        w /= lam[i] + 1
                    total += len(elems) * w
        return total

    def det_sum(self) -> int:
        """Normalised volume: sum over maximal cones of |det b_sigma|."""
        return sum(abs(_det([self.b[i] for i in sigma]))
                   for sigma in self.maximal)

    def grid_n(self, lam) -> int:
        """lcm of the denominators of every exponent the closed formula
        forms: box coordinates, lam(b_i) and their products."""
        return math.lcm(*(v.denominator for v in lam),
                        *(y.denominator for tau, elems in self.box().items()
                          for _, q in elems for i, x in zip(tau, q)
                          for y in (x, x * lam[i])))


# ---------------------------------------------------------------------------
# Parsing rendered output


_TERM = re.compile(r"^(?:\((?P<frac>\d+/\d+)\)|(?P<num>\d+(?:/\d+)?))?"
                   r"(?:(?P<var>uv|q|t)(?:\^(?:\{(?P<bexp>-?\d+/\d+)\}"
                   r"|(?P<exp>-?\d+)))?)?$")


def parse_poly(text: str) -> dict:
    """Exponent -> coefficient of a rendered polynomial in t, q or uv."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    items = [("+", tokens[0])] + list(zip(tokens[1::2], tokens[2::2]))
    if len(tokens) % 2 == 0 or any(s not in ("+", "-") for s, _ in items[1:]):
        raise ValueError(f"malformed polynomial {text!r}")
    terms = {}
    for sign, body in items:
        if body.startswith("-"):
            sign, body = "-", body[1:]
        m = _TERM.match(body)
        if not m or not body:
            raise ValueError(f"malformed term {body!r}")
        coeff = Fraction(m["frac"] or m["num"] or 1)
        if m["var"] is None:
            exp = Fraction(0)
        else:
            exp = Fraction(m["bexp"] or m["exp"] or 1)
        if exp in terms or coeff == 0:
            raise ValueError(f"repeated or zero term {body!r}")
        terms[exp] = -coeff if sign == "-" else coeff
    return terms


def parse_rational(text: str):
    """(numerator, denominator) term dicts of a rendered rational function."""
    text = text.strip()
    cut = text.find(")/(")
    if text.startswith("(") and text.endswith(")") and cut >= 0:
        return parse_poly(text[1:cut]), parse_poly(text[cut + 3:-1])
    return parse_poly(text), {Fraction(0): Fraction(1)}


def _derivative_at_one(terms: dict, grid: int, order: int) -> Fraction:
    """order-th derivative in s = t^{1/grid} at s = 1."""
    total = Fraction(0)
    for e, c in terms.items():
        k = int(e * grid)
        f = 1
        for j in range(order):
            f *= k - j
        total += c * f
    return total


def value_at_one(num: dict, den: dict):
    """num/den at t = 1 by l'Hopital in s = t^{1/N}; None at a pole."""
    grid = math.lcm(*(e.denominator for e in list(num) + list(den)))
    for order in range(64):
        top = _derivative_at_one(num, grid, order)
        bottom = _derivative_at_one(den, grid, order)
        if bottom != 0:
            return top / bottom
        if top != 0:
            return None
    return None


def expand(num: dict, den: dict, cutoff: Fraction) -> dict:
    """Ascending series of num/den up to the cutoff exponent."""
    grid = math.lcm(cutoff.denominator,
                    *(e.denominator for e in list(num) + list(den)))
    a = {int(e * grid): c for e, c in num.items()}
    b = {int(e * grid): c for e, c in den.items()}
    low = min(b)
    b = {k - low: c for k, c in b.items()}
    b0 = b.pop(0)
    top = int(cutoff * grid)
    start = min(a) - low if a else top + 1
    out = {}
    for k in range(start, top + 1):
        c = a.get(k + low, Fraction(0))
        for j, bj in b.items():
            c -= bj * out.get(k - j, Fraction(0))
        c /= b0
        if c != 0:
            out[k] = c
    return {Fraction(k, grid): c for k, c in out.items()}


# ---------------------------------------------------------------------------
# Expected renderings


def _fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else str(x)


def _vec(v) -> str:
    return "[" + ", ".join(_fmt(x) for x in v) + "]"


def expected_box(geo: FanGeometry) -> str:
    lines = []
    for tau in geo.cones:
        for point, q in geo.box()[tau]:
            order = math.lcm(*(x.denominator for x in q))
            lines.append(f"cone {_vec(tau)}: point {_vec(point)}, "
                         f"q = {_vec(q)}, order {order}")
    return "\n".join(lines) + "\n"


def expected_ages(geo: FanGeometry) -> str:
    lines = [f"point {_vec(point)}: age {_fmt(sum(q, Fraction(0)))}"
             for tau in geo.cones for point, q in geo.box()[tau]]
    return "\n".join(lines) + "\n"


def _poly_mul(f: dict, g: dict) -> dict:
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def expected_betti(geo: FanGeometry) -> str:
    """Gamma(X, 0)(q) = q^d delta(1/q), delta = sum_tau h_tau(t) *
    sum_{v in BOX(tau)} t^{age(v)}, h_tau = sum_{sigma >= tau}
    t^{dim sigma - dim tau} (1 - t)^{d - dim sigma}."""
    d = geo.rank
    delta = {}
    for tau in geo.cones:
        ages = {}
        for _, q in geo.box()[tau]:
            a = sum(q, Fraction(0))
            ages[a] = ages.get(a, 0) + 1
        if not ages:
            continue
        h = {}
        for sigma in geo.cones:
            if set(tau) <= set(sigma):
                k = d - len(sigma)
                for j in range(k + 1):
                    e = Fraction(len(sigma) - len(tau) + j)
                    h[e] = h.get(e, 0) + (-1) ** j * math.comb(k, j)
        for e, c in _poly_mul(h, ages).items():
            delta[e] = delta.get(e, 0) + c
    betti = {d - e: c for e, c in delta.items() if c != 0}
    lines = []
    for e in sorted(betti):
        power = f"q^{e.numerator}" if e.denominator == 1 else f"q^{{{e}}}"
        lines.append(f"{power}: {betti[e]}")
    return "\n".join(lines) + "\n"


def delta_closed(geo: FanGeometry, lam) -> tuple:
    """(numerator, denominator) term dicts of the weighted delta-vector.

    It is (1 - t)^d times the sum of t^{psi(x) + lam(x)} over the lattice
    points x of the support.  A point in the relative interior of sigma is
    v + sum_{i in tau} n_i b_i + sum_{i in sigma - tau} m_i b_i with v in
    BOX(tau), n_i >= 0 and m_i >= 1, and b_i adds 1 + lam_i to the
    exponent.  Over the common denominator prod_i (1 - t^{1 + lam_i}):
    numerator = (1 - t)^d sum_tau sum_{v in BOX(tau)} t^{age(v) + lam(v)}
    sum_{sigma >= tau} t^{sum_{sigma - tau} (1 + lam_i)}
    prod_{i not in sigma} (1 - t^{1 + lam_i})."""
    zero = Fraction(0)
    binom = [{zero: Fraction(1), 1 + x: Fraction(-1)} for x in lam]
    total = {}
    for tau, elems in geo.box().items():
        if not elems:
            continue
        box_sum = {}
        for _, q in elems:
            e = sum((x * (1 + lam[i]) for i, x in zip(tau, q)), Fraction(0))
            box_sum[e] = box_sum.get(e, 0) + 1
        for sigma in geo.cones:
            if not set(tau) <= set(sigma):
                continue
            term = {sum((1 + lam[i] for i in sigma if i not in tau),
                        Fraction(0)): Fraction(1)}
            for i in range(len(lam)):
                if i not in sigma:
                    term = _poly_mul(term, binom[i])
            for e, c in _poly_mul(box_sum, term).items():
                total[e] = total.get(e, 0) + c
    numerator = {e: c for e, c in total.items() if c != 0}
    for _ in range(geo.rank):
        numerator = _poly_mul(numerator, {zero: Fraction(1),
                                          Fraction(1): Fraction(-1)})
    denominator = {zero: Fraction(1)}
    for b in binom:
        denominator = _poly_mul(denominator, b)
    return numerator, denominator


def _check_rational(first_line: str, geo: FanGeometry, lam,
                    gamma: bool = False) -> str | None:
    """The rendered rational function is delta^lam(t) or, for gamma,
    q^d delta^lam(1/q): first its value at 1, then exactly, by
    cross-multiplying with the reference."""
    try:
        num, den = parse_rational(first_line)
    except ValueError as exc:
        return str(exc)
    got = value_at_one(num, den)
    want = geo.delta_at_one(lam)
    if got != want:
        return f"value at 1 is {got}, expected {want}"
    ref_num, ref_den = delta_closed(geo, lam)
    if gamma:
        ref_num = {geo.rank - e: c for e, c in ref_num.items()}
        ref_den = {-e: c for e, c in ref_den.items()}
    if _poly_mul(num, ref_den) != _poly_mul(ref_num, den):
        return "rational function differs from the closed formula"
    return None


def _named(doc, block, name):
    if name == "zero":
        return (Fraction(0),) * len(doc["rays"])
    return tuple(Fraction(v) for v in doc[block][name])


def check_output(kind: str, geo: FanGeometry, params: dict,
                 output: str) -> str | None:
    """None when output is the right answer to the request."""
    doc = geo.doc
    lines = output.splitlines()
    if kind == "validate":
        return None if output == "ok\n" else "validate did not print ok"
    if kind == "box":
        return None if output == expected_box(geo) else "box elements differ"
    if kind == "ages":
        return None if output == expected_ages(geo) else "ages differ"
    if kind == "betti":
        return None if output == expected_betti(geo) else "betti numbers differ"
    if kind == "symmetry":
        return None if output == "symmetric: true\n" else "not symmetric"
    if kind == "weighted-delta":
        lam = _named(doc, "functionals", params["lambda"])
        problem = _check_rational(lines[0], geo, lam)
        if problem or "cutoff" not in params:
            return problem
        return _check_series(lines, params["cutoff"])
    if kind == "gamma":
        beta = _named(doc, "divisors", params["divisor"])
        problem = _check_rational(lines[0], geo, tuple(-b for b in beta),
                                  gamma=True)
        if problem or "bound" not in params:
            return problem
        want = f"direct check (bound {_fmt(params['bound'])}): ok"
        return None if lines[1:] == [want] else "direct check line missing"
    if kind == "ehrhart":
        return _check_ehrhart(geo, params["max_m"], lines)
    if kind == "orbit-poset":
        return _check_orbit_poset(geo, params["bound"], lines)
    if kind == "subdivide":
        return _check_subdivide(geo, params, output)
    if kind == "refine-check":
        if output == "refinement: yes\ninvariance: true\n":
            return None
        return "refinement or invariance not confirmed"
    raise ValueError(f"no check for {kind!r}")


def _check_series(lines, cutoff: Fraction) -> str | None:
    if len(lines) != 2 or not lines[1].startswith("series: "):
        return "series line missing"
    body, sep, _ = lines[1][len("series: "):].rpartition(" + O(")
    if not sep:
        return "series line malformed"
    try:
        series = parse_poly(body)
        num, den = parse_rational(lines[0])
    except ValueError as exc:
        return str(exc)
    if series != expand(num, den, cutoff):
        return "series oracle disagrees with the closed form"
    return None


def _check_ehrhart(geo: FanGeometry, max_m: int, lines) -> str | None:
    """f is the Ehrhart polynomial of a lattice complex of dimension d: its
    delta-vector vanishes above degree d and sums to the normalised
    volume sum |det b_sigma|."""
    want = [f"f({m}) = " for m in range(max_m + 1)]
    if len(lines) != len(want) or any(not l.startswith(w)
                                      for l, w in zip(lines, want)):
        return "ehrhart lines malformed"
    f = [int(l.split(" = ")[1]) for l in lines]
    d = geo.rank
    delta = [sum((-1) ** k * math.comb(d + 1, k) * f[j - k]
                 for k in range(min(j, d + 1) + 1))
             for j in range(max_m + 1)]
    if f[0] != 1 or any(delta[d + 1:]):
        return "counts are not an Ehrhart polynomial of degree d"
    if sum(delta) != geo.det_sum():
        return f"normalised volume {sum(delta)}, expected {geo.det_sum()}"
    return None


def _check_orbit_poset(geo: FanGeometry, bound: Fraction, lines) -> str | None:
    reach = max(abs(x) for v in geo.b for x in v) * math.ceil(bound)
    want = []
    for point in _grid(geo.rank, reach):
        p = geo.psi(point)
        if p is not None and p <= bound:
            want.append(point)
    labels = [l for l in lines if l.startswith("label ")]
    covers = [l for l in lines if l.startswith("cover ")]
    if len(labels) + len(covers) != len(lines):
        return "unexpected orbit-poset line"
    if labels != [f"label {_vec(p)}" for p in sorted(want)]:
        return "orbit labels differ from the lattice points with psi <= bound"
    psi = {_vec(p): geo.psi(p) for p in want}
    for line in covers:
        a, _, b = line[len("cover "):].partition(" -> ")
        if a not in psi or b not in psi or not psi[a] < psi[b]:
            return f"bad cover {line!r}"
    return None


def _grid(rank, reach):
    if rank == 0:
        yield ()
        return
    for rest in _grid(rank - 1, reach):
        for x in range(-reach, reach + 1):
            yield rest + (x,)


def _check_subdivide(geo: FanGeometry, params: dict, output: str) -> str | None:
    """Stellar subdivision of a rank-2 fan at a point w inside a
    two-dimensional cone: that cone is split in two at the new ray."""
    w = params["at"]
    try:
        got = json.loads(output)
    except json.JSONDecodeError:
        return "subdivide output is not JSON"
    g = math.gcd(*w)
    v = [x // g for x in w]
    found = geo.b_coordinates(w)
    if found is None:
        return "subdivision point outside the support"
    cone, q = found
    if any(x == 0 for x in q):
        return "subdivision point not inside a two-dimensional cone"
    new = len(geo.doc["rays"])
    cones = [c for c in geo.maximal if c != cone]
    cones += [(cone[0], new), (cone[1], new)]
    want = {"rank": geo.rank,
            "rays": [list(r) for r in geo.doc["rays"]] + [v],
            "weights": list(geo.doc["weights"]) + [params["weight"]],
            "cones": sorted([list(c) for c in cones]),
            "support": geo.doc["support"]}
    return None if got == want else "subdivided fan differs"
