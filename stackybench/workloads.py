"""Workload generation: fan documents and the request mix of each workload.

Each workload draws a fixed catalogue of random fans from CATALOGUE_SEED.
The run's --seed then applies to every fan a random lattice symmetry (a
signed permutation of the coordinates) and a random relabelling of its
rays, and shuffles the request order.  So different seeds send different
documents that need exactly the same arithmetic.  Fresh random fans per
seed are not used: their run time is heavy-tailed (one closed form in
twenty costs ten times the median), so a run's time would vary by about
30 % between seeds, more than any bound this benchmark can hold.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

CATALOGUE_SEED = 8050437

WORKLOADS = ("closed_forms", "oracle_checks", "refinement")

# The complete rank-2 fan on which Gamma(X, 0) is not reduced to a
# polynomial (exponent grid N = 462, dense length 3234 > the gcd limit),
# so `betti` trips an assertion; kept in closed_forms as a known failure.
BETTI_DEFECT_FAN = ([(3, 1), (-1, 2), (-2, 3), (-3, -1), (2, -3)],
                    [3, 1, 2, 3, 1])

_PRIMITIVE_2D = [(x, y) for x in range(-3, 4) for y in range(-3, 4)
                 if (x, y) != (0, 0) and math.gcd(x, y) == 1]


@dataclass
class Request:
    """One CLI invocation: `kind <fan> [--fine <fine>] *args`."""

    kind: str
    fan: str
    args: tuple = ()
    params: dict = field(default_factory=dict)
    fine: str | None = None   # document passed as --fine


@dataclass
class Workload:
    docs: dict                # document name -> fan document (JSON dict)
    requests: list
    # fine document name -> (coarse document name, [(point, multiplicity)]),
    # built with the program's own stellar subdivision during set-up
    chains: dict = field(default_factory=dict)


def _det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _by_angle(vectors):
    return sorted(vectors, key=lambda v: math.atan2(v[1], v[0]))


def _quarter(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), 4)


def _complete_rank2(rng, max_weight):
    """3-5 rays in angular order, every consecutive pair a strictly convex
    cone, so the cones cover the plane."""
    while True:
        rays = _by_angle(rng.sample(_PRIMITIVE_2D, rng.randint(3, 5)))
        n = len(rays)
        if all(_det2(rays[i], rays[(i + 1) % n]) > 0 for i in range(n)):
            break
    weights = [rng.randint(1, max_weight) for _ in rays]
    return _fan(2, rays, weights, [(i, (i + 1) % n) for i in range(n)],
                "complete")


def _convex_rank2(rng, max_weight):
    """One cone, or two adjacent cones whose union is strictly convex."""
    n = rng.randint(2, 3)
    while True:
        rays = _by_angle(rng.sample(_PRIMITIVE_2D, n))
        turns = [rays[k:] + rays[:k] for k in range(n)]
        turns = [r for r in turns if _det2(r[0], r[-1]) > 0 and all(
            _det2(r[i], r[i + 1]) > 0 for i in range(n - 1))]
        if turns:
            break
    weights = [rng.randint(1, max_weight) for _ in turns[0]]
    return _fan(2, turns[0], weights, [(i, i + 1) for i in range(n - 1)],
                "convex")


def _simplex_rank3(rng, max_weight):
    """Rays e1, e2, e3 and a primitive apex (-a, -b, -c)."""
    while True:
        apex = tuple(-rng.randint(1, 2) for _ in range(3))
        if math.gcd(*apex) == 1:
            break
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), apex]
    weights = [rng.randint(1, max_weight) for _ in rays]
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return _fan(3, rays, weights, cones, "complete")


def _fan(rank, rays, weights, cones, support):
    return {"rank": rank, "rays": [list(r) for r in rays],
            "weights": list(weights), "cones": [sorted(c) for c in cones],
            "support": support}


def _with_names(doc, rng):
    """Add functional L (quarter grid, values in (-1, 2]) and klt divisor
    E (quarter grid, coefficients <= 1/2)."""
    n = len(doc["rays"])
    doc["functionals"] = {"L": [_quarter(rng, -3, 8) for _ in range(n)]}
    doc["divisors"] = {"E": [_quarter(rng, -4, 2) for _ in range(n)]}
    return doc


# ---------------------------------------------------------------------------
# Seed-dependent relabelling


def _symmetry(rng, rank):
    perm = list(range(rank))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(rank)]
    return lambda v: [signs[k] * v[perm[k]] for k in range(rank)]


def _relabel(doc, rng):
    """Apply a lattice symmetry and a ray permutation; returns the new
    document and the map of coordinates."""
    move = _symmetry(rng, doc["rank"])
    n = len(doc["rays"])
    order = list(range(n))
    rng.shuffle(order)               # new index k holds old ray order[k]
    new_index = {old: k for k, old in enumerate(order)}
    out = {"rank": doc["rank"],
           "rays": [move(doc["rays"][old]) for old in order],
           "weights": [doc["weights"][old] for old in order],
           "cones": sorted(sorted(new_index[i] for i in c) for c in doc["cones"]),
           "support": doc["support"]}
    for block in ("divisors", "functionals"):
        if block in doc:
            out[block] = {name: [values[old] for old in order]
                          for name, values in doc[block].items()}
    return out, move


def render(doc) -> dict:
    """The document with rationals as JSON integers or 'p/q' strings."""
    def value(x):
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else str(x)
    out = dict(doc)
    for block in ("divisors", "functionals"):
        if block in doc:
            out[block] = {name: [value(x) for x in values]
                          for name, values in doc[block].items()}
    return out


# ---------------------------------------------------------------------------
# Workloads


# closed-form requests: kind -> (arguments, check parameters)
HEAVY_REQUESTS = {
    "weighted-delta": (("--lambda", "L"), {"lambda": "L"}),
    "gamma": (("--divisor", "E"), {"divisor": "E"}),
    "symmetry": (("--lambda", "L"), {}),
    "betti": ((), {}),
}


def _closed_forms(catalogue, rng):
    fans = [_with_names(_complete_rank2(catalogue, 3), catalogue)
            for _ in range(11)]
    fans += [_with_names(_simplex_rank3(catalogue, 3), catalogue)
             for _ in range(4)]
    rays, weights = BETTI_DEFECT_FAN
    defect = _fan(2, rays, weights, [(i, (i + 1) % 5) for i in range(5)],
                  "complete")
    fans.append(_with_names(defect, catalogue))
    docs, requests = {}, []
    for k, doc in enumerate(fans):
        name = f"fan{k:02d}"
        docs[name], _ = _relabel(doc, rng)
        heavy = "betti" if doc is defect else list(HEAVY_REQUESTS)[k % 4]
        requests.append(Request(heavy, name, *HEAVY_REQUESTS[heavy]))
        for cheap in ("box", "ages", "validate"):
            requests.append(Request(cheap, name))
    return docs, requests, {}


def _oracle_checks(catalogue, rng):
    fans = [_complete_rank2(catalogue, 2) for _ in range(6)]
    fans += [_convex_rank2(catalogue, 2) for _ in range(8)]
    docs, requests = {}, []
    for k, doc in enumerate(fans):
        name = f"fan{k:02d}"
        docs[name], _ = _relabel(doc, rng)
        requests += [
            Request("gamma", name, ("--divisor", "zero", "--check-direct", "2"),
                    {"divisor": "zero", "bound": Fraction(2)}),
            Request("weighted-delta", name,
                    ("--lambda", "zero", "--series-cutoff", "2"),
                    {"lambda": "zero", "cutoff": Fraction(2)}),
            Request("ehrhart", name, ("--max-m", "4"), {"max_m": 4}),
            Request("orbit-poset", name, ("--bound", "1"),
                    {"bound": Fraction(1)}),
        ]
    return docs, requests, {}


def _subdivision_chain(doc, rng):
    """1-3 stellar subdivisions of a complete rank-2 fan whose rays are in
    angular order, each at b_i + b_j of a random cone; the new ray's weight
    is the content of that point, so its b-vector is the point itself."""
    ring = [(tuple(r), a) for r, a in zip(doc["rays"], doc["weights"])]
    chain = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(ring))
        (u, a), (v, c) = ring[k], ring[(k + 1) % len(ring)]
        w = (a * u[0] + c * v[0], a * u[1] + c * v[1])
        g = math.gcd(*w)
        chain.append((w, g))
        ring.insert(k + 1, ((w[0] // g, w[1] // g), g))
    return chain


def _refinement(catalogue, rng):
    fans = [_with_names(_complete_rank2(catalogue, 2), catalogue)
            for _ in range(8)]
    docs, requests, chains = {}, [], {}
    for k, doc in enumerate(fans):
        name = f"fan{k:02d}"
        docs[name], move = _relabel(doc, rng)
        for j in range(2):
            fine = f"{name}_fine{j}"
            chains[fine] = (name, [(tuple(move(w)), g) for w, g in
                                   _subdivision_chain(doc, catalogue)])
            requests.append(Request("refine-check", name, ("--lambda", "L"),
                                    fine=fine))
        n = len(doc["rays"])
        # subdivide at k1 b_i + k2 b_j inside a cone; weight = content, as above
        for _ in range(3):
            i = catalogue.randrange(n)
            j = (i + 1) % n
            k1, k2 = catalogue.randint(1, 2), catalogue.randint(1, 2)
            b_i = [doc["weights"][i] * x for x in doc["rays"][i]]
            b_j = [doc["weights"][j] * x for x in doc["rays"][j]]
            w = [k1 * x + k2 * y for x, y in zip(b_i, b_j)]
            w = move(w)
            g = math.gcd(*w)
            requests.append(Request(
                "subdivide", name, (f"--at={w[0]},{w[1]}", "--weight", str(g)),
                {"at": tuple(w), "weight": g}))
    return docs, requests, chains


_BUILDERS = {"closed_forms": _closed_forms, "oracle_checks": _oracle_checks,
             "refinement": _refinement}


def make_workload(name: str, seed: int) -> Workload:
    """The documents and requests of one workload; pure and deterministic
    in (name, seed)."""
    catalogue = random.Random(CATALOGUE_SEED)
    rng = random.Random(seed)
    docs, requests, chains = _BUILDERS[name](catalogue, rng)
    rng.shuffle(requests)
    return Workload(docs, requests, chains)
