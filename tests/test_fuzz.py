"""A seeded hostile-document fuzzer: mutated documents of rank at most 3
through every subcommand.  Each request must end with exit code 0, 1 or 2,
let no exception escape `run_command` and finish within a time bound."""

import copy
import json
import random
import signal
import time
from fractions import Fraction

import pytest

from stackyfan.cli import run_command

SEED = 20080437
DOCUMENTS = 300
SECONDS = 5.0

BASES = [
    {"rank": 1, "rays": [[1]], "weights": [1], "cones": [[0]],
     "support": "convex"},
    {"rank": 1, "rays": [[1], [-1]], "weights": [1, 2], "cones": [[0], [1]],
     "support": "complete"},
    {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "weights": [1, 1, 1],
     "cones": [[0, 1], [1, 2], [0, 2]], "support": "complete"},
    {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -2]], "weights": [1, 2, 3],
     "cones": [[0, 1], [1, 2], [0, 2]], "support": "complete"},
    {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
     "weights": [1, 1, 1, 1], "cones": [[0, 2], [0, 3], [1, 2], [1, 3]],
     "support": "complete"},
    {"rank": 2, "rays": [[1, 0], [1, 3]], "weights": [2, 1],
     "cones": [[0, 1]], "support": "convex"},
    {"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
     "weights": [1, 1, 2, 1],
     "cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
     "support": "complete"},
    {"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 2]],
     "weights": [1, 2, 1], "cones": [[0, 1, 2]], "support": "convex"},
]


def _value(rng):
    """A rational text of absolute value at most 10^3."""
    den = rng.choice([1, 1, 2, 3, 5, 7])
    num = rng.choice([rng.randint(-3 * den, 3 * den),
                      rng.randint(-1000 * den, 1000 * den)])
    return str(Fraction(num, den))


def _mutate(rng, doc):
    """doc with up to two random changes, valid or not, and random divisor
    and functional values."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(0, 2)):
        kind = rng.randrange(6)
        rays, cones, weights = doc["rays"], doc["cones"], doc["weights"]
        if kind == 0 and weights:
            i = rng.randrange(len(weights))
            weights[i] = rng.choice([0, -1, 2, 3, 5, 7, 31, 97, 10 ** 9,
                                     "1/2"])
        elif kind == 1 and rays:
            ray = rng.choice(rays)
            if ray and rng.random() < 0.8:
                ray[rng.randrange(len(ray))] += rng.choice([-2, -1, 1, 2])
            else:
                ray.append(1)
        elif kind == 2 and cones:
            cone = rng.choice(cones)
            change = rng.randrange(4)
            if change == 0 and cone:
                cone.pop()
            elif change == 1:
                cone.append(rng.randint(-1, len(rays)))
            elif change == 2 and cone:
                cone.append(cone[0])
            else:
                cones.append(sorted(rng.sample(range(len(rays)),
                                               min(len(rays), doc["rank"]))))
        elif kind == 3:
            doc["support"] = rng.choice(["complete", "convex", "general",
                                         "sphere"])
        elif kind == 4:
            rays.append([rng.randint(-3, 3) for _ in range(doc["rank"])])
            weights.append(rng.randint(1, 3))
        else:
            doc["rays"] = [[-x for x in ray] for ray in rays]
    n = len(doc["rays"])
    doc["divisors"] = {"d": [_value(rng) for _ in range(n)]}
    doc["functionals"] = {"f": [_value(rng) for _ in range(n)]}
    return doc


def _requests(rng, path, other, rank):
    """Every subcommand on path, with small random options."""
    at = ",".join(str(rng.randint(-2, 2)) for _ in range(rank))
    return [
        ["validate", path], ["box", path], ["ages", path],
        ["ehrhart", path, "--max-m", str(rng.randint(0, 4))],
        ["delta", path],
        ["weighted-delta", path, "--lambda", rng.choice(["zero", "f"])]
        + rng.choice([[], ["--series-cutoff", "3/2"]]),
        ["gamma", path, "--divisor", rng.choice(["zero", "d"])]
        + rng.choice([[], ["--check-direct", "2"]]),
        ["betti", path],
        ["symmetry", path, "--lambda", rng.choice(["zero", "f"])],
        ["orbit-poset", path, "--bound", "3/2"]
        + rng.choice([[], ["--dot"], ["--json"]]),
        ["refine-check", path, "--fine", other]
        + rng.choice([[], ["--lambda", "zero"]]),
        ["subdivide", path, "--at", at, "--weight", str(rng.randint(1, 3))],
    ]


def _timeout(signum, frame):
    raise TimeoutError(f"request over {SECONDS} s")


def test_hostile_documents_exit_cleanly(tmp_path):
    rng = random.Random(SEED)
    codes = {}
    previous = signal.signal(signal.SIGALRM, _timeout)
    try:
        for i in range(DOCUMENTS):
            base = rng.choice(BASES)
            text = json.dumps(_mutate(rng, base))
            path = tmp_path / f"doc{i}.json"
            path.write_text(text)
            # the fine fan of refine-check: the document itself or a base
            other = tmp_path / f"fine{i}.json"
            other.write_text(rng.choice([text, json.dumps(rng.choice(BASES))]))
            for argv in _requests(rng, str(path), str(other), base["rank"]):
                start = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, SECONDS)
                try:
                    code, out = run_command(argv)
                except Exception as exc:
                    pytest.fail(f"{argv[0]} on {text}: "
                                f"{type(exc).__name__}: {exc}")
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                assert time.perf_counter() - start < SECONDS, (argv, text)
                assert code in (0, 1, 2), (argv, text, code, out)
                assert "Traceback" not in out, (argv, text, out)
                codes.setdefault(argv[0], set()).add(code)
    finally:
        signal.signal(signal.SIGALRM, previous)
    # every subcommand answers some documents and refuses others
    assert all({0, 1} <= found for found in codes.values()), codes
    assert len(codes) == 12
