"""CLI tests: strict document parsing, render round-trips, exit codes and
golden-output comparison for every subcommand.

Regenerate the golden files after an intentional output change with
    PYTHONPATH=src python3 tests/test_cli.py --regen
and review the diff before committing.
"""

import itertools
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import weighted_projective_stacks
from stackyfan import arcspace, qseries, refine, stacky
from stackyfan.cli import (MAX_FACES, FanDocument, document_of,
                           parse_fan_document, rational, render_document,
                           run_command)
from stackyfan.errors import ParseError, ValidationError

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

# (golden file name, expected exit code, argv)
GOLDEN_CASES = [
    ("validate_p2", 0, ["validate", "fan_p2.json"]),
    ("box_p112", 0, ["box", "fan_p112.json"]),
    ("ages_p112", 0, ["ages", "fan_p112.json"]),
    ("ehrhart_p2", 0, ["ehrhart", "fan_p2.json", "--max-m", "3"]),
    ("delta_p112", 0, ["delta", "fan_p112.json"]),
    ("weighted_delta_p12_zero", 0,
     ["weighted-delta", "fan_p12.json", "--lambda", "zero",
      "--series-cutoff", "2"]),
    ("weighted_delta_p12_kappa", 0,
     ["weighted-delta", "fan_p12.json", "--lambda", "kappa"]),
    ("weighted_delta_p12_kappa_series", 0,
     ["weighted-delta", "fan_p12.json", "--lambda", "kappa",
      "--series-cutoff", "2"]),
    ("gamma_p12_zero", 0,
     ["gamma", "fan_p12.json", "--divisor", "zero", "--check-direct", "3"]),
    ("gamma_p12_half", 0, ["gamma", "fan_p12.json", "--divisor", "half"]),
    ("gamma_p12_half_direct", 0,
     ["gamma", "fan_p12.json", "--divisor", "half", "--check-direct", "2"]),
    ("gamma_p2_uv", 0, ["--uv", "gamma", "fan_p2.json", "--divisor", "zero"]),
    ("betti_p12", 0, ["betti", "fan_p12.json"]),
    ("symmetry_p112", 0, ["symmetry", "fan_p112.json", "--lambda", "zero"]),
    ("orbit_poset_p12", 0, ["orbit-poset", "fan_p12.json", "--bound", "2"]),
    ("orbit_poset_p12_dot", 0,
     ["orbit-poset", "fan_p12.json", "--bound", "2", "--dot"]),
    ("orbit_poset_p12_json", 0,
     ["orbit-poset", "fan_p12.json", "--bound", "2", "--json"]),
    ("subdivide_p2", 0, ["subdivide", "fan_p2.json", "--at", "1,1"]),
    ("refine_check_p2", 0,
     ["refine-check", "fan_p2.json", "--fine",
      str(DATA / "fan_p2_subdivided.json"), "--lambda", "zero"]),
    ("symmetry_a1_error", 1,
     ["symmetry", "fan_a1.json", "--lambda", "zero"]),
]


def _with_paths(argv):
    return [str(DATA / a) if a.endswith(".json") and "/" not in a else a
            for a in argv]


# ---------------------------------------------------------------------------
# Parsing


def test_parse_p12_document():
    doc = parse_fan_document((DATA / "fan_p12.json").read_text())
    assert doc.rank == 1
    assert doc.rays == ((1,), (-1,))
    assert doc.weights == (1, 2)
    assert doc.cones == ((0,), (1,))
    assert doc.support == "complete"
    assert doc.divisors == (("half", (Fraction(1, 2), Fraction(-1, 3))),)
    assert doc.functionals == (("kappa", (Fraction(1), Fraction(1))),)


def _minimal(**overrides):
    base = {"rank": 1, "rays": [[1], [-1]], "weights": [1, 1],
            "cones": [[0], [1]], "support": "complete"}
    base.update(overrides)
    import json
    return json.dumps(base)


def test_parse_rejects_weight_length_mismatch():
    with pytest.raises(ParseError, match="length differs"):
        parse_fan_document(_minimal(weights=[1]))


def test_parse_rejects_unknown_field():
    with pytest.raises(ParseError, match="unknown field"):
        parse_fan_document(_minimal(extra=1))


def test_parse_rejects_missing_field():
    with pytest.raises(ParseError, match="missing field"):
        parse_fan_document('{"rank": 1}')


def test_parse_rejects_malformed_rational():
    with pytest.raises(ParseError, match="malformed rational"):
        parse_fan_document(_minimal(divisors={"d": ["1/0", 0]}))


def test_parse_rejects_bad_support():
    with pytest.raises(ParseError, match="support"):
        parse_fan_document(_minimal(support="everything"))


def test_parse_rejects_invalid_json():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_fan_document("{")


def test_parse_rejects_repeated_ray_index():
    with pytest.raises(ParseError, match=r"cones\[0\]: repeated ray index"):
        parse_fan_document(_minimal(rank=2, rays=[[1, 0], [0, 1]],
                                    cones=[[1, 1], [0]], support="general"))


@pytest.mark.parametrize("block, name", [("divisors", "zero"),
                                         ("divisors", "canonical"),
                                         ("functionals", "zero")])
def test_a_built_in_name_is_refused(tmp_path, block, name):
    # the built-in was answered in place of the document's own: on P(1,2),
    # gamma --divisor zero printed the zero divisor's 1 + q^{1/2} + q for a
    # divisor zero of ["1/2", "-1/3"], and validate said ok
    path = tmp_path / "named.json"
    path.write_text(_minimal(weights=[1, 2],
                             **{block: {name: ["1/2", "-1/3"]}}))
    message = f"error: {block}.{name}: {name!r} is a built-in name\n"
    command = (["gamma", str(path), "--divisor", name] if block == "divisors"
               else ["symmetry", str(path), "--lambda", name])
    assert run_command(["validate", str(path)]) == (2, message)
    assert run_command(command) == (2, message)


@pytest.mark.parametrize("text, key", [
    (_minimal(weights=[1, 2]).replace('"weights": [1, 2]',
                                      '"weights": [1, 2], "weights": [1, 3]'),
     "weights"),
    (_minimal(functionals={"L": [1, 0]}).replace(
        '"L": [1, 0]', '"L": [1, 0], "L": [0, 1]'), "L")],
    ids=["weights", "functionals.L"])
def test_a_repeated_key_is_refused(tmp_path, text, key):
    # json kept the last value: box ran on weights [1, 3] of a document
    # that also gave [1, 2]
    path = tmp_path / "repeated.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"repeated key '{key}'"):
        parse_fan_document(text)
    assert run_command(["box", str(path)]) == \
        (2, f"error: repeated key '{key}'\n")


def _long_cone_document(tmp_path, k):
    """A rank-2 document whose one cone lists k rays."""
    path = tmp_path / f"cone{k}.json"
    path.write_text(_minimal(rank=2, rays=[[1, j] for j in range(k)],
                             weights=[1] * k, cones=[list(range(k))],
                             support="general"))
    return path


def test_validate_rejects_a_cone_of_more_than_rank_rays(tmp_path):
    # a parse error, reported once, before any fan is built
    code, out = run_command(["validate", str(_long_cone_document(tmp_path, 6))])
    assert (code, out) == (2, "error: cones[0]: more than 2 ray indices\n")


def test_long_cone_is_rejected_before_its_faces_are_walked(tmp_path):
    # the 2^64 faces of a 64-ray cone would never be walked to the end
    path = _long_cone_document(tmp_path, 64)
    start = time.perf_counter()
    code, out = run_command(["validate", str(path)])
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "error: cones[0]: more than 2 ray indices\n")


def test_parse_validates_fan():
    with pytest.raises(ValidationError, match="not primitive"):
        parse_fan_document(_minimal(rays=[[2], [-1]]))


def test_render_round_trip():
    for name in ("fan_a1", "fan_p1", "fan_p2", "fan_p12", "fan_p112"):
        text = (DATA / f"{name}.json").read_text()
        doc = parse_fan_document(text)
        assert parse_fan_document(render_document(doc)) == doc


def test_document_of_matches_source():
    doc = parse_fan_document((DATA / "fan_p2.json").read_text())
    again = document_of(doc.to_stacky_fan())
    assert again.rays == doc.rays and again.weights == doc.weights
    assert sorted(again.cones) == sorted(doc.cones)


def _box_and_ages_reference(sfan):
    """The box and ages outputs written through BoxElement.q and
    stacky.age, one Fraction per coordinate."""
    elements = stacky.box_all(stacky.StackyFan(sfan.fan, sfan.weights))
    box = [f"cone {list(e.cone.ray_indices)}: point {list(e.point)}, "
           f"q = [{', '.join(map(str, e.q))}], order {e.order}"
           for e in elements]
    ages = [f"point {list(e.point)}: age {stacky.age(sfan, e)}"
            for e in elements]
    return "\n".join(box) + "\n", "\n".join(ages) + "\n"


def test_box_and_ages_match_lines_written_through_fractions(tmp_path):
    fans = [parse_fan_document((DATA / f"{name}.json").read_text())
            .to_stacky_fan() for name in ("fan_a1", "fan_p1", "fan_p2",
                                          "fan_p12", "fan_p112")]
    fans += weighted_projective_stacks(30)
    for k, sfan in enumerate(fans):
        path = tmp_path / f"fan{k}.json"
        path.write_text(render_document(document_of(sfan)))
        box, ages = _box_and_ages_reference(sfan)
        assert run_command(["box", str(path)]) == (0, box)
        assert run_command(["ages", str(path)]) == (0, ages)


# ---------------------------------------------------------------------------
# Exit codes


def test_exit_code_missing_file():
    code, out = run_command(["delta", str(DATA / "no_such.json")])
    assert code == 2 and out.startswith("error:")


def test_exit_code_unknown_subcommand():
    code, out = run_command(["frobnicate", str(DATA / "fan_p2.json")])
    assert code == 2


def test_exit_code_bad_option_value():
    code, out = run_command(["orbit-poset", str(DATA / "fan_p12.json"),
                             "--bound", "oops"])
    assert code == 2


def test_exit_code_unknown_divisor():
    code, out = run_command(["gamma", str(DATA / "fan_p12.json"),
                             "--divisor", "nope"])
    assert code == 2 and "unknown divisor" in out


def test_exit_code_domain_error():
    code, out = run_command(["symmetry", str(DATA / "fan_a1.json"),
                             "--lambda", "zero"])
    assert code == 1 and out.startswith("error:")


OUT_OF_RANGE = [
    ("check_direct_negative",
     ["gamma", "--divisor", "zero", "--check-direct", "-1"]),
    ("weight_zero", ["subdivide", "--at", "1,1", "--weight", "0"]),
    ("weight_negative", ["subdivide", "--at", "1,1", "--weight", "-2"]),
    ("at_too_short", ["subdivide", "--at", "1"]),
    ("at_too_long", ["subdivide", "--at", "1,1,1"]),
    ("max_m_negative", ["ehrhart", "--max-m", "-1"]),
    ("bound_negative", ["orbit-poset", "--bound", "-1"]),
    ("series_cutoff_negative",
     ["weighted-delta", "--lambda", "zero", "--series-cutoff", "-1"]),
    ("bound_zero_denominator", ["orbit-poset", "--bound", "1/0"]),
    ("series_cutoff_zero_denominator",
     ["weighted-delta", "--lambda", "zero", "--series-cutoff", "1/0"]),
    ("check_direct_zero_denominator",
     ["gamma", "--divisor", "zero", "--check-direct", "1/0"]),
]


@pytest.mark.parametrize("argv", [c[1] for c in OUT_OF_RANGE],
                         ids=[c[0] for c in OUT_OF_RANGE])
def test_exit_code_out_of_range_argument(argv):
    # the fan fan_p112.json has rank 2
    command, *options = argv
    code, out = run_command([command, str(DATA / "fan_p112.json"), *options])
    assert code == 2 and out.startswith("usage error: argument --"), out


def test_option_values_may_begin_with_a_minus_sign():
    # argparse read "--at -1,0" and "--bound -1/2" as an option with no
    # value, so only the "--at=-1,0" form could pass such a value
    fan = str(DATA / "fan_p2.json")
    spaced = run_command(["subdivide", fan, "--at", "-1,0"])
    assert spaced[0] == 0
    assert spaced == run_command(["subdivide", fan, "--at=-1,0"])
    assert run_command(["orbit-poset", fan, "--bound", "-1/2"]) == \
        (2, "usage error: argument --bound: must be non-negative, got -1/2\n")


@pytest.mark.parametrize("value", ["-1/2", "1"])
def test_abbreviated_options_take_the_same_values(value):
    # argparse accepts a unique abbreviation such as --bou; only the full
    # spelling was joined to its value, so "--bou -1/2" exited 2 with
    # "argument --bound: expected one argument"
    fan = str(DATA / "fan_p2.json")
    full = run_command(["orbit-poset", fan, "--bound", value])
    assert run_command(["orbit-poset", fan, "--bou", value]) == full
    assert full[0] == (0 if value == "1" else 2)
    assert run_command(["subdivide", fan, "--a", "-1,0"]) == \
        run_command(["subdivide", fan, "--at", "-1,0"])
    # a flag is never joined, though another subcommand has --divisor, nor
    # the end of the options, though ehrhart has one option only
    assert run_command(["orbit-poset", fan, "--d", "--bou", value]) == \
        run_command(["orbit-poset", fan, "--dot", "--bound", value])
    assert run_command(["ehrhart", "--max", "1", "--", fan]) == \
        run_command(["ehrhart", fan, "--max-m", "1"])


def test_python_m_stackyfan_runs_the_cli_without_warnings():
    # "python -m stackyfan.cli" warned on stderr that stackyfan.cli was
    # imported before it ran as __main__
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "stackyfan", "betti", str(DATA / "fan_p2.json")],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run_command(
        ["betti", str(DATA / "fan_p2.json")])[1]


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
@pytest.mark.parametrize("role", ["fan", "fine"])
def test_exit_code_unreadable_document(tmp_path, role, kind):
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{")
    path = {"missing": tmp_path / "no_such.json", "directory": tmp_path,
            "not_utf8": tmp_path / "binary.json"}[kind]
    p2 = str(DATA / "fan_p2.json")
    documents = [str(path), p2] if role == "fan" else [p2, str(path)]
    code, out = run_command(["refine-check", documents[0],
                             "--fine", documents[1]])
    assert code == 2 and out.startswith("error:"), out


def _p2_scan(m):
    """The count the oracle scan of P2 up to m admits: its m + 1 levels and
    the boxes (m + 1)^2 and twice (m + 1)(2m + 1) of its three cones."""
    return (m + 1) * (5 * m + 4)


def test_ehrhart_over_budget_exits_1_at_once():
    # the Ehrhart counts were allocated before the scan (a MemoryError
    # traceback), and the series oracle scanned with no budget: cutoff 1000
    # took 5 s, and the time grows with the square of the cutoff
    fan = str(DATA / "fan_p2.json")
    for argv, bound in [
            (["ehrhart", fan, "--max-m", "10000000000000"], 10000000000000),
            (["weighted-delta", fan, "--lambda", "zero",
              "--series-cutoff", "2000"], 2000)]:
        start = time.perf_counter()
        code, out = run_command(argv)
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (1, f"error: the oracle scan up to {bound} "
                                  f"may walk {_p2_scan(bound)} lattice "
                                  "points, over the limit of 10000000\n")
    assert _p2_scan(2000) == 20018004


def test_ehrhart_count_past_sys_maxsize_exits_1():
    # a box side of 10^20 + 1 lattice points overflows len(range), which
    # would end in an OverflowError traceback instead of the refusal
    code, out = run_command(["ehrhart", str(DATA / "fan_p2.json"),
                             "--max-m", "100000000000000000000"])
    assert _p2_scan(10 ** 20) == 50000000000000000000900000000000000000004
    assert (code, out) == (1, "error: the oracle scan up to "
                              "100000000000000000000 may walk "
                              "50000000000000000000900000000000000000004 "
                              "lattice points, over the limit of 10000000\n")


@pytest.mark.parametrize("command", [["weighted-delta", "--lambda", "zero"],
                                     ["betti"], ["validate"]])
def test_rank_over_the_limit_exits_1_at_once(tmp_path, command):
    # a 79-byte rank-8000 document ran weighted-delta for 10 s and printed
    # 14 MB
    path = tmp_path / "rank.json"
    path.write_text('{"rank": 8000, "rays": [], "weights": [], '
                    '"cones": [[]], "support": "general"}')
    start = time.perf_counter()
    code, out = run_command(command[:1] + [str(path)] + command[1:])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "error: rank 8000 is over the limit of 64\n")


def test_rank_at_the_limit_parses():
    doc = parse_fan_document('{"rank": 64, "rays": [], "weights": [], '
                             '"cones": [[]], "support": "general"}')
    assert doc.rank == 64


def _orthant_document(tmp_path, rank):
    """The orthant of the given rank: the unit rays and one cone on all of
    them, with 2^rank faces."""
    path = tmp_path / f"orthant{rank}.json"
    path.write_text(_minimal(
        rank=rank, rays=[[int(i == j) for j in range(rank)]
                         for i in range(rank)],
        weights=[1] * rank, cones=[list(range(rank))], support="convex"))
    return path


def test_faces_over_the_limit_exit_1_at_once(tmp_path):
    # the fan is built face by face: the rank-20 orthant, a 1 KB document,
    # took 56 s to validate
    start = time.perf_counter()
    code, out = run_command(["validate", str(_orthant_document(tmp_path, 20))])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "error: the cones have 1048576 faces, over "
                              "the limit of 16384\n")


def test_faces_at_the_limit_parse(tmp_path):
    doc = parse_fan_document(_orthant_document(tmp_path, 14).read_text())
    assert sum(2 ** len(c) for c in doc.cones) == MAX_FACES


@pytest.mark.parametrize("support", ["general", "complete"])
def test_overlap_pairs_over_the_limit_exit_1_at_once(tmp_path, support):
    # the pairwise overlap test compared every pair of maximal cones with
    # no budget: this 15 KB document of 400 disjoint rank-2 cones took
    # some 4 s to validate, and the time grows with the square of the
    # cones; declared complete, it fails the certificate and takes the
    # same test
    m = 400
    path = tmp_path / "disjoint.json"
    path.write_text(_minimal(
        rank=2, rays=[[1, k - m] for k in range(2 * m)],
        weights=[1] * (2 * m), cones=[[2 * j, 2 * j + 1] for j in range(m)],
        support=support))
    start = time.perf_counter()
    code, out = run_command(["validate", str(path)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "error: the overlap test may compare 79800 "
                              "pairs of maximal cones, over the limit of "
                              "5000\n")


def _too_slow(signum, frame):
    raise TimeoutError("still running when the timer ran out")


def _run_within(argv, seconds):
    """run_command(argv), stopped by a TimeoutError after the given
    seconds."""
    previous = signal.signal(signal.SIGALRM, _too_slow)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        return run_command(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_rank6_overlap_is_decided_at_once(tmp_path):
    # a Fourier-Motzkin elimination of this pair would build 59,679,354
    # rows in its fifth step alone, after 32,495 in the first four; the
    # simplex decides it, and the timer stops a run that starts building
    # rows like that
    rays = [[3, 1, 3, -3, 0, 3], [-1, -3, -3, -2, 2, 1], [0, 3, 2, -1, -1, 3],
            [-3, -1, 0, 3, -2, 2], [3, 0, 1, 1, 2, -3], [-2, 1, 1, 2, 3, 2],
            [-1, 2, 3, 1, 2, -3], [3, 0, -1, -3, -1, 3], [0, 3, -1, 0, 2, -3],
            [3, -2, 2, 2, 3, -1], [-3, -3, 1, -2, 3, 2], [-1, 0, 3, -2, 1, 1]]
    path = tmp_path / "rank6.json"
    path.write_text(_minimal(rank=6, rays=rays, weights=[1] * 12,
                             cones=[list(range(6)), list(range(6, 12))],
                             support="general"))
    assert len(path.read_bytes()) < 500
    code, out = _run_within(["validate", str(path)], 1.0)
    assert (code, out) == (1, "cones [0, 1, 2, 3, 4, 5] and "
                              "[6, 7, 8, 9, 10, 11] intersect outside their "
                              "common face\n")
    # the certificate: the cones share no ray, so their common face is the
    # origin, and these nonnegative coordinates give one nonzero point
    p = [Fraction(n, 4403) for n in (1108, 610, 820, 0, 1865, 0)]
    q = [Fraction(1831, 4403), Fraction(2418, 4403), 0, Fraction(26, 119),
         0, 0]
    point = [sum(x * r[k] for x, r in zip(p, rays[:6])) for k in range(6)]
    assert point == [sum(x * r[k] for x, r in zip(q, rays[6:]))
                     for k in range(6)]
    assert any(point)


RANK24_COMMANDS = [
    ["validate"], ["box"], ["ages"], ["delta"], ["betti"],
    ["gamma", "--divisor", "zero"],
    ["gamma", "--divisor", "zero", "--check-direct", "2"],
    ["weighted-delta", "--lambda", "zero"],
    ["weighted-delta", "--lambda", "zero", "--series-cutoff", "2"],
    ["ehrhart", "--max-m", "2"], ["symmetry", "--lambda", "zero"],
    ["orbit-poset", "--bound", "2"],
    ["subdivide", "--at", ",".join(["0"] * 22 + ["1", "1"])],
    ["refine-check", "--fine", "FAN"]]


@pytest.mark.parametrize("command", RANK24_COMMANDS,
                         ids=[" ".join(c) for c in RANK24_COMMANDS])
def test_rank24_cone_answers_at_once(tmp_path, command):
    # the oracle scan found a cone's coordinates by inverting every k-subset
    # of the d coordinates: on this one cone on the last seven unit vectors
    # of Z^24, C(24, 7) = 346,104 minors, so `ehrhart --max-m 1` took 31 s
    path = tmp_path / "rank24.json"
    path.write_text(_minimal(
        rank=24, rays=[[int(i == j) for j in range(24)]
                       for i in range(17, 24)],
        weights=[1] * 7, cones=[list(range(7))], support="general"))
    assert len(path.read_bytes()) < 700
    argv = [command[0], str(path)] + [str(path) if a == "FAN" else a
                                      for a in command[1:]]
    code, out = _run_within(argv, 1.0)
    assert code in (0, 1) and out, out


ORTHANT14_COMMANDS = [
    ["box"], ["ages"], ["delta"], ["betti"], ["gamma", "--divisor", "zero"],
    ["gamma", "--divisor", "zero", "--check-direct", "2"],
    ["weighted-delta", "--lambda", "zero"],
    ["weighted-delta", "--lambda", "zero", "--series-cutoff", "1"],
    ["ehrhart", "--max-m", "1"], ["symmetry", "--lambda", "zero"],
    ["orbit-poset", "--bound", "2"], ["orbit-poset", "--bound", "30"],
    ["subdivide", "--at", ",".join(["1"] * 14)]]


@pytest.mark.parametrize("command", ORTHANT14_COMMANDS,
                         ids=[" ".join(c) for c in ORTHANT14_COMMANDS])
def test_rank14_orthant_answers_within_three_seconds(tmp_path, command):
    # the one cone of C^14 has all 2^14 faces that the document limit
    # admits; the closed form paired every cone with each of its faces,
    # 3^14 = 4,782,969 pairs of which 16,384 add anything, so `delta`,
    # `betti`, `gamma` and `weighted-delta` took 11-14 s, and the cells of
    # `orbit-poset --bound 30` were listed for 2.3 s before it refused;
    # parsing and validating the document alone take some 0.4 s
    argv = [command[0], str(_orthant_document(tmp_path, 14)), *command[1:]]
    code, out = _run_within(argv, 3.0)
    assert code in (0, 1) and out, out


@pytest.mark.parametrize("command", [
    ["orbit-poset", "--bound"],
    ["gamma", "--divisor", "zero", "--check-direct"]])
def test_label_walk_limit_document(command):
    # P2 has 1 + 3m(m + 1)/2 lattice points up to psi m: 29,611 at 140,
    # the largest bound under stacky.LABEL_WALK_BUDGET, and 30,034 at 141
    fan = str(DATA / "fan_p2.json")
    code, out = _run_within([command[0], fan, *command[1:], "140"], 3.0)
    assert code == 0 and out
    assert run_command([command[0], fan, *command[1:], "141"]) == (
        1, "error: the support points up to 141 may walk 30034 lattice "
           "points, over the limit of 30000\n")


def test_poset_and_direct_check_over_budget_exit_1_at_once():
    # both enumerated with no bound, and were still running after 20 s
    # P2 has 1 + 3m(m + 1)/2 lattice points up to psi m, its Ehrhart
    # polynomial
    fan = str(DATA / "fan_p2.json")
    points = 1 + 3 * 400 * 401 // 2
    for argv in (["orbit-poset", fan, "--bound", "400"],
                 ["gamma", fan, "--divisor", "zero", "--check-direct", "400"]):
        start = time.perf_counter()
        code, out = run_command(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, f"error: the support points up to 400 may "
                                  f"walk {points} lattice points, over the "
                                  "limit of 30000\n")


def test_orbit_poset_p2_bound_60_answers_at_once():
    # the covers are read from each label's shifts, so the poset costs one
    # walk over its 5,491 labels
    start = time.perf_counter()
    code, out = run_command(["orbit-poset", str(DATA / "fan_p2.json"),
                             "--bound", "60"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    lines = out.splitlines()
    assert sum(line.startswith("label ") for line in lines) == 5491
    assert sum(line.startswith("cover ") for line in lines) == 10800


@pytest.mark.parametrize("command", ["delta", "box", "betti"])
@pytest.mark.parametrize("document, orders", [
    ({"weights": [10 ** 8, 1]}, 100000001),
    ({"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "weights": [3000] * 3,
      "cones": [[0, 1], [1, 2], [0, 2]]}, 27000000)])
def test_large_box_groups_exit_1_at_once(tmp_path, command, document,
                                         orders):
    # the box scan is linear in the group orders: on both documents `box`
    # and `betti` were still running after 60 s
    path = tmp_path / "heavy.json"
    path.write_text(_minimal(**document))
    start = time.perf_counter()
    code, out = run_command([command, str(path)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, f"error: the box groups have {orders} "
                              "elements in all, over the limit of 100000\n")


def test_refine_check_admits_only_the_box_groups_it_reads(tmp_path,
                                                         monkeypatch):
    # P2 with weights (1000, 1000, 1): the cone (0, 1) has a box group of
    # 10^6 elements, the cones (1, 2) and (0, 2) of 1,000 each; the new
    # b-vectors are b_1 + b_2 = (-1, 999) and b_0 + b_1 = 1000 (1, 1)
    coarse = tmp_path / "coarse.json"
    coarse.write_text(_minimal(rank=2, rays=[[1, 0], [0, 1], [-1, -1]],
                               weights=[1000, 1000, 1],
                               cones=[[0, 1], [1, 2], [0, 2]]))
    code, out = run_command(["box", str(coarse)])
    assert (code, out) == (1, "error: the box groups have 1002000 elements "
                              "in all, over the limit of 100000\n")
    fines = {}
    for at, weight in (("-1,999", "1"), ("1,1", "1000")):
        code, out = run_command(["subdivide", str(coarse), "--at", at,
                                 "--weight", weight])
        assert code == 0, out
        fines[at] = tmp_path / f"fine{at}.json"
        fines[at].write_text(out)
    # subdivided in (1, 2): the shared cone (0, 1) is never scanned
    start = time.perf_counter()
    code, out = run_command(["refine-check", str(coarse), "--fine",
                             str(fines["-1,999"]), "--lambda", "zero"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "refinement: yes\ninvariance: true\n")

    # subdivided in (0, 1): refused before any scan
    def forbidden(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(stacky, "_scan_parallelepiped", forbidden)
    code, out = run_command(["refine-check", str(coarse), "--fine",
                             str(fines["1,1"]), "--lambda", "zero"])
    assert (code, out) == (1, "error: the box groups have 1000000 elements "
                              "in all, over the limit of 100000\n")


DENSE_GRID_DOCUMENTS = {
    # box orders summing to 3,495, on a grid n of 33 digits
    "dense24": ({"rank": 2, "rays": [
        [-17, -4], [-29, -7], [-23, -7], [-30, -17], [-17, -19], [-13, -19],
        [-6, -11], [11, -27], [9, -14], [21, -26], [19, -17], [27, -20],
        [29, -21], [17, -8], [19, -6], [9, -2], [29, 3], [17, 11], [30, 23],
        [13, 10], [28, 25], [-1, 19], [-29, 23], [-22, 9]],
        "weights": [1] * 24,
        "cones": [[0, 1], [0, 23]] + [[i, i + 1] for i in range(1, 23)]},
        3495, "1 + 1784t + 1710t^2", 1.0),
    # box orders summing to 94,679, whose scan alone takes some 1.3 s
    "prime_p2": ({"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                  "weights": [173, 179, 181],
                  "cones": [[0, 1], [1, 2], [0, 2]]},
                 94679, "1 + 47339t + 47339t^2", 5.0)}


@pytest.mark.parametrize("command", [
    ["betti"], ["delta"], ["weighted-delta", "--lambda", "zero"],
    ["gamma", "--divisor", "zero"]])
@pytest.mark.parametrize("name", sorted(DENSE_GRID_DOCUMENTS))
def test_dense_grid_lambda_zero_answers(tmp_path, command, name):
    # a coefficient list on these grids s = t^{1/n} is over the dense-list
    # budget (11,210,055 entries on prime_p2), but at lambda = 0 the closed
    # form is a polynomial with one term per box element, which is stored
    # and read as {exponent: coefficient}: every command answers, in about
    # the time of its box scan
    document, total, delta, seconds = DENSE_GRID_DOCUMENTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(_minimal(**document))
    start = time.perf_counter()
    code, out = run_command([command[0], str(path), *command[1:]])
    assert time.perf_counter() - start < seconds
    assert code == 0, out
    if command[0] == "betti":
        numbers = [int(line.split(": ")[1]) for line in out.splitlines()]
        assert min(numbers) > 0 and sum(numbers) == total
    elif command[0] == "delta":
        assert out == delta + "\n"


def test_dense_list_over_budget_exits_1_at_once(tmp_path):
    # a nonzero functional leaves binomials to reduce over, which are
    # folded as coefficient lists: the numerator's list is refused before
    # it is built
    path = tmp_path / "prime_p2.json"
    path.write_text(_minimal(**DENSE_GRID_DOCUMENTS["prime_p2"][0],
                             functionals={"half": ["1/2", 0, 0]}))
    start = time.perf_counter()
    code, out = run_command(["weighted-delta", str(path), "--lambda", "half"])
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (1, "error: a coefficient list of length 39235190 "
                              "is over the limit of 4000000\n")


def test_dense_grid_symmetry_is_decided_on_the_sparse_parts(tmp_path):
    path = tmp_path / "dense24.json"
    path.write_text(_minimal(**DENSE_GRID_DOCUMENTS["dense24"][0]))
    start = time.perf_counter()
    assert run_command(["symmetry", str(path), "--lambda", "zero"]) == \
        (0, "symmetric: true\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n, expected", [
    (5, "1 + 20t + 75t^2 + 96t^3 + 45t^4 + 6t^5"),
    (6, "1 + 27t + 140t^2 + 267t^3 + 216t^4 + 71t^5 + 7t^6")])
def test_delta_of_a_power_of_p12_is_read_from_the_closed_form(tmp_path, n,
                                                              expected):
    # P(1,2)^n: rays e_j of weight 1 and -e_j of weight 2, and the 2^n
    # cones on one ray per coordinate.  The lattice scan took 1.4 s for
    # n = 5 and was over its budget for n = 6; the coefficients sum to the
    # normalised volume 3^n
    path = tmp_path / f"p12_{n}.json"
    path.write_text(_minimal(
        rank=n, rays=[[s * int(i == j) for j in range(n)]
                      for i in range(n) for s in (1, -1)],
        weights=[1, 2] * n,
        cones=[[2 * j + c for j, c in enumerate(choice)]
               for choice in itertools.product((0, 1), repeat=n)]))
    start = time.perf_counter()
    code, out = run_command(["delta", str(path)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, expected + "\n")


def test_validate_malformed_json_is_a_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, out = run_command(["validate", str(path)])
    assert code == 2 and out.startswith("error: invalid JSON"), out


def test_validate_overlong_integer_is_a_parse_error(tmp_path):
    path = tmp_path / "digits.json"
    path.write_text('{"rank": ' + "7" * 5000 + "}")
    code, out = run_command(["validate", str(path)])
    assert code == 2 and out.startswith("error: invalid JSON"), out


def test_validate_deep_nesting_is_a_parse_error(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    code, out = run_command(["validate", str(path)])
    assert code == 2 and out.startswith("error: invalid JSON"), out


# Fraction reads exponent notation and expands 1e-10000000 in full, for
# seconds; a rational is an integer or p/q
EXPONENT = "1e-10000000"


def test_rational_reads_integers_and_quotients_only():
    assert [rational(t) for t in ("3", "-3", "+3", "0", "6/4", "-1/2",
                                  "+07/14")] == \
        [3, -3, 3, 0, Fraction(3, 2), Fraction(-1, 2), Fraction(1, 2)]
    for text in ("1.5", "1e3", EXPONENT, " 1", "1 ", "1_0", "1/-2", "1/+2",
                 "", "/2", "1/", "1/0", "-0/0", "inf", "nan", "7" * 5000):
        with pytest.raises(ValueError):
            rational(text)


def test_exponent_notation_in_a_document_is_a_parse_error(tmp_path):
    path = tmp_path / "exponent.json"
    path.write_text(_minimal(weights=[1, 2], functionals={"L": [EXPONENT, 0]}))
    start = time.perf_counter()
    code, out = run_command(["validate", str(path)])
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "error: functionals.L[0]: malformed rational "
                              f"'{EXPONENT}'\n")


def test_exponent_notation_in_an_argument_is_a_usage_error():
    start = time.perf_counter()
    code, out = run_command(["orbit-poset", str(DATA / "fan_p12.json"),
                             "--bound", EXPONENT])
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out.startswith("usage error: argument --bound"), out


def _gap_documents(tmp_path):
    """cone((1,0),(0,1)) and fine cones [(1,0),(1,1)], [(0,1),(1,20)],
    which leave the wedge between (1,1) and (1,20) uncovered."""
    coarse = tmp_path / "coarse.json"
    coarse.write_text(_minimal(rank=2, rays=[[1, 0], [0, 1]], weights=[1, 1],
                               cones=[[0, 1]], support="convex"))
    fine = tmp_path / "fine.json"
    fine.write_text(_minimal(rank=2, rays=[[1, 0], [0, 1], [1, 1], [1, 20]],
                             weights=[1, 1, 1, 1], cones=[[0, 2], [1, 3]],
                             support="general"))
    return str(coarse), str(fine)


@pytest.mark.parametrize("options", [[], ["--lambda", "zero"]])
def test_refine_check_gap_is_not_a_refinement(tmp_path, options):
    coarse, fine = _gap_documents(tmp_path)
    code, out = run_command(["refine-check", coarse, "--fine", fine,
                             *options])
    assert (code, out) == (1, "refinement: no\n")


@pytest.mark.parametrize("options", [[], ["--lambda", "zero"]])
def test_refine_check_fine_ray_outside_the_coarse_support(tmp_path, options):
    # the fine ray (-1,0) lies in no coarse cone, so locating it fails
    coarse = tmp_path / "coarse.json"
    coarse.write_text(_minimal(rank=2, rays=[[1, 0], [0, 1]], weights=[1, 1],
                               cones=[[0, 1]], support="convex"))
    fine = tmp_path / "fine.json"
    fine.write_text(_minimal(rank=2, rays=[[1, 0], [0, 1], [-1, 0]],
                             weights=[1, 1, 1], cones=[[0, 1], [1, 2]],
                             support="general"))
    code, out = run_command(["refine-check", str(coarse), "--fine", str(fine),
                             *options])
    assert (code, out) == (1, "refinement: no\n")


def test_refine_check_unknown_lambda_is_a_usage_error_first():
    # the functional is resolved before the predicate runs, so an unknown
    # name exits 2 on a pair that is not a refinement too
    code, out = run_command(["refine-check", str(DATA / "fan_p112.json"),
                             "--fine", str(DATA / "fan_p2.json"),
                             "--lambda", "nope"])
    assert code == 2 and "unknown functional" in out, out


@pytest.mark.parametrize("options", [[], ["--lambda", "zero"]])
def test_refine_check_decides_the_predicate_once(monkeypatch, options):
    calls = []
    original = refine.is_stacky_refinement

    def counted(fine, coarse):
        calls.append(1)
        return original(fine, coarse)

    monkeypatch.setattr(refine, "is_stacky_refinement", counted)
    code, out = run_command(["refine-check", str(DATA / "fan_p2.json"),
                             "--fine", str(DATA / "fan_p2_subdivided.json"),
                             *options])
    assert code == 0 and out.startswith("refinement: yes\n"), out
    assert len(calls) == 1


def test_betti_on_large_grid_fan(tmp_path):
    doc = tmp_path / "defect.json"
    doc.write_text(_minimal(
        rank=2, rays=[[3, 1], [-1, 2], [-2, 3], [-3, -1], [2, -3]],
        weights=[3, 1, 2, 3, 1],
        cones=[[i, (i + 1) % 5] for i in range(5)], support="complete"))
    code, out = run_command(["betti", str(doc)])
    assert code == 0, out
    assert out.startswith("q^0: 1\n") and out.endswith("q^2: 1\n")


def test_gamma_direct_check_failure_exits_1(monkeypatch):
    # a direct sum off by one in its lowest coefficient fails the check
    direct = arcspace.gamma_truncated_direct

    def off_by_one(sfan, e, bound):
        series = direct(sfan, e, bound)
        series.coeffs[min(series.coeffs)] += 1
        return series

    monkeypatch.setattr(arcspace, "gamma_truncated_direct", off_by_one)
    code, out = run_command(["gamma", str(DATA / "fan_p12.json"),
                             "--divisor", "zero", "--check-direct", "2"])
    assert (code, out) == (
        1, "1 + q^{1/2} + q\ndirect check (bound 2): FAILED\n")


@pytest.mark.parametrize("argv,expected", [
    (["ehrhart", "--max-m", "3"], "f(0) = 1\nf(1) = 1\nf(2) = 1\nf(3) = 1\n"),
    (["weighted-delta", "--lambda", "zero", "--series-cutoff", "3"],
     "1 - 2t + t^2\nseries: 1 - 2t + t^2 + O(t^3)\n")],
    ids=["ehrhart", "weighted-delta"])
def test_fan_of_the_zero_cone_alone(tmp_path, argv, expected):
    # the oracle scan has no maximal cone with a ray to walk: the origin
    # is the one point
    doc = tmp_path / "origin.json"
    doc.write_text(_minimal(rank=2, rays=[], weights=[], cones=[[]],
                            support="general"))
    code, out = run_command([argv[0], str(doc), *argv[1:]])
    assert (code, out) == (0, expected)


def test_validate_reports_violations():
    bad = DATA / "golden" / "_tmp_bad.json"
    bad.write_text(_minimal(rays=[[1], [1]]))
    try:
        code, out = run_command(["validate", str(bad)])
        assert code == 1 and out.strip() != "ok"
    finally:
        bad.unlink()


# ---------------------------------------------------------------------------
# Golden outputs


@pytest.mark.parametrize("name,expected_code,argv",
                         GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(name, expected_code, argv):
    code, out = run_command(_with_paths(argv))
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.txt").read_text()


def test_goldens_build_no_fracpoly(monkeypatch):
    # every command reads its series and closed forms on the integer grid;
    # FracPoly is only a construction convenience of the API
    def forbidden(self, terms=None):
        raise AssertionError("a FracPoly was built")

    monkeypatch.setattr(qseries.FracPoly, "__init__", forbidden)
    for name, expected_code, argv in GOLDEN_CASES:
        assert run_command(_with_paths(argv)) == \
            (expected_code, (GOLDEN / f"{name}.txt").read_text()), name


def test_lambda_zero_goldens_build_no_coefficient_list(monkeypatch):
    # at lambda = 0 the closed form has no binomial to reduce over, so its
    # canonical form is read and written as {exponent: coefficient} only
    def forbidden(p):
        raise AssertionError("a coefficient list was built")

    monkeypatch.setattr(qseries, "_coefficient_list", forbidden)
    names = {"delta_p112", "weighted_delta_p12_zero", "gamma_p12_zero",
             "gamma_p2_uv", "betti_p12"}
    cases = [case for case in GOLDEN_CASES if case[0] in names]
    assert len(cases) == len(names)
    for name, expected_code, argv in cases:
        assert run_command(_with_paths(argv)) == \
            (expected_code, (GOLDEN / f"{name}.txt").read_text()), name


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name, expected_code, argv in GOLDEN_CASES:
        code, out = run_command(_with_paths(argv))
        assert code == expected_code, (name, code, out)
        (GOLDEN / f"{name}.txt").write_text(out)
        print(f"wrote {name}.txt ({len(out.splitlines())} lines)")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
