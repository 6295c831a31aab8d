"""Tests of the benchmark itself: input generation, the percentile rule,
span self times, failure classification and restoration of traced names."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import stackyfan  # noqa: E402
from stackyfan import cli  # noqa: E402

P112 = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -2]], "weights": [1, 1, 1],
        "cones": [[0, 1], [1, 2], [0, 2]], "support": "complete"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    a = workloads.make_workload(name, 7)
    b = workloads.make_workload(name, 7)
    c = workloads.make_workload(name, 8)
    assert (a.docs, a.requests, a.chains) == (b.docs, b.requests, b.chains)
    assert a.docs != c.docs
    # another seed relabels the same catalogue: same fan shapes, other order
    shape = lambda w: sorted((len(d["rays"]), sorted(d["weights"]))
                             for d in w.docs.values())
    assert shape(a) == shape(c)
    assert sorted(r.kind for r in a.requests) == sorted(r.kind for r in c.requests)


def test_percentile_needs_ten_samples_beyond():
    assert stats.samples_needed(90) == 100
    assert stats.samples_needed(50) == 20
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 50) == 50
    with pytest.raises(ValueError):
        stats.percentile(values[:99], 90)
    with pytest.raises(ValueError):
        stats.percentile(values, 95)


def test_self_time_excludes_nested_spans():
    now = [0.0]
    rec = tracer.Recorder(clock=lambda: now[0])

    def at(t, action, *name):
        now[0] = t
        action(*name)

    at(0, rec.enter, "outer")
    at(1, rec.enter, "mid")
    at(2, rec.enter, "inner")
    at(4, rec.exit)                 # inner: 2
    at(7, rec.exit)                 # mid: 6, of which 2 in inner
    at(8, rec.enter, "mid")
    at(9, rec.exit)                 # mid again: 1
    at(10, rec.exit)                # outer: 10, of which 7 in mid
    assert dict(rec.self_s) == {"inner": 2, "mid": 5, "outer": 3}
    assert rec.calls == {"inner": 1, "mid": 2, "outer": 1}
    by_name = {}
    for span_id, name, start, end, parent, _ in rec.spans:
        by_name.setdefault(name, []).append((span_id, parent))
    outer_id = by_name["outer"][0][0]
    assert all(parent == outer_id for _, parent in by_name["mid"])
    assert by_name["inner"][0][1] == by_name["mid"][0][0]


def test_hook_time_is_charged_to_no_span():
    now = [0.0]
    rec = tracer.Recorder(clock=lambda: now[0])

    def hook():
        now[0] += 5                 # a slow recording hook

    now[0] = 0
    rec.enter("outer")
    now[0] = 1
    rec.enter("inner")
    rec.untimed(hook)               # runs from 1 to 6
    assert rec.caller == "outer"
    now[0] = 8
    rec.exit()                      # inner: 7, of which 5 in the hook
    now[0] = 10
    rec.exit()                      # outer: 10, of which 7 in inner
    assert dict(rec.self_s) == {"inner": 2, "outer": 3}


def test_failures_are_classified():
    geo = checks.FanGeometry(P112)
    box = "cone []: point [0, 0], q = [], order 1\n" \
          "cone [0, 2]: point [0, -1], q = [1/2, 1/2], order 2\n"
    assert checks.expected_box(geo) == box

    def classify(code, output, exc=None, kind="box", params=None):
        return checks.classify(code, output, exc, lambda text:
                               checks.check_output(kind, geo, params or {}, text))

    assert classify(0, box) is None
    assert classify(None, "", AssertionError("boom")) == "exception"
    assert classify(2, "usage error: expected one argument\n") == "exit_code"
    assert classify(0, box.replace("order 2", "order 3")) == "check"
    bad_direct = "1 + 2q + q^2\ndirect check (bound 2): FAILED\n"
    assert classify(1, bad_direct, kind="gamma",
                    params={"divisor": "zero", "bound": Fraction(2)}) == "check"
    good = "1 + 2q + q^2\ndirect check (bound 2): ok\n"
    assert classify(0, good, kind="gamma",
                    params={"divisor": "zero", "bound": Fraction(2)}) is None
    # value at t = 1 must be the normalised volume 4
    assert classify(0, "1 + t + t^2\n", kind="weighted-delta",
                    params={"lambda": "zero"}) == "check"
    assert checks.expected_betti(geo) == "q^0: 1\nq^1: 2\nq^2: 1\n"


def test_rational_answers_are_checked_exactly(tmp_path):
    geo = checks.FanGeometry(P112)
    # right value 4 at t = 1, but an exponent moved: caught only exactly
    for kind, params, right, wrong in (
            ("weighted-delta", {"lambda": "zero"},
             "1 + 2t + t^2\n", "1 + 2t + t^3\n"),
            ("gamma", {"divisor": "zero"},
             "1 + 2q + q^2\n", "1 + q + 2q^2\n")):
        assert checks.check_output(kind, geo, params, right) is None
        assert checks.check_output(kind, geo, params, wrong) == \
            "rational function differs from the closed formula"
    # with a weighted functional the program's answer is a reduced
    # rational function; the reference is not reduced
    doc = dict(P112, functionals={"L": [1, 0, "1/2"]})
    path = tmp_path / "p112.json"
    path.write_text(json.dumps(doc))
    code, out = cli.run_command(["weighted-delta", str(path), "--lambda", "L"])
    assert code == 0 and ")/(" in out
    geo = checks.FanGeometry(doc)
    assert checks.check_output("weighted-delta", geo, {"lambda": "L"},
                               out) is None
    moved = out.replace("t^{7/4}", "t^{11/4}")
    assert moved != out
    assert checks.check_output("weighted-delta", geo, {"lambda": "L"},
                               moved) == \
        "rational function differs from the closed formula"


def test_rational_parsing_round_trip():
    num, den = checks.parse_rational(
        "(1 + q^{1/3} - (3/4)q^{-1/2} + 2q^2)/(1 + q^{1/3})")
    assert num == {0: 1, Fraction(1, 3): 1, Fraction(-1, 2): Fraction(-3, 4),
                   2: 2}
    assert den == {0: 1, Fraction(1, 3): 1}
    # (1 - t^2)/(1 - t) -> 2 at t = 1; series 1 + t
    num, den = {0: 1, 2: -1}, {0: 1, 1: -1}
    assert checks.value_at_one(num, den) == 2
    assert checks.expand(num, den, Fraction(3)) == {0: 1, 1: 1}


def _bindings_snapshot():
    return {k: id(v) for k, v in tracer.bindings(stackyfan).items()}


def test_traced_names_are_restored(tmp_path):
    path = tmp_path / "p112.json"
    path.write_text(json.dumps(P112))
    before = _bindings_snapshot()
    box_elements = stackyfan.stacky.box_elements
    rec = tracer.Recorder()
    with tracer.Tracer(stackyfan, rec):
        # rebound where defined and where imported by name
        assert stackyfan.stacky.box_elements.__wrapped__ is box_elements
        assert stackyfan.deltainv.box_elements.__wrapped__ is box_elements
        assert hasattr(stackyfan.qseries.FracRational.__init__, "__wrapped__")
        code, out = stackyfan.cli.run_command(["betti", str(path)])
    assert (code, out) == (0, "q^0: 1\nq^1: 2\nq^2: 1\n")
    assert rec.calls["cli.run_command"] == 1
    assert rec.calls["core.validate_fan"] == 2
    assert rec.calls["deltainv.weighted_delta_closed"] == 1
    assert _bindings_snapshot() == before
    assert cli.run_command is stackyfan.cli.run_command
    assert stackyfan.deltainv.box_elements is box_elements

    with pytest.raises(RuntimeError):
        with tracer.Tracer(stackyfan, tracer.Recorder()):
            raise RuntimeError("request failed")
    assert _bindings_snapshot() == before


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    layers = run.layer_metrics(tracer.Recorder(), 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, unit) for k, (_, unit) in layers.items()]


def test_comparison_marks_noisy_metrics_unresolved():
    steady = {s: 10.0 + 0.1 * s for s in range(10)}
    faster = {s: v * 1.5 for s, v in steady.items()}
    slower = {s: v * 1.5 for s, v in steady.items()}
    noisy = {s: 10.0 * (1 + s % 3) for s in range(10)}
    assert compare.verdict(steady, faster, "higher", 0.1) == (10, 10, "better")
    assert compare.verdict(steady, slower, "lower", 0.1)[2] == "worse"
    assert compare.verdict(steady, dict(steady), "lower", 0.1)[2] == "unchanged"
    assert compare.verdict(steady, noisy, "lower", 0.1)[2] == "unresolved"


def test_comparison_refuses_repeated_seeds(tmp_path):
    row = {"workload": "refinement", "seed": 3, "trace": 0,
           "result": {"metrics": {"setup_s": {"value": 0.5, "unit": "s"}}},
           "extra": {"wall.setup_s": {"value": 0.6, "unit": "s"}}}
    path = tmp_path / "runs.jsonl"
    path.write_text(json.dumps(row) + "\n")
    assert compare.load(path)[("refinement", 0, "wall.setup_s")] == {3: 0.6}
    path.write_text(2 * (json.dumps(row) + "\n"))
    with pytest.raises(SystemExit, match="second run"):
        compare.load(path)
