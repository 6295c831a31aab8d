"""stackyfan request benchmark.

    python3 stackybench/run.py --workload closed_forms --seed 1 --seconds 30 --trace 0

One client sends CLI requests in a closed loop, in process and on one
thread, through `stackyfan.cli.run_command`; every answer is checked
against a reference computed independently from the fan document.  A run
repeats whole passes over the workload's requests until --seconds have
passed and at least 100 requests have been made.

--trace 0 reports the end-to-end metrics:
  requests_per_s   successful requests per second spent in run_command,
                   median over passes
  latency_p50_ms,  nearest-rank percentiles of the latency of every
  latency_p90_ms   request made (p90 needs 10 samples beyond it)
  success_ratio    requests that succeeded / requests made; the report
                   also prints its complement failed_ratio, by kind
  setup_s          median time to import the package, generate the
                   workload, write its documents and build its fine fans
  peak_rss_mb      peak resident set of this process after the requests
--trace 1 ignores --seconds: it makes one untraced and one traced pass
over the same requests and reports the per-layer split.

Times are reported at a fixed reference speed of the machine.  Before
every request, and around every set-up, the benchmark times a fixed
exact-arithmetic kernel of its own (the gauge), and multiplies a time by
(REFERENCE_KERNEL_S / gauge) ** SPEED_EXPONENT.  The gauge is the median
kernel time of the pass for requests_per_s, the mean of the kernel times
just before and just after the request for each latency, and the median
of three before and three after for a set-up.  On a shared two-vCPU
virtual machine the speed switched, for tens of seconds at a time,
between two states; the kernel took 1.85 times as long in the slow state
and a pass of requests about 1.6 times as long, so a time follows the
gauge to the power 0.75 (fitted on the passes of all three workloads).
In two sets of ten seeds per workload the run-to-run spread (quartile
distance over median) of the timings was 0.04-0.24 unscaled and
0.03-0.13 scaled.  The readable report also prints the unscaled
wall-clock values (wall.*).

The last line of standard output is the JSON result; the lines before it
are a readable report.  In it `failed` counts requests that raised, exited
with a code other than 0 or gave a wrong answer, and `correct` is false
only when some answer was wrong.  --workload all runs each workload in a
process of its own, one after another.  --results FILE appends the result,
with the unscaled wall-clock values, failed_ratio and the properties of
the generated inputs, for compare.py.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import checks
import stats
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".stackybench"
SETUP_REPEATS = 9
REFERENCE_KERNEL_S = 0.0015   # kernel time that defines the reference speed
SPEED_EXPONENT = 0.75         # how closely request times follow the kernel
MIN_REQUESTS = stats.samples_needed(90)
END_TO_END_UNITS = {"requests_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "success_ratio": "ratio",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class SetUpError(Exception):
    pass


def _import_package():
    """Fresh import of the package from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "stackyfan" / "__init__.py").is_file():
        raise SetUpError(f"no stackyfan package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules
                 if n == "stackyfan" or n.startswith("stackyfan.")]:
        del sys.modules[name]
    pkg = importlib.import_module("stackyfan")
    if Path(pkg.__file__).resolve().parent != (src / "stackyfan").resolve():
        raise SetUpError(f"imported stackyfan from {pkg.__file__}, not {src}")
    return pkg


def kernel_seconds() -> float:
    """Time one run of a fixed pure-Python exact-arithmetic kernel: the
    gauge of how fast the machine runs this kind of code right now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return time.perf_counter() - start


def speed_factor(gauge) -> float:
    """Multiplier from wall time to time at the reference speed."""
    return (REFERENCE_KERNEL_S / statistics.median(gauge)) ** SPEED_EXPONENT


def set_up(name: str, seed: int, workdir: Path):
    """Import the package, generate the workload, write its documents and
    build the fine fans; returns (seconds, package, workload, paths)."""
    start = time.perf_counter()
    pkg = _import_package()
    workload = workloads.make_workload(name, seed)
    paths = {}
    for doc_name, doc in workload.docs.items():
        paths[doc_name] = workdir / f"{doc_name}.json"
        paths[doc_name].write_text(json.dumps(workloads.render(doc)),
                                   encoding="utf-8")
    for fine_name, (coarse, chain) in workload.chains.items():
        doc = workload.docs[coarse]
        fan = pkg.Fan.from_maximal(doc["rank"], doc["rays"], doc["cones"],
                                   doc["support"])
        sfan = pkg.StackyFan(fan, doc["weights"])
        for point, multiplicity in chain:
            sfan = pkg.refine.stellar_subdivide(sfan, point, multiplicity)
        paths[fine_name] = workdir / f"{fine_name}.json"
        paths[fine_name].write_text(
            pkg.cli.render_document(pkg.cli.document_of(sfan)),
            encoding="utf-8")
    return time.perf_counter() - start, pkg, workload, paths


def argv_of(request, paths) -> list:
    argv = [request.kind, str(paths[request.fan])]
    if request.fine is not None:
        argv += ["--fine", str(paths[request.fine])]
    return argv + list(request.args)


class Checker:
    """Checks outputs against the reference, once per distinct output of
    each request, and tallies failures by kind."""

    def __init__(self, workload):
        self.geometry = {n: checks.FanGeometry(d)
                         for n, d in workload.docs.items()}
        self.verdicts = {}       # request index -> (code, output, failure)
        self.failures = Counter()
        self.examples = {}       # failure kind -> first description

    def check(self, index, request, code, output, exc):
        seen = self.verdicts.get(index)
        if exc is None and seen is not None and seen[:2] == (code, output):
            failure = seen[2]
        else:
            geo = self.geometry[request.fan]
            reason = None

            def check_output(text):
                nonlocal reason
                reason = checks.check_output(request.kind, geo,
                                             request.params, text)
                return reason

            failure = checks.classify(code, output, exc, check_output)
            if exc is None:
                self.verdicts[index] = (code, output, failure)
            if failure is not None and failure not in self.examples:
                detail = (f"{type(exc).__name__}: {exc}" if exc is not None
                          else reason
                          or f"exit {code}: {output.strip()[:120]}")
                self.examples[failure] = (f"{request.kind} {request.fan}: "
                                          f"{detail}")
        if failure is not None:
            self.failures[failure] += 1
        return failure


def run_pass(cli, argvs, rec=None):
    """Send every request once, timing the kernel before each.

    Returns ([(wall latency, code, output, exception)], gauge): the
    kernel times before each request and after the last one."""
    results, gauge = [], []
    for i, argv in enumerate(argvs):
        gauge.append(kernel_seconds())
        if rec is not None:
            rec.request = i
        start = time.perf_counter()
        try:
            code, output = cli.run_command(argv)
            exc = None
        except Exception as err:  # an escaping exception is a failed request
            code, output, exc = None, "", err
        results.append((time.perf_counter() - start, code, output, exc))
    gauge.append(kernel_seconds())
    return results, gauge


def _check_pass(checker, workload, results) -> int:
    """Check one pass; returns how many of its requests failed."""
    return sum(checker.check(i, request, code, output, exc) is not None
               for i, (request, (_, code, output, exc)) in enumerate(
                   zip(workload.requests, results)))


def input_properties(workload) -> list:
    out = []
    for name, doc in workload.docs.items():
        geo = checks.FanGeometry(doc)
        lam = tuple(Fraction(v)
                    for v in doc.get("functionals", {}).get(
                        "L", [0] * len(doc["rays"])))
        out.append({"document": name, "rank": doc["rank"],
                    "rays": len(doc["rays"]),
                    "max_weight": max(doc["weights"]),
                    "grid_n": geo.grid_n(lam),
                    "det_sum": int(geo.det_sum())})
    return out


def measure(name, seed, seconds, workdir) -> dict:
    """The untraced run: end-to-end metrics."""
    setups, wall_setups = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()             # the modules of the previous set-up
        gauge = [kernel_seconds() for _ in range(3)]
        took, pkg, workload, paths = set_up(name, seed, workdir)
        gauge += [kernel_seconds() for _ in range(3)]
        setups.append(took * speed_factor(gauge))
        wall_setups.append(took)
    argvs = [argv_of(r, paths) for r in workload.requests]
    checker = Checker(workload)
    latencies, wall, pass_rates, wall_rates = [], [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(latencies) < MIN_REQUESTS):
        results, gauge = run_pass(pkg.cli, argvs)
        succeeded = len(results) - _check_pass(checker, workload, results)
        busy = sum(r[0] for r in results)
        pass_rates.append(succeeded / (busy * speed_factor(gauge)))
        wall_rates.append(succeeded / busy)
        latencies += [r[0] * speed_factor(gauge[i:i + 2])
                      for i, r in enumerate(results)]
        wall += [r[0] for r in results]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(latencies)
    failed = sum(checker.failures.values())
    values = {
        # median over passes, so one pass in a slow spell does not move it
        "requests_per_s": (statistics.median(pass_rates), n),
        "latency_p50_ms": (stats.percentile(latencies, 50) * 1e3, n),
        "latency_p90_ms": (stats.percentile(latencies, 90) * 1e3, n),
        "success_ratio": ((n - failed) / n, n),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    metrics = {k: (v, END_TO_END_UNITS[k], count)
               for k, (v, count) in values.items()}
    extra = {
        "failed_ratio": (failed / n, "ratio", n),
        "wall.requests_per_s": (statistics.median(wall_rates), "1/s", n),
        "wall.latency_p50_ms": (stats.percentile(wall, 50) * 1e3, "ms", n),
        "wall.latency_p90_ms": (stats.percentile(wall, 90) * 1e3, "ms", n),
        "wall.setup_s": (statistics.median(wall_setups), "s", len(setups)),
    }
    return {"workload": workload, "checker": checker, "attempted": n,
            "failed": failed, "passes": len(pass_rates), "metrics": metrics,
            "extra": extra}


def trace(name, seed, workdir) -> dict:
    """The traced run: one untraced and one traced pass over the same
    requests; per-layer metrics."""
    _, pkg, workload, paths = set_up(name, seed, workdir)
    argvs = [argv_of(r, paths) for r in workload.requests]
    checker = Checker(workload)
    plain, plain_gauge = run_pass(pkg.cli, argvs)
    _check_pass(checker, workload, plain)
    before = tracer.bindings(pkg)
    rec = tracer.Recorder()
    with tracer.Tracer(pkg, rec):
        traced, traced_gauge = run_pass(pkg.cli, argvs, rec)
    if tracer.bindings(pkg) != before:
        raise SetUpError("tracing left a wrapped binding behind")
    _check_pass(checker, workload, traced)
    rec.write(OUT / f"trace-{name}-seed{seed}.jsonl")
    m = layer_metrics(
        rec, sum(r[0] for r in plain) * speed_factor(plain_gauge),
        sum(r[0] for r in traced) * speed_factor(traced_gauge))
    n = len(plain) + len(traced)
    failed = sum(checker.failures.values())
    split = _designed_split(name, m)
    return {"workload": workload, "checker": checker, "attempted": n,
            "failed": failed, "passes": 2,
            "metrics": {k: (v, u, len(traced)) for k, (v, u) in m.items()},
            "extra": {}, "split": split,
            "spans": (len(rec.spans), rec.dropped)}


def layer_metrics(rec, plain_s: float, traced_s: float) -> dict:
    """name -> (value, unit) of every per-layer metric."""
    modules = rec.module_self_s()
    total = sum(modules.values())
    m = {}
    for module, s in modules.items():
        m[f"{module}.self_s"] = (s, "s")
        m[f"{module}.share"] = (s / total if total else 0.0, "ratio")
    m["trace.overhead_ratio"] = (traced_s / plain_s if plain_s else 0.0,
                                 "ratio")
    for key in PER_LAYER_TIMES:
        m[f"{key}.self_s"] = (rec.self_s.get(key, 0.0), "s")
    for key in PER_LAYER_CALLS:
        m[f"{key}.calls"] = (rec.calls.get(key, 0), "count")
    for key in ("stacky.box_elements.found",
                "stacky.enumerate_support_points.points_kept",
                "qseries.eq_fallback"):
        m[key] = (rec.counters.get(key, 0), "count")
    for key in ("qseries.grid_n_max", "qseries.dense_len_max"):
        m[key] = (rec.maxima.get(key, 0), "count")
    # waste of the bounding-box scans: solves they make per point they keep
    kept = (rec.counters["stacky.box_elements.found"]
            + rec.counters["stacky.enumerate_support_points.points_kept"])
    m["stacky.solves_per_point_kept"] = (
        rec.counters["stacky.scan_solves"] / kept if kept else 0.0, "ratio")
    return m


PER_LAYER_TIMES = (
    "cli.run_command", "cli.parse_fan_document", "core.validate_fan",
    "core.minimal_containing_cone", "core.solve_rational_system",
    "stacky.box_elements", "stacky.enumerate_support_points",
    "qseries.FracRational", "qseries.FracPoly.mul", "qseries.FracPoly.add",
    "qseries.expand", "qseries.format", "deltainv.weighted_delta_closed",
    "deltainv.gamma", "deltainv.check_symmetry", "deltainv.orbifold_betti",
    "deltainv.weighted_delta_series", "deltainv.count_lattice_points",
    "arcspace.gamma_truncated_direct", "arcspace.orbit_poset",
    "refine.stellar_subdivide", "refine.is_stacky_refinement",
    "refine.check_invariance", "refine.transfer_lambda")

PER_LAYER_CALLS = (
    "cli.parse_fan_document", "core.validate_fan",
    "core.minimal_containing_cone", "core.solve_rational_system",
    "stacky.box_elements", "stacky.enumerate_support_points",
    "qseries.FracRational", "qseries.eq", "qseries.FracPoly.mul",
    "qseries.FracPoly.add", "qseries.expand",
    "deltainv.weighted_delta_closed", "deltainv.count_lattice_points",
    "arcspace.closure_leq", "arcspace.orbit_label",
    "refine.stellar_subdivide")


def _designed_split(name, m):
    """The layer split each workload was designed for, as (claim, held)."""
    if name == "closed_forms":
        shares = {k: v for k, (v, _) in m.items() if k.endswith(".share")}
        return ("qseries has the largest module share",
                max(shares, key=shares.get) == "qseries.share")
    if name == "oracle_checks":
        lattice = sum(m[f"{k}.self_s"][0] for k in ("stacky", "core",
                                                      "arcspace"))
        return ("stacky + core + arcspace self time exceeds "
                "qseries.FracRational self time",
                lattice > m["qseries.FracRational.self_s"][0])
    return None


def report(name, seed, result) -> None:
    """Readable lines, then the JSON result as the last line."""
    print(f"workload {name}  seed {seed}  passes {result['passes']}  "
          f"requests {result['attempted']} "
          f"({len(result['workload'].requests)} per pass)")
    rows = dict(result["metrics"])
    rows.update(result["extra"])
    for key, (value, unit, n) in rows.items():
        print(f"  {key:46s} {value:14.6g} {unit:6s} n={n}")
    failures = result["checker"].failures
    print(f"  failures: {sum(failures.values())} of {result['attempted']} "
          + "(" + ", ".join(f"{k} {failures[k]}"
                            for k in checks.FAILURE_KINDS) + ")")
    for kind, example in result["checker"].examples.items():
        print(f"    first {kind}: {example}")
    if result.get("split"):
        claim, held = result["split"]
        print(f"  designed split: {claim}: {'holds' if held else 'DOES NOT HOLD'}")
    if result.get("spans"):
        print("  trace file: first {} spans written, {} more not kept"
              .format(*result["spans"]))


def result_json(result) -> dict:
    return {"correct": result["checker"].failures["check"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in result["metrics"].items()}}


def run_each(args) -> int:
    """Run every workload in a process of its own, one after another, so
    that each measures its own set-up and peak resident set."""
    options = ["--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.results is not None:
        options += ["--results", str(args.results)]
    code = 0
    for name in workloads.WORKLOADS:
        code = max(code, subprocess.run(
            [sys.executable, __file__, "--workload", name, *options],
            check=False).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        help="append the run's result, with its inputs' "
                             "properties, to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_each(args)
    name = args.workload
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        if args.trace:
            result = trace(name, args.seed, workdir)
        else:
            result = measure(name, args.seed, args.seconds, workdir)
    except SetUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    props = input_properties(result["workload"])
    (OUT / f"inputs-{name}-seed{args.seed}.json").write_text(
        json.dumps(props, indent=1) + "\n", encoding="utf-8")
    line = result_json(result)
    if args.results is not None:
        extra = {k: {"value": v, "unit": u}
                 for k, (v, u, _) in result["extra"].items()}
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": name, "seed": args.seed,
                                 "trace": args.trace, "result": line,
                                 "extra": extra, "inputs": props}) + "\n")
    report(name, args.seed, result)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
