"""Span recorder for the traced run.

Tracing wraps public functions of the package from outside: each wrapper
opens a span on entry and closes it on exit, and the wrapped name is
rebound in every `stackyfan` module that holds it (names imported with
`from .x import f` are separate bindings).  Methods are wrapped on their
class.  Leaving the `Tracer` context restores every original binding, so
untraced runs measure the unmodified program.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

MODULES = ("cli", "core", "stacky", "qseries", "deltainv", "arcspace",
           "refine")

SCAN_SPANS = ("stacky.box_elements", "stacky.enumerate_support_points")

KEEP_SPANS = 20_000       # spans stored for the trace file


class Recorder:
    """Spans kept in memory plus exact per-name self times and counters.

    A span's self time is its duration minus the time covered by its child
    spans.  Only the first KEEP_SPANS spans are stored for writing out; the
    aggregates cover all of them.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []          # [span id, name, start, child time, parent]
        self.spans = []          # (id, name, start, end, parent, request)
        self.dropped = 0
        self.next_id = 0
        self.request = None
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.maxima = Counter()

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append([self.next_id, name, self.clock(), 0.0, parent])
        self.next_id += 1

    def exit(self) -> None:
        span_id, name, start, child, parent = self.stack.pop()
        end = self.clock()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][3] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, name, start, end, parent,
                               self.request))
        else:
            self.dropped += 1

    def untimed(self, hook, *args) -> None:
        """Run a recording hook inside the open span and count its time
        as the span's child time, so that neither the span nor any of its
        parents is charged for it; it shows only in the traced wall time."""
        start = self.clock()
        try:
            hook(*args)
        finally:
            self.stack[-1][3] += self.clock() - start

    @property
    def caller(self):
        """Name of the span that opened the current one."""
        return self.stack[-2][1] if len(self.stack) > 1 else None

    def module_self_s(self) -> dict:
        out = dict.fromkeys(MODULES, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans),
                                 "dropped": self.dropped}) + "\n")
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent,
                                     "request": request}) + "\n")


def wrap(rec: Recorder, name: str, fn, before=None, after=None):
    """fn inside a span called name.  The hooks run inside the span but
    untimed: before(args) on entry and after(args, result) on return."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.enter(name)
        try:
            if before is not None:
                rec.untimed(before, args)
            result = fn(*args, **kwargs)
            if after is not None:
                rec.untimed(after, args, result)
        finally:
            rec.exit()
        return result
    return traced


# ---------------------------------------------------------------------------
# What is traced


def _targets(pkg, rec: Recorder):
    """(owner module or class, attribute, span name, before, after)."""
    q = pkg.qseries
    FracPoly = q.FracPoly

    def count(key, amount=1):
        rec.counters[key] += amount

    def note_scan_solve(args):
        if rec.caller in SCAN_SPANS:
            count("stacky.scan_solves")

    def note_grid(args):
        # computed, not measured: the grid N and the dense length
        # N * (max - min(min, 0)) + 1 of the exponents handed to the
        # constructor, which is what canonicalisation works on
        num = args[1]
        den = args[2] if len(args) > 2 else None
        if not isinstance(num, FracPoly) or not num.terms:
            return
        exps = list(num.terms)
        exps += list(den.terms) if isinstance(den, FracPoly) else [Fraction(0)]
        n = math.lcm(*(e.denominator for e in exps))
        length = int(n * (max(exps) - min(min(exps), 0))) + 1
        maxima = rec.maxima
        maxima["qseries.grid_n_max"] = max(maxima["qseries.grid_n_max"], n)
        maxima["qseries.dense_len_max"] = max(maxima["qseries.dense_len_max"],
                                              length)

    def note_fallback(args, result):
        a, b = args
        if result is True and not (a.num == b.num and a.den == b.den):
            count("qseries.eq_fallback")

    return [
        (pkg.cli, "run_command", "cli.run_command", None, None),
        (pkg.cli, "parse_fan_document", "cli.parse_fan_document", None, None),
        (pkg.core, "validate_fan", "core.validate_fan", None, None),
        (pkg.core, "minimal_containing_cone", "core.minimal_containing_cone",
         None, None),
        (pkg.core, "solve_rational_system", "core.solve_rational_system",
         note_scan_solve, None),
        (pkg.stacky, "box_elements", "stacky.box_elements", None,
         lambda a, r: count("stacky.box_elements.found", len(r))),
        (pkg.stacky, "enumerate_support_points",
         "stacky.enumerate_support_points", None,
         lambda a, r: count("stacky.enumerate_support_points.points_kept",
                            len(r))),
        (pkg.stacky, "psi", "stacky.psi", None, None),
        (pkg.stacky, "eval_pl", "stacky.eval_pl", None, None),
        (q.FracRational, "__init__", "qseries.FracRational", note_grid, None),
        (q.FracRational, "__eq__", "qseries.eq", None, note_fallback),
        (FracPoly, "__mul__", "qseries.FracPoly.mul", None, None),
        (FracPoly, "__add__", "qseries.FracPoly.add", None, None),
        (q, "expand_series", "qseries.expand", None, None),
        (q, "expand_laurent", "qseries.expand", None, None),
        (q, "format_poly", "qseries.format", None, None),
        (q, "format_rational", "qseries.format", None, None),
        (q, "format_series", "qseries.format", None, None),
        (pkg.deltainv, "weighted_delta_closed",
         "deltainv.weighted_delta_closed", None, None),
        (pkg.deltainv, "gamma", "deltainv.gamma", None, None),
        (pkg.deltainv, "check_symmetry", "deltainv.check_symmetry", None, None),
        (pkg.deltainv, "orbifold_betti", "deltainv.orbifold_betti", None, None),
        (pkg.deltainv, "weighted_delta_series",
         "deltainv.weighted_delta_series", None, None),
        (pkg.deltainv, "count_lattice_points",
         "deltainv.count_lattice_points", None, None),
        (pkg.arcspace, "gamma_truncated_direct",
         "arcspace.gamma_truncated_direct", None, None),
        (pkg.arcspace, "orbit_poset", "arcspace.orbit_poset", None, None),
        (pkg.arcspace, "closure_leq", "arcspace.closure_leq", None, None),
        (pkg.arcspace, "orbit_label", "arcspace.orbit_label", None, None),
        (pkg.refine, "stellar_subdivide", "refine.stellar_subdivide", None, None),
        (pkg.refine, "is_stacky_refinement", "refine.is_stacky_refinement",
         None, None),
        (pkg.refine, "check_invariance", "refine.check_invariance", None, None),
        (pkg.refine, "transfer_lambda", "refine.transfer_lambda", None, None),
    ]


def package_modules(pkg):
    prefix = pkg.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == pkg.__name__ or name.startswith(prefix))]


class Tracer:
    """Context manager that installs the wrappers and restores the
    original bindings on exit."""

    def __init__(self, pkg, rec: Recorder):
        self.pkg = pkg
        self.rec = rec
        self.saved = []          # (owner, attribute, original)

    def __enter__(self):
        modules = package_modules(self.pkg)
        try:
            for owner, attr, name, before, after in _targets(self.pkg, self.rec):
                original = owner.__dict__[attr]
                traced = wrap(self.rec, name, original, before, after)
                if isinstance(owner, type):
                    self._rebind(owner, attr, original, traced)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, original, traced)
        except BaseException:
            self.restore()
            raise
        return self.rec

    def _rebind(self, owner, attr, original, traced):
        self.saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self.restore()
        return False


def bindings(pkg) -> dict:
    """Every function binding in the package, by (owner, attribute), for
    checking that tracing left nothing behind."""
    out = {}
    for module in package_modules(pkg):
        for key, value in vars(module).items():
            if callable(value):
                out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(f"{module.__name__}.{key}", attr)] = member
    return out
