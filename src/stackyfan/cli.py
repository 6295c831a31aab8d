"""Command-line interface: the JSON fan-document format and result
rendering for every computation in the package.

Exit codes: 0 success, 1 domain error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import arcspace, core, deltainv, refine, stacky
from .core import Fan
from .errors import (NotARefinement, ParseError, StackyFanError,
                     ValidationError, admit)
from .qseries import (expand_laurent, format_power, format_ratio,
                      format_rational, format_series, series_equal,
                      substitute_reciprocal)
from .stacky import PiecewiseQLinear, StackyFan

DOCUMENT_FIELDS = ("rank", "rays", "weights", "cones", "support",
                   "divisors", "functionals")
SUPPORT_KINDS = ("complete", "convex", "general")
# the largest rank a document may declare; every computation grows with it
MAX_RANK = 64
# the most faces, sum 2^k over the k-ray cones, that a document may list:
# the fan is built and validated face by face, and a document at the limit
# validates in about 0.2 s (2 vCPU, Python 3.11)
MAX_FACES = 2 ** 14
# the named divisors and functionals of every document, by block; a
# document that defines one of these names again is refused
BUILT_INS = {"divisors": {"zero": arcspace.zero_divisor,
                          "canonical": arcspace.canonical_divisor},
             "functionals": {"zero": stacky.zero_functional}}


@dataclass(frozen=True)
class FanDocument:
    """The serialized form of a stacky fan plus optional named per-ray data."""

    rank: int
    rays: tuple
    weights: tuple
    cones: tuple        # maximal cones as ray-index tuples
    support: str
    divisors: tuple = ()     # pairs (name, tuple of rationals)
    functionals: tuple = ()  # pairs (name, tuple of rationals)

    def to_fan(self) -> Fan:
        return Fan.from_maximal(self.rank, self.rays, self.cones, self.support)

    def to_stacky_fan(self) -> StackyFan:
        fan = self.to_fan()
        report = core.validate_fan(fan)
        if not report.ok:
            raise ValidationError(report)
        return StackyFan(fan, self.weights)


def rational(text: str) -> Fraction:
    """The rational written as an integer or p/q, each with an optional
    sign; ValueError for any other text, a zero denominator or a part over
    Python's digit limit.  (Fraction would also read decimals and exponent
    notation, and expands 1e-10000000 in full.)"""
    match = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", text)
    if match is None:
        raise ValueError(f"malformed rational {text!r}")
    num, den = int(match[1]), int(match[2] or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def _rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{path}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return rational(value)
        except ValueError:
            raise ParseError(f"{path}: malformed rational {value!r}")
    raise ParseError(f"{path}: expected an integer or 'p/q' string")


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer")
    return value


def _int_list(value, path: str) -> tuple:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list")
    return tuple(_integer(x, f"{path}[{i}]") for i, x in enumerate(value))


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a repeated key, whose last value json would
    keep, is a ParseError."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ParseError(f"repeated key {key!r}")
        data[key] = value
    return data


def parse_fan_document(text: str) -> FanDocument:
    """Strict parse of the JSON fan document; unknown fields, repeated keys
    and the built-in names are rejected and the encoded fan is validated."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: line {exc.lineno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ParseError("top level: expected an object")
    for key in data:
        if key not in DOCUMENT_FIELDS:
            raise ParseError(f"unknown field {key!r}")
    for key in ("rank", "rays", "weights", "cones", "support"):
        if key not in data:
            raise ParseError(f"missing field {key!r}")
    rank = _integer(data["rank"], "rank")
    if rank < 1:
        raise ParseError("rank: must be positive")
    admit(rank, MAX_RANK, "rank", "is")
    if not isinstance(data["rays"], list):
        raise ParseError("rays: expected a list")
    rays = tuple(_int_list(r, f"rays[{i}]")
                 for i, r in enumerate(data["rays"]))
    for i, r in enumerate(rays):
        if len(r) != rank:
            raise ParseError(f"rays[{i}]: expected {rank} coordinates")
    weights = _int_list(data["weights"], "weights")
    if len(weights) != len(rays):
        raise ParseError("weights: length differs from rays")
    if any(a < 1 for a in weights):
        raise ParseError("weights: must be positive")
    if not isinstance(data["cones"], list):
        raise ParseError("cones: expected a list")
    cones = tuple(_int_list(c, f"cones[{i}]")
                  for i, c in enumerate(data["cones"]))
    for i, c in enumerate(cones):
        if any(j < 0 or j >= len(rays) for j in c):
            raise ParseError(f"cones[{i}]: ray index out of range")
        # a simplicial cone has at most rank rays, and a fan walks all
        # 2^k faces of a k-ray cone
        if len(c) > rank:
            raise ParseError(f"cones[{i}]: more than {rank} ray indices")
        if len(set(c)) != len(c):
            raise ParseError(f"cones[{i}]: repeated ray index")
    admit(sum(2 ** len(c) for c in cones), MAX_FACES, "the cones have",
          "faces,")
    support = data["support"]
    if support not in SUPPORT_KINDS:
        raise ParseError(f"support: expected one of {', '.join(SUPPORT_KINDS)}")

    def named(key):
        block = data.get(key)
        if block is None:
            return ()
        if not isinstance(block, dict):
            raise ParseError(f"{key}: expected an object")
        out = []
        for name in block:
            if name in BUILT_INS[key]:
                raise ParseError(f"{key}.{name}: {name!r} is a built-in name")
            values = block[name]
            if not isinstance(values, list) or len(values) != len(rays):
                raise ParseError(f"{key}.{name}: expected one value per ray")
            out.append((name, tuple(_rational(v, f"{key}.{name}[{i}]")
                                    for i, v in enumerate(values))))
        return tuple(out)

    doc = FanDocument(rank, rays, weights, cones, support,
                      named("divisors"), named("functionals"))
    doc.to_stacky_fan()  # validation side effect
    return doc


def _render_rational(x: Fraction):
    return x.numerator if x.denominator == 1 else str(x)


def render_document(doc: FanDocument) -> str:
    data = {
        "rank": doc.rank,
        "rays": [list(r) for r in doc.rays],
        "weights": list(doc.weights),
        "cones": [list(c) for c in doc.cones],
        "support": doc.support,
    }
    if doc.divisors:
        data["divisors"] = {name: [_render_rational(v) for v in values]
                            for name, values in doc.divisors}
    if doc.functionals:
        data["functionals"] = {name: [_render_rational(v) for v in values]
                               for name, values in doc.functionals}
    return json.dumps(data, indent=2) + "\n"


def document_of(sfan: StackyFan) -> FanDocument:
    return FanDocument(sfan.rank, sfan.fan.rays, sfan.weights,
                       tuple(c.ray_indices for c in sfan.fan.maximal_cones),
                       sfan.fan.support_kind)


# ---------------------------------------------------------------------------
# Rendering helpers


def _fmt_vec(v) -> str:
    return "[" + ", ".join(map(str, v)) + "]"


def _resolve_functional(doc: FanDocument, sfan: StackyFan,
                        name: str) -> PiecewiseQLinear:
    if name in BUILT_INS["functionals"]:
        return BUILT_INS["functionals"][name](sfan)
    for n, values in doc.functionals:
        if n == name:
            return PiecewiseQLinear(sfan, values)
    raise ParseError(f"unknown functional {name!r}")


def _resolve_divisor(doc: FanDocument, sfan: StackyFan,
                     name: str) -> arcspace.StackDivisor:
    if name in BUILT_INS["divisors"]:
        return BUILT_INS["divisors"][name](sfan)
    for n, values in doc.divisors:
        if n == name:
            return arcspace.StackDivisor(sfan, values)
    raise ParseError(f"unknown divisor {name!r}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(doc_text, args):
    try:
        parse_fan_document(doc_text)
    except ValidationError as exc:
        return 1, "\n".join(exc.report.violations) + "\n"
    return 0, "ok\n"


def _cmd_box(doc, sfan, args):
    lines = []
    for e in stacky.box_all(sfan):
        q = ", ".join([format_ratio(n, e.order) for n in e.nums])
        lines.append(f"cone {_fmt_vec(e.cone.ray_indices)}: "
                     f"point {_fmt_vec(e.point)}, q = [{q}], order {e.order}")
    return 0, "\n".join(lines) + "\n"


def _cmd_ages(doc, sfan, args):
    # the age sum(nums) / order, as stacky.age gives it
    lines = [f"point {_fmt_vec(e.point)}: "
             f"age {format_ratio(sum(e.nums), e.order)}"
             for e in stacky.box_all(sfan)]
    return 0, "\n".join(lines) + "\n"


def _cmd_ehrhart(doc, sfan, args):
    counts = deltainv.ehrhart_counts(sfan, args.max_m)
    lines = [f"f({m}) = {c}" for m, c in enumerate(counts)]
    return 0, "\n".join(lines) + "\n"


def _cmd_delta(doc, sfan, args):
    return 0, format_rational(deltainv.ehrhart_delta(sfan)) + "\n"


def _cmd_weighted_delta(doc, sfan, args):
    lam = _resolve_functional(doc, sfan, args.lam)
    closed = deltainv.weighted_delta_closed(sfan, lam)
    out = format_rational(closed) + "\n"
    if args.series_cutoff is not None:
        series = deltainv.weighted_delta_series(sfan, lam,
                                                args.series_cutoff)
        out += "series: " + format_series(series) + "\n"
    return 0, out


def _cmd_gamma(doc, sfan, args):
    var = "uv" if args.uv else "q"
    e = _resolve_divisor(doc, sfan, args.divisor)
    g = deltainv.gamma(sfan, e)
    out = format_rational(g, var) + "\n"
    if args.check_direct is not None:
        bound = args.check_direct
        direct = arcspace.gamma_truncated_direct(sfan, e, bound)
        closed = expand_laurent(substitute_reciprocal(g), direct.cutoff)
        if not series_equal(direct, closed):
            return 1, out + f"direct check (bound {bound}): FAILED\n"
        out += f"direct check (bound {bound}): ok\n"
    return 0, out


def _cmd_betti(doc, sfan, args):
    var = "uv" if args.uv else "q"
    lines = [f"{format_power(var, e.numerator, e.denominator)}: {c}"
             for e, c in deltainv.orbifold_betti(sfan).items()]
    return 0, "\n".join(lines) + "\n"


def _cmd_symmetry(doc, sfan, args):
    lam = _resolve_functional(doc, sfan, args.lam)
    ok = deltainv.check_symmetry(sfan, lam)
    return 0, f"symmetric: {'true' if ok else 'false'}\n"


def _cmd_orbit_poset(doc, sfan, args):
    poset = arcspace.orbit_poset(sfan, args.bound)
    points = sorted(lab.w for lab in poset.labels)
    covers = sorted(poset.covers)
    if args.json:
        data = {"labels": [list(p) for p in points],
                "covers": [[list(a), list(b)] for a, b in covers]}
        return 0, json.dumps(data, indent=2) + "\n"
    if args.dot:
        lines = ["digraph orbits {"]
        for p in points:
            lines.append(f'  "{_fmt_vec(p)}";')
        for a, b in covers:
            lines.append(f'  "{_fmt_vec(a)}" -> "{_fmt_vec(b)}";')
        lines.append("}")
        return 0, "\n".join(lines) + "\n"
    lines = [f"label {_fmt_vec(p)}" for p in points]
    lines += [f"cover {_fmt_vec(a)} -> {_fmt_vec(b)}" for a, b in covers]
    return 0, "\n".join(lines) + "\n"


def _cmd_refine_check(doc, sfan, args):
    fine = parse_fan_document(_read(args.fine)).to_stacky_fan()
    if args.lam is None:
        ok = refine.is_stacky_refinement(fine, sfan) is not None
        return (0, "refinement: yes\n") if ok else (1, "refinement: no\n")
    lam = _resolve_functional(doc, sfan, args.lam)
    try:
        ok = refine.check_invariance(sfan, lam, fine)
    except NotARefinement:
        return 1, "refinement: no\n"
    return 0, f"refinement: yes\ninvariance: {'true' if ok else 'false'}\n"


def _cmd_subdivide(doc, sfan, args):
    if len(args.at) != sfan.rank:
        raise _UsageError(f"argument --at: expected {sfan.rank} coordinates, "
                          f"got {len(args.at)}")
    result = refine.stellar_subdivide(sfan, args.at, args.weight)
    return 0, render_document(document_of(result))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _at_least(parse, low, what):
    """An argument type: the value parsed from the text, rejected below
    low; a malformed value (such as 1/0) is reported as for parse itself."""
    def convert(text):
        value = parse(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    convert.__name__ = parse.__name__
    return convert


def _lattice_point(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed lattice point {text!r}")


@functools.cache
def _build_parser() -> tuple:
    """The argument parser and each subcommand's options that take a value,
    built once and shared by every run_command (parsing leaves it unchanged)."""
    parser, values = _Parser(prog="stackyfan", description=__doc__), {}
    parser.add_argument("--uv", action="store_true",
                        help="render the motivic variable as uv instead of q")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("fan", help="path to a fan document (JSON)")
        p.set_defaults(func=func)
        return p

    def option(p, flag, **kwargs):
        values.setdefault(p, set()).add(flag)
        p.add_argument(flag, **kwargs)

    add("validate", _cmd_validate, help="structural validation report")
    add("box", _cmd_box, help="box elements of every cone")
    add("ages", _cmd_ages, help="ages of all box elements")
    p = add("ehrhart", _cmd_ehrhart, help="lattice-point counts f(0..K)")
    option(p, "--max-m", type=_at_least(int, 0, "non-negative"), required=True,
           metavar="K")
    add("delta", _cmd_delta, help="Ehrhart delta-polynomial")
    p = add("weighted-delta", _cmd_weighted_delta,
            help="weighted delta-vector (closed form)")
    option(p, "--lambda", dest="lam", required=True, metavar="NAME")
    option(p, "--series-cutoff", metavar="C",
           type=_at_least(rational, 0, "non-negative"))
    p = add("gamma", _cmd_gamma, help="motivic integral Gamma(X, E)")
    option(p, "--divisor", required=True, metavar="NAME")
    option(p, "--check-direct", metavar="BOUND",
           type=_at_least(rational, 0, "non-negative"))
    add("betti", _cmd_betti, help="orbifold Betti numbers")
    p = add("symmetry", _cmd_symmetry, help="palindromy of the delta-vector")
    option(p, "--lambda", dest="lam", required=True, metavar="NAME")
    p = add("orbit-poset", _cmd_orbit_poset, help="twisted-arc orbit poset")
    option(p, "--bound", type=_at_least(rational, 0, "non-negative"),
           required=True, metavar="B")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p = add("refine-check", _cmd_refine_check,
            help="refinement predicate and invariance check")
    option(p, "--fine", required=True, metavar="FILE")
    option(p, "--lambda", dest="lam", metavar="NAME")
    p = add("subdivide", _cmd_subdivide, help="stellar subdivision at a point")
    option(p, "--at", type=_lattice_point, required=True, metavar="x,y,..")
    option(p, "--weight", type=_at_least(int, 1, "positive"), default=1,
           metavar="a")
    return parser, {name: values.get(p, set()) for name, p in
                    sub.choices.items()}


def _read(path) -> str:
    """The text of a UTF-8 document; a ParseError if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc)) from exc


def _takes_value(token, values) -> bool:
    """Whether argparse reads token as one of values, in full or abbreviated."""
    return token in values or token != "--" and token.startswith("--") and \
        len([o for o in values if o.startswith(token)]) == 1


def run_command(argv) -> tuple:
    """Execute a CLI invocation; returns (exit code, rendered output)."""
    parser, options = _build_parser()
    # argparse reads a token that begins with '-' as an option unless it looks
    # like a negative number, so a value is joined to its option: --at=-1,0
    tokens, values = [], None  # the value options of the subcommand
    for token in argv:
        if values and _takes_value(tokens[-1], values):
            tokens[-1] += "=" + token
        else:
            values = options.get(token) if values is None else values
            tokens.append(token)
    try:
        args = parser.parse_args(tokens)
        text = _read(args.fan)
        if args.func is _cmd_validate:
            return _cmd_validate(text, args)
        doc = parse_fan_document(text)
        sfan = doc.to_stacky_fan()
        return args.func(doc, sfan, args)
    except _UsageError as exc:
        return 2, f"usage error: {exc}\n"
    except ParseError as exc:
        return 2, f"error: {exc}\n"
    except StackyFanError as exc:
        return 1, f"error: {exc}\n"


def main() -> None:
    code, output = run_command(sys.argv[1:])
    sys.stdout.write(output)
    sys.exit(code)


if __name__ == "__main__":
    main()
