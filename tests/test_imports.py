"""The package runs on the standard library alone, whatever is installed
in the test environment, keeps every check under `python -O`, and keeps
its oracles apart from the enumerators they check."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "stackyfan"
README = Path(__file__).parent.parent / "README.md"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _name(node):
    """The name a node spells: a Name's id, an Attribute's attr or an
    import alias's name; None for any other node."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else None)


def _function(module, function):
    """The definition of a module-level function of the package."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == function)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_standard_library_or_package_relative(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, \
                f"{path.name}:{node.lineno} imports {name}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # python -O strips assert statements; checks raise StackyFanErrors
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        assert not isinstance(node, ast.Assert), \
            f"{path.name}:{node.lineno} uses assert"


def test_oracles_name_no_checked_enumerator():
    # deltainv's oracles check the box-group enumerator and the per-cone
    # solvers, so they must not be built on them; the closed form scans
    # only through box_elements, so every scan is inside its traced span
    path = PACKAGE / "deltainv.py"
    banned = {"enumerate_support_points", "_scan_parallelepiped",
              "box_table", "box_scans", "ConeSolver", "solvers",
              "solve_rational_system"}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        name = _name(node)
        assert name not in banned, f"deltainv.py:{node.lineno} names {name}"


@pytest.mark.parametrize("function", ["_oracle_points", "_level_sum",
                                      "ehrhart_counts",
                                      "weighted_delta_series",
                                      "delta_mu_series"])
def test_oracles_do_not_walk_the_star(function):
    # the closed form in the same module pairs each box with the star of
    # its face through stacky.walk_star; the oracles it is checked against
    # scan the lattice points on their own
    for node in ast.walk(_function("deltainv.py", function)):
        name = _name(node)
        assert name != "walk_star", f"deltainv.py:{node.lineno} names {name}"


def test_only_box_elements_starts_a_box_scan():
    # every box-group scan starts inside box_elements, so each multi-cone
    # read is admitted and ordered by box_reads ahead of it
    readers = [f"{path.name} {getattr(node, 'name', node.lineno)}"
               for path in SOURCES
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if _reads(node)["_scan_parallelepiped"]]
    assert readers == ["stacky.py box_elements"]


def test_refine_decides_invariance_without_canonical_forms():
    # check_invariance compares assembled closed forms through
    # deltainv.weighted_delta_equal; it builds no canonical FracRational
    path = PACKAGE / "refine.py"
    banned = {"weighted_delta_closed", "FracRational"}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        name = _name(node)
        assert name not in banned, f"refine.py:{node.lineno} names {name}"


@pytest.mark.parametrize("module", ["stacky.py", "refine.py", "arcspace.py"])
def test_point_location_goes_through_cone_solvers_locate(module):
    # a point's minimal cone is found by core.ConeSolvers.locate alone; no
    # module here locates by ray-vector cones or by per-cone solves, and
    # arcspace decides the closure order from the orbit labels alone
    path = PACKAGE / module
    banned = {"minimal_containing_cone", "solve"}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        name = _name(node)
        assert name not in banned, f"{module}:{node.lineno} names {name}"


@pytest.mark.parametrize("module, function", [("deltainv.py", "ehrhart_delta"),
                                              ("cli.py", "_cmd_delta")])
def test_delta_is_read_from_the_closed_form(module, function):
    # the delta-polynomial is assembled with each box element at ceil(age),
    # not a canonical closed form bucketed afterwards; the lattice-point
    # scan stays with the oracles that check it
    banned = {"ehrhart_counts", "count_lattice_points", "_oracle_points",
              "weighted_delta_closed", "over_binomials", "bucket_series"}
    for node in ast.walk(_function(module, function)):
        name = _name(node)
        assert name not in banned, f"{module}:{node.lineno} names {name}"


def test_h_vector_multiplies_no_polynomials(monkeypatch):
    # the h-vector is the zero box element alone through the closed form's
    # assembly, on integer dicts: no FracPoly product is taken
    from conftest import named_fans
    from stackyfan import deltainv, qseries
    calls, mul = [], qseries.FracPoly.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(qseries.FracPoly, "__mul__", counting)
    for f in named_fans().values():
        deltainv.h_vector(f.fan)
    assert calls == []


SERIES_FUNCTIONS = [
    ("deltainv.py", "_level_sum"), ("deltainv.py", "bucket_series"),
    ("deltainv.py", "ehrhart_delta"), ("deltainv.py", "orbifold_betti"),
    ("deltainv.py", "gamma"), ("arcspace.py", "gamma_truncated_direct"),
    ("qseries.py", "times_one_minus_t"), ("qseries.py", "_expand"),
    ("qseries.py", "series_equal"), ("qseries.py", "format_series")]


@pytest.mark.parametrize("module, function", SERIES_FUNCTIONS)
def test_series_run_on_the_integer_grid(module, function):
    # series are read and built as {int k: c} on a grid t^{1/n}; FracPoly,
    # with its Fraction exponents, is only a construction convenience
    for node in ast.walk(_function(module, function)):
        assert _name(node) != "FracPoly", \
            f"{module}:{node.lineno} names FracPoly"


@pytest.mark.parametrize("module, function",
                         [("deltainv.py", "_level_sum"),
                          ("arcspace.py", "gamma_truncated_direct"),
                          ("qseries.py", "times_one_minus_t")])
def test_oracle_sums_take_nothing_from_the_closed_form(module, function):
    # the oracles multiply by (1 - t)^d on their own, so that a fault in
    # the closed form's assembly cannot show on both sides
    banned = {"_times_binomial", "_weighted_delta_parts", "over_binomials"}
    for node in ast.walk(_function(module, function)):
        name = _name(node)
        assert name not in banned, f"{module}:{node.lineno} names {name}"


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # __init__.py imports to re-export; a future import is a compiler switch
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{node.lineno} {name}"
              for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              for name in (a.asname or a.name.split(".")[0]
                           for a in node.names)
              if name not in used]
    assert unused == []


def _private_definitions(node):
    """The module-level private names (_x, not __x__) a statement
    defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    else:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_")
            and not (name.startswith("__") and name.endswith("__"))]


def _reads(tree):
    """How often each name is read in a tree: loaded names, attributes
    and imported aliases."""
    return Counter(_name(node) for node in ast.walk(tree)
                   if isinstance(node, (ast.Attribute, ast.alias))
                   or isinstance(node, ast.Name)
                   and not isinstance(node.ctx, ast.Store))


def test_every_private_helper_is_read():
    # a private helper that no code of the package reads, other than its
    # own definition, is dead
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    reads = sum(map(_reads, trees.values()), Counter())
    dead = [f"{module}:{node.lineno} {name}"
            for module, tree in trees.items() for node in tree.body
            for name in _private_definitions(node)
            if reads[name] <= _reads(node)[name]]
    assert dead == []


def test_only_errors_constructs_budget_exceeded():
    # every size budget refuses through errors.admit, which names the count
    sites = []
    for path in SOURCES:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            target = (node.func if isinstance(node, ast.Call)
                      else node.exc if isinstance(node, ast.Raise) else None)
            if _name(target) == "BudgetExceeded":
                sites.append(f"{path.name}:{node.lineno}")
    assert sites == []


def _budgets():
    """Every module-level *_BUDGET constant of the package, as module.NAME."""
    return {f"{path.stem}.{target.id}" for path in SOURCES
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name) and target.id.endswith("_BUDGET")}


def test_readme_lists_every_budget_and_no_other():
    # every module-level *_BUDGET constant is named as module.NAME in the
    # README's list of refusals, and the README names no budget that the
    # package does not define
    defined = _budgets()
    text = README.read_text(encoding="utf-8")
    refusals = text[text.index("These budgets also exit 1"):
                    text.index("Every budget is checked by one function")]
    assert set(re.findall(r"\w+\.\w+_BUDGET\b", refusals)) == defined
    assert set(re.findall(r"\b[A-Z_]+_BUDGET\b", text)) <= \
        {name.split(".")[1] for name in defined}


def test_every_budget_is_read_by_one_function():
    # each walk admits its own budget where it runs, once: a budget read by
    # two functions was counted by callers ahead of a walk that did not
    # admit itself, once per caller
    readers = {name.split(".")[1]: [] for name in _budgets()}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                for name in readers.keys() & _reads(node).keys():
                    readers[name].append(f"{path.stem}.{node.name}")
    assert {name: found for name, found in readers.items()
            if len(found) != 1} == {}
