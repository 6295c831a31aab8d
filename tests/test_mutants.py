"""The mutation gate: a table of known ways to break the package, each with
the cheapest check that must catch it.

Each row monkeypatches one package name with a mutant of it and names its
killer, a check that raises an AssertionError or a StackyFanError when it
fails.  The killer must pass on the clean tree and fail under the mutant,
so a later edit that weakens the check, or the oracle behind it, lets the
mutant through and fails here.  A killer of a closed-form mutant is an
oracle or an exact reference, and the killer of an oracle-side mutant a
closed form, so the table also shows each side checking the other.  Every
name below is looked up as a module global at call time, so the patch
reaches each caller; the killers build their fans afresh, so no cache
filed before the patch hides the mutant.
"""

import random
from fractions import Fraction

import pytest

import test_core
from conftest import (ehrhart_delta_reference, fan_p2, fan_p12, moved_iota,
                      named_fans, random_admissible_lambda,
                      random_complete_rank2)
from test_kernels import poly_mul, random_binomial_quotients, times_binomials
from stackyfan import arcspace, core, cyclotomic, deltainv, stacky
from stackyfan.arcspace import gamma_truncated_direct, zero_divisor
from stackyfan.deltainv import (count_lattice_points, ehrhart_delta, gamma,
                                weighted_delta_closed, weighted_delta_series)
from stackyfan.errors import StackyFanError
from stackyfan.qseries import (expand_laurent, expand_series, series_equal,
                               substitute_reciprocal)
from stackyfan.stacky import enumerate_support_points, zero_functional


# ---------------------------------------------------------------------------
# Mutants: each takes the original and returns its broken stand-in


def drop_last_scanned(scan):
    """The parallelepiped scan loses its last element: a box element gone."""
    return lambda sfan, tau: scan(sfan, tau)[:-1]


def drop_last_tuple_from_3(tuples):
    """The shift tuples with sum bound 3 or more lose their last tuple."""
    def mutant(k, total_max):
        found = list(tuples(k, total_max))
        return found[:-1] if total_max >= 3 else found
    return mutant


def every_97th_binomial_off_by_one(times_binomial):
    """Every 97th p * (1 - s^c) multiplies by 1 - s^(c + 1) instead."""
    calls = [0]

    def mutant(p, c):
        calls[0] += 1
        return times_binomial(p, c + (calls[0] % 97 == 0))
    return mutant


def involution_point_moved(iota):
    """The box involution keeps its numerators and moves its point by b_0."""
    return moved_iota


def one_face_raised_by_one(assemble):
    """The assembly reads the exponents of the first non-zero face with a
    box one higher."""
    def mutant(fan, n, binom, boxes, cones):
        tau = next((t for t, exps in boxes.items() if t.dim and exps), None)
        return assemble(fan, n, binom, {
            t: [e + 1 for e in exps] if t == tau else exps
            for t, exps in boxes.items()}, cones)
    return mutant


def always_disjoint(overlaps):
    """The overlap test finds every pair of maximal cones disjoint."""
    return lambda fan, a, b: False


def phi_always_divides(phi_divides):
    """The cyclotomic test passes every fold: every Phi_k divides."""
    return lambda f, k, factors: True


def fold_read_at_one(fold):
    """A fold whose residues sum to 0 reads as 0: a shortcut that judges a
    fold by its value at s = 1 alone."""
    def mutant(a, k):
        f = fold(a, k)
        return [0] * k if not sum(f) else f
    return mutant


# ---------------------------------------------------------------------------
# Killers: each raises on a failed check and returns None on a pass


def closed_form_matches_series_on_named_fans():
    """Criterion 2 on the five named fans at lambda = 0: the closed form
    against the definitional series, up to t^(d + 2)."""
    for f in named_fans().values():
        lam, cutoff = zero_functional(f), Fraction(f.rank + 2)
        assert series_equal(weighted_delta_series(f, lam, cutoff),
                            expand_series(weighted_delta_closed(f, lam),
                                          cutoff)), f.fan.rays


def closed_form_matches_series_on_random_fans():
    """Criterion 2 on six seeded complete rank-2 fans, each with a random
    admissible functional: some 170 binomial products in the closed form."""
    rng = random.Random(26)
    for _ in range(6):
        f = random_complete_rank2(rng)
        lam = random_admissible_lambda(rng, f)
        assert series_equal(weighted_delta_series(f, lam, 4),
                            expand_series(weighted_delta_closed(f, lam), 4)), \
            (f.fan.rays, f.weights, lam.values_on_b)


def delta_matches_counts_on_named_fans():
    """Criterion 7 on the five named fans: the delta-polynomial, assembled
    at ceil(age), against the oracle's lattice-point counts."""
    for f in named_fans().values():
        assert ehrhart_delta(f) == ehrhart_delta_reference(f), f.fan.rays


def walk_matches_brute_count():
    """The twisted-arc walk on P2 up to psi 4 against the oracle's count."""
    f = fan_p2()
    assert len(enumerate_support_points(f, 4)) == count_lattice_points(f, 4)


def reductions_keep_the_product_identity():
    """Twelve seeded reductions over known binomials: num * b == a * den,
    with b multiplied out, so the check reduces nothing itself."""
    for a, c, exps in random_binomial_quotients(13, 12):
        b = times_binomials([c], *exps.elements())
        num, den = cyclotomic.reduce_binomials(list(a), c, exps)
        assert poly_mul(num, b) == poly_mul(a, den), (a, c, exps)


def direct_sum_matches_closed_form():
    """Criterion 5 on P(1,2) at bound 3: the direct sum, with its
    orbit-measure route checked term by term, against the closed form."""
    f = fan_p12()
    e = zero_divisor(f)
    direct = gamma_truncated_direct(f, e, 3)
    assert series_equal(direct, expand_laurent(
        substitute_reciprocal(gamma(f, e)), direct.cutoff))


# (id, module, name, mutant, killer)
MUTANTS = [
    ("scan-drops-an-element", stacky, "_scan_parallelepiped",
     drop_last_scanned, closed_form_matches_series_on_named_fans),
    ("walk-drops-a-shift-tuple", stacky, "_bounded_tuples",
     drop_last_tuple_from_3, walk_matches_brute_count),
    ("binomial-exponent-off-by-one", deltainv, "_times_binomial",
     every_97th_binomial_off_by_one,
     closed_form_matches_series_on_random_fans),
    ("involution-point-moved", arcspace, "iota", involution_point_moved,
     direct_sum_matches_closed_form),
    ("assembly-face-raised-by-one", deltainv, "_assemble",
     one_face_raised_by_one, delta_matches_counts_on_named_fans),
    ("overlap-always-disjoint", core, "_cones_overlap_improperly",
     always_disjoint, test_core.test_validate_overlapping_cones),
    ("phi-always-divides", cyclotomic, "_phi_divides", phi_always_divides,
     reductions_keep_the_product_identity),
    ("fold-read-at-one", cyclotomic, "_fold", fold_read_at_one,
     reductions_keep_the_product_identity),
]


@pytest.mark.parametrize("module,name,mutate,killer",
                         [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_mutant_is_killed_by_its_check(monkeypatch, module, name, mutate,
                                       killer):
    killer()
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    with pytest.raises((AssertionError, StackyFanError)):
        killer()
