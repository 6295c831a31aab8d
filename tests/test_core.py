import itertools
import random
from fractions import Fraction

import pytest

from conftest import (fan_a1, fan_p1, fan_p2, mk_sfan, named_fans,
                      random_complete_rank2, random_complete_rank3,
                      random_convex_rank2, random_convex_rank3)
from stackyfan.core import (Cone, ConeSolver, Fan, ZERO_CONE,
                            determinant_abs, minimal_containing_cone,
                            solve_rational_system, validate_fan)
from stackyfan.errors import OutsideSupport
from stackyfan.stacky import locate


def test_solve_identity():
    assert solve_rational_system([(1, 0), (0, 1)], (3, 5)) == (3, 5)


def test_solve_rational():
    assert solve_rational_system([(1, 0), (1, 2)], (1, 1)) == \
        (Fraction(1, 2), Fraction(1, 2))


def test_solve_inconsistent():
    assert solve_rational_system([(1, 0), (2, 0)], (0, 1)) is None


def test_determinant_examples():
    assert determinant_abs([(1, 0), (0, 1)]) == 1
    assert determinant_abs([(1, 0), (1, 2)]) == 2
    assert determinant_abs([(-2,)]) == 2


def test_determinant_permutation_invariant():
    rng = random.Random(7)
    for _ in range(50):
        vecs = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3)]
        perm = vecs[:]
        rng.shuffle(perm)
        assert determinant_abs(vecs) == determinant_abs(perm)


def test_validate_named_fans_clean():
    for f in (fan_a1(), fan_p1(), fan_p2()):
        assert validate_fan(f.fan).ok


def test_validate_non_primitive_ray():
    fan = Fan.from_maximal(2, [(2, 0), (0, 1)], [(0, 1)], "general")
    report = validate_fan(fan)
    assert "ray 0 not primitive" in report.violations


def test_validate_incomplete_declared_complete():
    fan = Fan.from_maximal(2, [(1, 0), (0, 1)], [(0, 1)], "complete")
    report = validate_fan(fan)
    assert any("facet" in v for v in report.violations)


def test_validate_complete_facet_counts():
    # (rays, maximal cones, violations), all declared complete
    p2 = [(1, 0), (0, 1), (-1, -1)]
    cases = [
        # a quadrant: each of its facets lies on one cone
        ([(1, 0), (0, 1)], [(0, 1)],
         ["facet [0] on 1 maximal cone", "facet [1] on 1 maximal cone"]),
        # P2 less one cone
        (p2, [(0, 1), (1, 2)],
         ["facet [0] on 1 maximal cone", "facet [2] on 1 maximal cone"]),
        # P2 with one cone replaced by its two rays
        (p2, [(0, 1), (2,)],
         ["complete fan has a maximal cone of lower dimension",
          "facet [0] on 1 maximal cone", "facet [1] on 1 maximal cone",
          "facet [2] on 0 maximal cones"]),
        # only rays: no cone of full dimension
        (p2, [(0,), (1,), (2,)],
         ["complete fan has no maximal-dimensional cone",
          "complete fan has a maximal cone of lower dimension",
          "facet [0] on 0 maximal cones", "facet [1] on 0 maximal cones",
          "facet [2] on 0 maximal cones"]),
    ]
    for rays, cones, violations in cases:
        fan = Fan.from_maximal(2, rays, cones, "complete")
        assert validate_fan(fan).violations == violations


def test_validate_convex_boundary_facet_on_one_cone():
    # a facet on one top cone is a boundary facet, checked for a supporting
    # hyperplane; an interior facet (on two) and a facet of a lower
    # cone (on none) are not
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    half_plane = Fan.from_maximal(2, rays[:3], [(0, 1), (1, 2)], "convex")
    assert validate_fan(half_plane).ok
    fan = Fan.from_maximal(2, rays, [(0, 1), (1, 2), (3,)], "convex")
    assert validate_fan(fan).violations == [
        "boundary facet [0] admits no supporting hyperplane "
        "(support not convex)",
        "boundary facet [2] admits no supporting hyperplane "
        "(support not convex)"]


def test_validate_overlapping_cones():
    # the cones on (1,0),(0,1) and (1,1),(1,-1) overlap improperly
    fan = Fan.from_maximal(2, [(1, 0), (0, 1), (1, 1), (1, -1)],
                           [(0, 1), (2, 3)], "general")
    report = validate_fan(fan)
    assert any("intersect outside" in v for v in report.violations)


def test_validate_duplicate_rays():
    fan = Fan.from_maximal(1, [(1,), (1,)], [(0,), (1,)], "general")
    assert "duplicate rays" in validate_fan(fan).violations


def test_validate_ray_in_no_cone():
    # the rays are exactly the 1-cones: P2 with (1, 1) listed in no cone
    fan = Fan.from_maximal(2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
                           [(0, 1), (1, 2), (0, 2)], "complete")
    assert validate_fan(fan).violations == ["ray 3 lies in no cone"]


def test_validate_dependent_cone_rays():
    fan = Fan.from_maximal(2, [(1, 0), (-1, 0)], [(0, 1)], "general")
    report = validate_fan(fan)
    assert any("not linearly independent" in v for v in report.violations)


def test_validate_nonconvex_support():
    # three quadrants of the plane: support is not convex
    fan = Fan.from_maximal(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                           [(0, 1), (1, 2), (2, 3)], "convex")
    report = validate_fan(fan)
    assert any("supporting hyperplane" in v for v in report.violations)


def test_minimal_containing_cone_zero():
    assert minimal_containing_cone(fan_p1().fan, (0,)) == ZERO_CONE


def test_minimal_containing_cone_interior():
    assert minimal_containing_cone(fan_p2().fan, (2, 1)) == Cone((0, 1))


def test_minimal_containing_cone_on_ray():
    assert minimal_containing_cone(fan_p2().fan, (3, 0)) == Cone((0,))


def test_minimal_containing_cone_outside():
    with pytest.raises(OutsideSupport):
        minimal_containing_cone(fan_a1().fan, (-1,))


def ray_coordinates(fan, cone, v):
    """The coordinates of v over the cone's rays, None off their span."""
    sol = ConeSolver(fan.ray_vectors(cone), fan.rank).solve(v)
    return None if sol is None else tuple(Fraction(n, sol[1]) for n in sol[0])


def test_cone_coordinates_standard_basis():
    f = fan_p2()
    assert ray_coordinates(f.fan, Cone((0, 1)), (2, 1)) == (2, 1)
    assert locate(f, (2, 1)) == (Cone((0, 1)), (2, 1))


def test_cone_coordinates_halves():
    f = mk_sfan(2, [(1, 0), (1, 2)], (1, 1), [(0, 1)], "convex")
    halves = (Fraction(1, 2), Fraction(1, 2))
    assert ray_coordinates(f.fan, Cone((0, 1)), (1, 1)) == halves
    assert locate(f, (1, 1)) == (Cone((0, 1)), halves)


def test_cone_coordinates_zero_vector():
    f = fan_p2()
    assert ray_coordinates(f.fan, Cone((0, 2)), (0, 0)) == (0, 0)
    assert locate(f, (0, 0)) == (ZERO_CONE, ())


def test_cone_coordinates_not_in_span():
    fan = Fan.from_maximal(2, [(1, 0), (0, 1)], [(0, 1)], "general")
    assert ray_coordinates(fan, Cone((0,)), (1, 1)) is None


def test_containing_cone_reassembly_positive():
    f = fan_p2()
    rng = random.Random(11)
    for _ in range(40):
        v = (Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
             Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        cone, q = locate(f, v)
        assert cone == minimal_containing_cone(f.fan, v)
        assert all(qi > 0 for qi in q)
        rebuilt = tuple(sum(qi * f.fan.rays[i][j]
                            for qi, i in zip(q, cone.ray_indices))
                        for j in range(2))
        assert rebuilt == tuple(Fraction(x) for x in v)


def test_validate_convex_supporting_hyperplanes():
    # (rank, rays, maximal cones, boundary facets with no supporting
    # hyperplane), all declared convex
    cases = [
        (2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)], [[0], [2]]),
        (2, [(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2)], []),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)],
         [(0, 1, 2), (1, 2, 3)], [[0, 2], [2, 3]]),
    ]
    for rank, rays, cones, facets in cases:
        fan = Fan.from_maximal(rank, rays, cones, "convex")
        assert validate_fan(fan).violations == [
            f"boundary facet {f} admits no supporting hyperplane "
            "(support not convex)" for f in facets]


def test_fan_face_closure():
    fan = fan_p2().fan
    assert ZERO_CONE in fan.cones
    assert Cone((0,)) in fan.cones and Cone((0, 2)) in fan.cones
    assert len(fan.maximal_cones) == 3


def test_cone_canonical_sorting():
    assert Cone((2, 0)).ray_indices == (0, 2)
    assert Cone((1,)).is_face_of(Cone((0, 1)))
    assert not Cone((2,)).is_face_of(Cone((0, 1)))


def test_validate_wrong_length_ray():
    fan = Fan.from_maximal(2, [(1, 0), (0, 1, 1)], [(0, 1)], "general")
    assert validate_fan(fan).violations == ["ray 1 has wrong length"]


def test_faces_and_facets_match_sorted_cones():
    # faces and facets are built without the sort of Cone(...), which still
    # sorts the indices it is given
    assert Cone((2, 0, 1)).ray_indices == (0, 1, 2)
    rng = random.Random(29)
    fans = [f.fan for f in named_fans().values()]
    fans += [make(rng).fan for make in (random_complete_rank2,
                                        random_convex_rank2,
                                        random_complete_rank3,
                                        random_convex_rank3)
             for _ in range(3)]
    for fan in fans:
        for c in fan.sorted_cones:
            idx = list(c.ray_indices)
            rng.shuffle(idx)
            assert Cone(tuple(idx)) == c
            faces = list(c.faces())
            assert len(faces) == 2 ** c.dim
            assert set(faces) == {
                Cone(tuple(sorted(sub))) for k in range(len(idx) + 1)
                for sub in itertools.combinations(idx, k)}
            assert all(list(f.ray_indices) == sorted(f.ray_indices)
                       for f in faces)
        # the coface map: its keys are the facets of every cone, and each
        # lists every (ray, cone) with the cone the facet plus that ray,
        # by ascending ray
        cofaces = fan.facet_indices
        assert cofaces.keys() == {
            tuple(sorted(set(c.ray_indices) - {i}))
            for c in fan.cones for i in c.ray_indices}
        assert sorted((facet, ray, c.ray_indices)
                      for facet, pairs in cofaces.items()
                      for ray, c in pairs) == sorted(
            (tuple(sorted(set(c.ray_indices) - {i})), i, c.ray_indices)
            for c in fan.cones for i in c.ray_indices)
        assert all(c in fan.cones for pairs in cofaces.values()
                   for _, c in pairs)
        assert all([ray for ray, _ in pairs] == sorted(ray for ray, _ in pairs)
                   for pairs in cofaces.values())
        assert fan.maximal_cones == tuple(
            c for c in fan.sorted_cones
            if not any(c != o and c.is_face_of(o) for o in fan.cones))
