"""Fan validation, Cox grading data, irrelevant ideal, Euler operators."""

import pathlib
from itertools import combinations, product
from operator import mul

import pytest

from helpers import (all_fixture_fans, class_section, cone_rays, cpu_time_limit,
                     defective_faces, fan_faces, fan_hirzebruch1, fan_p1, fan_p1_cubed,
                     fan_p1p1, fan_p2, fan_p3, fan_torsion, grading, matrix_rank,
                     overlapping_cones_per_ray, random_fan, random_homogeneous_weyl,
                     random_simplicial_fan, random_weyl, rng, star_subdivided_fans,
                     validate_per_face)
from toric_dmod import cli, dmod, fan_cox
from toric_dmod.errors import (FanValidationError, NonSimplicialCone,
                               NonSmoothCone, RaysDoNotSpan, UnknownCone)
from toric_dmod.fan_cox import (Fan, _fm_feasible, _overlapping_cones, _smith_cone_data,
                                _unimodular_cone_data, euler_operators, grading_data,
                                irrelevant_ideal, validate_smooth_fan)
from toric_dmod.lattice import FinitelyGeneratedAbelianGroup
from toric_dmod.dmod import weyl_degree
from toric_dmod.weyl import WeylElement, format_weyl, theta_u


def test_p2_fan_is_valid():
    # validation raises or returns nothing
    assert validate_smooth_fan(fan_p2()) is None


def test_non_smooth_cone_detected():
    with pytest.raises(NonSmoothCone):
        validate_smooth_fan(Fan(2, [[1, 0], [1, 2]], [[0, 1]]))


def test_empty_cone_list_with_spanning_rays_is_valid():
    fan = Fan(2, [[1, 0], [0, 1], [-1, -1]], [])
    validate_smooth_fan(fan)
    assert set(fan.max_cones) == {(0,), (1,), (2,)}


def test_rays_do_not_span():
    with pytest.raises(RaysDoNotSpan):
        validate_smooth_fan(Fan(2, [[1, 0], [-1, 0]], []))


def test_non_simplicial_cone():
    with pytest.raises(NonSimplicialCone):
        validate_smooth_fan(Fan(2, [[1, 0], [-1, 0], [0, 1]], [[0, 1]]))


def test_non_primitive_ray_rejected():
    with pytest.raises(FanValidationError):
        validate_smooth_fan(Fan(2, [[2, 0], [0, 1]], []))


def test_overlapping_cones_rejected():
    # the ray (1,1) sits inside the smooth quadrant: not a fan
    fan = Fan(2, [[1, 0], [0, 1], [1, 1]], [[0, 1]])
    with pytest.raises(FanValidationError, match=r"^cones \(3,\) and \(1, 2\) intersect "
                       "in more than a common face$"):
        validate_smooth_fan(fan)


def test_p3_fan_is_valid():
    # the first fixture whose cone pairs give 3 x 3 intersection systems
    rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    fan = Fan(3, rays, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    assert validate_smooth_fan(fan) is None
    assert fan.n == 3 and fan.d == 4
    assert len(fan.max_cones) == 4
    gd = grading_data(fan)
    assert gd.class_group.free_rank == 1 and gd.dual_basis == ((1, 1, 1, 1),)


def test_overlapping_3d_cones_rejected():
    # both cones are smooth, but (1,1,1) lies inside the first octant
    fan = Fan(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], [[0, 1, 2], [0, 1, 3]])
    with pytest.raises(FanValidationError, match=r"^cones \(1, 2, 3\) and \(1, 2, 4\) "
                       "intersect in more than a common face$"):
        validate_smooth_fan(fan)


STARTS = [("p2", fan_p2), ("p1p1", fan_p1p1), ("hirzebruch1", fan_hirzebruch1),
          ("p3", fan_p3)]


@pytest.mark.parametrize("name,start", STARTS)
def test_star_subdivided_fans_are_smooth_and_complete(name, start):
    # a smooth complete fan has a free class group of rank d - n
    fans = list(star_subdivided_fans(rng(len(name)), start(), 8))
    assert [fan.d for fan in fans] == list(range(start().d + 1, start().d + 9))
    for fan in fans:
        validate_smooth_fan(fan)
        group = grading_data(fan).class_group
        assert group.free_rank == fan.d - fan.n and group.torsion_orders == ()


def _with_overlapping_cone(r, fan):
    """fan with one more full-dimensional cone on its rays, not one of its
    cones: in a complete fan it overlaps some maximal cone."""
    while True:
        cone = tuple(sorted(r.sample(range(fan.d), fan.n)))
        if not fan.has_cone(cone) and matrix_rank(cone_rays(fan, cone)) == fan.n:
            return Fan(fan.n, fan.rays, fan.max_cones + (cone,))


@pytest.mark.parametrize("name,start", STARTS)
def test_one_system_per_pair_matches_the_per_ray_reference(name, start):
    # the same first offending pair, which the validation error quotes; the
    # random fans in dimensions 2 to 4 have maximal cones of every dimension
    r = rng(100 + len(name))
    for fan in star_subdivided_fans(r, start(), 6):
        assert _overlapping_cones(fan) is None is overlapping_cones_per_ray(fan)
        bad = _with_overlapping_cone(r, fan)
        assert _overlapping_cones(bad) is not None
        assert _overlapping_cones(bad) == overlapping_cones_per_ray(bad)
    pairs, lower = [], set()
    for i in range(150):
        fan = random_simplicial_fan(r, 2 + i % 3)
        pairs.append(_overlapping_cones(fan))
        assert pairs[-1] == overlapping_cones_per_ray(fan), (fan.rays, fan.max_cones)
        if pairs[-1] and min(map(len, pairs[-1])) < fan.n:
            lower.add(fan.n)
    assert 0 < pairs.count(None) < len(pairs)
    assert lower == {2, 3, 4}


def test_random_fans_of_rank_one_end():
    # Z^1 has only the primitive rays 1 and -1: the generators draw those
    # and stop, as asking for more rays than exist would loop forever
    r = rng(107)
    with cpu_time_limit(5, "random fans of rank 1"):
        fans = [make(r, 1) for _ in range(30) for make in (random_simplicial_fan, random_fan)]
    assert {fan.rays for fan in fans} <= {((-1,),), ((1,),), ((-1,), (1,))}
    assert all(fan.n == 1 for fan in fans)
    assert any(len(fan.rays) == 2 for fan in fans)


def test_one_exact_system_per_pair_of_maximal_cones(monkeypatch):
    calls = []
    real = fan_cox._fm_feasible

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fan_cox, "_fm_feasible", counted)
    fans = [fan_p1p1(), fan_p3(), list(star_subdivided_fans(rng(7), fan_p2(), 17))[-1],
            list(star_subdivided_fans(rng(8), fan_p3(), 8))[-1]]
    counts = []
    for fan in fans:
        calls.clear()
        validate_smooth_fan(fan)
        counts.append(len(calls))
    # at most one per pair: the sign of the summed coordinate row settles
    # every pair of the complete fans p1p1 and P3, and most of the rest
    sizes = [len(fan.max_cones) for fan in fans]
    assert [m * (m - 1) // 2 for m in sizes] == [6, 6, 190, 190]
    assert counts == [0, 0, 106, 74]
    assert [fan.d for fan in fans[2:]] == [20, 12]


def _fan_p4():
    rays = [[int(i == j) for j in range(4)] for i in range(4)] + [[-1, -1, -1, -1]]
    return Fan(4, rays, list(combinations(range(5), 4)))


def _full_system(fan, s1, s2):
    """The summed coordinate row of the pair and its whole exact system, as
    the docstring of _overlapping_cones sets it up, on s2's Smith form."""
    data = _smith_cone_data(cone_rays(fan, s2))
    own = [fan.rays[i] for i in s1 if i not in s2]
    nvars = len(own)
    off = [tuple(sum(map(mul, row, ray)) for ray in own)
           for j, row in zip(s2, data.coordinates) if j not in s1]
    total = tuple(map(sum, zip(*off)))
    eqs = [([sum(map(mul, row, ray)) for ray in own], 0) for row in data.completion]
    ineqs = [(tuple(int(t == k) for t in range(nvars)), 0) for k in range(nvars)]
    ineqs += [(row, 0) for row in off] + [(total, -1)]
    return total, (eqs, ineqs, nvars)


_CONE_FIELDS = ("invariant_factors", "coordinates", "completion")


@pytest.mark.parametrize("n,start,steps", [(2, fan_p2, 17), (3, fan_p3, 8), (4, _fan_p4, 5)])
def test_the_sign_settles_only_pairs_the_exact_system_rejects(monkeypatch, n, start, steps):
    # every pair whose summed row has no positive entry is one the whole
    # system rejects, and each other pair gets one system; the first
    # offending pair is the per-ray reference's, and a cone's row-reduced
    # data is its Smith form's
    r = rng(120 + n)
    fans = list(star_subdivided_fans(r, start(), steps))
    fans += [_with_overlapping_cone(r, fan) for fan in fans[::2]]
    fans += [random_simplicial_fan(r, n) for _ in range(60)]
    opened, tally = [], {"settled": 0, "open": 0, "lower": 0, "unimodular": 0,
                         "not unimodular": 0}
    monkeypatch.setattr(fan_cox, "_fm_feasible", lambda *system: opened.append(system))
    for fan in fans:
        expected = 0
        for s1, s2 in combinations(fan.max_cones, 2):
            total, system = _full_system(fan, s1, s2)
            if max(total) > 0:
                expected += 1
            else:
                assert not _fm_feasible(*system), (fan.rays, s1, s2)
                tally["settled"] += 1
                tally["lower"] += min(len(s1), len(s2)) < n
        tally["open"] += expected
        opened.clear()
        assert _overlapping_cones(fan) is None and len(opened) == expected
        for cone in fan.max_cones:
            smith = _smith_cone_data(cone_rays(fan, cone))
            got = fan.cone_data(cone)
            assert [getattr(got, f) for f in _CONE_FIELDS] == \
                [getattr(smith, f) for f in _CONE_FIELDS], (fan.rays, cone)
            if len(cone) == n:
                reduced = _unimodular_cone_data(cone_rays(fan, cone))
                if smith.invariant_factors == (1,) * n:
                    assert [getattr(reduced, f) for f in _CONE_FIELDS] == \
                        [getattr(smith, f) for f in _CONE_FIELDS], (fan.rays, cone)
                    tally["unimodular"] += 1
                else:
                    assert reduced is None, (fan.rays, cone)
                    tally["not unimodular"] += 1
    assert all(tally.values()), tally
    monkeypatch.undo()
    for fan in fans:
        assert _overlapping_cones(fan) == overlapping_cones_per_ray(fan), (fan.rays,
                                                                           fan.max_cones)
    with pytest.raises(NonSmoothCone, match=r"^cone \(1, 2\) is not smooth$"):
        validate_smooth_fan(Fan(2, [[1, 0], [1, 2]], [[0, 1]]))


def _all_fans_for_has_cone():
    r = rng(31)
    fans = [fan for _, fan in all_fixture_fans()] + [fan_p3(), fan_p1_cubed(),
                                                     fan_torsion()]
    fans += list(star_subdivided_fans(r, fan_p2(), 17))[::4]
    fans += list(star_subdivided_fans(r, fan_p3(), 8))[::4]
    fans += [random_simplicial_fan(r, 2 + i % 2) for i in range(40)]
    return fans


def test_has_cone_is_membership_in_the_face_set():
    # every tuple of at most n + 1 indices, repeated ones included: a tuple
    # with a repeated index is never a cone
    for fan in _all_fans_for_has_cone():
        faces = fan_faces(fan)
        for k in range(fan.n + 2):
            for idx in product(range(fan.d), repeat=k):
                assert fan.has_cone(idx) == (tuple(sorted(idx)) in faces), \
                    (fan.rays, fan.max_cones, idx)
    assert not fan_p1().has_cone((0, 0)) and fan_p1().has_cone(())


def test_max_cones_drop_listed_faces():
    fan = Fan(2, [[1, 0], [0, 1], [-1, -1]], [[1, 0], [0], [0, 1], [2], []])
    assert fan.max_cones == ((2,), (0, 1))
    with pytest.raises(FanValidationError, match="out of range"):
        Fan(2, [[1, 0], [0, 1]], [[0, 2]])


def _verdict(check, fan):
    try:
        check(fan)
    except FanValidationError as exc:
        return type(exc)
    return None


def test_validation_on_maximal_cones_matches_the_per_face_reference():
    # the exit code (an error or none) always matches; the error class
    # matches unless two or more faces are defective, where the first failing
    # maximal cone need not hold the smallest defective face
    r = rng(32)
    fans = [random_fan(r, 2 + i % 2) for i in range(600)]
    fans += _all_fans_for_has_cone()
    seen, single = set(), set()
    for fan in fans:
        error = validate_per_face(fan)
        expected = type(error) if error else None
        got = _verdict(validate_smooth_fan, fan)
        assert (got is None) == (expected is None), (fan.rays, fan.max_cones)
        seen.add(expected)
        defects = len(defective_faces(fan))
        if got is not expected:
            assert {expected, got} == {NonSmoothCone, NonSimplicialCone}
            assert defects >= 2, (fan.rays, fan.max_cones)
        elif defects == 1:
            single.add(got)
    assert {None, NonSimplicialCone, NonSmoothCone, RaysDoNotSpan,
            FanValidationError} <= seen
    assert single == {NonSimplicialCone, NonSmoothCone}


def test_a_cone_error_names_a_maximal_cone():
    # the face (1, 2) of the maximal cone (1, 2, 3) is not smooth; the cone
    # itself has three rays in the plane
    fan = Fan(2, [[1, 0], [1, 2], [0, 1]], [[0, 1, 2]])
    assert validate_per_face(fan).args == ("cone (1, 2)",)
    with pytest.raises(NonSimplicialCone, match=r"^cone \(1, 2, 3\) is not simplicial$"):
        validate_smooth_fan(fan)
    with pytest.raises(NonSmoothCone, match=r"^cone \(1, 2\) is not smooth$"):
        validate_smooth_fan(Fan(2, [[1, 0], [1, 2], [0, -1]], [[0, 1], [2]]))


def test_one_smith_form_per_maximal_cone(monkeypatch):
    calls = []
    real = fan_cox.smith_normal_form

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(fan_cox, "smith_normal_form", counted)
    fans = [fan_p1p1(), fan_p3(), list(star_subdivided_fans(rng(7), fan_p2(), 17))[-1],
            list(star_subdivided_fans(rng(8), fan_p3(), 8))[-1], fan_torsion(),
            Fan(3, fan_p3().rays, [[0, 1, 2], [0, 3], [1, 3], [2, 3]])]
    counts = []
    for fan in fans:
        calls.clear()
        validate_smooth_fan(fan)
        counts.append(len(calls))
        # the class group reads the ray matrix's Smith form from validation
        grading_data(fan)
        assert len(calls) == counts[-1]
    # one for the d x n ray matrix and one per maximal cone that is not
    # unimodular and full-dimensional: those are row reduced
    assert counts == [1 + sum(len(c) < fan.n for c in fan.max_cones)
                      for fan in fans] == [1, 1, 1, 1, 3, 4]


def test_require_cone_sorts_or_raises():
    fan = fan_p2()
    assert fan.require_cone([2, 0]) == (0, 2)
    assert fan.require_cone(()) == ()
    for cone in ((0, 1, 2), (1, 1)):
        with pytest.raises(UnknownCone, match="is not in the fan"):
            fan.require_cone(cone)


def test_sigma_hat_examples():
    # b has the sigma-hat of each maximal cone, the squarefree monomial over
    # the rays outside it; the zero cone is in the fan, (0, 1) not in P1's
    p1, p2 = fan_p1(), fan_p2()
    assert p1.max_cones == ((0,), (1,)) and p1.require_cone(()) == ()
    assert irrelevant_ideal(p1) == ((0, 1), (1, 0))
    assert p2.max_cones == ((0, 1), (0, 2), (1, 2))
    assert irrelevant_ideal(p2) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    with pytest.raises(UnknownCone):
        p1.require_cone((0, 1))


def test_irrelevant_ideal_examples():
    assert irrelevant_ideal(fan_p1()) == ((0, 1), (1, 0))
    assert irrelevant_ideal(fan_p1p1()) == (
        (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0))
    affine = Fan(2, [[1, 0], [0, 1]], [[0, 1]])
    assert irrelevant_ideal(affine) == ((0, 0),)


def test_irrelevant_ideal_checks_no_cone(monkeypatch):
    # b is built from the fan's own maximal cones, which need no membership
    # test: each is a cone of the fan by construction
    def no_check(self, cone):
        raise AssertionError("has_cone called")

    r = rng(37)
    fans = [fan for _, fan in all_fixture_fans()] + [fan_p3(), fan_torsion(),
                                                     Fan(2, [[1, 0], [0, 1]], [[0, 1]])]
    fans += [random_fan(r, n) for n in (1, 2, 3) for _ in range(10)]
    expected = [tuple(sorted({tuple(int(i not in fan.require_cone(c)) for i in range(fan.d))
                              for c in fan.max_cones}))
                for fan in fans]
    monkeypatch.setattr(Fan, "has_cone", no_check)
    for fan, monomials in zip(fans, expected):
        # the sorted sigma-hats, complete fan or not
        assert irrelevant_ideal(fan) == monomials


def test_irrelevant_generators_squarefree_incomparable():
    for fan in (fan_p1(), fan_p2(), fan_p1p1(), fan_hirzebruch1()):
        gens = irrelevant_ideal(fan)
        for g in gens:
            assert all(e in (0, 1) for e in g)
        for a in gens:
            for b in gens:
                if a != b:
                    assert not all(x <= y for x, y in zip(a, b))


def test_grading_data_degrees():
    gd = grading(fan_p1())
    assert gd.class_group.unit_classes() == ((1,), (1,))
    gd2 = grading(fan_p2())
    assert gd2.class_group.unit_classes() == ((1,), (1,), (1,))
    gd3 = grading(fan_p1p1())
    degs = gd3.class_group.unit_classes()
    assert degs[0] == degs[1] and degs[2] == degs[3] and degs[0] != degs[2]


def test_class_degrees_satisfy_the_exact_sequence():
    # M -> Z^d -> Cl is exact: sum_i <m, v_i> deg(x_i) = 0 for every m, and
    # each degree is the projection of its unit vector
    fans = [fan for _, fan in all_fixture_fans()] + [fan_p3(), fan_p1_cubed(),
                                                     fan_torsion()]
    for fan in fans:
        gd = grading(fan)
        group = gd.class_group
        degrees = group.unit_classes()
        for i in range(fan.d):
            assert degrees[i] == group.project(tuple(int(j == i) for j in range(fan.d)))
        columns = list(zip(*degrees))
        for m in product(range(-2, 3), repeat=fan.n):
            # the class coordinates of sum_i <m, v_i> deg(x_i), reduced once
            coeffs = [sum(x * y for x, y in zip(m, ray)) for ray in fan.rays]
            total = group.reduce([sum(k * c for k, c in zip(coeffs, column))
                                  for column in columns])
            assert total == group.zero(), (fan.rays, m)


def test_weyl_degree_is_the_class_of_a_minus_b():
    # weyl_degree projects a - b once per term: the class of a plus that of -b
    r = rng(41)
    for fan in [fan for _, fan in all_fixture_fans()] + [fan_torsion()]:
        gd = grading(fan)
        group = gd.class_group
        for _ in range(15):
            for f in (random_weyl(r, fan.d, 3, 4), random_homogeneous_weyl(r, gd, 3, 3)):
                classes = {group.add(group.project(a), group.neg(group.project(b)))
                           for a, b in f.terms}
                for (a, b), c in f.terms.items():
                    assert weyl_degree(gd, WeylElement(fan.d, {(a, b): c})) == \
                        group.add(group.project(a), group.neg(group.project(b)))
                if len(classes) == 1:
                    assert weyl_degree(gd, f) == classes.pop()


def test_class_group_maps_reject_a_wrong_length():
    for fan in [fan for _, fan in all_fixture_fans()] + [fan_torsion()]:
        group = grading(fan).class_group
        zero = group.zero()
        for a in ((0,) * (fan.d - 1), (0,) * (fan.d + 1)):
            with pytest.raises(ValueError, match="vector length mismatch"):
                group.project(a)
        for cls in (zero[:-1], zero + (0,)):
            for call in (lambda: group.reduce(cls), lambda: group.neg(cls),
                         lambda: group.add(cls, zero), lambda: group.add(zero, cls)):
                with pytest.raises(ValueError, match="class coordinate length mismatch"):
                    call()


def test_class_degrees_are_projected_once(monkeypatch, capsys):
    # the class map is class_group.project; this report makes 5 calls, and
    # the bound keeps it from projecting again per term or per chart
    calls = []
    real = FinitelyGeneratedAbelianGroup.project

    def counted(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(FinitelyGeneratedAbelianGroup, "project", counted)
    root = pathlib.Path(__file__).parent
    rc = cli.main(["charvar", str(root / "fixtures" / "p1p1.fan"),
                   str(root / "golden" / "p1p1_dl0.mod"), "--charts", "--saturate"])
    assert rc == 0 and capsys.readouterr().out
    assert len(calls) <= 13


def test_grading_data_torsion_carried():
    gd = grading_data(fan_torsion())
    assert gd.class_group.free_rank == 0
    assert gd.class_group.torsion_orders == (2,)
    assert gd.dual_basis == ()


def test_exactness_of_grading_sequence():
    r = rng(4)
    for _, fan in [("p1", fan_p1()), ("p2", fan_p2()), ("f1", fan_hirzebruch1())]:
        gd = grading(fan)
        for _ in range(10):
            p = tuple(r.randint(-4, 4) for _ in range(fan.n))
            assert gd.class_group.project(gd.iota_of(p)) == gd.class_group.zero()
            for u in gd.dual_basis:
                assert sum(x * y for x, y in zip(u, gd.iota_of(p))) == 0


def test_grading_additivity_on_sigma_hats():
    for fan in (fan_p1(), fan_p2(), fan_p1p1()):
        gd = grading(fan)
        sigma_hats = irrelevant_ideal(fan)
        for a in sigma_hats:
            for b in sigma_hats:
                total = tuple(x + y for x, y in zip(a, b))
                project = gd.class_group.project
                assert project(total) == gd.class_group.add(project(a), project(b))


def test_euler_operator_examples():
    gd = grading(fan_p1())
    assert [format_weyl(t) for t in euler_operators(gd)] == ["x1*d1 + x2*d2"]
    gd2 = grading(fan_p1p1())
    assert [format_weyl(t) for t in euler_operators(gd2)] == ["x1*d1 + x2*d2",
                                                              "x3*d3 + x4*d4"]
    assert euler_operators(grading(fan_torsion())) == []
    # theta_u = sum_i u_i x_i d_i, one per dual functional, in order
    for fan in (fan_p2(), fan_hirzebruch1(), fan_p3()):
        gd = grading(fan)
        ops = euler_operators(gd)
        assert ops == [theta_u(u) for u in gd.dual_basis]
        for u, op in zip(gd.dual_basis, ops):
            units = [(tuple(int(j == i) for j in range(gd.d)),) * 2 for i in range(gd.d)]
            assert op == WeylElement(gd.d, {a: c for a, c in zip(units, u) if c})


def test_euler_operator_kills_relations():
    for fan in (fan_p1(), fan_p2(), fan_p1p1(), fan_hirzebruch1()):
        gd = grading(fan)
        for u in gd.dual_basis:
            for p_idx in range(fan.n):
                p = tuple(1 if j == p_idx else 0 for j in range(fan.n))
                assert sum(c * v for c, v in zip(u, gd.iota_of(p))) == 0


def test_euler_operators_count():
    for fan, expect in [(fan_p1(), 1), (fan_p2(), 1), (fan_p1p1(), 2),
                        (fan_hirzebruch1(), 2)]:
        assert len(euler_operators(grading(fan))) == expect


def test_dual_basis_pairs_a_class_as_its_free_coordinate():
    # the pairing <u_j, beta> through a lattice representative section(beta),
    # kept here as the oracle, is beta's j-th free coordinate, the shift
    # _euler_relation reads off the class
    r = rng(108)
    fans = [fan for _, fan in all_fixture_fans()] + [fan_p3(), fan_torsion()]
    for fan in fans:
        gd = grading(fan)
        group = gd.class_group
        width = group.free_rank + len(group.torsion_orders)
        classes = [tuple(r.randint(-9, 9) for _ in range(width)) for _ in range(20)]
        classes.append(gd.e_bar)
        for cls in map(group.reduce, classes):
            rep = class_section(group, cls)
            assert group.project(rep) == cls
            for j, u in enumerate(gd.dual_basis):
                shift = sum(x * y for x, y in zip(u, rep))
                assert shift == cls[j]
                assert dmod._euler_relation(gd, j, cls, dmod.LEFT) == theta_u(u, shift)
                assert dmod._euler_relation(gd, j, cls, dmod.RIGHT) == theta_u(u, -shift)
