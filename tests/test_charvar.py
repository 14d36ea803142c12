"""Characteristic ideals, dimension reports and chart computations."""

from operator import sub

import pytest

from helpers import (all_fixture_fans, assert_restriction_agrees, chart_restriction,
                     delta_module, fan_hirzebruch1, fan_p1, fan_p1_cubed, fan_p1p1,
                     fan_p2, fan_p3, fan_torsion, grading, matrix_rank,
                     random_homogeneous_weyl, restrict_to_chart, rng, section_off_cone,
                     star_subdivided_fans, structure_sheaf)
from toric_dmod import charvar
from toric_dmod.charvar import (ZERO_SHEAF, chart_generators, chart_ideal_from_saturated,
                                chart_ring, characteristic_ideal, dimension_report,
                                s_prime_ring, t_invariance_check,
                                verify_char_containment, z_ideal)
from toric_dmod.dmod import (GradedPresentation, d_module_left,
                             d_module_right, left_right_swap, require_chart_cone)
from toric_dmod.errors import ConeNotMaximal, NonSmoothCone, PreconditionViolated
from toric_dmod.fan_cox import Fan, GradingData, irrelevant_ideal
from toric_dmod.groebner import (EMPTY_DIM, Poly, format_poly, krull_dimension,
                                 toric_ideal)
from toric_dmod.weyl import WeylElement, parse_weyl


def W(s, d=2):
    return parse_weyl(s, d)


def report_chart(report, cone):
    """The chart of a report on one maximal cone."""
    return next(chart for chart in report.charts if chart.cone == cone)


def test_characteristic_ideal_examples():
    gd = grading(fan_p1())
    j = characteristic_ideal(gd, d_module_left(gd, (0,)))
    assert [format_poly(g) for g in j] == ["x1*xi1 + x2*xi2"]
    j2 = characteristic_ideal(gd, structure_sheaf(gd))
    assert sorted(format_poly(g) for g in j2) == ["xi1", "xi2"]
    one = WeylElement.monomial(2, (0, 0), (0, 0))
    zero = GradedPresentation(gd, "left", [(0,)], [(one,)])
    j3 = characteristic_ideal(gd, zero)
    assert [format_poly(g) for g in j3] == ["1"]


def test_z_ideal_examples():
    for fan, expected in [
            (fan_p1(), ["x1*xi1 + x2*xi2"]),
            (fan_p1p1(), ["x1*xi1 + x2*xi2", "x3*xi3 + x4*xi4"]),
            (fan_p2(), ["x1*xi1 + x2*xi2 + x3*xi3"])]:
        gd = grading(fan)
        assert sorted(format_poly(g) for g in z_ideal(gd)) == sorted(expected)


def test_verify_char_containment():
    gd = grading(fan_p1())
    assert verify_char_containment(gd, d_module_left(gd, (0,)))
    assert verify_char_containment(gd, structure_sheaf(gd))
    free = GradedPresentation(gd, "left", [(0,)], [])
    with pytest.raises(PreconditionViolated):
        verify_char_containment(gd, free)


def test_dimension_report_structure_sheaf():
    gd = grading(fan_p1())
    rep = dimension_report(gd, structure_sheaf(gd))
    assert rep.dim == 2 and rep.sheaf_dim == 1
    assert rep.holonomic_module and rep.holonomic_sheaf
    assert not rep.torsion


def test_dimension_report_twisted_module():
    gd = grading(fan_p1())
    rep = dimension_report(gd, d_module_left(gd, (0,)))
    assert rep.dim == 3 and rep.sheaf_dim == 2
    assert not rep.holonomic_module and not rep.holonomic_sheaf


def test_dimension_report_torsion():
    gd = grading(fan_p1())
    rep = dimension_report(gd, delta_module(gd))
    assert rep.torsion and rep.sheaf_dim == ZERO_SHEAF
    assert rep.dim == 2


def test_dimension_report_on_the_point():
    # the fan of a point (n = 0, no ray) keeps the zero cone as its one
    # maximal cone, so b = (1): D(0) = Q is not b-torsion, J = (0) is its
    # own saturation, and its one chart, at the zero cone, has dimension
    # 0 = n. The CLI rejects n = 0 (test_cli); the library takes it.
    fan = Fan(0, [], [])
    assert fan.max_cones == ((),) and irrelevant_ideal(fan) == ((),)
    gd = grading(fan)
    rep = dimension_report(gd, d_module_left(gd, gd.class_group.zero()))
    assert (rep.char_ideal, rep.dim, rep.torsion, rep.sheaf_dim) == ([], 0, False, 0)
    assert rep.holonomic_module and rep.holonomic_sheaf
    assert rep.saturated == []
    assert [(c.cone, c.image_ideal, c.dimension) for c in rep.charts] == [((), [], 0)]


def test_dimension_report_all_fans():
    for fan in (fan_p1(), fan_p2(), fan_p1p1(), fan_hirzebruch1()):
        gd = grading(fan)
        d, n = gd.d, gd.n
        rep = dimension_report(gd, structure_sheaf(gd))
        assert (rep.dim, rep.sheaf_dim) == (d, n)
        assert rep.holonomic_module and rep.holonomic_sheaf
        rep2 = dimension_report(gd, d_module_left(gd, gd.class_group.zero()))
        assert (rep2.dim, rep2.sheaf_dim) == (d + n, 2 * n)
        rep3 = dimension_report(gd, delta_module(gd))
        assert rep3.torsion and rep3.sheaf_dim == ZERO_SHEAF


def test_t_invariance_examples():
    gd = grading(fan_p1())
    ring = s_prime_ring(gd)
    x1, x2, xi1, xi2 = [Poly.variable(ring, i) for i in range(4)]
    assert t_invariance_check([x1 * xi1 + x2 * xi2], gd)
    assert t_invariance_check([x1 + x2], gd)
    assert not t_invariance_check([x1 + xi2], gd)


def test_char_ideal_is_t_invariant():
    rnd = rng(40)
    for fan in (fan_p1(), fan_p1p1()):
        gd = grading(fan)
        width = gd.class_group.free_rank
        for _ in range(5):
            coords = tuple(rnd.randint(-2, 2) for _ in range(width))
            j = characteristic_ideal(gd, d_module_left(gd, coords))
            assert t_invariance_check(j, gd)
        assert t_invariance_check(characteristic_ideal(gd, structure_sheaf(gd)), gd)


def test_chart_ideal_p1_twisted():
    gd = grading(fan_p1())
    pres = d_module_left(gd, (0,))
    report = dimension_report(gd, pres)
    chart = report_chart(report, (0,))
    assert chart == chart_ideal_from_saturated(gd, report.saturated, (0,))
    assert chart_ring(gd).names == ("t1", "u1", "u2")
    # t1 = x1*x2^-1, u1 = x2*xi1 and u2 = x2*xi2, as the report prints them
    assert chart_generators(gd, (0,)) == [((1, -1), (0, 0)), ((0, 1), (1, 0)),
                                          ((0, 1), (0, 1))]
    assert_polynomial_chart_ring(gd, (0,))
    assert [format_poly(g) for g in chart.image_ideal] == ["t1*u1 + u2"]
    assert chart.dimension == 2
    # the Euler relation restricts to 0: the chart module is A_1 itself
    assert chart_restriction(gd, pres, (0,)) == [WeylElement.zero(1)]
    assert restrict_to_chart(gd, pres, (0,)).char_ideal == []


def test_chart_ideal_structure_sheaf_other_cone():
    gd = grading(fan_p1())
    pres = structure_sheaf(gd)
    report = dimension_report(gd, pres)
    chart = report_chart(report, (1,))
    assert chart == chart_ideal_from_saturated(gd, report.saturated, (1,))
    assert sorted(format_poly(g) for g in chart.image_ideal) == ["u1", "u2"]
    assert chart.dimension == 1
    # with t = x_2 / x_1 the chart coordinate, d_1 restricts to x_1 d_1 =
    # -t d/dt and d_2 to d/dt
    assert chart_restriction(gd, pres, (1,)) == [W("-x1*d1", 1), W("d1", 1)]
    restricted = restrict_to_chart(gd, pres, (1,))
    assert [format_poly(g) for g in restricted.char_ideal] == ["tau1"]
    assert restricted.dimension == 1 and not restricted.zero


def test_chart_ideal_torsion_module_is_unit():
    gd = grading(fan_p1())
    pres = delta_module(gd)
    report = dimension_report(gd, pres)
    chart = report_chart(report, (0,))
    assert chart == chart_ideal_from_saturated(gd, report.saturated, (0,))
    assert [format_poly(g) for g in chart.image_ideal] == ["1"]
    assert chart.dimension == EMPTY_DIM
    restricted = restrict_to_chart(gd, pres, (0,))
    assert restricted.zero and restricted.dimension == EMPTY_DIM


def test_chart_ideal_cone_errors():
    gd = grading(fan_p1p1())
    pres = d_module_left(gd, (0, 0))
    with pytest.raises(ConeNotMaximal):
        chart_ideal_from_saturated(gd, dimension_report(gd, pres).saturated, (0,))
    with pytest.raises(ConeNotMaximal):
        restrict_to_chart(gd, pres, (0,))


def assert_polynomial_chart_ring(gd, cone):
    """The n + d chart generator monomials at cone satisfy no relation: their
    exponent vectors (x part, then xi part) are linearly independent."""
    vectors = [xe + xie for xe, xie in chart_generators(gd, cone)]
    assert len(vectors) == gd.n + gd.d
    assert matrix_rank(vectors) == len(vectors)
    assert toric_ideal(vectors, chart_ring(gd)) == []


def test_every_chart_ring_is_a_polynomial_ring():
    # the printed chart presentation (0) rests on this (Cox 1995)
    fans = [fan for _, fan in all_fixture_fans()] + [fan_p3(), fan_p1_cubed()]
    for fan in fans:
        gd = grading(fan)
        assert fan.max_cones
        for cone in fan.max_cones:
            assert_polynomial_chart_ring(gd, cone)


def random_term_of_class(r, gd, a, f):
    """A random x^a' xi^f' of the class of x^a xi^f: a' - f' is a - f moved
    by iota(m) for a random m in M."""
    diff = [x - y + z for x, y, z in
            zip(a, f, gd.iota_of([r.randint(-2, 2) for _ in range(gd.n)]))]
    f2 = tuple(max(0, -x) + r.randint(0, 2) for x in diff)
    return tuple(x + y for x, y in zip(diff, f2)) + f2


def expand_chart_poly(generators, image) -> dict:
    """A chart polynomial in S' localized: each t^p u^g as the product of
    the chart generator monomials (the list chart_generators returns), keyed
    by its x and xi exponents."""
    gens = [xe + xie for xe, xie in generators]
    return {tuple(sum(k * v[i] for k, v in zip(e, gens)) for i in range(len(gens[0]))): c
            for e, c in image.terms.items()}


def test_chart_sections_are_the_sections_with_zero_cone_exponents():
    # for a monomial x^a xi^f, s = sum_i (a_i - f_i) s_i, s_i the x-exponents
    # of the chart generator u_i = x^(s_i) xi_i, vanishes on the cone,
    # projects to the monomial's class and is the section the class-group
    # oracle solves for; the chart rewrite of the monomial, and
    # of a random homogeneous polynomial of its class, expanded through the
    # chart generators t_j = x^iota(m_j), u_i = x^(s_i) xi_i, is the input
    # divided by x^s, so chart generators whose sections are wrong fail here
    r = rng(37)
    fans = [fan for _, fan in all_fixture_fans()] + [fan_p3(), fan_p1_cubed()]
    for base in (fan_p2(), fan_p1p1()):
        fans += star_subdivided_fans(r, base, 3)
    for fan in fans:
        gd = grading(fan)
        ring, chart, d = s_prime_ring(gd), chart_ring(gd), gd.d
        for cone in fan.max_cones:
            generators = chart_generators(gd, cone)
            sections = [xe for xe, _ in generators[gd.n:]]
            for _ in range(8):
                a = tuple(r.randint(0, 3) for _ in range(d))
                f = tuple(r.randint(0, 3) for _ in range(d))
                s = tuple(sum((ai - fi) * section[k]
                              for ai, fi, section in zip(a, f, sections))
                          for k in range(d))
                cls = gd.class_group.project(tuple(map(sub, a, f)))
                assert not any(s[i] for i in cone)
                assert gd.class_group.project(s) == cls
                assert s == section_off_cone(gd, cone, cls)
                terms = {a + f: 1}
                terms.update((random_term_of_class(r, gd, a, f), r.randint(1, 5))
                             for _ in range(3))
                gens = [Poly.monomial(ring, a + f), Poly(ring, terms)]
                images = charvar._chart_generators(chart, cone, gens)
                assert images[0].terms == {tuple(a[i] for i in cone) + f: 1}
                for g, image in zip(gens, images):
                    assert expand_chart_poly(generators, image) == \
                        {tuple(map(sub, e[:d], s)) + e[d:]: c for e, c in g.terms.items()}


def test_non_unimodular_cone_is_a_non_smooth_cone():
    # P(1,1,2) is not smooth: the cone on rays 1 and 3 has determinant -2.
    # An unvalidated GradingData skips the smoothness check, so
    # require_chart_cone, which every chart entry point calls, finds the
    # rays are not a lattice basis and raises NonSmoothCone (exit 3)
    fan = Fan(2, [[1, 0], [0, 1], [-1, -2]], [[0, 1], [1, 2], [0, 2]])
    gd = GradingData(fan)
    pres = d_module_left(gd, gd.class_group.zero())
    j = characteristic_ideal(gd, pres)
    for check in (lambda: require_chart_cone(gd, (0, 2)),
                  lambda: chart_generators(gd, (0, 2)),
                  lambda: chart_ideal_from_saturated(gd, j, (0, 2)),
                  lambda: dimension_report(gd, pres)):
        with pytest.raises(NonSmoothCone, match="not a lattice basis"):
            check()
    # the smooth cones of the same fan are charts
    assert require_chart_cone(gd, (0, 1)) == (0, 1)


def assert_chart_dimensions(gd, pres):
    """The report's sheaf dimension is dim - (d - n) and the largest
    dimension of its charts and of the restrictions to them."""
    report = dimension_report(gd, pres)
    restricted = assert_restriction_agrees(gd, pres, report)
    assert not report.torsion
    expected = report.dim - (gd.d - gd.n)
    assert max(chart.dimension for chart in report.charts
               if chart.dimension != EMPTY_DIM) == expected == report.sheaf_dim
    assert max(rc.dimension for rc in restricted if not rc.zero) == expected


def test_verify_quotient_dimension():
    gd = grading(fan_p1())
    assert_chart_dimensions(gd, d_module_left(gd, (0,)))
    assert_chart_dimensions(gd, structure_sheaf(gd))
    pres = delta_module(gd)
    report = dimension_report(gd, pres)
    assert report.torsion
    assert all(rc.zero for rc in assert_restriction_agrees(gd, pres, report))


def test_verify_quotient_dimension_p1p1():
    gd = grading(fan_p1p1())
    assert_chart_dimensions(gd, d_module_left(gd, (0, 0)))
    assert_chart_dimensions(gd, structure_sheaf(gd))


def restriction_fans():
    """The fixture fans, P3, (P1)^3, two star subdivisions of P2 and one of P3."""
    fans = [fan for _, fan in all_fixture_fans()] + [fan_p3(), fan_p1_cubed()]
    return fans + list(star_subdivided_fans(rng(95), fan_p2(), 2)) + \
        list(star_subdivided_fans(rng(96), fan_p3(), 1))


def test_chart_restriction_agrees_with_the_report():
    # D(b) at three twists, D(b)^tau through the swap, O and delta, on every
    # full-dimensional maximal cone: radicals both ways, the torsion and
    # holonomic-sheaf verdicts
    for fan in restriction_fans():
        gd = grading(fan)
        width = gd.class_group.free_rank
        mods = [d_module_left(gd, (k,) * width) for k in (0, 1, -2)]
        mods += [d_module_right(gd, (1,) * width), structure_sheaf(gd), delta_module(gd)]
        for pres in mods:
            report = dimension_report(gd, pres)
            restricted = assert_restriction_agrees(gd, pres, report)
            assert len(restricted) == len(fan.max_cones)


def test_chart_restriction_of_random_twisted_modules():
    # D(b) with two more random homogeneous relations: the restrictions are
    # neither 0 nor the unit, and b != 0 makes the twist shift matter
    r = rng(97)
    torsion_free = zero_charts = 0
    for name, fan in all_fixture_fans():
        gd = grading(fan)
        base = d_module_left(gd, tuple(r.randint(-2, 2) for _ in range(gd.class_group.free_rank)))
        for _ in range(3):
            rows = list(base.relations) + [(random_homogeneous_weyl(r, gd, total=2),)
                                           for _ in range(2)]
            pres = GradedPresentation(gd, "left", base.twists, rows)
            report = dimension_report(gd, pres)
            restricted = assert_restriction_agrees(gd, pres, report)
            torsion_free += not report.torsion
            zero_charts += sum(rc.zero for rc in restricted)
    assert torsion_free and zero_charts


def test_chart_generators_are_degree_zero_and_chart_regular():
    group_zero_modules = []
    for fan in (fan_p1(), fan_p1p1(), fan_p2(), fan_hirzebruch1()):
        gd = grading(fan)
        group = gd.class_group
        pres = d_module_left(gd, group.zero())
        group_zero_modules.append((gd, pres))
    for gd, pres in group_zero_modules:
        report = dimension_report(gd, pres)
        assert [chart.cone for chart in report.charts] == list(gd.fan.max_cones)
        for chart in report.charts:
            inside = set(chart.cone)
            for xexp, xiexp in chart_generators(gd, chart.cone):
                # deg x_i = e_i = -deg xi_i, so the class of the exponents
                assert gd.class_group.project(tuple(map(sub, xexp, xiexp))) == \
                    gd.class_group.zero()
                assert all(e >= 0 for e in xiexp)
                for i in inside:
                    assert xexp[i] >= 0


def test_swap_preserves_char_dim():
    for fan in (fan_p1(), fan_p1p1()):
        gd = grading(fan)
        ring = s_prime_ring(gd)
        mods = [d_module_left(gd, gd.class_group.zero()), structure_sheaf(gd)]
        for pres in mods:
            j1 = characteristic_ideal(gd, pres)
            j2 = characteristic_ideal(gd, left_right_swap(pres))
            assert krull_dimension(j1, ring) == krull_dimension(j2, ring)


def test_saturation_contains_char_ideal():
    gd = grading(fan_p1())
    from toric_dmod.groebner import ideal_contains
    for pres in (d_module_left(gd, (1,)), structure_sheaf(gd)):
        rep = dimension_report(gd, pres)
        for g in rep.char_ideal:
            assert ideal_contains(rep.saturated, [g])


def test_holonomic_sheaf_of_a_module_that_is_not_holonomic():
    # O + T on P1 x P1 with T = A(2,-2) / A(x1, x2, E1 + 2, E2 - 2): rays 1
    # and 2 share no cone, so T is b-torsion, and it lifts dim to 5 > d = 4.
    # The paper's holonomic correspondence holds up to b-torsion: the sheaf
    # is O's, holonomic of dimension n = 2
    gd = grading(fan_p1p1())
    zero = WeylElement.zero(4)
    rows = [(W(f"d{i}", 4), zero) for i in range(1, 5)]
    rows += [(zero, W(s, 4)) for s in
             ("x1", "x2", "x1*d1 + x2*d2 + 2", "x3*d3 + x4*d4 - 2")]
    pres = GradedPresentation(gd, "left", [(0, 0), (2, -2)], rows)
    rep = dimension_report(gd, pres)
    assert [rep.dim, rep.torsion, rep.sheaf_dim, rep.holonomic_module,
            rep.holonomic_sheaf] == [5, False, 2, False, True]


def test_noncyclic_presentation_annihilator():
    # two generators; relations force both components into the twisted ideal
    gd = grading(fan_p1())
    th = W("x1*d1 + x2*d2")
    zero = WeylElement.zero(2)
    pres = GradedPresentation(gd, "left", [(0,), (0,)],
                              [(th, zero), (zero, th),
                               (W("d1"), W("-d1")), (W("d2"), W("-d2"))])
    ok, _ = __import__("toric_dmod.dmod", fromlist=["check_theta_condition"]) \
        .check_theta_condition(pres)
    assert ok
    j = characteristic_ideal(gd, pres)
    ring = s_prime_ring(gd)
    # the annihilator contains the common quadric
    from toric_dmod.groebner import ideal_contains
    p = Poly(ring, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
    assert ideal_contains(j, [p])


def test_s_prime_degrees_of_xi_are_the_negated_degrees_of_x():
    # x^e xi^f has the class of e - f, so x_i + xi_j is homogeneous exactly
    # when deg x_i = -deg x_j in Cl, reduced: on the torsion fan (Z/2) the
    # residue of -1 is 1, so every x_i + xi_j is
    fans = [fan for _, fan in all_fixture_fans()] + [fan_torsion()]
    for fan in fans:
        gd = grading(fan)
        group, ring, d = gd.class_group, s_prime_ring(gd), gd.d
        assert ring == s_prime_ring(grading(fan))
        assert ring.names == tuple(f"x{i + 1}" for i in range(d)) + \
            tuple(f"xi{i + 1}" for i in range(d))
        degrees = group.unit_classes()
        for i in range(d):
            for j in range(d):
                g = Poly.variable(ring, i) + Poly.variable(ring, d + j)
                assert t_invariance_check([g], gd) == \
                    (degrees[i] == group.neg(degrees[j])), (i, j)
    assert grading(fan_torsion()).class_group.unit_classes() == ((1,), (1,))
