"""Twisted modules, theta condition, swap and the local chart machinery."""

from fractions import Fraction
from itertools import product

import pytest

from helpers import (fan_hirzebruch1, fan_p1, fan_p1p1, fan_p2, grading, matrix_rank,
                     random_homogeneous_weyl, rng)
from toric_dmod import groebner
from toric_dmod.charvar import characteristic_ideal
from toric_dmod.dmod import (GradedPresentation, bimodule_identity_check,
                             check_theta_condition, d_module_left,
                             d_module_right, factored_local_action_holds, h_p,
                             i_p_ideal, i_p_matches_y_p,
                             j_p_oracle, k_component, left_right_identity_check,
                             left_right_swap, local_op_image, rho,
                             verify_local_action, y_p_points)
from toric_dmod.errors import InhomogeneousInput, NotInJp
from toric_dmod.weyl import (WeylElement, format_weyl, parse_weyl, theta_u, tp_add,
                             tp_divide_linear_product, tp_linear, tp_mul, tp_subst,
                             weyl_mul)


def W(s, d=2):
    return parse_weyl(s, d)


def rel_strings(pres):
    return [[format_weyl(g) for g in row] for row in pres.relations]


def test_d_module_left_examples():
    gd = grading(fan_p1())
    assert rel_strings(d_module_left(gd, (0,))) == [["x1*d1 + x2*d2"]]
    assert rel_strings(d_module_left(gd, (1,))) == [["x1*d1 + x2*d2 + 1"]]
    gd2 = grading(fan_p1p1())
    assert rel_strings(d_module_left(gd2, (0, 0))) == [
        ["x1*d1 + x2*d2"], ["x3*d3 + x4*d4"]]


def test_d_module_right_examples():
    gd = grading(fan_p1())
    assert rel_strings(d_module_right(gd, (0,))) == [["x1*d1 + x2*d2"]]
    assert rel_strings(d_module_right(gd, (-2,))) == [["x1*d1 + x2*d2 + 2"]]


def test_right_module_graded_component_bookkeeping():
    # e . f with f in A_(a+b) spans the (a, b) component of the twisted
    # right module; its relations kill exactly (theta_u - <u,a>) A_(a+b)
    gd = grading(fan_p1())
    a_bar = (1,)
    pres = d_module_right(gd, a_bar)
    th_shifted = W("x1*d1 + x2*d2 - 1")  # theta_u - <u, a>
    f = W("x1")  # degree (1,) = a + b with b = 0
    assert pres.contains_relation((th_shifted * f,))
    assert not pres.contains_relation((f,))


def test_contains_relation_prepares_the_relation_basis_once(monkeypatch):
    # after relation_gb() the first query builds one reducer and one row
    # dict per basis row; every query then builds only its own row dict
    pres = d_module_left(grading(fan_p2()), (1,))
    gb = pres.relation_gb()
    reducers, dicts = [], []

    class Recording(groebner._WeylReducer):
        __slots__ = ()

        def __init__(self, w):
            super().__init__(w)
            reducers.append(w)

    def counted(vec):
        dicts.append(vec)
        return real(vec)
    real = groebner._rows_to_wdict
    monkeypatch.setattr(groebner, "_WeylReducer", Recording)
    monkeypatch.setattr(groebner, "_rows_to_wdict", counted)
    theta = pres.relations[0][0]
    rows = [(weyl_mul(W(f"x{k}*d{k}", 3), theta),) for k in (1, 2, 3)]
    rows += [(W(f"x{k}", 3),) for k in (1, 2, 3)]
    for _ in range(4):
        assert [pres.contains_relation(row) for row in rows] == [True] * 3 + [False] * 3
    assert len(reducers) == len(gb)
    assert len(dicts) == len(gb) + 4 * len(rows)


def test_contains_relation_checks_the_row():
    gd = grading(fan_p1())
    for pres in (d_module_left(gd, (0,)), d_module_right(gd, (0,))):
        with pytest.raises(ValueError, match="empty row"):
            pres.contains_relation(())
        with pytest.raises(ValueError, match="rank mismatch"):
            pres.contains_relation((W("d1"), W("d1")))
        with pytest.raises(ValueError, match="rank mismatch"):
            pres.contains_relation((W("d1", 1),))


def test_theta_condition_examples():
    gd = grading(fan_p1())
    structure = GradedPresentation(gd, "left", [(0,)],
                                   [(W("d1"),), (W("d2"),)])
    assert check_theta_condition(structure) == (True, None)
    free = GradedPresentation(gd, "left", [(0,)], [])
    assert check_theta_condition(free) == (False, (1, 1))
    assert check_theta_condition(d_module_left(gd, (1,))) == (True, None)


def test_only_zero_relations_present_the_free_module():
    # the zero rows reach weyl_buchberger, which drops them: the basis is
    # empty, the characteristic ideal is (0), the zero row is the only
    # relation, and theta_u on the first generator fails the theta condition
    for fan in (fan_p1(), fan_p1p1()):
        gd = grading(fan)
        zero = WeylElement.zero(gd.d)
        theta = theta_u(gd.dual_basis[0])
        for rank in (1, 2):
            pres = GradedPresentation(gd, "left", [gd.class_group.zero()] * rank,
                                      [(zero,) * rank] * 2)
            assert pres.relation_gb() == []
            assert characteristic_ideal(gd, pres) == []
            assert pres.contains_relation((zero,) * rank)
            assert not pres.contains_relation((theta,) + (zero,) * (rank - 1))
            assert check_theta_condition(pres) == (False, (1, 1))


def test_theta_condition_every_twist():
    for fan in (fan_p1(), fan_p2(), fan_p1p1(), fan_hirzebruch1()):
        gd = grading(fan)
        width = gd.class_group.free_rank
        for coords in product((-2, 1), repeat=width):
            assert check_theta_condition(d_module_left(gd, coords)) == (True, None)
            assert check_theta_condition(d_module_right(gd, coords)) == (True, None)


def test_bimodule_identity_examples():
    gd = grading(fan_p1())
    assert bimodule_identity_check(gd, W("x1"), 0, (0,), (1,))
    assert bimodule_identity_check(gd, WeylElement.monomial(2, (0, 0), (0, 0)), 0, (3,), (0,))
    assert bimodule_identity_check(gd, W("d2"), 0, (0,), (-1,))
    with pytest.raises(InhomogeneousInput):
        bimodule_identity_check(gd, W("x1"), 0, (0,), (0,))
    with pytest.raises(InhomogeneousInput):
        bimodule_identity_check(gd, W("x1 + d1"), 0, (0,), (1,))
    # x1 has degree 1, not the declared 0 + 0
    assert left_right_identity_check(gd, W("x1"), 0, (1,), (0,))
    with pytest.raises(InhomogeneousInput):
        left_right_identity_check(gd, W("x1"), 0, (0,), (0,))


def test_bimodule_and_left_right_identities_randomized():
    r = rng(30)
    from toric_dmod.dmod import weyl_degree
    for fan in (fan_p1(), fan_p1p1()):
        gd = grading(fan)
        group = gd.class_group
        for _ in range(25):
            f = random_homogeneous_weyl(r, gd)
            deg = weyl_degree(gd, f)
            for j in range(len(gd.dual_basis)):
                b = tuple(r.randint(-2, 2) for _ in range(group.free_rank))
                assert bimodule_identity_check(gd, f, j, b, deg)
                a = group.add(deg, group.neg(group.reduce(b)))
                assert left_right_identity_check(gd, f, j, a, b)


def test_swap_examples():
    gd = grading(fan_p1())
    dl2 = d_module_left(gd, (2,))
    sw = left_right_swap(dl2)
    assert sw.side == "right"
    assert sw.twists == ((0,),)
    # same right ideal as D_R(0): generators differ by the unit -1
    dr0 = d_module_right(gd, (0,))
    assert sw.contains_relation(dr0.relations[0])
    assert dr0.contains_relation(sw.relations[0])
    assert left_right_swap(sw) == dl2


def test_swap_zero_module():
    gd = grading(fan_p1())
    zero = GradedPresentation(gd, "left", [(0,)], [(WeylElement.monomial(2, (0, 0), (0, 0)),)])
    sw = left_right_swap(zero)
    assert rel_strings(sw) == [["1"]]
    assert left_right_swap(sw) == zero


def test_swap_structure_sheaf_gives_canonical_right_module():
    gd = grading(fan_p1())
    structure = GradedPresentation(gd, "left", [(0,)],
                                   [(W("d1"),), (W("d2"),)])
    sw = left_right_swap(structure)
    assert sw.side == "right"
    assert sw.twists == (gd.class_group.neg(gd.e_bar),)
    assert rel_strings(sw) == [["-d1"], ["-d2"]]
    assert check_theta_condition(sw) == (True, None)


def test_swap_involution_randomized():
    r = rng(31)
    gd = grading(fan_p1p1())
    for _ in range(10):
        pres = d_module_left(gd, (r.randint(-2, 2), r.randint(-2, 2)))
        assert left_right_swap(left_right_swap(pres)) == pres


def test_h_p_examples():
    gd = grading(fan_p1())
    poly, factors = h_p(gd, (0,), (-1,))
    assert poly == tp_linear(2, 0, 0) and factors == [(0, 0)]
    poly2, _ = h_p(gd, (0,), (1,))
    assert poly2 == {(0, 0): Fraction(1)}
    poly3, factors3 = h_p(gd, (0,), (-2,))
    assert poly3 == tp_mul(tp_linear(2, 0, 0), tp_linear(2, 0, -1))
    assert factors3 == [(0, 0), (0, 1)]


def test_h_p_certified_by_oracle_everywhere():
    for fan_fn in (fan_p1, fan_p2, fan_p1p1, fan_hirzebruch1):
        fan = fan_fn()
        gd = grading(fan)
        box = range(-2, 3)
        for cone in fan.max_cones:
            for p in product(box, repeat=fan.n):
                _, expected = h_p(gd, cone, p)
                assert j_p_oracle(gd, cone, p) == expected, \
                    (fan_fn.__name__, cone, p)


def test_j_p_oracle_examples():
    gd = grading(fan_p1())
    # the slabs theta_1 = m, i.e. the factors (theta_1 - m)
    assert j_p_oracle(gd, (0,), (-1,)) == [(0, 0)]
    assert j_p_oracle(gd, (0,), (0,)) == []
    assert j_p_oracle(gd, (0,), (-2,)) == [(0, 0), (0, 1)]


def test_rho_examples():
    gd = grading(fan_p1())
    assert rho(gd, tp_linear(2, 0, 0)) == {(1,): Fraction(1)}
    assert rho(gd, tp_linear(2, 1, 0)) == {(1,): Fraction(-1)}
    theta_u = tp_add(tp_linear(2, 0, 0), tp_linear(2, 1, 0))
    assert rho(gd, theta_u) == {}
    assert rho(gd, tp_linear(2, 0, -1)) == {(1,): Fraction(1), (0,): Fraction(-1)}


def test_rho_kernel_contains_euler_forms():
    for fan in (fan_p2(), fan_p1p1(), fan_hirzebruch1()):
        gd = grading(fan)
        for u in gd.dual_basis:
            theta_u = {}
            for i, c in enumerate(u):
                if c:
                    theta_u = tp_add(theta_u, {tuple(1 if j == i else 0
                                                     for j in range(gd.d)): Fraction(c)})
            assert rho(gd, theta_u) == {}


def test_shifted_pullback_kernel_is_shifted_ideal():
    gd = grading(fan_p1())
    b = (2, 1)
    # theta_u + <u, class(b)> pulls back to zero once theta_i -> theta_i - b_i
    w = tp_add(tp_add(tp_linear(2, 0, 0), tp_linear(2, 1, 0)), {(0, 0): Fraction(3)})
    shifted = tp_subst(w, [tp_linear(2, i, -bi) for i, bi in enumerate(b)], 2)
    assert shifted == tp_add(tp_linear(2, 0, 0), tp_linear(2, 1, 0))
    assert rho(gd, shifted) == {}
    assert rho(gd, w) == {(0,): Fraction(3)}


def test_linear_independence_of_distinct_ray_forms():
    # coefficient vectors of rho(theta_i) + m for rays in a common cone
    for fan in (fan_p2(), fan_p1p1(), fan_hirzebruch1()):
        gd = grading(fan)
        for cone in fan.max_cones:
            if len(cone) < 2:
                continue
            for i in cone:
                for j in cone:
                    if i >= j:
                        continue
                    rows = [list(fan.rays[i]) + [5], list(fan.rays[j]) + [-7]]
                    assert matrix_rank(rows) == 2


def test_theta_divides():
    # the divisibility local_op_image asks of g: theta_1 (theta_1 + 1) by
    # theta_1, and 1 not by theta_1
    w = tp_mul(tp_linear(2, 0, 0), tp_linear(2, 0, -1))
    assert tp_divide_linear_product(w, [(0, 0)]) == tp_linear(2, 0, -1)
    assert tp_divide_linear_product({(0, 0): Fraction(1)}, [(0, 0)]) is None


def test_local_op_image_examples():
    gd = grading(fan_p1())
    pair = local_op_image(gd, (0,), (-1,), tp_linear(2, 0, 0))
    assert pair == ((-1,), {(1,): Fraction(1)})
    assert local_op_image(gd, (0,), (0,), {(0, 0): Fraction(1)}) == ((0,), {(0,): Fraction(1)})
    with pytest.raises(NotInJp):
        local_op_image(gd, (0,), (-1,), {(0, 0): Fraction(1)})


def test_local_action_identity_on_h_p():
    for fan_fn in (fan_p1, fan_p2):
        fan = fan_fn()
        gd = grading(fan)
        for cone in fan.max_cones:
            for p in product(range(-2, 3), repeat=fan.n):
                hp, _ = h_p(gd, cone, p)
                assert verify_local_action(gd, cone, p, hp, 3)


def test_i_p_examples():
    gd = grading(fan_p1())
    assert i_p_ideal(gd, (0,), (-1,)) == {(1,): Fraction(1)}
    assert y_p_points(gd.fan, (0,), (-1,), 3) == [(0,)]
    assert i_p_ideal(gd, (0,), (2,)) == {(0,): Fraction(1)}
    assert y_p_points(gd.fan, (0,), (2,), 3) == []
    assert i_p_matches_y_p(gd, (0,), (-1,), i_p_ideal(gd, (0,), (-1,)))
    gd2 = grading(fan_p2())
    assert i_p_ideal(gd2, (0, 1), (-1, 0)) == {(1, 0): Fraction(1)}
    assert i_p_matches_y_p(gd2, (0, 1), (-1, 0), i_p_ideal(gd2, (0, 1), (-1, 0)))


def _pairs_in_dual(fan, cone, q) -> bool:
    return all(sum(a * b for a, b in zip(q, fan.rays[i])) >= 0 for i in cone)


def test_y_p_points_match_the_definition():
    # the box walk against Y(p) = {q in the dual cone, q + p outside it},
    # with the pairings written out
    for fan_fn in (fan_p1, fan_p2, fan_p1p1, fan_hirzebruch1):
        fan = fan_fn()
        for cone in fan.max_cones:
            for p in product(range(-2, 3), repeat=fan.n):
                expected = [q for q in product(range(-3, 4), repeat=fan.n)
                            if _pairs_in_dual(fan, cone, q) and not _pairs_in_dual(
                                fan, cone, tuple(x + y for x, y in zip(q, p)))]
                assert y_p_points(fan, cone, p, 3) == expected


def test_local_oracles_reject_wrong_data():
    # mutation checks: each oracle must be able to answer False
    gd = grading(fan_p2())
    cone, p = (0, 1), (-2, -1)
    hp, factors = h_p(gd, cone, p)
    assert factored_local_action_holds(gd, cone, p, factors, 5)
    for k in range(len(factors)):
        i, m = factors[k]
        shifted = factors[:k] + [(i, m + 1)] + factors[k + 1:]
        assert not factored_local_action_holds(gd, cone, p, shifted, 5), shifted
    assert not factored_local_action_holds(gd, cone, p, factors[1:], 5)
    # g = 1 acts as the identity, which does not vanish on Y(p)
    assert verify_local_action(gd, cone, p, hp, 5)
    assert not verify_local_action(gd, cone, p, {(0, 0, 0): Fraction(1)}, 5)
    ip = i_p_ideal(gd, cone, p)
    assert i_p_matches_y_p(gd, cone, p, ip)
    # (v1 - 3) ip also vanishes at q = (3, 1), which is not in Y(p)
    assert not i_p_matches_y_p(gd, cone, p, tp_mul(ip, tp_linear(2, 0, -3)))
    assert not i_p_matches_y_p(gd, cone, p, {(0, 0): Fraction(1)})


def test_local_action_with_rational_coefficients():
    # g with unequal denominators: rho(g) acts with one common denominator
    gd = grading(fan_p1p1())
    cone, p = (0, 2), (-1, -2)
    hp, _ = h_p(gd, cone, p)
    g = tp_mul(hp, {(0, 1, 0, 0): Fraction(2, 3), (0, 0, 0, 0): Fraction(-5, 7)})
    assert verify_local_action(gd, cone, p, g, 3)
    assert not verify_local_action(gd, cone, p, tp_add(g, {(0, 0, 0, 0): Fraction(1, 2)}), 3)


def test_k_component_examples():
    gd = grading(fan_p1())
    gens = k_component(gd, (1, 1), (0,))
    assert gens[-1] == {(0, 0): Fraction(1)}
    gens2 = k_component(gd, (-1, 2), (0,))
    assert gens2[0] == tp_add(tp_linear(2, 0, 0), tp_linear(2, 1, 0))
    assert gens2[-1] == tp_linear(2, 0, -1)
    gens3 = k_component(gd, (0, 0), (1,))
    assert gens3[0] == tp_add(tp_add(tp_linear(2, 0, 0), tp_linear(2, 1, 0)),
                              {(0, 0): Fraction(1)})
    assert gens3[-1] == tp_mul(tp_linear(2, 0, 0), tp_linear(2, 1, 0))


def test_nonzerodivisor_truncated():
    # multiplying by the product of the variables never kills a fresh
    # eigenvector component modulo the twisted-module relations
    from toric_dmod.groebner import (groebner_basis, normal_form, PolyRing,
                                     Poly, weyl_normal_form)
    from toric_dmod.weyl import theta_dict_to_weyl, weyl_mul
    r = rng(32)
    for fan_fn in (fan_p1, fan_p2):
        fan = fan_fn()
        gd = grading(fan)
        d = gd.d
        pres = d_module_left(gd, gd.class_group.zero())
        gb = pres.relation_gb()
        wring = PolyRing(tuple(f"th{i+1}" for i in range(d)))
        l0 = groebner_basis([Poly(wring, {e: c for e, c in rel.items()})
                             for rel in k_component(gd, (1,) * d, gd.class_group.zero())[:-1]],
                            wring)
        count = 0
        while count < 20:
            g = {}
            for _ in range(2):
                e = tuple(r.randint(0, 1) for _ in range(d))
                g[e] = g.get(e, Fraction(0)) + Fraction(r.randint(-3, 3))
            g = {e: c for e, c in g.items() if c}
            gp = Poly(wring, g)
            if gp.is_zero() or normal_form(gp, l0).is_zero():
                continue
            count += 1
            a = tuple(r.randint(-2, 2) for _ in range(d))
            ap = tuple(max(x, 0) for x in a)
            am = tuple(max(-x, 0) for x in a)
            elt = weyl_mul(WeylElement.monomial(d, (1,) * d, (0,) * d),
                           weyl_mul(WeylElement.monomial(d, ap, am),
                                    theta_dict_to_weyl(d, g)))
            nf = weyl_normal_form((elt,), gb)
            assert not all(e.is_zero() for e in nf)
