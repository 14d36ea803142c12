"""Groebner engines: commutative ideals, saturation, dimension, Weyl side."""

import operator
from fractions import Fraction
from math import gcd

import pytest

from helpers import (WeylMacaulayOracle, all_fixture_fans, annihilator_two_step,
                     bernstein_degree, cpu_time_limit,
                     fan_p1, fan_p1p1, fan_p2, grading, macaulay_membership,
                     macaulay_membership_stable, random_poly, random_weyl, rng,
                     weyl_left_mul_monomial, weyl_rows_to_dict, wreduce_max_scan)
from toric_dmod import groebner
from toric_dmod.groebner import (EMPTY_DIM, Poly, PolyRing,
                                 eliminate_front, format_poly, groebner_basis,
                                 ideal_contains,
                                 initial_forms, intersect_ideals, is_unit_ideal,
                                 krull_dimension, normal_form,
                                 radical_membership, saturation,
                                 saturation_by_monomials, toric_ideal,
                                 weyl_buchberger, weyl_contains, weyl_normal_form,
                                 WeylDivisors, WeylModuleOrder)
from toric_dmod.weyl import WeylElement, format_weyl, parse_weyl, tp_numerators


def ring2():
    return PolyRing(("x", "y"))


def sprime_p1():
    return PolyRing(("x1", "x2", "xi1", "xi2"))


def test_single_generator_already_reduced():
    ring = sprime_p1()
    p = Poly(ring, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
    assert groebner_basis([p], ring) == [p]


def test_unit_ideal_from_x_and_one_minus_x():
    ring = ring2()
    x = Poly.variable(ring, 0)
    gb = groebner_basis([x, Poly.constant(ring, 1) - x], ring)
    assert [format_poly(g) for g in gb] == ["1"]


def test_x2_xy_minus_y_against_macaulay_oracle():
    # sympy's lex basis re-reduced under degrevlex is the degrevlex basis, and
    # membership modulo it agrees with the linear-algebra oracle
    ring = ring2()
    x, y = Poly.variable(ring, 0), Poly.variable(ring, 1)
    gens = [x * x, x * y - y]
    gb = groebner_basis(gens, ring)
    assert groebner_basis(_sympy_lex_basis(gens, ring), ring) == gb
    r = rng(20)
    for _ in range(40):
        f = random_poly(r, ring, 4, 3)
        assert ideal_contains(gb, [f]) == macaulay_membership_stable(f, gens)
    assert ideal_contains(gb, [y])
    assert macaulay_membership(y, gens, 4)


def test_normal_form_properties():
    ring = sprime_p1()
    x1 = Poly.variable(ring, 0)
    x2 = Poly.variable(ring, 1)
    xi1 = Poly.variable(ring, 2)
    xi2 = Poly.variable(ring, 3)
    p = x1 * xi1 + x2 * xi2
    gb = groebner_basis([p], ring)
    assert normal_form(p, gb).is_zero()
    assert normal_form(x1, gb) == x1
    one_gb = groebner_basis([Poly.constant(ring, 1)], ring)
    assert normal_form(Poly.constant(ring, 1), one_gb).is_zero()
    r = rng(21)
    for _ in range(15):
        f = random_poly(r, ring, 3, 3)
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf


def test_repeated_queries_prepare_each_basis_element_once(monkeypatch):
    ring = ring2()
    x, y = Poly.variable(ring, 0), Poly.variable(ring, 1)
    gb = groebner_basis([x * x * y - y, x * y * y - x], ring)
    assert len(gb) > 2
    built = []

    class Recording(groebner._WeylReducer):
        __slots__ = ()

        def __init__(self, w):
            super().__init__(w)
            built.append(w)
    monkeypatch.setattr(groebner, "_WeylReducer", Recording)
    r = rng(23)
    queries = [random_poly(r, ring, 4, 4) for _ in range(20)]
    forms = [normal_form(f, gb) for f in queries]
    assert len(built) == len(gb)
    assert sorted(map(sorted, built)) == sorted(sorted(groebner._kernel(g)) for g in gb)
    assert ideal_contains(gb, [f - nf for f, nf in zip(queries, forms)])
    assert len(built) == len(gb)
    # fresh copies of the basis (nothing prepared) give the same normal forms
    fresh = [Poly(ring, g.terms) for g in gb]
    assert [normal_form(f, fresh) for f in queries] == forms
    assert len(built) == 2 * len(gb)


def test_read_side_rejects_a_ring_mismatch():
    # three variables against two and two against three, where a term of f
    # meets a lead of the basis (a raw IndexError or a wrong answer before)
    # and where none does (an answer before), and two rings of the same
    # size with other names (0 before, although those polynomials differ)
    two, three, other = PolyRing(("x", "y")), PolyRing(("x", "y", "z")), PolyRing(("u", "v"))
    gb2 = groebner_basis([Poly.variable(two, 0)], two)
    gb3 = groebner_basis([Poly.variable(three, 0)], three)
    cases = [(Poly.variable(three, 0) * Poly.variable(three, 2), gb2),
             (Poly.variable(two, 0) * Poly.variable(two, 1), gb3),
             (Poly.variable(three, 1), gb2), (Poly.variable(two, 1), gb3),
             (Poly.variable(other, 0), gb2), (Poly.zero(other), gb2)]
    for f, gb in cases:
        with pytest.raises(ValueError, match="ring mismatch"):
            normal_form(f, gb)
        with pytest.raises(ValueError, match="ring mismatch"):
            ideal_contains(gb, [Poly.variable(gb[0].ring, 0), f])
    assert normal_form(Poly.variable(two, 1), gb2) == Poly.variable(two, 1)
    assert ideal_contains(gb2, [Poly.variable(two, 0) * Poly.variable(two, 1)])


def test_ideal_contains_no_polynomials_and_the_zero_polynomial_prints_as_0():
    ring = ring2()
    gb = groebner_basis([Poly.variable(ring, 0)], ring)
    assert ideal_contains(gb, []) and ideal_contains([], [])
    assert ideal_contains(gb, [Poly.zero(ring)]) and ideal_contains([], [Poly.zero(ring)])
    assert not ideal_contains(gb, [Poly.variable(ring, 0), Poly.variable(ring, 1)])
    assert format_poly(Poly.zero(ring)) == "0"


def test_arithmetic_rejects_a_ring_mismatch():
    # x1 * x2 across a 3- and a 2-variable ring gave x1*x2 keyed (1, 1) in
    # the 3-variable ring (the product zipped exponents to the shorter
    # length), and a sum mixed 3- and 2-tuples in one dict
    two, three, other = PolyRing(("x", "y")), PolyRing(("x", "y", "z")), PolyRing(("u", "v"))
    for f, g in [(Poly.variable(three, 0), Poly.variable(two, 1)),
                 (Poly.variable(two, 0), Poly.variable(three, 2)),
                 (Poly.variable(two, 0), Poly.variable(other, 0)),
                 (Poly.zero(two), Poly.zero(other))]:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="ring mismatch"):
                op(f, g)
    x, y = Poly.variable(two, 0), Poly.variable(two, 1)
    assert (x + y) * (x - y) == x * x - y * y


def test_reducer_items_rebuild_its_vec():
    # the shift's items are the reducer's terms split once, in vec's order
    r = rng(24)
    for _ in range(30):
        d, rank = r.randint(1, 3), r.randint(1, 2)
        w = weyl_rows_to_dict(_random_weyl_row(r, d, rank, _rational))
        if not w:
            continue
        red = groebner._WeylReducer(w)
        assert [(pre + (a, b), c) for pre, a, b, c in red.items] == list(red.vec.items())


def test_membership_soundness_random_combinations():
    ring = ring2()
    x, y = Poly.variable(ring, 0), Poly.variable(ring, 1)
    gens = [x * x * y - y, x * y * y - x]
    gb = groebner_basis(gens, ring)
    r = rng(22)
    for _ in range(20):
        combo = Poly.zero(ring)
        for g in gens:
            combo = combo + random_poly(r, ring, 2, 2) * g
        assert ideal_contains(gb, [combo])


def test_saturation_examples():
    ring = sprime_p1()
    x1, x2, xi1, xi2 = [Poly.variable(ring, i) for i in range(4)]
    p = x1 * xi1 + x2 * xi2
    sat = saturation_by_monomials([p], [(1, 0, 0, 0), (0, 1, 0, 0)], ring)
    assert sat == groebner_basis([p], ring)
    sat2 = saturation_by_monomials([x1, x2], [(1, 0, 0, 0), (0, 1, 0, 0)], ring)
    assert is_unit_ideal(sat2)
    sat3 = saturation([p], Poly.constant(ring, 1), ring)
    assert sat3 == groebner_basis([p], ring)


def test_saturation_idempotent_and_contains():
    ring = ring2()
    x, y = Poly.variable(ring, 0), Poly.variable(ring, 1)
    gens = [x * x * y, x * y * y]
    sat1 = saturation(gens, x, ring)
    sat2 = saturation(sat1, x, ring)
    assert sat1 == sat2
    for g in gens:
        assert ideal_contains(sat1, [g])


def test_radical_membership_examples():
    ring = ring2()
    x, y = Poly.variable(ring, 0), Poly.variable(ring, 1)
    assert radical_membership(x, [x * x], ring)
    assert not radical_membership(x, [y], ring)
    assert radical_membership(x, [Poly.constant(ring, 1)], ring)


def test_krull_dimension_examples():
    ring = sprime_p1()
    x1, x2, xi1, xi2 = [Poly.variable(ring, i) for i in range(4)]
    p = x1 * xi1 + x2 * xi2
    assert krull_dimension([p], ring) == 3
    assert krull_dimension([], ring) == 4
    assert krull_dimension([xi1, xi2], ring) == 2
    assert krull_dimension([Poly.constant(ring, 1)], ring) == EMPTY_DIM


def test_krull_dimension_order_invariance():
    # sympy's lex basis generates the same ideal: re-reduced under degrevlex
    # it gives the degrevlex basis and the same dimension
    ring = sprime_p1()
    r = rng(23)
    for _ in range(8):
        gens = [random_poly(r, ring, 2, 2) for _ in range(2)]
        lex_gb = _sympy_lex_basis(gens, ring)
        assert groebner_basis(lex_gb, ring) == groebner_basis(gens, ring)
        assert krull_dimension(lex_gb, ring) == krull_dimension(gens, ring)


def test_intersection():
    ring = ring2()
    x, y = Poly.variable(ring, 0), Poly.variable(ring, 1)
    inter = intersect_ideals([x], [y], ring)
    assert inter == groebner_basis([x * y], ring)


def test_eliminate_front_is_its_own_reduction():
    # the front-free part of the reduced block-order basis is already the
    # reduced degrevlex basis of the elimination ideal: reducing it again
    # changes nothing, and it lies in the ideal it came from
    small = PolyRing(("x", "y", "z"))
    big = PolyRing(("t",) + small.names)
    r = rng(33)
    cases = [[], [Poly.zero(big)], [Poly.constant(big, 1)]]
    cases += [[random_poly(r, big, 2, 3) for _ in range(r.randint(1, 3))]
              for _ in range(15)]
    nontrivial = 0
    for gens in cases:
        out = eliminate_front(gens, big, small)
        assert groebner_basis(out, small) == out
        assert ideal_contains(groebner_basis(gens, big),
                              [groebner._lift_front(g, big) for g in out])
        nontrivial += bool(out) and not is_unit_ideal(out)
    assert eliminate_front(cases[0], big, small) == []
    assert eliminate_front(cases[1], big, small) == []
    assert eliminate_front(cases[2], big, small) == [Poly.constant(small, 1)]
    assert nontrivial


def _fixture_saturations():
    """The generic saturation of each fixture report for D(0) and the
    monomial saturation of the same J, through public entry points."""
    from toric_dmod.charvar import characteristic_ideal, dimension_report, s_prime_ring
    from toric_dmod.dmod import d_module_left
    from toric_dmod.fan_cox import irrelevant_ideal
    for _, fan in all_fixture_fans():
        gd = grading(fan)
        pres = d_module_left(gd, gd.class_group.zero())
        dimension_report(gd, pres)
        b = [g + (0,) * gd.d for g in irrelevant_ideal(fan).generators]
        saturation_by_monomials(characteristic_ideal(gd, pres), b, s_prime_ring(gd))


def test_eliminate_front_is_its_own_reduction_on_fixture_reports(monkeypatch):
    real = groebner.eliminate_front
    outputs = []

    def recorded(gens, big, small):
        out = real(gens, big, small)
        outputs.append((out, small))
        return out

    monkeypatch.setattr(groebner, "eliminate_front", recorded)
    _fixture_saturations()
    monkeypatch.undo()
    assert len(outputs) > len(all_fixture_fans())
    for out, small in outputs:
        assert groebner_basis(out, small) == out


def test_one_groebner_basis_per_elimination(monkeypatch):
    # each elimination builds the block-order basis and nothing else
    real_gb, real_elim = groebner.buchberger, groebner.eliminate_front
    built = [0]
    per_elimination = []

    def counted_gb(*args):
        built[0] += 1
        return real_gb(*args)

    def counted_elim(*args):
        start = built[0]
        out = real_elim(*args)
        per_elimination.append(built[0] - start)
        return out

    monkeypatch.setattr(groebner, "buchberger", counted_gb)
    monkeypatch.setattr(groebner, "eliminate_front", counted_elim)
    _fixture_saturations()
    monkeypatch.undo()
    assert per_elimination and set(per_elimination) == {1}


def test_weyl_buchberger_examples():
    th = parse_weyl("x1*d1 + x2*d2", 2)
    gb = weyl_buchberger([(th,)], 1, 2)
    assert gb == [(th,)]
    ring = sprime_p1()
    init = initial_forms(gb)
    p = Poly(ring, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
    assert init == [{(0, (1, 0, 1, 0)): Fraction(1), (0, (0, 1, 0, 1)): Fraction(1)}]
    gb2 = weyl_buchberger([(parse_weyl("d1", 2),), (parse_weyl("d2", 2),)], 1, 2)
    assert [(format_weyl(v[0]),) for v in gb2] == [("d2",), ("d1",)]
    gb3 = weyl_buchberger([(WeylElement.one(2),)], 1, 2)
    assert gb3 == [(WeylElement.one(2),)]


def test_initial_forms_examples():
    const_shift = parse_weyl("x1*d1 + x2*d2 + 5", 2)
    init = initial_forms([(const_shift,)])[0]
    assert init == {(0, (1, 0, 1, 0)): Fraction(1), (0, (0, 1, 0, 1)): Fraction(1)}
    init2 = initial_forms([(parse_weyl("x1", 2),)])[0]
    assert init2 == {(0, (1, 0, 0, 0)): Fraction(1)}
    init3 = initial_forms([(parse_weyl("x1*d1^2 + d1", 2),)])[0]
    assert init3 == {(0, (1, 0, 2, 0)): Fraction(1)}


def test_weyl_normal_form_membership():
    # membership of a left multiple
    th = parse_weyl("x1*d1 + x2*d2 + 1", 2)
    gb = weyl_buchberger([(th,)], 1, 2)
    r = rng(24)
    from helpers import random_weyl
    from toric_dmod.weyl import weyl_mul
    for _ in range(15):
        f = random_weyl(r, 2, 2, 2)
        prod = weyl_mul(f, th)
        nf = weyl_normal_form((prod,), gb)
        assert all(e.is_zero() for e in nf)


def test_initial_forms_generate_associated_graded():
    # the top-weight part of any element of the submodule must reduce to
    # zero against the initial forms of the filtered basis
    from toric_dmod.charvar import s_prime_ring
    from toric_dmod.dmod import d_module_left
    from toric_dmod.weyl import weyl_mul
    from helpers import random_weyl
    r = rng(25)
    for fan in (fan_p1(), fan_p2()):
        gd = grading(fan)
        ring = s_prime_ring(gd)
        pres = d_module_left(gd, gd.class_group.zero())
        gb = pres.relation_gb()
        init = [Poly(ring, {e: c for (_, e), c in v.items()})
                for v in initial_forms(gb)]
        init_gb = groebner_basis(init, ring)
        for _ in range(12):
            combo = None
            for row in pres.relations:
                term = weyl_mul(random_weyl(r, gd.d, 1, 2), row[0])
                combo = term if combo is None else combo + term
            if combo.is_zero():
                continue
            weight = max(sum(b) for (_, b) in combo.terms)
            top = {a + b: c for (a, b), c in combo.terms.items()
                   if sum(b) == weight}
            assert ideal_contains(init_gb, [Poly(ring, top)])


def test_filtered_gb_initial_ideal_matches_z_for_twists():
    # gr(D_L(b)) is cut out by the degree-zero quadrics, exactly
    from toric_dmod.charvar import s_prime_ring, z_ideal
    from toric_dmod.dmod import d_module_left
    from toric_dmod.charvar import characteristic_ideal
    from itertools import product as iproduct
    for fan in (fan_p1(), fan_p2(), fan_p1p1()):
        gd = grading(fan)
        ring = s_prime_ring(gd)
        zred = groebner_basis(list(z_ideal(gd)), ring)
        width = gd.class_group.free_rank
        for coords in iproduct((-2, 0, 1), repeat=width):
            pres = d_module_left(gd, coords)
            assert characteristic_ideal(gd, pres) == zred


def test_toric_ideal_twisted_cubic_and_segre():
    ring = PolyRing(("y1", "y2", "y3", "y4"))
    cubic = toric_ideal([(3, 0), (2, 1), (1, 2), (0, 3)], ring)
    y = [Poly.variable(ring, i) for i in range(4)]
    for rel in (y[1] * y[1] - y[0] * y[2], y[2] * y[2] - y[1] * y[3],
                y[1] * y[2] - y[0] * y[3]):
        assert ideal_contains(cubic, [rel])
    assert krull_dimension(cubic, ring) == 2
    segre = toric_ideal([(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)],
                        ring)
    assert segre == groebner_basis([y[1] * y[2] - y[0] * y[3]], ring)


def test_weyl_engine_matches_commutative_on_x_only_input():
    # polynomials without derivative factors generate commutative ideals;
    # both engines must produce the same reduced basis
    from toric_dmod.groebner import initial_forms as iforms
    ring = PolyRing(("x1", "x2"))
    sprime = PolyRing(("x1", "x2", "xi1", "xi2"))
    r = rng(26)
    for _ in range(8):
        polys = [random_poly(r, ring, 2, 2) for _ in range(2)]
        polys = [p for p in polys if not p.is_zero()]
        if not polys:
            continue
        comm = groebner_basis(polys, ring)
        rows = []
        for p in polys:
            elt = WeylElement(2, {(e, (0, 0)): c for e, c in p.terms.items()})
            rows.append((elt,))
        wgb = weyl_buchberger(rows, 1, 2)
        back = [Poly(ring, {a: c for (a, b), c in v[0].terms.items()})
                for v in wgb]
        assert sorted(map(format_poly, back)) == sorted(map(format_poly, comm))


def test_saturation_known_value():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = [Poly.variable(ring, i) for i in range(3)]
    sat = saturation([x * x * y, x * z], x, ring)
    assert sat == groebner_basis([y, z], ring)


def test_reduced_basis_independent_of_generator_order():
    ring = PolyRing(("x", "y", "z"))
    r = rng(27)
    for _ in range(6):
        gens = [random_poly(r, ring, 2, 3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        forward = groebner_basis(gens, ring)
        backward = groebner_basis(list(reversed(gens)), ring)
        assert forward == backward
    th1 = parse_weyl("x1*d1 + x2*d2 + 1", 2)
    extra = parse_weyl("x1*x2*d1*d2 - 2", 2)
    a = weyl_buchberger([(th1,), (extra,)], 1, 2)
    b = weyl_buchberger([(extra,), (th1,)], 1, 2)
    assert a == b


def test_weyl_buchberger_ignores_a_repeated_and_a_rescaled_row():
    # a repeated generator's S-element is 0, and the final inter-reduction
    # keeps the first of equal leads, so the reduced basis is the same
    r = rng(48)
    cases = [([(parse_weyl("x1*d1 + x2*d2 + 1", 2),),
               (parse_weyl("x1*x2*d1*d2 - 2", 2),)], 1, 2)]
    for _ in range(30):
        d, rank = r.randint(1, 2), r.randint(1, 2)
        cases.append(([_random_weyl_row(r, d, rank) for _ in range(r.randint(1, 3))], rank, d))
    nonzero = 0
    for gens, rank, d in cases:
        want = weyl_buchberger(gens, rank, d)
        nonzero += bool(want)
        more = list(gens)
        more.insert(r.randint(0, len(more)), r.choice(gens))
        more.insert(r.randint(0, len(more)),
                    tuple(e.scale(Fraction(3, 2)) for e in r.choice(gens)))
        got = weyl_buchberger(more, rank, d)
        assert got == want, [[format_weyl(e) for e in g] for g in more]
    assert nonzero > 20


# CPU seconds; the basis took 17.6 s when every S-pair was formed and each
# reduction copied its element, and about 4.5 s with in-place reductions
RANK_TWO_BOUND_S = 30


def test_rank_two_reproducer_reduces_to_the_unit_vectors():
    # three rows of degree at most 2 over A_2 whose reduced basis is just
    # {e1, e2}; the one-pair-loop engine must keep this within the bound
    rows = [tuple(parse_weyl(s, 2) for s in row)
            for row in (("-1", "2*x1*x2 + 2*d2"), ("-2*d1", "x1*x2 - 3"),
                        ("-3*x1*d2 + 3", "0"))]
    with cpu_time_limit(RANK_TWO_BOUND_S, "the rank-2 basis"):
        gb = weyl_buchberger(rows, 2, 2)
    one, zero = WeylElement.one(2), parse_weyl("0", 2)
    assert gb == [(zero, one), (one, zero)]


def test_module_annihilator_exactness():
    # Ann of k[x,y]^2 / <x e1, y e2> is (x) intersect (y) = (xy)
    from toric_dmod.groebner import annihilator_of_graded_quotient
    ring = ring2()
    x, y = Poly.variable(ring, 0), Poly.variable(ring, 1)
    vecs = [{(0, (1, 0)): Fraction(1)}, {(1, (0, 1)): Fraction(1)}]
    ann = annihilator_of_graded_quotient(vecs, ring, 2)
    assert ann == groebner_basis([x * y], ring)


def test_module_annihilator_matches_the_two_step_reference():
    # each colon is read off the module basis, with no second basis build
    from toric_dmod.groebner import annihilator_of_graded_quotient
    r = rng(31)
    ring = PolyRing(("x", "y", "z"))
    for _ in range(20):
        rank = r.randint(2, 3)
        vecs = []
        for _ in range(r.randint(2, 4)):
            vec = {}
            for _ in range(r.randint(1, 3)):
                comp = r.randrange(rank)
                for e, c in random_poly(r, ring, 2, 2).terms.items():
                    vec[(comp, e)] = c
            if vec:
                vecs.append(vec)
        assert annihilator_of_graded_quotient(vecs, ring, rank) == \
            annihilator_two_step(vecs, ring, rank)


def test_toric_ideal_with_laurent_monomials():
    # z, z^-1 satisfy y1 y2 = 1
    ring = PolyRing(("y1", "y2"))
    ideal = toric_ideal([(1,), (-1,)], ring)
    y1, y2 = Poly.variable(ring, 0), Poly.variable(ring, 1)
    assert ideal == groebner_basis([y1 * y2 - Poly.constant(ring, 1)], ring)


def test_toric_ideal_of_monomials_in_no_variables():
    # every y_j maps to z^() = 1: the kernel is all of Z^2
    ring = PolyRing(("y1", "y2"))
    one = Poly.constant(ring, 1)
    assert toric_ideal([(), ()], ring) == groebner_basis(
        [Poly.variable(ring, 0) - one, Poly.variable(ring, 1) - one], ring)


def test_toric_ideal_randomized_against_sympy_nullspace():
    # every binomial of a primitive kernel vector lies in the ideal, which a
    # kernel of finite index in the true one would miss, and every generator
    # vanishes under y_j -> z^(E_j)
    sympy = pytest.importorskip("sympy")
    r = rng(54)
    for _ in range(20):
        m, width = r.randint(1, 4), r.randint(1, 3)
        exps = [tuple(r.randint(-2, 2) for _ in range(width)) for _ in range(m)]
        ring = PolyRing(tuple(f"y{j + 1}" for j in range(m)))
        ideal = toric_ideal(exps, ring)
        columns = sympy.Matrix([[e[i] for e in exps] for i in range(width)])
        for u in columns.nullspace():
            den = sympy.ilcm(*[x.q for x in u])
            ints = [int(x * den) for x in u]
            g = gcd(*ints)
            u = [x // g for x in ints]
            binomial = (Poly.monomial(ring, tuple(max(x, 0) for x in u))
                        - Poly.monomial(ring, tuple(max(-x, 0) for x in u)))
            assert ideal_contains(ideal, [binomial]), (exps, u)
        for f in ideal:
            image: dict = {}
            for e, c in f.terms.items():
                z = tuple(sum(k * ej[i] for k, ej in zip(e, exps)) for i in range(width))
                image[z] = image.get(z, 0) + c
            assert not any(image.values()), (exps, format_poly(f))


# independent checks of the commutative engine: sympy's reduced bases, and a
# Buchberger certificate for submodules of free modules


def _random_homogeneous(r, ring, degree, nterms):
    terms = {}
    for _ in range(nterms):
        e = [0] * ring.nvars
        for _ in range(degree):
            e[r.randrange(ring.nvars)] += 1
        terms[tuple(e)] = Fraction(r.randint(-4, 4), r.randint(1, 3))
    return Poly(ring, terms)


def _as_term_sets(polys, gens):
    out = set()
    for p in polys:
        poly = p.as_poly(*gens)
        out.add(frozenset((m, Fraction(int(c.p), int(c.q))) for m, c in poly.terms()))
    return out


def _sympy_expr(p, gens):
    import sympy
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[g ** k for g, k in zip(gens, e)])
                       for e, c in p.terms.items()])


def test_reduced_basis_matches_sympy_on_random_homogeneous_ideals():
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(("a", "b", "c", "e"))
    gens = sympy.symbols("a b c e")
    r = rng(28)
    nontrivial = 0
    for _ in range(12):
        polys = [_random_homogeneous(r, ring, r.randint(2, 3), r.randint(2, 4))
                 for _ in range(r.randint(2, 4))]
        polys = [p for p in polys if not p.is_zero()]
        ours = groebner_basis(polys, ring)
        ref = sympy.groebner([_sympy_expr(p, gens) for p in polys], *gens,
                             order="grevlex", domain="QQ")
        assert {frozenset(g.terms.items()) for g in ours} == \
            _as_term_sets(ref.exprs, gens)
        nontrivial += len(ours) > len(polys)
    assert nontrivial  # some draws need S-pairs beyond the inputs


def _sympy_lex_basis(gens, ring):
    """sympy's reduced lex basis of gens, variables in ring order, as Polys."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(ring.names)
    ref = sympy.groebner([_sympy_expr(p, syms) for p in gens if not p.is_zero()],
                         *syms, order="lex", domain="QQ")
    return [Poly(ring, {m: Fraction(int(c.p), int(c.q)) for m, c in g.as_poly(*syms).terms()})
            for g in ref.exprs]


def test_eliminate_front_matches_sympy_lex_on_small_ideals():
    # the t-free elements of sympy's lex basis with t first generate the
    # elimination ideal; reduced under degrevlex they are eliminate_front's
    small = PolyRing(("a", "b", "c"))
    big = PolyRing(("t",) + small.names)
    r = rng(29)
    nontrivial = 0
    for _ in range(8):
        polys = [random_poly(r, big, 2, 3) for _ in range(3)]
        lex_free = [Poly(small, {e[1:]: c for e, c in g.terms.items()})
                    for g in _sympy_lex_basis(polys, big) if all(e[0] == 0 for e in g.terms)]
        out = eliminate_front(polys, big, small)
        assert out == groebner_basis(lex_free, small)
        nontrivial += bool(out) and not is_unit_ideal(out)
    assert nontrivial


def _lead(vec, worder):
    cab = max(vec, key=worder.key)
    return cab, vec[cab]


def _s_vector(f, g, worder):
    (comp, ef, _), cf = _lead(f, worder)
    (_, eg, _), cg = _lead(g, worder)
    lcm = tuple(max(x, y) for x, y in zip(ef, eg))
    out: dict = {}
    for vec, scale, e in ((f, 1 / cf, ef), (g, -1 / cg, eg)):
        shift = tuple(a - b for a, b in zip(lcm, e))
        for (k, ek, _), c in vec.items():
            key = (k, tuple(a + b for a, b in zip(ek, shift)), ())
            out[key] = out.get(key, Fraction(0)) + scale * c
    return {k: c for k, c in out.items() if c}


def _normal_form(f: dict, basis: list, worder) -> dict:
    """Full normal form of a module element with no d-part, by a max scan,
    the first basis element whose lead divides, and Fraction arithmetic on
    shifted exponents: a reducer independent of groebner._wreduce."""
    leads = [_lead(g, worder) for g in basis]
    work, remainder = dict(f), {}
    while work:
        cab = max(work, key=worder.key)
        comp, a, _ = cab
        for g, ((gc, ga, _), lc) in zip(basis, leads):
            if gc == comp and all(x >= y for x, y in zip(a, ga)):
                break
        else:
            remainder[cab] = work.pop(cab)
            continue
        scale = work[cab] / lc
        shift = tuple(x - y for x, y in zip(a, ga))
        for (k, e, _), c in g.items():
            key = (k, tuple(x + y for x, y in zip(e, shift)), ())
            v = work.get(key, 0) - scale * c
            if v:
                work[key] = v
            else:
                del work[key]
    return remainder


def _assert_buchberger_certificate(gens, basis, worder):
    leads = [_lead(g, worder) for g in basis]
    assert all(c == 1 for _, c in leads)
    for i, f in enumerate(basis):
        others = basis[:i] + basis[i + 1:]
        # reduced: no term of an element is divisible by another leading term
        assert _normal_form(f, others, worder) == f
        for g in basis[i + 1:]:
            if _lead(f, worder)[0][0] == _lead(g, worder)[0][0]:
                assert _normal_form(_s_vector(f, g, worder), basis, worder) == {}
    for g in gens:
        assert _normal_form(g, basis, worder) == {}


def test_module_basis_has_a_buchberger_certificate():
    # a priority order of the components is the engine's order after
    # renumbering them from highest (0) down, as for the colons of
    # annihilator_of_graded_quotient
    r = rng(30)
    ring = PolyRing(("x", "y", "z"))
    for _ in range(20):
        rank = r.randint(2, 3)
        priority = list(range(rank))
        r.shuffle(priority)
        place = {comp: k for k, comp in enumerate(priority)}
        gens = []
        for _ in range(r.randint(3, 5)):
            vec = {}
            for _ in range(r.randint(2, 4)):
                p = random_poly(r, ring, 2, 1)
                for e, c in p.terms.items():
                    vec[(place[r.randrange(rank)], e, ())] = c
            if vec:
                gens.append(vec)
        basis = groebner.buchberger(gens, rank)
        _assert_buchberger_certificate(gens, basis, WeylModuleOrder())


def test_module_pairs_with_coprime_leading_terms_are_not_skipped():
    # x e1 + e2 and y e1 have coprime leading terms, but their S-vector y e2
    # is in the module: the product criterion does not hold across components
    f = {(0, (1, 0), ()): Fraction(1), (1, (0, 0), ()): Fraction(1)}
    g = {(0, (0, 1), ()): Fraction(1)}
    basis = groebner.buchberger([f, g], 2)
    assert {(1, (0, 1), ()): Fraction(1)} in basis
    _assert_buchberger_certificate([f, g], basis, WeylModuleOrder())


def test_module_chain_criterion_stays_within_a_component():
    # e0 divides the lcm x*y of the pair (x e1 + e2, y e1) by exponent, but
    # lies in another component, so it does not make the pair redundant
    f = {(1, (1, 0), ()): Fraction(1), (2, (0, 0), ()): Fraction(1)}
    g = {(1, (0, 1), ()): Fraction(1)}
    h = {(0, (0, 0), ()): Fraction(1)}
    basis = groebner.buchberger([f, g, h], 3)
    assert {(2, (0, 1), ()): Fraction(1)} in basis
    _assert_buchberger_certificate([f, g, h], basis, WeylModuleOrder())


def _random_weyl_row(r, d: int, rank: int, coefficient=lambda r: r.randint(-3, 3)):
    """Entries of one or two terms of Bernstein degree at most 2."""
    row = []
    for _ in range(rank):
        terms = {}
        for _ in range(r.randint(1, 2)):
            v = [0] * (2 * d)
            for _ in range(r.randint(0, 2)):
                v[r.randrange(2 * d)] += 1
            key = (tuple(v[:d]), tuple(v[d:]))
            terms[key] = terms.get(key, Fraction(0)) + coefficient(r)
        row.append(WeylElement(d, terms))
    return tuple(row)


def _weyl_row(terms: dict, rank: int, d: int):
    split = [{} for _ in range(rank)]
    for (comp, a, b), c in terms.items():
        split[comp][(a, b)] = c
    return tuple(WeylElement(d, t) for t in split)


def test_weyl_basis_against_filtered_macaulay_oracle():
    # two generator rows, d <= 2, rank 1 or 2, degree <= 2; products in the
    # oracle and in the S-pairs come from d_i x_i = x_i d_i + 1 alone. In
    # 400 such draws every certificate was found within 4 degrees above the
    # largest input or output row; 6 are allowed.
    r = rng(40)
    for _ in range(40):
        d, rank = r.randint(1, 2), r.randint(1, 2)
        gens = [_random_weyl_row(r, d, rank) for _ in range(2)]
        gb = weyl_buchberger(gens, rank, d)
        worder = WeylModuleOrder()
        base = max(bernstein_degree(weyl_rows_to_dict(g)) for g in gens + gb)
        pending = list(gb)
        for cap in range(base, base + 7):
            oracle = WeylMacaulayOracle(gens, d, cap)
            pending = [g for g in pending if not oracle.member(g)]
            if not pending:
                break
        assert not pending, [[format_weyl(e) for e in g] for g in pending]
        for g in gens:
            assert all(e.is_zero() for e in weyl_normal_form(g, gb))
        rows = [weyl_rows_to_dict(g) for g in gb]
        for i, f in enumerate(rows):
            for g in rows[i + 1:]:
                (cf, af, bf), (cg, ag, bg) = max(f, key=worder.key), max(g, key=worder.key)
                if cf != cg:
                    continue
                la, lb = tuple(map(max, af, ag)), tuple(map(max, bf, bg))
                s = {}
                for h, ah, bh, sign in ((f, af, bf, 1), (g, ag, bg, -1)):
                    lc = h[(cf, ah, bh)]
                    shifted = weyl_left_mul_monomial(h, tuple(x - y for x, y in zip(la, ah)),
                                                     tuple(x - y for x, y in zip(lb, bh)))
                    for k, v in shifted.items():
                        s[k] = s.get(k, 0) + sign * v / lc
                spair = _weyl_row({k: v for k, v in s.items() if v}, rank, d)
                assert all(e.is_zero() for e in weyl_normal_form(spair, gb))


def _rational(r):
    return Fraction(r.choice((-1, 1)) * r.randint(1, 5), r.randint(1, 6))


def _scaled(row, c):
    return tuple(e.scale(c) for e in row)


def test_weyl_kernel_on_rational_rows_against_filtered_macaulay_oracle(monkeypatch):
    # rational coefficients of either sign: leading coefficients are negative
    # or not 1, and primitive leads other than 1 occur; rank 1 and 2
    leads = []

    class Recording(groebner._WeylReducer):
        __slots__ = ()

        def __init__(self, w):
            super().__init__(w)
            leads.append(self.lc)
    monkeypatch.setattr(groebner, "_WeylReducer", Recording)
    r = rng(41)
    ranks = set()
    for _ in range(40):
        d, rank = r.randint(1, 2), r.randint(1, 2)
        ranks.add(rank)
        gens = [_random_weyl_row(r, d, rank, _rational) for _ in range(2)]
        gb = weyl_buchberger(gens, rank, d)
        assert weyl_buchberger([_scaled(g, _rational(r)) for g in gens], rank, d) == gb
        worder = WeylModuleOrder()
        lead_terms = [max(weyl_rows_to_dict(g), key=worder.key) for g in gb]
        members = list(gb)
        for _ in range(3):
            f = _random_weyl_row(r, d, rank, _rational)
            nf = weyl_normal_form(f, gb)
            assert not any(c == lc and all(x >= y for x, y in zip(a + b, la + lb))
                           for c, a, b in weyl_rows_to_dict(nf) for lc, la, lb in lead_terms)
            assert weyl_normal_form(nf, gb) == nf
            c = _rational(r)
            assert weyl_normal_form(_scaled(f, c), gb) == _scaled(nf, c)
            members.append(tuple(x - y for x, y in zip(f, nf)))
        base = max(bernstein_degree(weyl_rows_to_dict(g)) for g in gens + members)
        for cap in range(base, base + 7):
            oracle = WeylMacaulayOracle(gens, d, cap)
            members = [g for g in members if not oracle.member(g)]
            if not members:
                break
        assert not members, [[format_weyl(e) for e in g] for g in members]
    assert ranks == {1, 2} and max(leads) > 1


def test_weyl_normal_form_rescales_the_terms_set_aside():
    # the leading term is irreducible and set aside; the next term is reduced
    # by an element whose primitive lead is 2, so what was set aside must be
    # scaled with the rest: d1 = (2*d1 + x2)/2 - x2/2
    for row in ("2*d1 + x2", "-2/3*d1 - 1/3*x2"):
        nf = weyl_normal_form((parse_weyl("d2^2 + d1", 2),), [(parse_weyl(row, 2),)])
        assert nf == (parse_weyl("d2^2 - 1/2*x2", 2),)
    x1, d1, zero = parse_weyl("x1", 1), parse_weyl("d1", 1), WeylElement.zero(1)
    for row in ("2*d1 + x1", "-1/5*x1 - 2/5*d1"):
        nf = weyl_normal_form((x1, d1), [(zero, parse_weyl(row, 1))])
        assert nf == (x1, parse_weyl("-1/2*x1", 1))


def _contains_against(f, basis):
    """weyl_contains against basis prepared at the shape of its first row."""
    return weyl_contains(f, WeylDivisors(basis, len(basis[0]), basis[0][0].d))


def test_weyl_normal_form_checks_the_rank():
    # the full normal form and membership against a prepared basis
    d1 = parse_weyl("d1", 1)
    for query in (weyl_normal_form, _contains_against):
        with pytest.raises(ValueError, match="rank mismatch"):
            query((d1,), [(WeylElement.zero(1), d1)])
        with pytest.raises(ValueError, match="rank mismatch"):
            query((d1, d1), [(d1,)])
        # an element over A_2 among rows over A_1: d1^2 + x1 is not a
        # multiple of d1*d2, but its exponents compared to length 1 would
        # say it is
        with pytest.raises(ValueError, match="rank mismatch"):
            query((parse_weyl("d1^2 + x1", 1),), [(parse_weyl("d1*d2", 2),)])
        with pytest.raises(ValueError, match="rank mismatch"):
            query((d1, parse_weyl("d2", 2)), [(d1, d1)])


def test_prepared_weyl_basis_checks_its_rows():
    d1 = parse_weyl("d1", 1)
    with pytest.raises(ValueError, match="rank mismatch"):
        WeylDivisors([(d1,), (d1, d1)], 1, 1)
    with pytest.raises(ValueError, match="rank mismatch"):
        WeylDivisors([(parse_weyl("d1*d2", 2),)], 1, 1)


def test_weyl_normal_form_rejects_an_empty_row():
    for query in (weyl_normal_form, _contains_against):
        with pytest.raises(ValueError, match="empty row"):
            query((), [(parse_weyl("d1", 1),)])


def test_membership_stops_at_a_lead_no_lead_divides(monkeypatch):
    # the lead d1^2 of the query is irreducible and its next term x1*d1 is
    # not: the normal forms shift once, membership not at all
    shifts = []

    def counted(*args):
        shifts.append(args)
        return real(*args)
    real = groebner.weyl_shift_into
    monkeypatch.setattr(groebner, "weyl_shift_into", counted)
    gb = [(parse_weyl("x1*d1 + 1", 1),)]
    f = (parse_weyl("d1^2 + x1*d1", 1),)
    assert weyl_normal_form(f, gb) == (parse_weyl("d1^2 - 1", 1),) and len(shifts) == 1
    assert not _contains_against(f, gb) and len(shifts) == 1
    ring = ring2()
    x, y = Poly.variable(ring, 0), Poly.variable(ring, 1)
    gb = groebner_basis([x], ring)
    assert normal_form(y * y + x, gb) == y * y and len(shifts) == 2
    assert not ideal_contains(gb, [y * y + x]) and len(shifts) == 2


def test_weyl_buchberger_checks_the_rank():
    d1, d2 = parse_weyl("d1", 1), parse_weyl("d1*d2", 2)
    with pytest.raises(ValueError, match="rank mismatch"):
        weyl_buchberger([(d1, d1)], 1, 1)
    with pytest.raises(ValueError, match="rank mismatch"):
        weyl_buchberger([(d1,), (d1, d1)], 2, 1)
    with pytest.raises(ValueError, match="rank mismatch"):
        weyl_buchberger([(d2,)], 1, 1)
    with pytest.raises(ValueError, match="rank mismatch"):
        weyl_buchberger([(d1, d2)], 2, 1)


def _mapped(r, rank: int, n: int, draws: int) -> tuple[list, list]:
    """Distinct random commutative terms in n variables, mapped with an
    empty d-part and mapped for elimination (front exponent as the d-part of
    an extra variable whose x-part is 0)."""
    terms = {(r.randrange(rank), tuple(r.randint(0, 3) for _ in range(n)))
             for _ in range(draws)}
    return ([(comp, e, ()) for comp, e in terms],
            [(comp, (0,) + e[1:], e[:1]) for comp, e in terms])


def test_lead_key_sorts_in_reverse_of_weyl_module_order():
    # the heap of _wreduce and the key of WeylModuleOrder write one order,
    # on Weyl terms and on both mappings of commutative terms
    r = rng(44)
    cases = []
    for _ in range(40):
        rank, d = r.randint(1, 3), r.randint(1, 3)
        cases.append((rank, list({(r.randrange(rank), tuple(r.randint(0, 3) for _ in range(d)),
                                   tuple(r.randint(0, 3) for _ in range(d)))
                                  for _ in range(30)})))
    for _ in range(20):
        rank = r.randint(1, 3)
        cases += [(rank, terms) for terms in _mapped(r, rank, r.randint(1, 4), 30)]
    for _, triples in cases:
        r.shuffle(triples)
        assert len({groebner._lead_key(t) for t in triples}) == len(triples)
        assert (sorted(triples, key=groebner._lead_key)
                == sorted(triples, key=WeylModuleOrder().key, reverse=True))
        # ties: repeated leads, each tagged with its input position, sort
        # the same way under both keys, equal leads in input order (the
        # engines' "of equal leads the first" rests on this)
        repeated = triples + r.choices(triples, k=len(triples) // 2 + 1)
        r.shuffle(repeated)
        order = WeylModuleOrder()
        ascending = sorted(enumerate(repeated), key=lambda pt: order.key(pt[1]))
        assert ascending == sorted(enumerate(repeated),
                                   key=lambda pt: groebner._lead_key(pt[1]), reverse=True)
        assert all(p < q for (p, s), (q, t) in zip(ascending, ascending[1:]) if s == t)


def test_lead_key_on_mapped_terms_is_degrevlex_and_the_block_order():
    # with an empty d-part the kernel's order is degrevlex; mapped for
    # elimination it is the block order: front exponent first, then
    # degrevlex on the rest
    def degrevlex(e):
        return sum(e), tuple(-x for x in reversed(e))

    def block(e):
        return e[0], degrevlex(e[1:])

    r = rng(46)
    for _ in range(40):
        n = r.randint(1, 4)
        exps = list({tuple(r.randint(0, 3) for _ in range(n)) for _ in range(30)})
        r.shuffle(exps)
        assert (sorted(exps, key=lambda e: groebner._lead_key((0, e, ())))
                == sorted(exps, key=degrevlex, reverse=True))
        assert (sorted(exps, key=lambda e: groebner._lead_key((0, (0,) + e[1:], e[:1])))
                == sorted(exps, key=block, reverse=True))


def test_wreduce_matches_the_max_scan_reference():
    # primitive reducers from rational rows (not a basis), reducing rational
    # elements of higher degree, so terms cancel and come back mid-reduction
    r = rng(45)
    ranks = set()
    for _ in range(40):
        d, rank = r.randint(1, 2), r.randint(1, 2)
        ranks.add(rank)
        worder = WeylModuleOrder()
        rows = [_random_weyl_row(r, d, rank, _rational) for _ in range(3)]
        reducers = [groebner._WeylReducer(w) for w in map(weyl_rows_to_dict, rows) if w]
        for _ in range(3):
            f = weyl_rows_to_dict([random_weyl(r, d, 3, 4) for _ in range(rank)])
            if not f:
                continue
            _, nums = tp_numerators(f)
            assert (groebner._wreduce(dict(nums), reducers)
                    == wreduce_max_scan(dict(nums), reducers, worder))
    assert ranks == {1, 2}
    # commutative elements with an empty d-part and mapped for elimination
    mappings = (lambda comp, e: (comp, e, ()), lambda comp, e: (comp, (0,) + e[1:], e[:1]))
    for _ in range(40):
        rank, ring = r.randint(1, 2), PolyRing(("t", "x", "y"))
        worder = WeylModuleOrder()

        def element(degree, nterms):
            return {key(r.randrange(rank), e): c / r.randint(1, 3) for _ in range(rank)
                    for e, c in random_poly(r, ring, degree, nterms).terms.items()}
        for key in mappings:
            rows = [element(2, 3) for _ in range(3)]
            reducers = [groebner._WeylReducer(w) for w in rows if w]
            for _ in range(3):
                f = element(4, 5)
                if not f:
                    continue
                _, nums = tp_numerators(f)
                assert (groebner._wreduce(dict(nums), reducers)
                        == wreduce_max_scan(dict(nums), reducers, worder))


def test_weyl_normal_form_of_zero_or_against_nothing_builds_no_reducer(monkeypatch):
    def refuse(*args):
        raise AssertionError("reducer built")
    monkeypatch.setattr(groebner, "_WeylReducer", refuse)
    f = (parse_weyl("x1*d1 + 1/2", 1),)
    zero = (WeylElement.zero(1),)
    assert weyl_normal_form(zero, [(parse_weyl("d1", 1),)]) == zero
    assert weyl_normal_form(f, []) == f
    assert weyl_normal_form(f, [zero]) == f
