"""Weyl arithmetic: normal ordering, theta form, the action and tau."""

from fractions import Fraction
from itertools import product

import pytest

from helpers import (fan_p1, fan_p1p1, grading, linear_product_per_factor,
                     random_weyl, rng, weyl_left_mul_monomial)
from toric_dmod.dmod import weyl_degree
from toric_dmod.errors import InhomogeneousInput, ParseError
from toric_dmod.weyl import (WeylElement, act, format_weyl,
                             from_theta_form, parse_weyl, shift_items, tau,
                             theta_dict_to_weyl, to_theta_form, tp_format, tp_linear,
                             tp_linear_product, tp_subst, weyl_mul,
                             weyl_shift_into)


def W(s, d=2):
    return parse_weyl(s, d)


def test_zero_substitutes_to_zero_and_prints_as_0():
    images = [tp_linear(2, 0, 1), tp_linear(2, 1, Fraction(-3, 2)), {}]
    assert tp_subst({}, images, 2) == {}
    assert tp_format({}, ["th1", "th2", "th3"]) == "0"
    assert format_weyl(WeylElement.zero(2)) == "0"


def test_mul_basic_relation():
    assert weyl_mul(W("d1"), W("x1")) == W("x1*d1 + 1")


def test_mul_iterated_relation():
    assert weyl_mul(W("d1"), W("x1^2")) == W("x1^2*d1 + 2*x1")


def test_mul_unit():
    r = rng(10)
    for _ in range(10):
        f = random_weyl(r, 2)
        assert weyl_mul(f, WeylElement.monomial(2, (0, 0), (0, 0))) == f
        assert weyl_mul(WeylElement.monomial(2, (0, 0), (0, 0)), f) == f


def test_mul_associative_randomized():
    r = rng(11)
    for _ in range(25):
        f = random_weyl(r, 2, 2, 2)
        g = random_weyl(r, 2, 2, 2)
        h = random_weyl(r, 2, 2, 2)
        assert weyl_mul(weyl_mul(f, g), h) == weyl_mul(f, weyl_mul(g, h))


def _shift_case(r, d: int, mode: str, prefixed: bool):
    """(db, terms) with each term's a zero ("none"), nonzero ("all") or random
    ("some") where db is nonzero; keys start with a component if prefixed."""
    db = (0,) * d if mode == "zero" else tuple(r.randint(0, 2) for _ in range(d))
    terms = {}
    for _ in range(r.randint(1, 4)):
        a = tuple(0 if y and mode == "none" else r.randint(1 if y and mode == "all" else 0, 3)
                  for y in db)
        b = tuple(r.randint(0, 3) for _ in range(d))
        terms[(r.randrange(2),) * prefixed + (a, b)] = r.choice((-1, 1)) * r.randint(1, 9)
    return db, terms


def test_weyl_shift_into_against_one_variable_products():
    # the oracle multiplies one variable at a time by d_i x_i = x_i d_i + 1;
    # out is pre-filled with some cancelling and some unrelated terms; the
    # shift reports every key it added, and no key that was there before, and
    # a cancelled term stays in out at 0
    r = rng(12)
    seen = set()
    for _ in range(400):
        d, mode = r.randint(1, 3), r.choice(("zero", "none", "some", "all"))
        prefixed = r.random() < 0.5
        db, terms = _shift_case(r, d, mode, prefixed)
        da = tuple(r.randint(0, 2) for _ in range(d))
        c = r.choice((-3, -1, 1, 2, Fraction(1, 2)))
        full = terms if prefixed else {(0,) + k: v for k, v in terms.items()}
        expected = {k[1 - prefixed:]: c * v
                    for k, v in weyl_left_mul_monomial(full, da, db).items()}
        out = {k: -v for k, v in expected.items() if r.random() < 0.4}
        out[(0,) * prefixed + ((9,) * d, (9,) * d)] = 1
        want = dict(out)
        for k, v in expected.items():
            want[k] = want.get(k, 0) + v
        want = {k: v for k, v in want.items() if v}
        seen.add(("cancelled", len(want) < len(out)))
        before = set(out)
        added = weyl_shift_into(out, shift_items(terms), c, da, db)
        assert {k: v for k, v in out.items() if v} == want
        assert len(added) == len(set(added)) and not before & set(added)
        assert out.keys() == before | set(added)
        seen.add(("added", bool(added)))
        hot = [i for i, y in enumerate(db) if y]
        for key in terms:
            overlap = sum(1 for i in hot if key[-2][i])
            seen.add((prefixed, "none" if not overlap else
                      "all" if overlap == len(hot) else "some"))
        if mode == "zero":
            seen.add(("zero", prefixed))
    assert {("cancelled", True), ("zero", True), ("zero", False), ("added", True)} <= seen
    assert {(p, o) for p in (True, False) for o in ("none", "some", "all")} <= seen


def test_weyl_shift_into_by_zero_leaves_out_unchanged():
    r = rng(13)
    for _ in range(20):
        db, terms = _shift_case(r, 2, "some", True)
        out = {(0, (1, 0), (0, 1)): 5, (1, (0, 0), (2, 0)): -2}
        assert weyl_shift_into(out, shift_items(terms), 0, (1, 1), db) == []
        assert out == {(0, (1, 0), (0, 1)): 5, (1, (0, 0), (2, 0)): -2}


def test_weyl_shift_into_reports_by_the_state_before_the_call():
    # d * (x d + 1) = x d^2 + d + d: the term d comes from both items. Where
    # out holds -d, the first item cancels it and the second brings it back;
    # it was there before and is not reported. Where out holds nothing, it is
    # reported once
    items = shift_items({((1,), (1,)): 1, ((0,), (0,)): 1})
    out = {((0,), (1,)): -1}
    assert weyl_shift_into(out, items, 1, (0,), (1,)) == [((1,), (2,))]
    assert out == {((0,), (1,)): 1, ((1,), (2,)): 1}
    out = {}
    assert sorted(weyl_shift_into(out, items, 1, (0,), (1,))) == [((0,), (1,)), ((1,), (2,))]
    assert out == {((0,), (1,)): 2, ((1,), (2,)): 1}
    # a term there before that cancels stays at 0 and is not reported
    out = {((0,), (1,)): -2}
    assert weyl_shift_into(out, items, 1, (0,), (1,)) == [((1,), (2,))]
    assert out == {((0,), (1,)): 0, ((1,), (2,)): 1}
    # d * (x d - 1) = x d^2: a term added and cancelled within the call is
    # reported and stays at 0
    out = {}
    added = weyl_shift_into(out, shift_items({((1,), (1,)): 1, ((0,), (0,)): -1}),
                            1, (0,), (1,))
    assert sorted(added) == [((0,), (1,)), ((1,), (2,))]
    assert out == {((0,), (1,)): 0, ((1,), (2,)): 1}


def test_degree_multiplicative():
    gd = grading(fan_p1())
    r = rng(12)
    group = gd.class_group
    from helpers import random_homogeneous_weyl
    for _ in range(20):
        f = random_homogeneous_weyl(r, gd)
        g = random_homogeneous_weyl(r, gd)
        fg = weyl_mul(f, g)
        if fg.is_zero():
            continue
        assert weyl_degree(gd, fg) == group.add(weyl_degree(gd, f), weyl_degree(gd, g))


def test_theta_form_examples():
    assert to_theta_form(W("x1*d1", 1)) == {(0,): {(1,): Fraction(1)}}
    assert to_theta_form(W("x1^2*d1", 1)) == {(1,): {(1,): Fraction(1)}}


def test_theta_form_falling_factorial_r3():
    # x^3 d^3 collapses to theta (theta - 1) (theta - 2)
    tf = to_theta_form(W("x1^3*d1^3", 1))
    expected = tp_linear(1, 0, 0)
    from toric_dmod.weyl import tp_mul
    expected = tp_mul(expected, tp_linear(1, 0, -1))
    expected = tp_mul(expected, tp_linear(1, 0, -2))
    assert tf == {(0,): expected}


def test_x_r_d_r_product_identity():
    for r in range(1, 7):
        lhs = WeylElement.monomial(1, (r,), (r,))
        rhs = WeylElement.monomial(1, (0,), (0,))
        for j in range(1, r + 1):
            rhs = weyl_mul(rhs, WeylElement.monomial(1, (1,), (1,))
                           + WeylElement.monomial(1, (0,), (0,)).scale(-(j - 1)))
        assert lhs == rhs


def test_theta_roundtrip_randomized():
    r = rng(13)
    for _ in range(30):
        f = random_weyl(r, 2, 3, 3)
        assert from_theta_form(2, to_theta_form(f)) == f


def test_theta_dict_to_weyl_against_repeated_products():
    # theta^e by repeated Weyl products with theta_i, for every exponent
    # vector with entries at most 6 and d at most 3
    r = rng(19)
    for d in (1, 2, 3):
        one = WeylElement.monomial(d, (0,) * d, (0,) * d)
        powers = []
        for i in range(d):
            unit = tuple(int(k == i) for k in range(d))
            row = [one]
            for _ in range(6):
                row.append(weyl_mul(row[-1], WeylElement.monomial(d, unit, unit)))
            powers.append(row)
        expected = {}
        for e in product(range(7), repeat=d):
            term = one
            for row, k in zip(powers, e):
                term = weyl_mul(term, row[k])
            expected[e] = term
            assert theta_dict_to_weyl(d, {e: Fraction(1)}) == term, e
        for _ in range(10):
            w = {e: Fraction(r.randint(-4, 4), r.randint(1, 3))
                 for e in r.sample(sorted(expected), 3)}
            total = WeylElement.zero(d)
            for e, c in w.items():
                total = total + expected[e].scale(c)
            assert theta_dict_to_weyl(d, w) == total
        assert theta_dict_to_weyl(d, {}) == WeylElement.zero(d)
        const = {(0,) * d: Fraction(-5, 3)}
        assert theta_dict_to_weyl(d, const) == one.scale(Fraction(-5, 3))


def test_act_examples():
    d1 = W("d1", 1)
    assert act(d1, {(3,): Fraction(1)}) == {(2,): Fraction(3)}
    theta1 = W("x1*d1")
    assert act(theta1, {(4, 2): Fraction(1)}) == {(4, 2): Fraction(4)}
    g = {(1, -2): Fraction(1, 2)}
    assert act(WeylElement.monomial(2, (0, 0), (0, 0)), g) == g


def test_act_on_localization():
    # d2 acting where x2 is inverted
    assert act(W("d2"), {(0, -1): Fraction(1)}) == {(0, -2): Fraction(-1)}


def test_act_is_ring_action():
    # x1 keeps nonnegative exponents, x2 is inverted
    r = rng(14)
    for _ in range(20):
        f = random_weyl(r, 2, 2, 2)
        g = random_weyl(r, 2, 2, 2)
        h = {(r.randint(0, 2), r.randint(-2, 2)): Fraction(r.randint(-3, 3))
             for _ in range(2)}
        out = act(weyl_mul(f, g), h)
        assert out == act(f, act(g, h))
        assert all(e[0] >= 0 for e in out)


def test_tau_examples():
    assert tau(W("x1*d1")) == W("-x1*d1 - 1")
    assert tau(W("x1")) == W("x1")
    gd = grading(fan_p1())
    theta_u = W("x1*d1 + x2*d2")
    assert gd.e_bar[0] == 2
    assert tau(theta_u) == W("-x1*d1 - x2*d2 - 2")


def test_tau_theta_u_formula_all_fans():
    from toric_dmod.fan_cox import euler_operators
    for fan in (fan_p1(), fan_p1p1()):
        gd = grading(fan)
        for j, th in enumerate(euler_operators(gd)):
            one = WeylElement.monomial(gd.d, (0,) * gd.d, (0,) * gd.d)
            assert tau(th) == (-th) - one.scale(gd.e_bar[j])


def test_tau_is_antiautomorphism_and_involution():
    r = rng(15)
    for _ in range(20):
        f = random_weyl(r, 2, 2, 2)
        g = random_weyl(r, 2, 2, 2)
        assert tau(weyl_mul(f, g)) == weyl_mul(tau(g), tau(f))
        assert tau(tau(f)) == f


def test_variable_product_absorbs_eigenvector_shift():
    # x^e x^(a+) d^(a-) equals x^((a+e)+) d^((a+e)-) prod_{a_i<0} (theta_i + a_i + 1)
    r = rng(18)
    d = 2
    e_mon = WeylElement.monomial(d, (1,) * d, (0,) * d)
    for _ in range(25):
        a = tuple(r.randint(-3, 3) for _ in range(d))
        ap = tuple(max(x, 0) for x in a)
        am = tuple(max(-x, 0) for x in a)
        lhs = weyl_mul(e_mon, WeylElement.monomial(d, ap, am))
        shifted = tuple(x + 1 for x in a)
        sp = tuple(max(x, 0) for x in shifted)
        sm = tuple(max(-x, 0) for x in shifted)
        rhs = WeylElement.monomial(d, sp, sm)
        for i in range(d):
            if a[i] < 0:
                unit = tuple(int(k == i) for k in range(d))
                rhs = weyl_mul(rhs, WeylElement.monomial(d, unit, unit)
                               + WeylElement.monomial(d, (0,) * d, (0,) * d, a[i] + 1))
        assert lhs == rhs, a


def test_parse_format_roundtrip():
    r = rng(16)
    for _ in range(25):
        f = random_weyl(r, 3, 3, 4)
        assert parse_weyl(format_weyl(f), 3) == f


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_weyl("x1 +* d2", 2)
    with pytest.raises(ParseError):
        parse_weyl("y1", 2)
    with pytest.raises(ParseError):
        parse_weyl("x3", 2)
    with pytest.raises(ParseError):
        parse_weyl("", 2)


def test_parse_caps_the_degree_of_a_term():
    # the cap is on a term's exponent sum: repeated factors count too
    assert parse_weyl("x1^100*d1^100 + x2^200", 2) == W("x1^100*d1^100") + W("x2^200")
    for text in ("x1^201", "x1^100*d1^101", "x1^150*x1^51", "1 + d2^99999999999"):
        with pytest.raises(ParseError):
            parse_weyl(text, 2)


def test_weyl_degree_inhomogeneous_raises():
    gd = grading(fan_p1())
    with pytest.raises(InhomogeneousInput):
        weyl_degree(gd, W("x1 + x1*d1"))


def test_canonical_equality():
    f = W("x1*d1 + 1/2")
    g = W("1/2 + x1*d1")
    assert f == g and hash(f) == hash(g)
    assert W("x1 - x1", 1).is_zero()


def test_linear_product_per_ray_matches_the_per_factor_loop():
    # the product of the factors of each ray, combined once, against the
    # former loop over the whole product one factor at a time: one to four
    # variables, several rays, integer, rational and repeated roots, and no
    # factor at all
    r = rng(32)
    roots = [0, 1, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    cases = [(d, []) for d in range(1, 5)]
    cases += [(2, [(0, 1), (0, 1), (1, Fraction(1, 2)), (1, Fraction(1, 2))]),
              (3, [(2, m) for m in range(6)] + [(0, Fraction(-2, 3))]),
              # (theta - 1)(theta + 1) = theta^2 - 1 drops the middle term
              (1, [(0, 1), (0, -1)])]
    for _ in range(300):
        d = r.randint(1, 4)
        factors = [(r.randrange(d), r.choice(roots)) for _ in range(r.randint(0, 8))]
        cases.append((d, factors))
    for d, factors in cases:
        got = tp_linear_product(d, factors)
        assert got == linear_product_per_factor(d, factors), (d, factors)
        assert all(len(e) == d for e in got)
        assert all(isinstance(c, Fraction) and c for c in got.values())
    assert tp_linear_product(2, []) == {(0, 0): Fraction(1)}
    assert tp_linear_product(1, [(0, 1), (0, -1)]) == {(2,): Fraction(1), (0,): Fraction(-1)}
