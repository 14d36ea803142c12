"""The common-denominator kernel against independent oracles.

Products, substitutions and products of linear factors are compared with
sympy's expansion, evaluation with term-by-term Fraction arithmetic and
sympy's substitution, and the action kernel on Laurent polynomials with
sympy's derivatives and the falling-factorial definition. Coefficients are rational
with unequal denominators, so a lost or wrongly scaled common denominator
shows.
"""

import pathlib
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, strategies as st  # noqa: E402

from helpers import fraction_eval  # noqa: E402
from toric_dmod import cli, dmod, weyl  # noqa: E402
from toric_dmod.fan_cox import grading_data  # noqa: E402
from toric_dmod.weyl import (WeylElement, act, numerator_action,  # noqa: E402
                             tp_add, tp_divide_linear_product, tp_eval,
                             tp_format, tp_linear_product, tp_mul,
                             tp_numerator_evaluator, tp_numerators, tp_subst)

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
nonzero = rationals.filter(bool)


def polys(nvars: int, exps=st.integers(0, 3), max_terms: int = 5):
    return st.dictionaries(st.tuples(*[exps] * nvars), nonzero, max_size=max_terms)


def to_sympy(p: dict, syms):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[s ** k for s, k in zip(syms, e)])
                for e, c in p.items()), sympy.Integer(0))


def same(p: dict, expr, syms) -> bool:
    return sympy.expand(to_sympy(p, syms) - expr) == 0


@st.composite
def poly_pairs(draw):
    d = draw(st.integers(1, 3))
    return d, draw(polys(d)), draw(polys(d))


@given(poly_pairs())
def test_tp_mul_matches_sympy(case):
    d, p, q = case
    syms = sympy.symbols(f"t1:{d + 1}")
    out = tp_mul(p, q)
    assert all(isinstance(c, Fraction) and c for c in out.values())
    assert same(out, sympy.expand(to_sympy(p, syms) * to_sympy(q, syms)), syms)


@st.composite
def substitutions(draw):
    d, d_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p = draw(polys(d, st.integers(0, 4)))
    images = [draw(polys(d_out, st.integers(0, 2), 3)) for _ in range(d)]
    return d, d_out, p, images


@given(substitutions())
def test_tp_subst_matches_sympy(case):
    d, d_out, p, images = case
    src = sympy.symbols(f"t1:{d + 1}")
    dst = sympy.symbols(f"v1:{d_out + 1}")
    expected = to_sympy(p, src).xreplace(
        {s: to_sympy(im, dst) for s, im in zip(src, images)})
    assert same(tp_subst(p, images, d_out), sympy.expand(expected), dst)


points = st.one_of(st.integers(-4, 4).map(Fraction), rationals)


@st.composite
def evaluations(draw):
    d = draw(st.integers(1, 3))
    p = draw(polys(d, st.integers(0, 4)))
    integral = draw(st.booleans())
    coords = st.integers(-4, 4) if integral else points
    return p, draw(st.lists(coords, min_size=d, max_size=d))


@given(evaluations())
def test_tp_eval_matches_fraction_evaluation(case):
    p, point = case
    value = tp_eval(p, point)
    assert isinstance(value, Fraction)
    assert value == fraction_eval(p, point)



@st.composite
def linear_factors(draw):
    d = draw(st.integers(1, 3))
    roots = st.one_of(st.integers(-5, 5), rationals)
    return d, draw(st.lists(st.tuples(st.integers(0, d - 1), roots), max_size=6))


@given(linear_factors())
def test_tp_linear_product_matches_sympy(case):
    d, factors = case
    syms = sympy.symbols(f"t1:{d + 1}")
    expected = sympy.Mul(*[syms[i] - sympy.Rational(Fraction(m).numerator,
                                                    Fraction(m).denominator)
                           for i, m in factors])
    assert same(tp_linear_product(d, factors), sympy.expand(expected), syms)


@given(linear_factors(), st.data())
def test_tp_divide_linear_product_undoes_the_product(case, data):
    # w * prod (theta_i - m) divides back to w, rational roots r/s included;
    # a nonzero constant added to a product of degree >= 1 makes it not divide
    d, factors = case
    w = data.draw(polys(d))
    product = tp_linear_product(d, factors)
    multiple = tp_mul(w, product)
    assert tp_divide_linear_product(multiple, factors) == w
    if factors:
        shifted = tp_add(multiple, {(0,) * d: data.draw(nonzero)})
        assert tp_divide_linear_product(shifted, factors) is None


@given(linear_factors(), st.data())
def test_tp_divide_linear_product_quotient_multiplies_back(case, data):
    # on arbitrary input: a quotient times the product is the input
    d, factors = case
    w = data.draw(polys(d))
    quot = tp_divide_linear_product(w, factors)
    if quot is not None:
        assert all(isinstance(c, Fraction) and c for c in quot.values())
        assert tp_mul(quot, tp_linear_product(d, factors)) == w


def test_tp_divide_linear_product_rational_roots():
    # 3 (t1 - 2/3)(t1 + 1/2) t2 / (t1 - 2/3) = 3 (t1 + 1/2) t2
    w = tp_mul(tp_linear_product(2, [(0, Fraction(2, 3)), (0, Fraction(-1, 2))]),
               {(0, 1): Fraction(3)})
    assert tp_divide_linear_product(w, [(0, Fraction(2, 3))]) == \
        {(1, 1): Fraction(3), (0, 1): Fraction(3, 2)}
    assert tp_divide_linear_product(w, [(0, Fraction(2, 3)), (0, Fraction(-1, 2)),
                                        (1, 0)]) == {(0, 0): Fraction(3)}
    assert tp_divide_linear_product(w, [(0, Fraction(1, 3))]) is None
    assert tp_divide_linear_product(w, [(1, 1)]) is None
    assert tp_divide_linear_product({}, [(0, 5)]) == {}


@given(evaluations().filter(lambda case: all(isinstance(x, int) for x in case[1])))
def test_tp_numerator_evaluator_is_the_scaled_value(case):
    # at integer points the value over the common denominator is an int
    p, point = case
    den, at = tp_numerator_evaluator(p)
    assert den == tp_numerators(p)[0]
    value = at(point)
    assert isinstance(value, int) and value == den * fraction_eval(p, point)


def test_horner_evaluator_edge_cases():
    # the nested Horner scheme against the direct sum of c t^e: the empty
    # polynomial, a constant, the rank-0 key, gaps in the degrees (of the
    # first variable, of a later one, and a variable that never occurs) at
    # zero and negative coordinates, with unequal denominators
    gaps = {(5, 0, 0): Fraction(1, 2), (2, 0, 3): Fraction(-3, 4),
            (0, 0, 7): Fraction(2, 3), (0, 0, 0): Fraction(1)}
    cases = [({}, [(0, 0), (3, -2)]),
             ({(0, 0): Fraction(-7, 3)}, [(0, 0), (5, -4)]),
             ({(): Fraction(5, 2)}, [()]),
             (gaps, [(0, 0, 0), (-1, 9, 2), (3, -5, -1), (-2, 0, -3)]),
             ({(0, 4): Fraction(1, 6), (0, 1): Fraction(-1, 4)}, [(7, -3), (0, 0)])]
    for p, points in cases:
        den, at = tp_numerator_evaluator(p)
        assert den == tp_numerators(p)[0]
        for t in points:
            value = at(t)
            assert isinstance(value, int) and value == den * fraction_eval(p, t), (p, t)
    den, at = tp_numerator_evaluator({})
    assert den == 1 and at((4, -4)) == 0


@given(st.integers(0, 4).flatmap(
    lambda d: st.tuples(polys(d, st.integers(0, 9), 8),
                        st.lists(st.integers(-5, 5), min_size=d, max_size=d))))
def test_horner_evaluator_matches_the_direct_sum(case):
    # sparse polynomials of high degree, so most degrees are gaps
    p, point = case
    den, at = tp_numerator_evaluator(p)
    assert at(point) == den * fraction_eval(p, point)


def test_tp_eval_at_rational_points_is_pinned():
    # the homogenised Horner evaluation against Fraction arithmetic written
    # out: (1/2) t1^5 - (3/4) t1^2 t2^3 + 2/3 at (-2/3, 5/7)
    p = {(5, 0): Fraction(1, 2), (2, 3): Fraction(-3, 4), (0, 0): Fraction(2, 3)}
    t1, t2 = Fraction(-2, 3), Fraction(5, 7)
    expected = Fraction(1, 2) * t1 ** 5 - Fraction(3, 4) * t1 ** 2 * t2 ** 3 + Fraction(2, 3)
    assert tp_eval(p, (t1, t2)) == expected
    assert tp_eval(p, (0, Fraction(-1, 3))) == Fraction(2, 3)
    assert tp_eval({(): Fraction(-5, 2)}, ()) == Fraction(-5, 2)


@st.composite
def actions(draw):
    d = draw(st.integers(1, 2))
    mono = st.tuples(*[st.integers(0, 2)] * d)
    f = draw(st.dictionaries(st.tuples(mono, mono), nonzero, min_size=1, max_size=4))
    g = draw(polys(d, st.integers(-3, 3), 4))
    return d, f, g


@given(actions())
def test_act_matches_sympy_derivatives(case):
    # the kernel over its denominators, and act, which returns through it
    d, f, g = case
    xs = sympy.symbols(f"x1:{d + 1}")
    gx = to_sympy(g, xs)
    expected = sympy.Integer(0)
    for (a, b), c in f.items():
        deriv = gx
        for x, k in zip(xs, b):
            deriv = sympy.diff(deriv, x, k)
        expected += (sympy.Rational(c.numerator, c.denominator)
                     * sympy.Mul(*[x ** k for x, k in zip(xs, a)]) * deriv)
    df, apply = numerator_action(WeylElement(d, f))
    dg, ng = tp_numerators(g)
    nums = apply(ng)
    assert all(isinstance(c, int) and c for c in nums.values())
    out = {e: Fraction(c, df * dg) for e, c in nums.items()}
    assert act(WeylElement(d, f), g) == out
    assert same(out, sympy.expand(expected), xs)


@st.composite
def action_chains(draw):
    d = draw(st.integers(1, 2))
    mono = st.tuples(*[st.integers(0, 2)] * d)
    ops = draw(st.lists(st.dictionaries(st.tuples(mono, mono), nonzero, max_size=3),
                        min_size=1, max_size=4))
    g = draw(polys(d, st.integers(-3, 3), 3))
    return d, ops, g


@given(action_chains())
def test_composed_numerator_actions_match_repeated_act(case):
    # the local oracles compose numerator actions on integer dicts and scale
    # by the product of the denominators at the end
    d, ops, g = case
    dg, cur = tp_numerators(g)
    den = dg
    for f in ops:
        df, apply = numerator_action(WeylElement(d, f))
        cur = apply(cur)
        den *= df
        assert all(isinstance(c, int) and c for c in cur.values())
    expected = g
    for f in ops:
        expected = act(WeylElement(d, f), expected)
        assert all(isinstance(c, Fraction) and c for c in expected.values())
    assert {e: Fraction(c, den) for e, c in cur.items()} == expected


def test_act_keeps_the_mask():
    # x1 has nonnegative exponents in g and keeps them: d1^2 kills x1 and 1,
    # so no negative x1 exponent appears
    f = WeylElement(1, {((0,), (2,)): Fraction(1, 2)})
    g = {(1,): Fraction(3), (0,): Fraction(1, 5), (3,): Fraction(2, 7)}
    assert act(f, g) == {(1,): Fraction(6, 7)}


def test_tp_numerators_is_the_least_common_denominator():
    p = {(0,): Fraction(1, 6), (1,): Fraction(-3, 4), (2,): Fraction(5)}
    assert tp_numerators(p) == (12, {(0,): 2, (1,): -9, (2,): 60})
    assert tp_numerators({}) == (1, {})


@st.composite
def point_batches(draw):
    d = draw(st.integers(1, 3))
    p = draw(polys(d, st.integers(0, 4)))
    batch = st.lists(st.one_of(st.integers(-4, 4), rationals), min_size=d, max_size=d)
    return d, p, draw(st.lists(batch, min_size=1, max_size=4))


@given(point_batches())
def test_tp_eval_matches_sympy(case):
    d, p, batch = case
    syms = sympy.symbols(f"t1:{d + 1}")
    expr = to_sympy(p, syms)
    for point in batch:
        value = tp_eval(p, point)
        expected = expr.xreplace({s: sympy.Rational(Fraction(x).numerator,
                                                    Fraction(x).denominator)
                                  for s, x in zip(syms, point)})
        assert isinstance(value, Fraction)
        assert sympy.Rational(value.numerator, value.denominator) == expected


def test_tp_eval_mixed_denominators_and_zero():
    p = {(2, 0): Fraction(1, 6), (0, 1): Fraction(-3, 4), (0, 0): Fraction(5)}
    # (1/6)(2/3)^2 - (3/4)(-5/7) + 5 = 2/27 + 15/28 + 5
    assert tp_eval(p, (Fraction(2, 3), Fraction(-5, 7))) == \
        Fraction(2, 27) + Fraction(15, 28) + 5
    assert tp_eval(p, (3, 0)) == Fraction(1, 6) * 9 + 5
    assert tp_eval({}, (Fraction(1, 2), 7)) == 0 and isinstance(tp_eval({}, (1, 1)), Fraction)


def falling_factorial_action(f: dict, mask, g: dict) -> dict:
    """f . g term by term: x^a d^b . x^e = prod_i e_i (e_i - 1) ...
    (e_i - b_i + 1) x^(e - b + a), in plain Fraction arithmetic."""
    out: dict = {}
    for (a, b), cf in f.items():
        for e, cg in g.items():
            c = cf * cg
            for ei, bi in zip(e, b):
                for j in range(bi):
                    c *= ei - j
            if c:
                key = tuple(ei - bi + ai for ei, bi, ai in zip(e, b, a))
                out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


@st.composite
def action_batches(draw):
    d = draw(st.integers(1, 2))
    mono = st.tuples(*[st.integers(0, 3)] * d)
    f = draw(st.dictionaries(st.tuples(mono, mono), nonzero, max_size=4))
    mask = tuple(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    exps = st.tuples(*[st.integers(-3, 3) if m else st.integers(0, 3) for m in mask])
    gs = draw(st.lists(st.dictionaries(exps, nonzero, max_size=4), min_size=1, max_size=3))
    return d, f, mask, gs


@given(action_batches())
def test_numerator_action_matches_falling_factorials(case):
    # one prepared action serves every operand; a variable with nonnegative
    # exponents in g keeps them in f . g, and zero operators and killed
    # terms give zero
    d, f, mask, gs = case
    df, apply = numerator_action(WeylElement(d, f))
    for g in gs:
        dg, ng = tp_numerators(g)
        nums = apply(ng)
        assert all(isinstance(c, int) and c for c in nums.values())
        assert all(e[i] >= 0 for e in nums for i in range(d) if not mask[i])
        out = {e: Fraction(c, df * dg) for e, c in nums.items()}
        assert out == falling_factorial_action(f, mask, g)


@st.composite
def mixed_actions(draw):
    """An operator with diagonal terms x^a d^a and shifted terms x^a d^b,
    a != b, both present (b_i up to 3), and operands with negative
    exponents in every variable."""
    d = draw(st.integers(1, 2))
    mono = st.tuples(*[st.integers(0, 3)] * d)
    diagonal = draw(st.dictionaries(mono, nonzero, min_size=1, max_size=3))
    shifted = draw(st.dictionaries(st.tuples(mono, mono).filter(lambda ab: ab[0] != ab[1]),
                                   nonzero, min_size=1, max_size=3))
    f = {(a, a): c for a, c in diagonal.items()}
    f.update(shifted)
    exps = st.tuples(*[st.integers(-3, 3)] * d)
    gs = draw(st.lists(st.dictionaries(exps, nonzero, max_size=4), min_size=1, max_size=3))
    return d, f, gs


@given(mixed_actions())
def test_numerator_action_on_mixed_elements(case):
    # the summed diagonal terms and the shifted terms write into one output
    d, f, gs = case
    df, apply = numerator_action(WeylElement(d, f))
    for g in gs:
        dg, ng = tp_numerators(g)
        nums = apply(ng)
        assert all(isinstance(c, int) and c for c in nums.values())
        out = {e: Fraction(c, df * dg) for e, c in nums.items()}
        assert out == falling_factorial_action(f, (True,) * d, g)


def test_numerator_action_zero_results():
    df, d1sq = numerator_action(WeylElement(1, {((0,), (2,)): Fraction(1, 2)}))
    assert df == 2
    assert d1sq({(1,): 15, (0,): 1}) == {}
    # theta - 2 kills x^2 and scales x^-1 by -3
    _, theta_2 = numerator_action(WeylElement(1, {((1,), (1,)): Fraction(1),
                                                  ((0,), (0,)): Fraction(-2)}))
    assert theta_2({(2,): 4}) == {}
    assert theta_2({(-1,): 1}) == {(-1,): -3}
    assert numerator_action(WeylElement(2, {}))[1]({(1, -1): 2}) == {}
    # theta1 + x1 on 2 x1^2 - 4 x1: theta1 gives 4 x1^2 - 4 x1, x1 gives
    # 2 x1^3 - 4 x1^2, and the x1^2 terms cancel across the two paths
    _, mixed = numerator_action(WeylElement(1, {((1,), (1,)): Fraction(1),
                                                ((1,), (0,)): Fraction(1)}))
    assert mixed({(2,): 2, (1,): -4}) == {(3,): 2, (1,): -4}
    # x1^2 d1^2 + 3 d1^2 - x1 d1^3 on x1: every term kills it, on both paths
    f = WeylElement(1, {((2,), (2,)): Fraction(1), ((0,), (2,)): Fraction(3),
                        ((1,), (3,)): Fraction(-1)})
    df, apply = numerator_action(f)
    assert apply({(1,): 5}) == {}
    # on x1^-1 the diagonal sum is ff(-1, 2) = 2, d1^2 gives 3 ff(-1, 2)
    # x1^-3 = 6 x1^-3 and x1 d1^3 gives -ff(-1, 3) x1^-3 = 6 x1^-3
    assert apply({(-1,): 1}) == {(-1,): 2, (-3,): 12}
    for g in ({(1,): Fraction(5)}, {(-1,): Fraction(1)}, {(2,): Fraction(1, 3)}):
        dg, ng = tp_numerators(g)
        assert {e: Fraction(c, df * dg) for e, c in apply(ng).items()} == \
            falling_factorial_action(f.terms, (True,), g)
    # a diagonal sum that vanishes: x1^2 d1^2 - 2 at e = 2 and e = -1,
    # next to a shifted term that does not
    _, vanishing = numerator_action(WeylElement(1, {((2,), (2,)): Fraction(1),
                                                    ((0,), (0,)): Fraction(-2),
                                                    ((0,), (1,)): Fraction(1)}))
    assert vanishing({(2,): 1, (-1,): 1}) == {(1,): 2, (-2,): -1}


def test_act_zero_results_and_rank_mismatch():
    d1sq = WeylElement(1, {((0,), (2,)): Fraction(1, 2)})
    assert act(d1sq, {(1,): Fraction(3), (0,): Fraction(1, 5)}) == {}
    assert act(WeylElement(2, {}), {(1, -1): Fraction(2)}) == {}
    # an exponent of another length would be cut short, not rejected, by
    # the kernel
    with pytest.raises(ValueError, match="rank mismatch"):
        act(d1sq, {(1, 0): Fraction(1)})


def _count_numerators(monkeypatch, run) -> int:
    real = weyl.tp_numerators
    calls = []

    def counted(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(weyl, "tp_numerators", counted)
    run()
    monkeypatch.undo()
    return len(calls)


def test_local_oracles_prepare_their_operands_once(monkeypatch, capsys):
    # the y_p check evaluates one fixed polynomial at every box point: the
    # numerator count must not grow with the box (541 calls at the larger
    # point when each evaluation recomputed them); local --g divides g and
    # maps it once more, whatever the box
    fan = str(pathlib.Path(__file__).parent / "fixtures" / "p2.fan")
    gd = grading_data(cli.load_fan(fan))
    names = ["th1", "th2", "th3"]
    counts, g_counts = [], []
    for p in ("-2,-1", "-8,-2"):
        argv = ["local", fan, "--cone", "1,2", f"--p={p}"]
        counts.append(_count_numerators(monkeypatch, lambda: cli.main(argv)))
        assert "y_p-vanishing: AGREE" in capsys.readouterr().out
        hp, _ = dmod.h_p(gd, (0, 1), tuple(map(int, p.split(","))))
        g = tp_format(tp_mul(hp, {(0, 0, 1): Fraction(1)}), names)
        g_counts.append(_count_numerators(monkeypatch,
                                          lambda: cli.main(argv + ["--g", g])))
        out = capsys.readouterr().out
        assert "y_p-vanishing: AGREE" in out and "g-image: " in out
    assert counts[0] == counts[1] <= 13
    assert g_counts[0] == g_counts[1] <= counts[0] + 5


def test_factored_action_prepares_each_factor_once(monkeypatch):
    # the numerators of each factor's operator are taken once, not at every
    # box point: the count depends on the factors, not on the radius (per
    # factor, rho takes the factor's and one per ray image, and the action
    # one)
    fan = str(pathlib.Path(__file__).parent / "fixtures" / "p1p1.fan")
    gd = grading_data(cli.load_fan(fan))
    cone, p = (0, 2), (-3, -2)
    _, factors = dmod.h_p(gd, cone, p)
    counts = []
    for radius in (3, 9):
        results = []
        counts.append(_count_numerators(monkeypatch, lambda: results.append(
            dmod.factored_local_action_holds(gd, cone, p, factors, radius))))
        assert results == [True]
    assert counts[0] == counts[1] <= (gd.d + 2) * len(factors)
