"""The local box oracles against per-point references: the walk by box
lines and intervals (y_p_points, i_p_matches_y_p and the line-wise
_actions_hold) against helpers.box_points, a naive walk with every pairing
summed directly, and the one-pass j_p_oracle against the slab-by-slab scan
(helpers.j_p_oracle_per_slab); the line forms of the evaluator and of the
action against their point forms; and how often each factor's line form
and the evaluator of rho(h_p) run."""

from fractions import Fraction
from itertools import product
from unittest import mock

import pytest

import helpers
from helpers import (actions_hold_per_point, all_fixture_fans, box_points,
                     fan_faces, fan_hirzebruch1, fan_p1, fan_p1_cubed, fan_p1p1,
                     fan_p2, fan_p3, grading, i_p_evaluations_per_point,
                     j_p_oracle_per_slab, rng, star_subdivided_fans,
                     y_p_points_per_point)
from toric_dmod import dmod
from toric_dmod.dmod import (factored_local_action_holds, h_p, i_p_ideal,
                             i_p_matches_y_p, j_p_oracle, local_radius,
                             verify_local_action, y_p_points)
from toric_dmod.fan_cox import Fan
from toric_dmod.weyl import (WeylElement, numerator_action, theta_dict_to_weyl,
                             tp_add, tp_eval, tp_linear, tp_mul,
                             tp_numerator_evaluator)

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

FANS = ([fan for _, fan in all_fixture_fans()] + [fan_p3(), fan_p1_cubed()]
        + list(star_subdivided_fans(rng(29), fan_p2(), 3))
        + list(star_subdivided_fans(rng(24), fan_p3(), 2)))
FIXTURES = [(grading(fan), sorted(fan_faces(fan), key=lambda c: (len(c), c)))
            for fan in FANS]

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def local_cases(draw):
    """A fixture fan, P3, (P1)^3 or a star subdivision of P2 or P3, any of
    its cones (the zero cone, rays, non-maximal cones and rays with a zero
    last coordinate included), a point p and a radius local_radius(p) or
    one more. In dimension 3 p stays in [-1, 1]^3, which keeps the box of
    the per-point references small."""
    gd, faces = draw(st.sampled_from(FIXTURES))
    cone = draw(st.sampled_from(faces))
    bound = 2 if gd.n < 3 else 1
    p = tuple(draw(st.lists(st.integers(-bound, bound), min_size=gd.n, max_size=gd.n)))
    radius = local_radius(gd, p) + draw(st.integers(0, 1))
    return gd, cone, p, radius


def per_point(check, *args) -> bool:
    """The verdict of check with the per-point reference in place of the
    line-wise _actions_hold."""
    with mock.patch.object(dmod, "_actions_hold", actions_hold_per_point):
        return check(*args)


@given(local_cases(), st.data())
def test_factored_check_matches_the_per_point_reference(case, data):
    gd, cone, p, radius = case
    _, factors = h_p(gd, cone, p)
    kind = data.draw(st.sampled_from(("h_p", "shift", "drop", "extra")))
    if kind == "shift" and factors:
        k = data.draw(st.integers(0, len(factors) - 1))
        i, m = factors[k]
        factors = factors[:k] + [(i, m + data.draw(RATIONALS))] + factors[k + 1:]
    elif kind == "drop" and factors:
        factors = factors[1:]
    elif kind == "extra":
        i = data.draw(st.integers(0, gd.d - 1))
        factors = sorted(factors + [(i, data.draw(RATIONALS))])
    verdict = factored_local_action_holds(gd, cone, p, factors, radius)
    assert verdict == per_point(factored_local_action_holds, gd, cone, p, factors, radius)
    if kind == "h_p":
        assert verdict


@given(local_cases(), st.data())
def test_verify_local_action_matches_the_per_point_reference(case, data):
    gd, cone, p, radius = case
    hp, _ = h_p(gd, cone, p)
    j = data.draw(st.integers(0, gd.d - 1))
    unit = tuple(int(k == j) for k in range(gd.d))
    right = tp_mul(hp, {unit: data.draw(RATIONALS.filter(bool)),
                        (0,) * gd.d: data.draw(RATIONALS)})
    wrong = tp_add(right, {(0,) * gd.d: data.draw(RATIONALS.filter(bool))})
    for g in (right, wrong):
        verdict = verify_local_action(gd, cone, p, g, radius)
        assert verdict == per_point(verify_local_action, gd, cone, p, g, radius)
    assert verify_local_action(gd, cone, p, right, radius)


def _falling(x: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= x - j
    return out


LINE_FANS = [grading(fan()) for fan in (fan_p1, fan_p2, fan_p1p1, fan_hirzebruch1, fan_p3)]


@st.composite
def theta_polys(draw, n: int):
    """A nonzero theta-polynomial in n variables of degree at most 3 with
    rational coefficients: falling factorials of order 2 and 3 occur in
    the head and in the last variable."""
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    return draw(st.dictionaries(exps, RATIONALS.filter(bool), min_size=1, max_size=5))


@given(st.sampled_from(LINE_FANS), st.data())
def test_line_form_matches_the_per_point_reference(gd, data):
    # on P1, P2, P1 x P1, Hirzebruch 1 and P3 (heads of length 2): the line
    # form of a random theta-polynomial w, sum_k c_k ff(x, k), against its
    # action on each monomial of the box; and the check of w composed with
    # rho(h_p), against w(q) rho(h_p)(q) and a shifted value, against
    # actions_hold_per_point
    cone = data.draw(st.sampled_from(sorted(fan_faces(gd.fan))))
    bound = 2 if gd.n < 3 else 1
    p = tuple(data.draw(st.lists(st.integers(-bound, bound), min_size=gd.n,
                                 max_size=gd.n)))
    radius = local_radius(gd, p)
    w = data.draw(theta_polys(gd.n))
    den, apply = numerator_action(theta_dict_to_weyl(gd.n, w))
    xs = range(-radius, radius + 1)
    for head in product(xs, repeat=gd.n - 1):
        form = apply.line(head)
        assert all(isinstance(k, int) and isinstance(c, int) and c for k, c in form)
        for x in xs:
            q = head + (x,)
            eigenvalue = sum(c * _falling(x, k) for k, c in form)
            assert apply({q: 1}) == ({q: eigenvalue} if eigenvalue else {}), (w, q)
    ip = i_p_ideal(gd, cone, p)
    actions = [(den, apply), numerator_action(theta_dict_to_weyl(gd.n, ip))]
    (w_den, w_at), (ip_den, ip_at) = map(tp_numerator_evaluator, (w, ip))
    shift = data.draw(st.sampled_from((0, 0, 1, -2)))

    def value_line(head, partial, xs):
        return [a * b + shift for a, b in zip(map(w_at.line(head), xs),
                                             map(ip_at.line(head), xs))]
    args = (gd, cone, p, actions, w_den * ip_den, value_line, radius)
    verdict = dmod._actions_hold(*args)
    assert verdict == actions_hold_per_point(*args)
    assert verdict is (shift == 0)


def _counting_lines(monkeypatch):
    """Wrap dmod.numerator_action so that each action it returns counts the
    calls of its line form in its own slot of the returned list, and fails
    when it is applied to a dict."""
    counts = []
    real = dmod.numerator_action

    def counted(f):
        den, apply = real(f)
        slot = len(counts)
        counts.append(0)

        def wrapped(g):
            raise AssertionError("an action applied to a dict")

        def line(head):
            counts[slot] += 1
            return apply.line(head)
        wrapped.line = line
        return den, wrapped

    monkeypatch.setattr(dmod, "numerator_action", counted)
    return counts


@pytest.mark.parametrize("fan_fn,cone,p", [(fan_p1, (0,), (-3,)),
                                           (fan_p2, (0, 1), (-2, -1))])
def test_each_action_runs_once_per_box_line(monkeypatch, fan_fn, cone, p):
    gd = grading(fan_fn())
    hp, factors = h_p(gd, cone, p)
    radius = local_radius(gd, p) + 1
    lines = (2 * radius + 1) ** (gd.n - 1)
    counts = _counting_lines(monkeypatch)
    assert factored_local_action_holds(gd, cone, p, factors, radius)
    assert counts == [lines] * len(factors)
    counts.clear()
    assert verify_local_action(gd, cone, p, hp, radius)
    assert counts == [lines]


def test_line_check_fails_where_one_point_fails():
    # the identity action against values that are wrong at one box point
    # only, q = (1, 1) on P2's first chart, inside its line: the line check
    # must see it, as the per-point one does
    gd = grading(fan_p2())
    cone, p, radius = (0, 1), (0, 0), 3
    at = (1, 1)
    zero = (0,) * gd.n
    identity = [numerator_action(WeylElement.monomial(gd.n, zero, zero))]

    def values(value):
        return lambda head, partial, xs: [value(head + (x,)) for x in xs]
    cases = [(1, values(lambda q: 1), True),
             (1, values(lambda q: 1 + (q == at)), False),
             # a value that is not an integer multiple at that point only
             (2, values(lambda q: 2 + (q == at)), False)]
    for value_den, value_line, verdict in cases:
        assert actions_hold_per_point(gd, cone, p, identity, value_den, value_line,
                                      radius) is verdict
        assert dmod._actions_hold(gd, cone, p, identity, value_den, value_line,
                                  radius) is verdict


def _recording_evaluator():
    """Patch dmod.tp_numerator_evaluator so that the line forms of the
    evaluators it returns record every point they are called at, head +
    (x,), in the returned list."""
    seen = []

    def recorded(f):
        den, at = tp_numerator_evaluator(f)
        real_line = at.line

        def line(head):
            on_line = real_line(head)

            def wrapped(x):
                seen.append(tuple(head) + (x,))
                return on_line(x)
            return wrapped
        at.line = line
        return den, at
    return seen, mock.patch.object(dmod, "tp_numerator_evaluator", recorded)


@st.composite
def line_polys(draw):
    """n = 1, 2 or 3 and a ThetaDict in n variables with rational
    coefficients: any, the zero polynomial, a constant, or one in which the
    last variable does not occur."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("any", "zero", "constant", "no last")))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    p = draw(st.dictionaries(exps, RATIONALS.filter(bool), max_size=6))
    if kind == "zero":
        p = {}
    elif kind == "constant":
        p = {(0,) * n: draw(RATIONALS.filter(bool))}
    elif kind == "no last":
        p = {e[:-1] + (0,): c for e, c in p.items()}
    return n, p


@given(line_polys())
def test_line_form_matches_the_point_form(case):
    # line(t[:-1])(t[-1]) against the point evaluation and tp_eval at every
    # point of the box [-2, 2]^n, negative heads included
    n, p = case
    den, at = tp_numerator_evaluator(p)
    for head in product(range(-2, 3), repeat=n - 1):
        on_line = at.line(head)
        for x in range(-2, 3):
            t = head + (x,)
            value = on_line(x)
            assert isinstance(value, int)
            assert value == at(t) == den * tp_eval(p, t), (p, t)


@given(local_cases(), st.data())
def test_box_lines_match_the_per_point_walk(case, data):
    # y_p_points, and i_p_matches_y_p (in its box, of radius
    # 2 local_radius(p)) on rho(h_p), on rho(h_p) times one more linear
    # factor and on a constant: the same verdict, from evaluations at the
    # same points in the same order
    gd, cone, p, radius = case
    fan = gd.fan
    assert y_p_points(fan, cone, p, radius) == y_p_points_per_point(fan, cone, p, radius)
    ip = i_p_ideal(gd, cone, p)
    k = data.draw(st.integers(0, gd.n - 1))
    c = data.draw(st.integers(-2, 2))
    variants = [ip, tp_mul(ip, tp_linear(gd.n, k, data.draw(RATIONALS))),
                {(0,) * gd.n: Fraction(c)} if c else {}]
    seen, patch = _recording_evaluator()
    verdicts = []
    for g in variants:
        seen.clear()
        with patch:
            verdicts.append(i_p_matches_y_p(gd, cone, p, g))
        expected = i_p_evaluations_per_point(fan, cone, p, tp_numerator_evaluator(g)[1],
                                             2 * local_radius(gd, p))
        assert (verdicts[-1], seen) == expected
    assert verdicts[0]


def test_box_lines_where_a_last_coordinate_exceeds_one():
    # the floors and ceilings of the intervals only round where a cone ray
    # has |v[-1]| >= 2: every cone of such planar fans and of their mirror
    # images (v -> -v, the same steps with the other sign), every p in
    # [-2, 2]^2
    fans = [fan for fan in FANS if fan.n == 2 and max(abs(v[-1]) for v in fan.rays) > 1]
    assert fans
    fans += [Fan(2, [tuple(-x for x in v) for v in fan.rays], fan.max_cones)
             for fan in fans]
    for fan in fans:
        gd = grading(fan)
        for cone in fan_faces(fan):
            for p in product(range(-2, 3), repeat=2):
                radius = local_radius(gd, p)
                assert y_p_points(fan, cone, p, radius) == \
                    y_p_points_per_point(fan, cone, p, radius), (fan.rays, cone, p)


@pytest.mark.parametrize("fan_fn,cone,p", [(fan_p1, (0,), (-3,)),
                                           (fan_p2, (0, 1), (-2, -1)),
                                           (fan_p3, (0, 1, 2), (-1, 0, 1)),
                                           (fan_p3, (1, 3), (1, -1, 0))])
def test_rho_h_p_is_evaluated_once_per_dual_cone_point(fan_fn, cone, p):
    # at the radius of the local command, 2 local_radius(p): the count
    # comes from the per-point walk, and is below the box's
    gd = grading(fan_fn())
    radius = 2 * local_radius(gd, p)
    dual = sum(in_dual for _, _, in_dual, _ in box_points(gd.fan, cone, p, radius))
    seen, patch = _recording_evaluator()
    with patch:
        assert i_p_matches_y_p(gd, cone, p, i_p_ideal(gd, cone, p))
    assert len(seen) == len(set(seen)) == dual < (2 * radius + 1) ** gd.n


@given(local_cases(), st.integers(-3, 0))
def test_j_p_oracle_matches_the_slab_by_slab_scan(case, shift):
    # the same sorted factors as the scan of a box of radius local_radius(p)
    # or one more; and with both bounds taken away, the two scans of a box
    # too small for some slabs
    gd, cone, p, radius = case
    assert j_p_oracle(gd, cone, p) == j_p_oracle_per_slab(gd, cone, p, radius)
    small = max(0, radius + shift)
    with mock.patch.object(dmod, "local_radius", lambda gd, p: small), \
            mock.patch.object(helpers, "local_radius", lambda gd, p: 0):
        assert j_p_oracle(gd, cone, p) == j_p_oracle_per_slab(gd, cone, p, small)
