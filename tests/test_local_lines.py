"""The local action checks one box line at a time against the per-point
reference (helpers.actions_hold_per_point), and how often each factor's
action runs."""

from unittest import mock

import pytest

from helpers import (actions_hold_per_point, all_fixture_fans, fan_p1, fan_p2,
                     fan_faces, grading)
from toric_dmod import dmod
from toric_dmod.dmod import (factored_local_action_holds, h_p, local_radius,
                             verify_local_action)
from toric_dmod.weyl import tp_add, tp_mul

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

FIXTURES = [(grading(fan), sorted(fan_faces(fan), key=lambda c: (len(c), c)))
            for _, fan in all_fixture_fans()]

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def local_cases(draw):
    """A fixture fan, any of its cones (the zero cone, rays and non-maximal
    cones included), a point p and a radius at least local_radius(p)."""
    gd, faces = draw(st.sampled_from(FIXTURES))
    cone = draw(st.sampled_from(faces))
    p = tuple(draw(st.lists(st.integers(-2, 2), min_size=gd.n, max_size=gd.n)))
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


def _counting_applies(monkeypatch):
    """Wrap dmod.numerator_action so that each action it returns counts its
    applications in its own slot of the returned list."""
    counts = []
    real = dmod.numerator_action

    def counted(f):
        den, apply = real(f)
        slot = len(counts)
        counts.append(0)

        def wrapped(g):
            counts[slot] += 1
            return apply(g)
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
    counts = _counting_applies(monkeypatch)
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
    at = (1, 1, -2)
    identity = [(1, dict)]
    cases = [(1, lambda iq: 1, True),
             (1, lambda iq: 1 + (iq == at), False),
             # a value that is not an integer multiple at that point only
             (2, lambda iq: 2 + (iq == at), False)]
    for value_den, value_at, verdict in cases:
        assert actions_hold_per_point(gd, cone, p, identity, value_den, value_at,
                                      radius) is verdict
        assert dmod._actions_hold(gd, cone, p, identity, value_den, value_at,
                                  radius) is verdict
