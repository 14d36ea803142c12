"""Membership answered at the first irreducible term, against the full
normal forms: `GradedPresentation.contains_relation` (through
`weyl_contains` and the presentation's prepared relation basis) against
`weyl_normal_form`, and `ideal_contains` against `normal_form`. Queries
mix members, members plus a small perturbation (a non-member whose lead is
often reducible) and random rows."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# the test bodies keep the name _random_presentation: derandomized draws are
# keyed on a test's source
from helpers import all_fixture_fans, grading, random_weyl  # noqa: E402
from helpers import random_presentation as _random_presentation  # noqa: E402
from toric_dmod.dmod import left_right_swap  # noqa: E402
from toric_dmod.groebner import (Poly, PolyRing, groebner_basis,  # noqa: E402
                                 ideal_contains, normal_form, weyl_normal_form)
from toric_dmod.weyl import WeylElement, tau, weyl_mul  # noqa: E402

GRADINGS = [grading(fan) for _, fan in all_fixture_fans()]


def _queries(r: random.Random, gb, rank: int, d: int) -> list:
    """Left-form rows: members, members plus one random term, random rows."""
    out = []
    for _ in range(3):
        member = [WeylElement.zero(d)] * rank
        for g in r.sample(gb, min(2, len(gb))):
            h = random_weyl(r, d, 1, 2)
            member = [m + weyl_mul(h, e) for m, e in zip(member, g)]
        out.append(tuple(member))
        bumped = list(member)
        bumped[r.randrange(rank)] += random_weyl(r, d, 2, 1)
        out.append(tuple(bumped))
        out.append(tuple(random_weyl(r, d, 2, 2) for _ in range(rank)))
    return out


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GRADINGS), st.integers(1, 2), st.booleans(),
       st.randoms(use_true_random=False))
def test_contains_relation_is_a_zero_weyl_normal_form(gd, rank, right, r):
    pres = _random_presentation(r, gd, rank)
    if right:
        pres = left_right_swap(pres)
    gb = pres.relation_gb()
    for left_form in _queries(r, gb, rank, gd.d):
        row = tuple(map(tau, left_form)) if right else left_form
        expected = all(e.is_zero() for e in weyl_normal_form(left_form, gb))
        assert pres.contains_relation(row) is expected


RING = PolyRing(("x", "y", "z"))
rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), rationals,
                        max_size=3).map(lambda t: Poly(RING, t))


@settings(max_examples=60, deadline=None)
@given(st.lists(polys, min_size=1, max_size=3), st.lists(polys, max_size=3),
       st.lists(polys, max_size=3), polys)
def test_ideal_contains_is_every_normal_form_zero(gens, cofactors, others, last):
    gb = groebner_basis(gens, RING)
    members = [c * g for c, g in zip(cofactors, gb)]
    for queries in (members, members + [last], members + others + [last], others):
        expected = all(normal_form(f, gb).is_zero() for f in queries)
        assert ideal_contains(gb, queries) is expected
    # only the last one can fail
    assert ideal_contains(gb, members + [last]) is normal_form(last, gb).is_zero()
