"""The Smith form against the closure-based reference it replaced: the same
pivot rule and operations must give an equal decomposition, U and V included,
since the class group, the cone coordinates and the goldens are read off them."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import (cone_rays, fan_faces, fan_p2, fan_p3, rng,  # noqa: E402
                     smith_normal_form_by_closures, star_subdivided_fans)
from toric_dmod.lattice import smith_normal_form  # noqa: E402


@st.composite
def matrices(draw):
    """Up to 6 x 6 with entries in [-9, 9]; some rows and columns zeroed."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = draw(st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, 5), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, 5), max_size=3))
    return tuple(tuple(0 if i in zero_rows or j in zero_cols else x
                       for j, x in enumerate(row))
                 for i, row in enumerate(entries))


@settings(max_examples=400)
@given(matrices())
def test_smith_form_matches_the_reference(m):
    assert smith_normal_form(m) == smith_normal_form_by_closures(m)


@pytest.mark.parametrize("start,steps,salt", [(fan_p2, 12, 31), (fan_p3, 6, 32)])
def test_smith_form_matches_the_reference_on_star_subdivisions(start, steps, salt):
    # every cone of each fan and its whole d x n ray matrix
    for fan in star_subdivided_fans(rng(salt), start(), steps):
        for m in [fan.rays] + [cone_rays(fan, c) for c in fan_faces(fan) if c]:
            assert smith_normal_form(m) == smith_normal_form_by_closures(m)
