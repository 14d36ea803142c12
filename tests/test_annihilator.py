"""The rank-one characteristic ideal as the inter-reduced initial forms of
the filtered relation basis, against a Groebner basis built from those
forms (SST 2000, Thm 1.1.6: the forms are already a basis)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import all_fixture_fans, grading, random_presentation  # noqa: E402
from toric_dmod.charvar import s_prime_ring  # noqa: E402
from toric_dmod.dmod import left_right_swap  # noqa: E402
from toric_dmod.groebner import (Poly, annihilator_of_graded_quotient,  # noqa: E402
                                 groebner_basis, initial_forms)

GRADINGS = [grading(fan) for _, fan in all_fixture_fans()]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GRADINGS), st.booleans(), st.randoms(use_true_random=False))
def test_rank_one_annihilator_is_the_inter_reduced_initial_forms(gd, right, r):
    pres = random_presentation(r, gd, 1)
    if right:
        pres = left_right_swap(pres)
    ring = s_prime_ring(gd)
    forms = initial_forms(pres.relation_gb())
    polys = [Poly(ring, {e: c for (_, e), c in v.items()}) for v in forms]
    ann = annihilator_of_graded_quotient(forms, ring, 1)
    assert [g.terms for g in ann] == [g.terms for g in groebner_basis(polys, ring)]
