"""groebner.regular_monomial on drawn ideals: where the leading ideal proves
a monomial x^m regular modulo J, J : x^m^infinity is J, and so is the
saturation at any monomial ideal holding x^m; on a monomial ideal, which is
its own leading ideal, the test is exact."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from toric_dmod.groebner import (Poly, PolyRing, groebner_basis,  # noqa: E402
                                 regular_monomial, saturation, saturation_by_monomials)

RING = PolyRing(("x1", "x2", "x3"))
EXPONENTS = st.tuples(*[st.integers(0, 2)] * RING.nvars)
POLYS = st.dictionaries(EXPONENTS, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)


@given(st.lists(POLYS, min_size=1, max_size=3), st.lists(EXPONENTS, min_size=1, max_size=2))
def test_a_proved_regular_monomial_leaves_the_ideal_saturated(gens, monomials):
    gb = groebner_basis([Poly(RING, terms) for terms in gens], RING)
    if regular_monomial(gb, monomials):
        assert saturation_by_monomials(gb, monomials, RING) == gb
        assert any(saturation(gb, Poly.monomial(RING, m), RING) == gb for m in monomials)


@given(st.lists(EXPONENTS, min_size=1, max_size=4), EXPONENTS)
def test_on_a_monomial_ideal_the_test_is_exact(gens, m):
    # J : x^m = J iff J : x^m^infinity = J, as J lies in one and the other
    # in it; for a monomial ideal the leading ideal is J itself
    gb = groebner_basis([Poly.monomial(RING, e) for e in gens], RING)
    assert regular_monomial(gb, [m]) == (saturation(gb, Poly.monomial(RING, m), RING) == gb)
