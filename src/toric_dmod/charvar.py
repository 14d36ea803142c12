"""Characteristic ideals, dimension theory and cotangent chart computations.

The reported ideal is Ann of the associated graded module (not its radical);
dimension, saturation and torsion tests are insensitive to the difference.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import sub

from .errors import PreconditionViolated
from .fan_cox import GradingData, irrelevant_ideal
from .groebner import (EMPTY_DIM, Poly, PolyRing, annihilator_of_graded_quotient,
                       basis_dimension, groebner_basis, ideal_contains,
                       initial_forms, is_unit_ideal, radical_membership,
                       regular_monomial, saturation, saturation_by_monomials)
from .dmod import GradedPresentation, check_theta_condition, require_chart_cone

ZERO_SHEAF = "zero sheaf"


def s_prime_ring(grading: GradingData) -> PolyRing:
    """gr(A) = k[x_1..x_d, xi_1..xi_d], built on each call: a ring is its
    names. x^e xi^f has the class project(e - f) (t_invariance_check)."""
    d = grading.d
    return PolyRing(tuple(f"x{i + 1}" for i in range(d)) +
                    tuple(f"xi{i + 1}" for i in range(d)))


def z_ideal(grading: GradingData) -> tuple[Poly, ...]:
    """Generators of the ideal of the common characteristic variety of the
    twisted modules."""
    ring = s_prime_ring(grading)
    d = grading.d
    gens = []
    for u in grading.dual_basis:
        terms = {}
        for i, c in enumerate(u):
            if c:
                e = [0] * (2 * d)
                e[i] = 1
                e[d + i] = 1
                terms[tuple(e)] = Fraction(c)
        gens.append(Poly(ring, terms))
    return tuple(gens)


def characteristic_ideal(grading: GradingData, pres: GradedPresentation) -> list[Poly]:
    """Reduced GB of Ann_{S'}(gr F) for the generator-induced good filtration."""
    ring = s_prime_ring(grading)
    init = initial_forms(pres.relation_gb())
    return annihilator_of_graded_quotient(init, ring, pres.rank)


def t_invariance_check(gens: list[Poly], grading: GradingData) -> bool:
    """Whether every generator in S' is class-group homogeneous (torus
    invariance): the term x^e xi^f has the class project(e - f), the class
    of x^e d^f in A (dmod.weyl_degree)."""
    project, d = grading.class_group.project, grading.d
    for g in gens:
        if len({project(tuple(map(sub, e[:d], e[d:]))) for e in g.terms}) > 1:
            return False
    return True


def _require_theta(pres: GradedPresentation):
    ok, cert = check_theta_condition(pres)
    if not ok:
        raise PreconditionViolated(
            f"theta condition fails at generator {cert[0]}, u = u{cert[1]}")


def verify_char_containment(grading: GradingData, pres: GradedPresentation) -> bool:
    """Every generator of the Z ideal lies in the radical of Ann(gr F)."""
    _require_theta(pres)
    ring = s_prime_ring(grading)
    j = characteristic_ideal(grading, pres)
    return all(radical_membership(p, j, ring) for p in z_ideal(grading))


class CharReport:
    """What dimension_report finds; charts are the ChartIdeals of J, one per
    maximal cone. It has no __slots__: the saturated ideal is a
    cached_property, kept in the instance's __dict__."""

    def __init__(self, char_ideal: list[Poly], dim, torsion: bool, sheaf_dim,
                 holonomic_module: bool, holonomic_sheaf: bool,
                 charts: tuple[ChartIdeal, ...] | None, saturate):
        self.char_ideal = char_ideal
        self.dim = dim                      # int or "empty"
        self.torsion = torsion
        self.sheaf_dim = sheaf_dim          # int or "zero sheaf"
        self.holonomic_module = holonomic_module
        self.holonomic_sheaf = holonomic_sheaf
        # one chart per maximal cone; None when some maximal cone is not a chart
        self.charts = charts
        # () -> J : b^infinity, computed when saturated is first read
        self._saturate = saturate

    @cached_property
    def saturated(self) -> list[Poly]:
        return self._saturate()


class ChartIdeal:
    """The image of an ideal in the chart ring at a cone, and its dimension.
    Charts compare by value; as their lists make them unhashable, they do
    not hash."""

    __slots__ = ("cone", "image_ideal", "dimension")

    def __init__(self, cone: tuple[int, ...], image_ideal: list[Poly], dimension):
        self.cone = cone
        self.image_ideal = image_ideal
        self.dimension = dimension              # int or EMPTY_DIM

    def __eq__(self, other):
        if other.__class__ is not ChartIdeal:
            return NotImplemented
        return (self.cone, self.image_ideal, self.dimension) == \
            (other.cone, other.image_ideal, other.dimension)


def chart_ring(grading: GradingData) -> PolyRing:
    """k[t1..tn, u1..ud], the chart ring at every smooth full-dimensional
    cone (chart_generators), built on each call: a ring is its names."""
    return PolyRing(tuple(f"t{j + 1}" for j in range(grading.n)) +
                    tuple(f"u{i + 1}" for i in range(grading.d)))


def chart_generators(grading: GradingData, cone) -> list[tuple[tuple[int, ...], ...]]:
    """The (x, xi) exponents of the chart generators t_1..t_n, u_1..u_d.

    The invariant subalgebra of the cotangent ring localized at x^(sigma-hat)
    is generated by t_j = x^(iota(m_j)), m_j the dual basis of the cone rays
    (the cone's coordinate rows in Fan.cone_data), and u_i = x^(s_i) xi_i,
    s_i the section of deg(x_i) with zero cone exponents: e_i - iota(m_j)
    when i is the j-th ray of the cone and e_i otherwise. It is unique, as
    iota(p) vanishes on the n cone rays only for p = 0."""
    cone = require_chart_cone(grading, cone)
    d = grading.d
    units = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    t_exponents = [grading.iota_of(m) for m in grading.fan.cone_data(cone).coordinates]
    sections = list(units)
    for i, t in zip(cone, t_exponents):
        sections[i] = tuple(map(sub, units[i], t))
    return [(t, (0,) * d) for t in t_exponents] + list(zip(sections, units))


def _chart_generators(ring: PolyRing, cone, gens: list[Poly]) -> list[Poly]:
    """Each class-homogeneous generator g in the chart ring at cone: g with
    x_i set to 1 for every ray i off the cone (Cox's dehomogenisation), so
    the term x^e xi^f goes to t^(e on the cone) u^f.

    That is g / x^s, s the section of deg(g) with zero cone exponents: a
    monomial of a given degree is fixed by its cone exponents and its
    xi-part, and t^p u^f has cone exponents p, xi-part f and degree 0. So
    distinct terms stay distinct. Every caller passes homogeneous
    generators: J and the reduced bases of homogeneous ideals are
    homogeneous, and certify_saturation checks a candidate first."""
    d = ring.nvars - len(cone)
    return [Poly(ring, {tuple(e[i] for i in cone) + e[d:]: c
                        for e, c in g.terms.items()}) for g in gens]


def chart_ideal_from_saturated(grading: GradingData, saturated: list[Poly],
                               cone) -> ChartIdeal:
    """The chart of (saturated) at a smooth full-dimensional maximal cone:
    the reduced basis of the degree-zero part of its localization at
    x^(sigma-hat), in chart_ring, with its dimension. J and J : b^infinity
    have the same charts, so J may stand for its saturation.

    The chart ring is a polynomial ring (its generator monomials have
    linearly independent exponent vectors), so the rewritten generators
    alone generate the image."""
    cone = require_chart_cone(grading, cone)
    ring = chart_ring(grading)
    image = groebner_basis(_chart_generators(ring, cone, saturated), ring)
    return ChartIdeal(cone, image, basis_dimension(image, ring))


def generic_irrelevant_element(b_gens, ring: PolyRing) -> Poly:
    """f = sum of c_k x^(sigma-hat_k) with the fixed coefficients c_k = k + 1.

    By prime avoidance a general element of b lies in no associated prime of
    J that does not contain b, and then J : f^infinity = J : b^infinity.
    """
    return Poly(ring, {m: k + 1 for k, m in enumerate(sorted(b_gens))})


def certify_saturation(grading: GradingData, charts, candidate) -> bool:
    """Whether candidate, an ideal containing J : b^infinity, equals it.

    charts are the charts of J, one per maximal cone (report.charts). At a
    smooth full-dimensional cone the localization of a homogeneous ideal at
    x^(sigma-hat) is fixed by its degree-zero part, and J : b^infinity is the
    intersection of those localizations with S'. So a homogeneous candidate
    with the chart images of J on every maximal cone is J : b^infinity. As
    the candidate contains J, its chart images contain those of J, and
    equality holds when its rewritten generators reduce to zero modulo them.
    The rewrite is a dehomogenisation (_chart_generators), so the candidate
    is checked class-homogeneous first.
    """
    if not t_invariance_check(candidate, grading):
        return False
    ring = chart_ring(grading)
    return all(ideal_contains(chart.image_ideal, _chart_generators(ring, chart.cone, candidate))
               for chart in charts)


def dimension_report(grading: GradingData, pres: GradedPresentation) -> CharReport:
    """Dimensions of J = Ann(gr F) and of its saturation at the irrelevant
    ideal b, with the chart ideals of the saturation.

    When every maximal cone is full-dimensional, each chart is
    chart_ideal_from_saturated of J, as J and J : b^infinity have the same
    charts (a cone that is not smooth, possible only on an unvalidated
    GradingData, is NonSmoothCone), and the charts decide the rest:
    the module is b-torsion iff every image is (1), and sheaf_dim is the
    largest chart dimension (J : b^infinity has no component inside V(b),
    and on each chart it is a (d - n)-dimensional torus bundle over the
    image). The saturation is computed when report.saturated is first
    read. It is J itself when regular_monomial proves some generator
    x^(sigma-hat) of b a nonzerodivisor modulo J from J's leading ideal
    (J : x^(sigma-hat) = J, and J : b^infinity lies between J and
    J : x^(sigma-hat)^infinity); then nothing is eliminated. Otherwise it
    is J : f^infinity for one generic f in b, accepted when
    certify_saturation holds, and otherwise saturation_by_monomials. When
    some maximal cone is not a chart, saturation_by_monomials is the
    saturation, computed at once. Reduced bases are
    canonical, so no output depends on the coefficients of f or on the
    route taken.

    holonomic_module is dim == d, so the zero A-module (dim "empty") is not
    holonomic; holonomic_sheaf is not torsion and sheaf_dim == n, so neither
    is a b-torsion module, whose sheaf is zero. The usual definition counts
    0 as holonomic (Coutinho 1995, ch. 10); this one does not.
    """
    _require_theta(pres)
    ring = s_prime_ring(grading)
    d, n = grading.d, grading.n
    j = characteristic_ideal(grading, pres)
    dim = basis_dimension(j, ring)
    b_gens = [g + (0,) * d for g in irrelevant_ideal(grading.fan)]
    cones = grading.fan.max_cones
    if any(len(cone) != n for cone in cones):
        saturated = saturation_by_monomials(j, b_gens, ring)
        charts = None
        dims = [] if is_unit_ideal(saturated) else \
            [basis_dimension(saturated, ring) - (d - n)]

        def saturate():
            return saturated
    else:
        charts = tuple(chart_ideal_from_saturated(grading, j, cone) for cone in cones)
        dims = [chart.dimension for chart in charts if chart.dimension != EMPTY_DIM]

        def saturate():
            if regular_monomial(j, b_gens):
                return j
            candidate = saturation(j, generic_irrelevant_element(b_gens, ring), ring)
            # J is contained in J : b^infinity, so a candidate equal to J is it
            if candidate == j or certify_saturation(grading, charts, candidate):
                return candidate
            return saturation_by_monomials(j, b_gens, ring)
    # no dimension: every chart image, or the saturation, is (1)
    torsion = not dims
    sheaf_dim = max(dims) if dims else ZERO_SHEAF
    holonomic_module = dim == d
    holonomic_sheaf = (not torsion) and sheaf_dim == n
    return CharReport(j, dim, torsion, sheaf_dim, holonomic_module, holonomic_sheaf,
                      charts, saturate)
