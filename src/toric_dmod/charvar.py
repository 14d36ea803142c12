"""Characteristic ideals, dimension theory and cotangent chart computations.

The reported ideal is Ann of the associated graded module (not its radical);
dimension, saturation and torsion tests are insensitive to the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (ChartRewriteError, ConeNotMaximal, ConeNotSmooth,
                     PreconditionViolated)
from .fan_cox import GradingData, irrelevant_ideal
from .groebner import (EMPTY_DIM, Poly, PolyRing, annihilator_of_graded_quotient,
                       basis_dimension, format_poly, groebner_basis, ideal_contains,
                       initial_forms, is_unit_ideal, radical_membership,
                       saturation, saturation_by_monomials, toric_ideal)
from .dmod import (GradedPresentation, check_theta_condition,
                   require_full_smooth_cone)
from .lattice import IntMatrix, integer_rref

ZERO_SHEAF = "zero sheaf"


def s_prime_ring(grading: GradingData) -> PolyRing:
    """gr(A) = k[x_1..x_d, xi_1..xi_d] with deg x_i = e_i = -deg xi_i."""
    d = grading.d
    names = tuple(f"x{i + 1}" for i in range(d)) + tuple(f"xi{i + 1}" for i in range(d))
    group = grading.class_group
    degrees = tuple(grading.degree_x(i) for i in range(d)) + \
        tuple(group.neg(grading.degree_x(i)) for i in range(d))
    return PolyRing(names, degrees, group)


@dataclass(frozen=True)
class ZIdeal:
    generators: tuple[Poly, ...]


def z_ideal(grading: GradingData) -> ZIdeal:
    """The ideal of the common characteristic variety of the twisted modules."""
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
    return ZIdeal(tuple(gens))


def characteristic_ideal(grading: GradingData, pres: GradedPresentation) -> list[Poly]:
    """Reduced GB of Ann_{S'}(gr F) for the generator-induced good filtration."""
    ring = s_prime_ring(grading)
    gb = pres.relation_gb()
    if not gb:
        return []
    init = initial_forms(gb, ring, pres.rank)
    return annihilator_of_graded_quotient(init, ring, pres.rank)


def t_invariance_check(gens: list[Poly], ring: PolyRing) -> bool:
    """Whether every generator is class-group homogeneous (torus invariance)."""
    for g in gens:
        degs = {ring.term_degree(e) for e in g.terms}
        if len(degs) > 1:
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
    return all(radical_membership(p, j, ring) for p in z_ideal(grading).generators)


@dataclass
class ChartIdeal:
    cone: tuple[int, ...]
    ring: PolyRing
    generator_monomials: list[tuple[str, tuple[int, ...], tuple[int, ...]]]
    presentation_ideal: list[Poly]
    image_ideal: list[Poly]
    dimension: object
    window: str


@dataclass
class CharReport:
    char_ideal: list[Poly]
    dim: object                # int or "empty"
    saturated: list[Poly]
    torsion: bool
    sheaf_dim: object          # int or "zero sheaf"
    holonomic_module: bool
    holonomic_sheaf: bool
    # one chart per maximal cone; None when some maximal cone is not a chart
    charts: tuple[ChartIdeal, ...] | None


def _unimodular_inverse(mat: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix: the reduced form of [M | I] is [I | M^-1]."""
    n = mat.rows
    rows, pivots = integer_rref([row + tuple(int(k == i) for k in range(n))
                                 for i, row in enumerate(mat.entries)])
    if pivots != list(range(n)) or any(row[i] != 1 for i, row in enumerate(rows)):
        raise ChartRewriteError("cone rays are not a lattice basis")
    return IntMatrix.from_rows([row[n:] for row in rows])


def _section_off_cone(grading: GradingData, cone, dual_rows, cls) -> tuple[int, ...]:
    """Representative of cls with zero exponents on the cone rays."""
    a0 = grading.class_group.section(cls)
    p = [0] * grading.n
    for j, i in enumerate(cone):
        coeff = -a0[i]
        if coeff:
            for ell in range(grading.n):
                p[ell] += coeff * dual_rows[j][ell]
    shift = grading.iota_of(tuple(p))
    a = tuple(x + y for x, y in zip(a0, shift))
    for i in cone:
        if a[i] != 0:
            raise ChartRewriteError("section does not vanish on the cone rays")
    return a


@dataclass(frozen=True)
class ChartFrame:
    """What the chart rewrite at one cone needs, built once per cone and report.

    The invariant subalgebra of the localized cotangent ring is generated by
    the torus chart coordinates t_j = x^(iota(m_j)), m_j the dual basis of the
    cone rays, and, for each i, the degree-zero monomial u_i carrying xi_i;
    the assignment is the linear section with zero exponents on the cone rays.
    """

    cone: tuple[int, ...]
    ring: PolyRing
    dual_rows: tuple[tuple[int, ...], ...]     # m_j
    t_exponents: tuple[tuple[int, ...], ...]   # iota(m_j)
    u_sections: tuple[tuple[int, ...], ...]    # x-exponents of u_i / xi_i
    generator_monomials: list[tuple[str, tuple[int, ...], tuple[int, ...]]]
    presentation: list[Poly]


def chart_frame(grading: GradingData, cone) -> ChartFrame:
    cone = require_full_smooth_cone(grading, cone)
    d, n = grading.d, grading.n
    inv = _unimodular_inverse(grading.fan.ray_matrix(cone))
    # dual_rows[j] is m_j, the dual basis of the cone rays (column j of inv)
    dual_rows = tuple(tuple(inv[i, j] for i in range(n)) for j in range(n))
    names = tuple(f"t{j + 1}" for j in range(n)) + tuple(f"u{i + 1}" for i in range(d))
    t_exponents = tuple(grading.iota_of(m) for m in dual_rows)
    u_sections = tuple(_section_off_cone(grading, cone, dual_rows, grading.degree_x(i))
                       for i in range(d))
    gen_monomials = []
    for j in range(n):
        gen_monomials.append((names[j], t_exponents[j], (0,) * d))
    for i in range(d):
        gen_monomials.append((names[n + i], u_sections[i],
                              tuple(1 if k == i else 0 for k in range(d))))
    chart_ring = PolyRing(names)
    presentation = toric_ideal([tuple(xe) + xie for _, xe, xie in gen_monomials],
                               chart_ring)
    return ChartFrame(cone, chart_ring, dual_rows, t_exponents, u_sections,
                      gen_monomials, presentation)


def chart_frames(grading: GradingData) -> list[ChartFrame] | None:
    """One frame per maximal cone, or None when some maximal cone is not
    full-dimensional and smooth."""
    try:
        return [chart_frame(grading, cone) for cone in grading.fan.max_cones]
    except (ConeNotMaximal, ConeNotSmooth):
        return None


def _chart_generators(grading: GradingData, frame: ChartFrame,
                      gens: list[Poly]) -> list[Poly]:
    """Each generator g of a homogeneous ideal as g / x^(a_g) in the chart
    ring of frame, a_g the section of its degree.

    The rewrite closes exactly when every term has the degree of a_g: the
    residual has no cone exponents, so it is zero iff its class is."""
    sring = s_prime_ring(grading)
    d, cone = grading.d, frame.cone
    sections: dict = {}
    out = []
    for g in gens:
        cls = sring.term_degree(next(iter(g.terms)))
        a_g = sections.get(cls)
        if a_g is None:
            a_g = sections[cls] = _section_off_cone(grading, cone, frame.dual_rows, cls)
        terms = {}
        for e, c in g.terms.items():
            xexp = [e[k] - a_g[k] for k in range(d)]
            xiexp = e[d:]
            p = tuple(xexp[i] for i in cone)
            for pj, shift in zip(p, frame.t_exponents):
                if pj:
                    for k in range(d):
                        xexp[k] -= pj * shift[k]
            for fi, section in zip(xiexp, frame.u_sections):
                if fi:
                    for k in range(d):
                        xexp[k] -= fi * section[k]
            if any(xexp):
                if not t_invariance_check([g], sring):
                    raise PreconditionViolated("ideal has an inhomogeneous generator")
                raise ChartRewriteError("chart rewrite failed to close")
            if any(x < 0 for x in p):
                raise ChartRewriteError("negative torus exponent in chart rewrite")
            terms[p + xiexp] = c
        out.append(Poly(frame.ring, terms))
    return out


def chart_image(grading: GradingData, frame: ChartFrame, gens: list[Poly]) -> list[Poly]:
    """Reduced basis of the degree-zero part of the localization of the
    homogeneous ideal (gens) at x^(sigma-hat), in the chart ring of frame."""
    return groebner_basis(_chart_generators(grading, frame, gens) + frame.presentation,
                          frame.ring)


def _chart(frame: ChartFrame, image: list[Poly]) -> ChartIdeal:
    window = ("degree-zero monomials via the linear section with zero exponents "
              "on rays " + ",".join(str(i + 1) for i in frame.cone))
    return ChartIdeal(frame.cone, frame.ring, frame.generator_monomials,
                      frame.presentation, image, basis_dimension(image, frame.ring),
                      window)


def chart_ideal_from_saturated(grading: GradingData, saturated: list[Poly],
                               cone) -> ChartIdeal:
    """Degree-zero chart presentation of (saturated) on one cone."""
    frame = chart_frame(grading, cone)
    return _chart(frame, chart_image(grading, frame, saturated))


def generic_irrelevant_element(b_gens, ring: PolyRing) -> Poly:
    """f = sum of c_k x^(sigma-hat_k) with the fixed coefficients c_k = k + 1.

    By prime avoidance a general element of b lies in no associated prime of
    J that does not contain b, and then J : f^infinity = J : b^infinity.
    """
    return Poly(ring, {m: k + 1 for k, m in enumerate(sorted(b_gens))})


def certify_saturation(grading: GradingData, frames, j_images, candidate) -> bool:
    """Whether candidate, an ideal containing J : b^infinity, equals it.

    j_images are the chart images of J in frames, one per maximal cone. At a
    smooth full-dimensional cone the localization of a homogeneous ideal at
    x^(sigma-hat) is fixed by its degree-zero part, and J : b^infinity is the
    intersection of those localizations with S'. So a homogeneous candidate
    with the chart images of J on every maximal cone is J : b^infinity. As
    the candidate contains J, its chart images contain those of J, and
    equality holds when its rewritten generators reduce to zero modulo them.
    """
    if not t_invariance_check(candidate, s_prime_ring(grading)):
        return False
    return all(ideal_contains(image, _chart_generators(grading, frame, candidate))
               for frame, image in zip(frames, j_images))


def dimension_report(grading: GradingData, pres: GradedPresentation) -> CharReport:
    """Dimensions of J = Ann(gr F) and of its saturation at the irrelevant
    ideal b, with the chart ideals of the saturation.

    The saturation is J : f^infinity for one generic f in b, accepted when
    certify_saturation holds; otherwise, and whenever some maximal cone is not
    a chart, it is saturation_by_monomials. An accepted saturation has the
    charts of J. Reduced bases are canonical, so no output depends on the
    coefficients of f.
    """
    _require_theta(pres)
    ring = s_prime_ring(grading)
    d, n = grading.d, grading.n
    j = characteristic_ideal(grading, pres)
    dim = basis_dimension(j, ring)
    b_gens = [g + (0,) * d for g in irrelevant_ideal(grading.fan).generators]
    frames = chart_frames(grading)
    saturated = None
    if frames:
        images = [chart_image(grading, frame, j) for frame in frames]
        candidate = saturation(j, generic_irrelevant_element(b_gens, ring), ring)
        # J is contained in J : b^infinity, so a candidate equal to J is it
        if candidate == j or certify_saturation(grading, frames, images, candidate):
            saturated = candidate
    if saturated is None:
        saturated = saturation_by_monomials(j, b_gens, ring)
        if frames is not None:
            images = [chart_image(grading, frame, saturated) for frame in frames]
    charts = None if frames is None else \
        tuple(_chart(frame, image) for frame, image in zip(frames, images))
    torsion = is_unit_ideal(saturated)
    if torsion:
        sheaf_dim = ZERO_SHEAF
    else:
        sheaf_dim = basis_dimension(saturated, ring) - (d - n)
    holonomic_module = dim == d
    holonomic_sheaf = (not torsion) and sheaf_dim == n
    return CharReport(j, dim, saturated, torsion, sheaf_dim,
                      holonomic_module, holonomic_sheaf, charts)


def chart_ideal(grading: GradingData, report: CharReport, cone) -> ChartIdeal:
    """The chart of a report's saturated characteristic variety on one cone."""
    cone = require_full_smooth_cone(grading, cone)
    if report.charts is None:
        return chart_ideal_from_saturated(grading, report.saturated, cone)
    return next(chart for chart in report.charts if chart.cone == cone)


def verify_quotient_dimension(grading: GradingData, pres: GradedPresentation) -> bool:
    """Chart-based sheaf dimension agrees with the saturation-based one."""
    report = dimension_report(grading, pres)
    if report.torsion:
        raise PreconditionViolated("module is irrelevant-ideal torsion")
    dims = [chart.dimension for chart in
            (chart_ideal(grading, report, cone) for cone in grading.fan.max_cones)
            if chart.dimension != EMPTY_DIM]
    if not dims:
        return False
    chart_dim = max(dims)
    expected = report.dim - (grading.d - grading.n)
    return chart_dim == expected and chart_dim == report.sheaf_dim


def ideal_str(gens) -> str:
    """An ideal as its sorted generator list, "(0)" when there is none."""
    if not gens:
        return "(0)"
    return "(" + ", ".join(sorted(format_poly(g) for g in gens)) + ")"


def render_report(report: CharReport) -> list[tuple[str, str]]:
    """Key/value lines for the CLI; ideals as sorted generator lists."""

    def yn(flag):
        return "yes" if flag else "no"

    return [
        ("char-ideal", ideal_str(report.char_ideal)),
        ("dim", str(report.dim)),
        ("saturated", ideal_str(report.saturated)),
        ("torsion", yn(report.torsion)),
        ("sheaf-dim", str(report.sheaf_dim)),
        ("holonomic-module", yn(report.holonomic_module)),
        ("holonomic-sheaf", yn(report.holonomic_sheaf)),
    ]
