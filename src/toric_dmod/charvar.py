"""Characteristic ideals, dimension theory and cotangent chart computations.

The reported ideal is Ann of the associated graded module (not its radical);
dimension, saturation and torsion tests are insensitive to the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ChartRewriteError, PreconditionViolated
from .fan_cox import GradingData, irrelevant_ideal
from .groebner import (EMPTY_DIM, Poly, PolyRing, annihilator_of_graded_quotient,
                       format_poly, groebner_basis, initial_forms, krull_dimension,
                       radical_membership, saturation_by_monomials, toric_ideal)
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
class CharReport:
    char_ideal: list[Poly]
    dim: object                # int or "empty"
    saturated: list[Poly]
    torsion: bool
    sheaf_dim: object          # int or "zero sheaf"
    holonomic_module: bool
    holonomic_sheaf: bool


def dimension_report(grading: GradingData, pres: GradedPresentation) -> CharReport:
    _require_theta(pres)
    ring = s_prime_ring(grading)
    d, n = grading.d, grading.n
    j = characteristic_ideal(grading, pres)
    dim = krull_dimension(j, ring)
    b_gens = [g + (0,) * d for g in irrelevant_ideal(grading.fan).generators]
    saturated = saturation_by_monomials(j, b_gens, ring)
    torsion = any(not g.is_zero() and g.total_degree() == 0 for g in saturated)
    if torsion:
        sheaf_dim = ZERO_SHEAF
    else:
        sheaf_dim = krull_dimension(saturated, ring) - (d - n)
    holonomic_module = dim == d
    holonomic_sheaf = (not torsion) and sheaf_dim == n
    return CharReport(j, dim, saturated, torsion, sheaf_dim,
                      holonomic_module, holonomic_sheaf)


@dataclass
class ChartIdeal:
    cone: tuple[int, ...]
    ring: PolyRing
    generator_monomials: list[tuple[str, tuple[int, ...], tuple[int, ...]]]
    presentation_ideal: list[Poly]
    image_ideal: list[Poly]
    dimension: object
    window: str


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


def chart_ideal(grading: GradingData, pres: GradedPresentation, cone) -> ChartIdeal:
    """Degree-zero chart presentation of the saturated characteristic variety.

    The invariant subalgebra of the localized cotangent ring is generated by
    the torus chart coordinates t_l = x^(iota(m_l)) and, for each i, the
    degree-zero monomial u_i carrying xi_i; the assignment is the linear
    section with zero exponents on the cone rays.
    """
    cone = require_full_smooth_cone(grading, cone)
    report = dimension_report(grading, pres)
    return chart_ideal_from_saturated(grading, report.saturated, cone)


def chart_ideal_from_saturated(grading: GradingData, saturated: list[Poly],
                               cone) -> ChartIdeal:
    cone = require_full_smooth_cone(grading, cone)
    fan = grading.fan
    d, n = grading.d, grading.n
    inv = _unimodular_inverse(fan.ray_matrix(cone))
    dual_rows = [tuple(inv[i, j] for i in range(n)) for j in range(n)]
    # dual_rows[j] is m_j, the dual basis of the cone rays (column j of inv)
    names = tuple(f"t{j + 1}" for j in range(n)) + tuple(f"u{i + 1}" for i in range(d))
    chart_ring = PolyRing(names)
    gen_monomials = []
    exp_vectors = []
    for j in range(n):
        xexp = grading.iota_of(dual_rows[j])
        gen_monomials.append((names[j], xexp, (0,) * d))
        exp_vectors.append(tuple(xexp) + (0,) * d)
    u_sections = []
    for i in range(d):
        xexp = _section_off_cone(grading, cone, dual_rows, grading.degree_x(i))
        u_sections.append(xexp)
        xiexp = tuple(1 if k == i else 0 for k in range(d))
        gen_monomials.append((names[n + i], xexp, xiexp))
        exp_vectors.append(tuple(xexp) + xiexp)
    presentation = toric_ideal(exp_vectors, chart_ring)

    sring = s_prime_ring(grading)
    image_gens = []
    for g in saturated:
        degs = {sring.term_degree(e) for e in g.terms}
        if len(degs) != 1:
            raise PreconditionViolated("saturated ideal has an inhomogeneous generator")
        a_g = _section_off_cone(grading, cone, dual_rows, next(iter(degs)))
        terms = {}
        for e, c in g.terms.items():
            xexp = tuple(e[k] - a_g[k] for k in range(d))
            xiexp = tuple(e[d + k] for k in range(d))
            p = tuple(xexp[i] for i in cone)
            residual = list(xexp)
            for j in range(n):
                shift = grading.iota_of(dual_rows[j])
                for k in range(d):
                    residual[k] -= p[j] * shift[k]
            for i in range(d):
                for k in range(d):
                    residual[k] -= xiexp[i] * u_sections[i][k]
            if any(residual):
                raise ChartRewriteError("chart rewrite failed to close")
            if any(x < 0 for x in p):
                raise ChartRewriteError("negative torus exponent in chart rewrite")
            terms[tuple(p) + xiexp] = c
        image_gens.append(Poly(chart_ring, terms))
    image = groebner_basis(image_gens + presentation, chart_ring)
    dimension = krull_dimension(image, chart_ring)
    window = ("degree-zero monomials via the linear section with zero exponents "
              "on rays " + ",".join(str(i + 1) for i in cone))
    return ChartIdeal(cone, chart_ring, gen_monomials, presentation, image,
                      dimension, window)


def verify_quotient_dimension(grading: GradingData, pres: GradedPresentation) -> bool:
    """Chart-based sheaf dimension agrees with the saturation-based one."""
    report = dimension_report(grading, pres)
    if report.torsion:
        raise PreconditionViolated("module is irrelevant-ideal torsion")
    dims = []
    for cone in grading.fan.max_cones:
        chart = chart_ideal_from_saturated(grading, report.saturated, cone)
        if chart.dimension != EMPTY_DIM:
            dims.append(chart.dimension)
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
