"""Twisted modules, the theta-condition test, the left-right swap and the
local eigenspace machinery on charts.

Presentations record the twist parameters b_i of the summands A(b_i); the
generator e_i then has class-group degree -b_i, so the membership criterion
for the theta category reads (theta_u + <u, b_i>) e_i in N for left modules
and e_i (theta_u - <u, b_i>) in N for right modules.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from operator import add, mul, sub

from .errors import ConeNotMaximal, InhomogeneousInput, NotInJp, PointTooLarge
from .fan_cox import Fan, GradingData
from .groebner import WeylDivisors, weyl_buchberger, weyl_contains
from .weyl import (ThetaDict, WeylElement, numerator_action, tau,
                   theta_dict_to_weyl, theta_u, tp_divide_linear_product,
                   tp_linear, tp_linear_form, tp_linear_product,
                   tp_numerator_evaluator, tp_subst)

LEFT = "left"
RIGHT = "right"

# Bounds of `local`, whose brute-force oracles grow without limit with p:
# the number of linear factors of h_p, and the number of points in the box of
# radius 2 * local_radius(p) that the y_p check enumerates.
LOCAL_MAX_FACTORS = 64
LOCAL_MAX_BOX = 4096


def weyl_degree(grading, f: WeylElement):
    """Class-group degree of a homogeneous element, None for zero;
    InhomogeneousInput otherwise."""
    group = grading.class_group
    deg = None
    for (a, b) in f.terms:
        cls = group.project(tuple(map(sub, a, b)))
        if deg is None:
            deg = cls
        elif deg != cls:
            raise InhomogeneousInput("element is not graded-homogeneous")
    return deg


class GradedPresentation:
    """Finitely presented graded module over the Weyl algebra.

    relations are rows over A^rank; for a left module they generate
    sum A . row, for a right module sum row . A.
    """

    def __init__(self, grading: GradingData, side: str, twists, relations):
        if side not in (LEFT, RIGHT):
            raise ValueError("side must be 'left' or 'right'")
        self.grading = grading
        self.side = side
        group = grading.class_group
        self.twists = tuple(group.reduce(t) for t in twists)
        self.rank = len(self.twists)
        rows = []
        for row in relations:
            row = tuple(row)
            if len(row) != self.rank:
                raise ValueError("relation row length must equal the number of generators")
            rows.append(row)
        self.relations = tuple(rows)
        self._validate_homogeneous()
        self._gb = None
        self._divisors = None

    def _validate_homogeneous(self):
        # deg(g) and the twist are reduced classes: their difference needs one reduce
        group = self.grading.class_group
        for row in self.relations:
            common = None
            for g, t in zip(row, self.twists):
                if g.is_zero():
                    continue
                deg = group.reduce(tuple(map(sub, weyl_degree(self.grading, g), t)))
                if common is None:
                    common = deg
                elif common != deg:
                    raise InhomogeneousInput("relation row is not graded-homogeneous")

    def __eq__(self, other):
        return (isinstance(other, GradedPresentation)
                and self.side == other.side and self.twists == other.twists
                and sorted(map(_row_key, self.relations))
                == sorted(map(_row_key, other.relations)))

    def __repr__(self):
        return (f"GradedPresentation(side={self.side!r}, twists={self.twists}, "
                f"{len(self.relations)} relations)")

    def left_form_relations(self) -> list[tuple[WeylElement, ...]]:
        """Relations as generators of a left submodule (right side via tau)."""
        if self.side == LEFT:
            return [row for row in self.relations]
        return [tuple(tau(g) for g in row) for row in self.relations]

    def relation_gb(self):
        """Filtered GB of the (left-form) relation submodule, cached."""
        if self._gb is None:
            self._gb = weyl_buchberger(self.left_form_relations(), self.rank,
                                       self.grading.d)
        return self._gb

    def contains_relation(self, row) -> bool:
        """Membership of a row in the relation submodule (side-aware),
        against relation_gb() prepared once for it."""
        if self._divisors is None:
            self._divisors = WeylDivisors(self.relation_gb(), self.rank, self.grading.d)
        if self.side == RIGHT:
            row = tuple(tau(g) for g in row)
        return weyl_contains(tuple(row), self._divisors)


def _row_key(row):
    return tuple(tuple(sorted(g.terms.items())) for g in row)


def _unit_row(d: int, rank: int, i: int, elt: WeylElement):
    return tuple(elt if j == i else WeylElement.zero(d) for j in range(rank))


def _euler_relation(grading: GradingData, j: int, cls, side: str) -> WeylElement:
    """theta_u + <u, cls> for a left module, theta_u - <u, cls> for a right
    one, u = u_j the j-th dual basis functional of a reduced class cls:
    <u_j, cls> is the j-th free coordinate of cls (lattice.dual_lattice_basis)."""
    return theta_u(grading.dual_basis[j], cls[j] if side == LEFT else -cls[j])


def d_module_left(grading: GradingData, b_bar) -> GradedPresentation:
    """A(b) modulo the left ideal of the shifted Euler operators."""
    b_bar = grading.class_group.reduce(b_bar)
    rows = [(_euler_relation(grading, j, b_bar, LEFT),)
            for j in range(len(grading.dual_basis))]
    return GradedPresentation(grading, LEFT, (b_bar,), rows)


def d_module_right(grading: GradingData, a_bar) -> GradedPresentation:
    a_bar = grading.class_group.reduce(a_bar)
    rows = [(_euler_relation(grading, j, a_bar, RIGHT),)
            for j in range(len(grading.dual_basis))]
    return GradedPresentation(grading, RIGHT, (a_bar,), rows)


def check_theta_condition(pres: GradedPresentation):
    """Generator-level membership test for the theta-condition category.

    Returns (True, None) or (False, (generator index, dual-basis index)),
    both 1-based in the certificate.
    """
    grading = pres.grading
    d = grading.d
    for i, t in enumerate(pres.twists):
        for j in range(len(grading.dual_basis)):
            row = _unit_row(d, pres.rank, i, _euler_relation(grading, j, t, pres.side))
            if not pres.contains_relation(row):
                return False, (i + 1, j + 1)
    return True, None


def bimodule_identity_check(grading: GradingData, f: WeylElement, j: int, b_bar,
                            b_bar_prime) -> bool:
    """(theta_u + <u,b>) f == f (theta_u + <u, b + b'>) for f of degree b',
    u = u_j the j-th dual basis functional."""
    group = grading.class_group
    deg = weyl_degree(grading, f)
    if deg is not None and deg != group.reduce(b_bar_prime):
        raise InhomogeneousInput("declared degree does not match the element")
    b_bar = group.reduce(b_bar)
    total = group.add(b_bar, group.reduce(b_bar_prime))
    lhs = _euler_relation(grading, j, b_bar, LEFT) * f
    rhs = f * _euler_relation(grading, j, total, LEFT)
    return lhs == rhs


def left_right_identity_check(grading: GradingData, f: WeylElement, j: int, a_bar,
                              b_bar) -> bool:
    """f (theta_u + <u,b>) == (theta_u - <u,a>) f for f of degree a + b,
    u = u_j the j-th dual basis functional."""
    group = grading.class_group
    deg = weyl_degree(grading, f)
    a_bar, b_bar = group.reduce(a_bar), group.reduce(b_bar)
    expected = group.add(a_bar, b_bar)
    if deg is not None and deg != expected:
        raise InhomogeneousInput("declared degrees do not match the element")
    lhs = f * _euler_relation(grading, j, b_bar, LEFT)
    rhs = _euler_relation(grading, j, a_bar, RIGHT) * f
    return lhs == rhs


def left_right_swap(pres: GradedPresentation) -> GradedPresentation:
    """The equivalence F -> F^tau with the canonical twist shift."""
    grading = pres.grading
    group = grading.class_group
    e_bar = grading.e_bar
    if pres.side == LEFT:
        new_side = RIGHT
        new_twists = [group.add(t, group.neg(e_bar)) for t in pres.twists]
    else:
        new_side = LEFT
        new_twists = [group.add(t, e_bar) for t in pres.twists]
    new_rel = [tuple(tau(g) for g in row) for row in pres.relations]
    return GradedPresentation(grading, new_side, new_twists, new_rel)


# local eigenspace machinery; a cone is a cone of the fan as a sorted tuple
# of 0-based ray indices, checked by the caller (the CLI: Fan.require_cone)


def local_radius(grading: GradingData, p) -> int:
    """The box radius of the local oracles: j_p_oracle walks radius r =
    max(1, |iota(p)_i|) + 1, which holds every slab of h_p, and the y_p
    check radius 2r."""
    return max([1] + [abs(v) for v in grading.iota_of(p)]) + 1


def require_local_bounds(grading: GradingData, cone, p):
    """PointTooLarge unless `local` at (cone, p) stays within the bounds."""
    ip = grading.iota_of(p)
    factors = sum(max(0, -ip[i]) for i in cone)
    if factors > LOCAL_MAX_FACTORS:
        raise PointTooLarge(f"h_p would have {factors} linear factors "
                            f"(at most {LOCAL_MAX_FACTORS})")
    box = (4 * local_radius(grading, p) + 1) ** grading.n
    if box > LOCAL_MAX_BOX:
        raise PointTooLarge(f"the y_p check would enumerate {box} points "
                            f"(at most {LOCAL_MAX_BOX})")


def _h_p_factors(grading: GradingData, cone, p) -> list:
    """The linear factors (i, m) of h_p: 0 <= m <= -iota(p)_i - 1 over the
    rays i of the cone; this is the convention certified by the action
    oracle."""
    ip = grading.iota_of(p)
    return sorted((i, m) for i in cone for m in range(0, -ip[i]))


def h_p(grading: GradingData, cone, p) -> tuple[ThetaDict, list]:
    """Generator of J(p) as a product of linear factors (theta_i - m), and
    the factors."""
    factors = _h_p_factors(grading, cone, p)
    return tp_linear_product(grading.d, factors), factors


def j_p_oracle(grading: GradingData, cone, p):
    """Brute-force minimal product of linear slabs covering Z(p) in the box
    of radius local_radius(p), as its sorted factors (i, m), each the slab
    theta_i = m.

    Z(p) only constrains the cone coordinates, so one pass over those
    decides every slab.
    """
    ip = grading.iota_of(p)
    radius = local_radius(grading, p)
    # x^(iota(p) + a) stays in the chart ring iff no cone coordinate goes
    # negative; a slab is a factor iff no such good point lies on it. The
    # factors cover every bad point: the slab of a negative coordinate holds
    # only bad points.
    good = set()
    for pt in product(range(0, radius + 1), repeat=len(cone)):
        if all(ip[i] + a >= 0 for i, a in zip(cone, pt)):
            good.update(enumerate(pt))
    return [(i, m) for pos, i in enumerate(cone) for m in range(0, radius + 1)
            if (pos, m) not in good]


def rho(grading: GradingData, w: ThetaDict) -> ThetaDict:
    """Pullback along iota: theta_i -> sum_l v_i[l] vartheta_l."""
    images = [tp_linear_form(ray) for ray in grading.fan.rays]
    return tp_subst(w, images, grading.n)


def local_op_image(grading: GradingData, cone, p, g: ThetaDict):
    """The chart image of x^(iota(p)) g: the pair (p, rho(g)) for g in J(p)."""
    if tp_divide_linear_product(g, _h_p_factors(grading, cone, p)) is None:
        raise NotInJp("the generator of J(p) does not divide g")
    return tuple(int(x) for x in p), rho(grading, g)


def i_p_ideal(grading: GradingData, cone, p) -> ThetaDict:
    """Generator rho(h_p) of the chart-side ideal I(p)."""
    hp, _ = h_p(grading, cone, p)
    return rho(grading, hp)


def _interval(bases, steps, radius: int) -> range:
    """The x in [-radius, radius] with base + x step >= 0 for each pair: a
    positive step bounds x below by a ceiling, a negative one above by a
    floor, and a zero step keeps all of them or none."""
    lo, hi = -radius, radius
    for b, s in zip(bases, steps):
        if s > 0:
            lo = max(lo, -(b // s))
        elif s < 0:
            hi = min(hi, b // -s)
        elif b < 0:
            return range(0)
    return range(lo, hi + 1)


def _box_lines(fan: Fan, cone, p, radius: int):
    """The box [-radius, radius]^n by lines head + (x,) along the last axis,
    in lexicographic order, as (head, iota(head + (0,)), dual, stay): the x
    whose point is in the dual cone, and those whose shift by p is too; Y(p)
    is dual minus stay. iota is linear along a line and <q + p, v_i> =
    <q, v_i> + <p, v_i>, so each cone ray bounds x on one side and both are
    intervals. iota of the heads costs one vector addition per line.
    """
    rays = fan.rays
    steps = [rays[i][-1] for i in cone]
    shifts = [sum(map(mul, p, rays[i])) for i in cone]
    heads = [((), [0] * len(rays))]
    for j in range(fan.n - 1):
        axis = [((x,), [x * ray[j] for ray in rays]) for x in range(-radius, radius + 1)]
        heads = [(q + x, list(map(add, iq, v))) for q, iq in heads for x, v in axis]
    for head, partial in heads:
        base = [partial[i] for i in cone]
        yield (head, partial, _interval(base, steps, radius),
               _interval(map(add, base, shifts), steps, radius))


def y_p_points(fan: Fan, cone, p, radius: int) -> list[tuple[int, ...]]:
    """Enumerate Y(p) = {q in the dual cone with q + p outside it} in a box."""
    return [head + (x,) for head, _, dual, stay in _box_lines(fan, cone, p, radius)
            for x in dual if x not in stay]


def i_p_matches_y_p(grading: GradingData, cone, p, ip: ThetaDict) -> bool:
    """ip (the generator rho(h_p) of I(p)) vanishes exactly on Y(p) among
    dual-cone points in the box of radius 2 local_radius(p), the box that
    require_local_bounds counts; it is evaluated at those points only, one
    univariate Horner per box line (the evaluator's line form)."""
    line = tp_numerator_evaluator(ip)[1].line
    for head, _, dual, stay in _box_lines(grading.fan, cone, p,
                                          2 * local_radius(grading, p)):
        if dual:
            ip_at = line(head)
            for x in dual:
                if (ip_at(x) == 0) != (x not in stay):
                    return False
    return True


def _times_eigenvalues(values: list, form, xs) -> list:
    """values[j] times sum_k c_k ff(xs[j], k) over the pairs (k, c_k) of a
    line form, the sum nested as c_0 + x (c_1 + (x - 1) (c_2 + ...))."""
    coefficients = dict(form)
    top = max(coefficients, default=0)
    acc = [coefficients.get(top, 0)] * len(xs)
    for k in range(top - 1, -1, -1):
        c = coefficients.get(k, 0)
        acc = [c + (x - k) * a for a, x in zip(acc, xs)]
    return list(map(mul, values, acc))


def _actions_hold(grading: GradingData, cone, p, actions, value_den: int,
                  value_line, radius: int) -> bool:
    """The composite of the numerator actions (den, apply) of
    theta-polynomials scales each y^q of the box by value / value_den, and
    is zero on Y(p); value_line(head, iota(head + (0,)), xs) lists the
    values at q = head + (x,) for x in xs.

    Over D, the product of the action denominators, the composite's integer
    eigenvalue must be value * D; the value and the divmod test are taken
    at every point, and Y(p) read from the line's intervals. A
    theta-polynomial scales every monomial y^q by a torus eigenvalue, so
    each action runs once per line of the box through its line form
    apply.line(head), and the line's list of eigenvalues is multiplied by
    it.
    """
    den = prod(d for d, _ in actions)
    xs = range(-radius, radius + 1)
    for head, partial, dual, stay in _box_lines(grading.fan, cone, p, radius):
        values = [1] * len(xs)
        for _, apply in actions:
            values = _times_eigenvalues(values, apply.line(head), xs)
        for x, value, want in zip(xs, values, value_line(head, partial, xs)):
            coeff, rem = divmod(want * den, value_den)
            if rem or coeff != value or (coeff and x in dual and x not in stay):
                return False
    return True


def verify_local_action(grading: GradingData, cone, p, g: ThetaDict,
                        radius: int) -> bool:
    """Check (y^p rho(g)) . y^q == g(iota(q)) y^(p+q) on a box of q.

    The theta part acts through the Weyl action on Laurent monomials; the
    y^p factor is the same exponent shift on both sides, so the sides are
    compared before it. For q in the dual cone whose shift leaves it, the
    result must vanish (the operator preserves the cone ring). g(iota(q))
    is rho(g)(q), evaluated by the line form of its evaluator.
    """
    image = rho(grading, g)
    action = numerator_action(theta_dict_to_weyl(grading.n, image))
    value_den, at = tp_numerator_evaluator(image)
    return _actions_hold(grading, cone, p, [action], value_den,
                         lambda head, _, xs: list(map(at.line(head), xs)), radius)


def factored_local_action_holds(grading: GradingData, cone, p, factors,
                                radius: int) -> bool:
    """Action identity for g = prod (theta_i - m), composing factor actions.

    Each chart image rho(theta_i - m) acts through the Weyl action; the
    composite must scale y^q by prod (iota(q)_i - m) (the shift by p is the
    same on both sides, so the sides are compared before it), and must
    preserve the dual-cone ring. With m = r / s that is
    prod (s iota(q)_i - r) over prod s, and along a box line iota(q)_i is
    iota(head + (0,))_i + x v_i[-1].

    rho is a substitution and fixes constants, so rho(theta_i - m) is
    rho(theta_i) - m: rho and its normal order run once per distinct ray i
    among the factors, and each factor adds its constant -m to those terms,
    which have none.
    """
    d, n = grading.d, grading.n
    rays = grading.fan.rays
    one = ((0,) * n, (0,) * n)
    images = {i: theta_dict_to_weyl(n, rho(grading, tp_linear(d, i, 0))).terms
              for i in {i for i, _ in factors}}
    actions = [numerator_action(WeylElement(n, {**images[i], one: -m})) for i, m in factors]
    roots = [(i, *Fraction(m).as_integer_ratio()) for i, m in factors]

    def value_line(head, partial, xs) -> list:
        values = [1] * len(xs)
        for i, r, s in roots:
            a, b = s * partial[i] - r, s * rays[i][-1]
            values = [v * (a + b * x) for v, x in zip(values, xs)]
        return values
    return _actions_hold(grading, cone, p, actions, prod(s for _, _, s in roots),
                         value_line, radius)


def k_component(grading: GradingData, a, b_bar) -> list[ThetaDict]:
    """Generators of K(a): the linear ideal of shifted Euler forms (u_j
    shifted by the j-th free coordinate of b) plus the product of
    (theta_i + a_i) over the nonpositive coordinates."""
    b_bar = grading.class_group.reduce(b_bar)
    gens = [tp_linear_form(u, b_bar[j]) for j, u in enumerate(grading.dual_basis)]
    gens.append(tp_linear_product(grading.d, [(i, -ai) for i, ai in enumerate(a) if ai <= 0]))
    return gens


def require_chart_cone(grading: GradingData, cone):
    """A maximal cone usable as a chart: a full-dimensional one. It is
    smooth, as validation proved every maximal cone of the fan smooth."""
    fan = grading.fan
    cone = fan.require_cone(cone)
    if cone not in fan.max_cones or len(cone) != fan.n:
        raise ConeNotMaximal(
            f"cone {tuple(i + 1 for i in cone)} is not a full-dimensional maximal cone")
    return cone
