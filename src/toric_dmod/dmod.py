"""Twisted modules, the theta-condition test, the left-right swap and the
local eigenspace machinery on charts.

Presentations record the twist parameters b_i of the summands A(b_i); the
generator e_i then has class-group degree -b_i, so the membership criterion
for the theta category reads (theta_u + <u, b_i>) e_i in N for left modules
and e_i (theta_u - <u, b_i>) in N for right modules.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from .errors import (BoxTooSmall, ConeNotMaximal, ConeNotSmooth,
                     InhomogeneousInput, NotInJp, PointTooLarge, UnknownCone)
from .fan_cox import Fan, GradingData
from .groebner import weyl_buchberger, weyl_normal_form
from .weyl import (LaurentPoly, ThetaDict, WeylElement, tau,
                   theta_dict_to_weyl, theta_u, tp_divide_linear, tp_evaluator,
                   tp_linear, tp_linear_form, tp_linear_product, tp_subst,
                   weyl_action, weyl_degree)

LEFT = "left"
RIGHT = "right"

# Bounds of `local`, whose brute-force oracles grow without limit with p:
# the number of linear factors of h_p, and the number of points in the box of
# radius 2 * local_radius(p) that the y_p check enumerates.
LOCAL_MAX_FACTORS = 64
LOCAL_MAX_BOX = 4096


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

    def _validate_homogeneous(self):
        group = self.grading.class_group
        for row in self.relations:
            common = None
            for g, t in zip(row, self.twists):
                if g.is_zero():
                    continue
                deg = group.add(weyl_degree(self.grading, g), group.neg(t))
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
            rows = [row for row in self.left_form_relations()
                    if not all(g.is_zero() for g in row)]
            d = self.grading.d
            self._gb = weyl_buchberger(rows, self.rank, d) if rows else []
        return self._gb

    def contains_relation(self, row) -> bool:
        """Membership of a row in the relation submodule (side-aware)."""
        if self.side == RIGHT:
            row = tuple(tau(g) for g in row)
        gb = self.relation_gb()
        if not gb:
            return all(g.is_zero() for g in row)
        nf = weyl_normal_form(tuple(row), gb)
        return all(g.is_zero() for g in nf)


def _row_key(row):
    return tuple(tuple(sorted(g.terms.items())) for g in row)


def _unit_row(d: int, rank: int, i: int, elt: WeylElement):
    return tuple(elt if j == i else WeylElement.zero(d) for j in range(rank))


def _euler_relation(grading: GradingData, u, cls, side: str) -> WeylElement:
    """theta_u + <u, cls> for a left module, theta_u - <u, cls> for a right one."""
    shift = grading.pair(u, cls)
    return theta_u(u, shift if side == LEFT else -shift)


def d_module_left(grading: GradingData, b_bar) -> GradedPresentation:
    """A(b) modulo the left ideal of the shifted Euler operators."""
    b_bar = grading.class_group.reduce(b_bar)
    rows = [(_euler_relation(grading, u, b_bar, LEFT),) for u in grading.dual_basis]
    return GradedPresentation(grading, LEFT, (b_bar,), rows)


def d_module_right(grading: GradingData, a_bar) -> GradedPresentation:
    a_bar = grading.class_group.reduce(a_bar)
    rows = [(_euler_relation(grading, u, a_bar, RIGHT),) for u in grading.dual_basis]
    return GradedPresentation(grading, RIGHT, (a_bar,), rows)


def check_theta_condition(pres: GradedPresentation):
    """Generator-level membership test for the theta-condition category.

    Returns (True, None) or (False, (generator index, dual-basis index)),
    both 1-based in the certificate.
    """
    grading = pres.grading
    d = grading.d
    for i, t in enumerate(pres.twists):
        for j, u in enumerate(grading.dual_basis):
            row = _unit_row(d, pres.rank, i, _euler_relation(grading, u, t, pres.side))
            if not pres.contains_relation(row):
                return False, (i + 1, j + 1)
    return True, None


def bimodule_identity_check(grading: GradingData, f: WeylElement, u, b_bar,
                            b_bar_prime) -> bool:
    """(theta_u + <u,b>) f == f (theta_u + <u, b + b'>) for f of degree b'."""
    group = grading.class_group
    deg = weyl_degree(grading, f)
    if deg is not None and deg != group.reduce(b_bar_prime):
        raise InhomogeneousInput("declared degree does not match the element")
    total = group.add(group.reduce(b_bar), group.reduce(b_bar_prime))
    lhs = _euler_relation(grading, u, b_bar, LEFT) * f
    rhs = f * _euler_relation(grading, u, total, LEFT)
    return lhs == rhs


def left_right_identity_check(grading: GradingData, f: WeylElement, u, a_bar,
                              b_bar) -> bool:
    """f (theta_u + <u,b>) == (theta_u - <u,a>) f for f of degree a + b."""
    group = grading.class_group
    deg = weyl_degree(grading, f)
    expected = group.add(group.reduce(a_bar), group.reduce(b_bar))
    if deg is not None and deg != expected:
        raise InhomogeneousInput("declared degrees do not match the element")
    lhs = f * _euler_relation(grading, u, b_bar, LEFT)
    rhs = _euler_relation(grading, u, a_bar, RIGHT) * f
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


# local eigenspace machinery


def _require_cone(fan: Fan, cone):
    cone = tuple(sorted(int(i) for i in cone))
    if not fan.has_cone(cone):
        raise UnknownCone(f"cone {tuple(i + 1 for i in cone)} is not in the fan")
    return cone


def local_radius(grading: GradingData, p) -> int:
    """The box radius the local oracles need: max(1, |iota(p)_i|) + 1."""
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


def h_p(grading: GradingData, cone, p) -> tuple[ThetaDict, list]:
    """Generator of J(p) as a product of linear factors (theta_i - m).

    The index range is 0 <= m <= -iota(p)_i - 1 over rays of the cone; this is
    the convention certified by the action oracle.
    """
    cone = _require_cone(grading.fan, cone)
    ip = grading.iota_of(p)
    factors = sorted((i, m) for i in cone for m in range(0, -ip[i]))
    return tp_linear_product(grading.d, factors), factors


def j_p_oracle(grading: GradingData, cone, p, radius: int):
    """Brute-force minimal product of linear slabs covering Z(p) in a box.

    Z(p) only constrains the cone coordinates, so the enumeration runs over
    those; BoxTooSmall if the box cannot contain all slabs.
    """
    fan = grading.fan
    cone = _require_cone(fan, cone)
    ip = grading.iota_of(p)
    needed = local_radius(grading, p)
    if radius < needed:
        raise BoxTooSmall(f"radius {radius} < required {needed}")

    def bad(assign) -> bool:
        # x^(iota(p) + a) fails to stay in the chart ring iff some cone
        # coordinate goes negative
        return any(ip[i] + a < 0 for i, a in zip(cone, assign))

    points = list(product(range(0, radius + 1), repeat=len(cone)))
    bad_points = [pt for pt in points if bad(pt)]
    candidates = []
    for pos, i in enumerate(cone):
        for m in range(0, radius + 1):
            slab = [pt for pt in points if pt[pos] == m]
            if slab and all(bad(pt) for pt in slab):
                candidates.append((i, m, pos))
    for pt in bad_points:
        if not any(pt[pos] == m for (_, m, pos) in candidates):
            raise BoxTooSmall("enumerated set is not covered by coordinate slabs")
    factors = sorted((i, m) for (i, m, _) in candidates)
    return tp_linear_product(fan.d, factors), factors


def rho(grading: GradingData, w: ThetaDict) -> ThetaDict:
    """Pullback along iota: theta_i -> sum_l v_i[l] vartheta_l."""
    return tp_subst(w, [tp_linear_form(ray) for ray in grading.fan.rays], grading.n)


def rho_b(grading: GradingData, b, w: ThetaDict) -> ThetaDict:
    """rho composed with the shift theta_i -> theta_i - b_i."""
    images = [tp_linear_form(ray, -bi) for ray, bi in zip(grading.fan.rays, b)]
    return tp_subst(w, images, grading.n)


def theta_divides(w: ThetaDict, factors) -> tuple[bool, ThetaDict]:
    """Exact divisibility of w by the product of monic linear (theta_i - m)."""
    quot = dict(w)
    for i, m in sorted(factors):
        quot, rem = tp_divide_linear(quot, i, m)
        if rem:
            return False, {}
    return True, quot


def local_op_image(grading: GradingData, cone, p, g: ThetaDict):
    """The chart image of x^(iota(p)) g: the pair (p, rho(g)) for g in J(p)."""
    cone = _require_cone(grading.fan, cone)
    _, factors = h_p(grading, cone, p)
    ok, _ = theta_divides(g, factors)
    if not ok:
        raise NotInJp("the generator of J(p) does not divide g")
    return tuple(int(x) for x in p), rho(grading, g)


def i_p_ideal(grading: GradingData, cone, p) -> ThetaDict:
    """Generator rho(h_p) of the chart-side ideal I(p)."""
    cone = _require_cone(grading.fan, cone)
    hp, _ = h_p(grading, cone, p)
    return rho(grading, hp)


def in_dual_cone(fan: Fan, cone, q) -> bool:
    return all(sum(map(mul, q, fan.rays[i])) >= 0 for i in cone)


def y_p_points(fan: Fan, cone, p, radius: int) -> list[tuple[int, ...]]:
    """Enumerate Y(p) = {q in the dual cone with q + p outside it} in a box."""
    cone = _require_cone(fan, cone)
    n = fan.n
    out = []
    for q in product(range(-radius, radius + 1), repeat=n):
        if in_dual_cone(fan, cone, q):
            qp = tuple(x + y for x, y in zip(q, p))
            if not in_dual_cone(fan, cone, qp):
                out.append(q)
    return out


def i_p_matches_y_p(grading: GradingData, cone, p, radius: int) -> bool:
    """rho(h_p) vanishes exactly on Y(p) among dual-cone points in the box."""
    fan = grading.fan
    cone = _require_cone(fan, cone)
    poly_at = tp_evaluator(i_p_ideal(grading, cone, p))
    ys = set(y_p_points(fan, cone, p, radius))
    for q in product(range(-radius, radius + 1), repeat=fan.n):
        if not in_dual_cone(fan, cone, q):
            continue
        vanishes = poly_at(q) == 0
        if vanishes != (q in ys):
            return False
    return True


def verify_local_action(grading: GradingData, cone, p, g: ThetaDict,
                        radius: int) -> bool:
    """Check (y^p rho(g)) . y^q == g(iota(q)) y^(p+q) on a box of q.

    The theta part acts through the Weyl action on Laurent monomials; the
    y^p factor is the same exponent shift on both sides, so the sides are
    compared before it. For q in the dual cone whose shift leaves it, the
    result must vanish (the operator preserves the cone ring).
    """
    fan = grading.fan
    cone = _require_cone(fan, cone)
    n = fan.n
    rg_action = weyl_action(theta_dict_to_weyl(n, rho(grading, g)))
    g_at = tp_evaluator(g)
    mask = (True,) * n
    for q in product(range(-radius, radius + 1), repeat=n):
        image = rg_action(LaurentPoly.monomial(n, mask, q))
        expected_coeff = g_at(grading.iota_of(q))
        if image.terms != ({q: expected_coeff} if expected_coeff else {}):
            return False
        target = tuple(x + y for x, y in zip(q, p))
        if in_dual_cone(fan, cone, q) and not in_dual_cone(fan, cone, target):
            if expected_coeff != 0:
                return False
    return True


def factored_local_action_holds(grading: GradingData, cone, p, factors,
                                radius: int) -> bool:
    """Action identity for g = prod (theta_i - m), composing factor actions.

    Each chart image rho(theta_i - m) acts through the Weyl action; the
    composite must scale y^q by prod (iota(q)_i - m) (the shift by p is the
    same on both sides, so the sides are compared before it), and must
    preserve the dual-cone ring.
    """
    fan = grading.fan
    cone = _require_cone(fan, cone)
    n = fan.n
    actions = [weyl_action(theta_dict_to_weyl(n, rho(grading, tp_linear(grading.d, i, -m))))
               for (i, m) in factors]
    mask = (True,) * n
    for q in product(range(-radius, radius + 1), repeat=n):
        cur = LaurentPoly.monomial(n, mask, q)
        for action in actions:
            cur = action(cur)
        iq = grading.iota_of(q)
        coeff = 1
        for i, m in factors:
            coeff *= iq[i] - m
        if cur.terms != ({q: coeff} if coeff else {}):
            return False
        target = tuple(x + y for x, y in zip(q, p))
        if in_dual_cone(fan, cone, q) and not in_dual_cone(fan, cone, target):
            if coeff != 0:
                return False
    return True


def k_component(grading: GradingData, a, b_bar) -> list[ThetaDict]:
    """Generators of K(a): the linear ideal of shifted Euler forms plus the
    product of (theta_i + a_i) over the nonpositive coordinates."""
    b_bar = grading.class_group.reduce(b_bar)
    gens = [tp_linear_form(u, grading.pair(u, b_bar)) for u in grading.dual_basis]
    gens.append(tp_linear_product(grading.d, [(i, -ai) for i, ai in enumerate(a) if ai <= 0]))
    return gens


def require_full_smooth_cone(grading: GradingData, cone):
    """A maximal cone usable as a chart: full-dimensional and unimodular."""
    fan = grading.fan
    cone = _require_cone(fan, cone)
    if cone not in fan.max_cones or len(cone) != fan.n:
        raise ConeNotMaximal(
            f"cone {tuple(i + 1 for i in cone)} is not a full-dimensional maximal cone")
    mat = fan.ray_matrix(cone)
    if abs(mat.det()) != 1:
        raise ConeNotSmooth(f"cone {tuple(i + 1 for i in cone)} is not smooth")
    return cone
