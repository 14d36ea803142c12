"""Fans of smooth cones, Cox grading data and the irrelevant ideal; a fan is
validated on its maximal cones, with one common-face test per pair of them:
a sign settles most pairs, an exact system the rest. It makes one Smith form
per fan, for the span check and the class group; a unimodular
full-dimensional cone reads its coordinates off one row reduction, and every
other cone off the Smith form of its ray matrix. Each is kept with the fan."""

from __future__ import annotations

from itertools import combinations
from math import gcd
from operator import mul

from .errors import (FanValidationError, NonSimplicialCone, NonSmoothCone,
                     RaysDoNotSpan, UnknownCone)
from .lattice import (FinitelyGeneratedAbelianGroup, dual_lattice_basis,
                      integer_rref, primitive, smith_normal_form)
from .weyl import WeylElement, theta_u


class ConeData:
    """A cone's linear algebra, read off one Smith form U R V = D of its
    k x n ray matrix R; a unimodular full-dimensional cone gets the same data
    from the row reduction of [R | I] (_unimodular_cone_data).

    A simplicial cone has D = [F | 0] with F = diag(f_1, ..., f_k), and each
    f_t divides f = f_k. So R times the n x k matrix V[:, :k] f F^-1 U is f I:
    its columns are the coordinate rows, <coordinates[j], v_i> = f [i == j]
    for the cone's i-th and j-th rays, and a vector x of the span is the sum
    of <coordinates[j], x> v_j / f. The completion rows, the columns of
    V[:, k:], vanish exactly on the span. A smooth cone has f = 1, and at a
    full-dimensional one the coordinate rows are the dual basis m_j of its
    rays. A cone that is not simplicial has neither (None).
    """

    __slots__ = ("invariant_factors", "coordinates", "completion")

    def __init__(self, invariant_factors: tuple[int, ...],
                 coordinates: tuple[tuple[int, ...], ...] | None,
                 completion: tuple[tuple[int, ...], ...] | None):
        self.invariant_factors = invariant_factors
        self.coordinates = coordinates
        self.completion = completion


class Fan:
    """A fan given by its rays and maximal cones; faces are not synthesized.

    Rays are primitive vectors in Z^n; cones are sorted tuples of 0-based ray
    indices. The maximal cones are the zero cone, the listed cones and the
    single rays, less every cone strictly inside another (so the zero cone is
    maximal only in a fan with no ray); the cones of the fan are their faces,
    the zero cone included. The Smith form of the ray matrix and each cone's
    ConeData are built on first use and kept with the fan.
    """

    def __init__(self, n: int, rays, max_cones):
        self.n = int(n)
        self.rays = tuple(tuple(map(int, r)) for r in rays)
        if any(len(r) != self.n for r in self.rays):
            raise FanValidationError("ray length does not match ambient rank")
        listed = [tuple(sorted(set(map(int, cone)))) for cone in max_cones]
        for cone in listed:
            if cone and not (0 <= cone[0] and cone[-1] < len(self.rays)):
                raise FanValidationError(f"cone {cone} has a ray index out of range")
        listed += [(i,) for i in range(len(self.rays))]
        sets = {c: frozenset(c) for c in [()] + listed}
        frozen = sets.values()
        self.max_cones = tuple(sorted(
            (c for c, s in sets.items() if not any(map(s.__lt__, frozen))),
            key=lambda c: (len(c), c)))
        self._smith_form: tuple | None = None
        self._cone_data: dict[tuple[int, ...], ConeData] = {}

    @property
    def d(self) -> int:
        return len(self.rays)

    def has_cone(self, cone) -> bool:
        """Whether the indices are distinct and span a face of a maximal cone."""
        indices = set(cone)
        return len(indices) == len(cone) and (
            not indices or any(indices <= set(m) for m in self.max_cones))

    def require_cone(self, cone) -> tuple[int, ...]:
        """The cone as a sorted index tuple; UnknownCone unless it is in the fan."""
        cone = tuple(sorted(int(i) for i in cone))
        if not self.has_cone(cone):
            raise UnknownCone(f"cone {tuple(i + 1 for i in cone)} is not in the fan")
        return cone

    def smith_form(self) -> tuple:
        """The Smith form (U, V, invariant factors) of the d x n matrix whose
        rows are the rays: its number of invariant factors is their rank, and
        its cokernel is the class group."""
        if self._smith_form is None:
            self._smith_form = smith_normal_form(self.rays)
        return self._smith_form

    def cone_data(self, cone) -> ConeData:
        """The ConeData of a sorted cone, kept with the fan: read off the row
        reduction of [R | I] for a unimodular full-dimensional cone, else off
        the Smith form of its ray matrix R."""
        data = self._cone_data.get(cone)
        if data is None:
            rows = tuple(self.rays[i] for i in cone)
            data = self._cone_data[cone] = (
                len(cone) == self.n and _unimodular_cone_data(rows)) or _smith_cone_data(rows)
        return data


def _smith_cone_data(rows) -> ConeData:
    """ConeData from the Smith form U R V = D of the k x n ray matrix R."""
    u, v, factors = smith_normal_form(rows)
    k = len(rows)
    coordinates = completion = None
    if len(factors) == k:
        # (V[:, :k] f F^-1 U)^T: column j of f F^-1 U against each row of V
        scaled = zip(*([factors[-1] // f * x for x in row]
                       for f, row in zip(factors, u)))
        coordinates = tuple(tuple(sum(map(mul, col, row)) for row in v)
                            for col in scaled)
        completion = tuple(zip(*v))[k:]
    return ConeData(factors, coordinates, completion)


def _unimodular_cone_data(rows) -> ConeData | None:
    """ConeData of a square ray matrix R of determinant +-1, or None for any
    other. The reduced form of [R | I] is [I | R^-1] exactly then: its pivots
    are the first n columns, each a 1. The columns of R^-1 are the dual basis
    m_j, the only coordinate rows with f = 1, and no completion row is left."""
    n = len(rows)
    reduced, pivots = integer_rref([row + (0,) * i + (1,) + (0,) * (n - 1 - i)
                                    for i, row in enumerate(rows)])
    if pivots != list(range(n)) or any(row[i] != 1 for i, row in enumerate(reduced)):
        return None
    return ConeData((1,) * n, tuple(zip(*(row[n:] for row in reduced))), ())


def _fm_feasible(eqs, ineqs, nvars: int) -> bool:
    """Exact feasibility of {z : eq . z + c = 0, ineq . z + c >= 0} over Q.

    The equalities are put in integer row echelon form and substituted into
    the inequalities; Fourier-Motzkin then eliminates the remaining variables
    on primitive integer rows. Every combination has positive multipliers, so
    the direction of each inequality is kept.
    """
    work = [tuple(co) + (c,) for co, c in ineqs]
    if eqs:
        rows, pivots = integer_rref([tuple(co) + (c,) for co, c in eqs])
        if nvars in pivots:
            return False                 # an equation 0 = c != 0
        for prow, col in zip(rows, pivots):
            p = prow[col]
            work = [primitive([p * x - w[col] * y for x, y in zip(w, prow)]) if w[col] else w
                    for w in work]
    for col in range(nvars):
        pos, neg, kept = [], [], []
        for w in work:
            (pos if w[col] > 0 else neg if w[col] else kept).append(w)
        kept += [primitive([p[col] * y - q[col] * x for x, y in zip(p, q)])
                 for p in pos for q in neg]
        work = []
        for w in dict.fromkeys(kept):
            if any(w[col + 1:nvars]):
                work.append(w)
            elif w[nvars] < 0:
                return False             # an inequality 0 <= c < 0
    return all(w[nvars] >= 0 for w in work)


def _overlapping_cones(fan: Fan):
    """The first pair of maximal cones meeting in more than a common face, or None.

    The cones are simplicial, and fan.cone_data(s2), kept from validation,
    gives a point of span(s2) its coordinates mu on the rays of s2 (up to a
    positive factor) and the completion rows vanishing on that span.
    cone(s1) & cone(s2) == cone(s1 & s2) fails exactly when a point
    x = sum lam_i v_i of cone(s1) lies in span(s2) with mu >= 0 and some
    mu_j > 0 off s1, scaled to sum >= 1. A ray shared with s2 has a unit
    coordinate there and its lam_i is free, so it constrains nothing: the
    variables are the lam of the rays of s1 not in s2. That is symmetric in
    the pair. The sum of the mu off s1 is one row against lam >= 0: with no
    positive entry it is <= 0 < 1 and the pair meets in its common face, so
    only the pairs it leaves open get a Fourier-Motzkin system.
    """
    rays = fan.rays
    for s1, s2 in combinations(fan.max_cones, 2):
        data = fan.cone_data(s2)
        own = [rays[i] for i in s1 if i not in s2]
        off = [tuple(sum(map(mul, row, ray)) for ray in own)
               for j, row in zip(s2, data.coordinates) if j not in s1]
        total = tuple(map(sum, zip(*off)))
        if max(total) <= 0:
            continue
        nvars = len(own)
        eqs = [([sum(map(mul, row, ray)) for ray in own], 0) for row in data.completion]
        ineqs = [((0,) * k + (1,) + (0,) * (nvars - 1 - k), 0) for k in range(nvars)]
        ineqs += [(row, 0) for row in off]
        ineqs.append((total, -1))
        if _fm_feasible(eqs, ineqs, nvars):
            return s1, s2
    return None


def cone_defect(fan: Fan, cone) -> FanValidationError | None:
    """The error a cone that is not smooth raises, or None for a smooth one.

    The k x n ray matrix (fan.cone_data) has fewer than k invariant factors
    when the rays are dependent (not simplicial); their product is the gcd of
    the k x k minors, 1 exactly when the rays extend to a basis of Z^n.
    """
    factors = fan.cone_data(cone).invariant_factors
    if len(factors) < len(cone):
        return NonSimplicialCone(f"cone {tuple(i + 1 for i in cone)} is not simplicial")
    if any(f != 1 for f in factors):
        return NonSmoothCone(f"cone {tuple(i + 1 for i in cone)} is not smooth")
    return None


def validate_smooth_fan(fan: Fan) -> None:
    """Validate rays, simpliciality, smoothness and common faces; raises typed
    errors, a cone error naming the first failing maximal cone and the overlap
    error the first offending pair of them. Both cone properties pass to
    faces, so the maximal cones settle them.
    """
    for idx, ray in enumerate(fan.rays):
        if not any(ray):
            raise FanValidationError(f"ray {idx + 1} is zero")
        if gcd(*ray) != 1:
            raise FanValidationError(f"ray {idx + 1} is not primitive")
    if len(set(fan.rays)) != len(fan.rays):
        raise FanValidationError("rays are not pairwise distinct")
    _, _, factors = fan.smith_form()
    if len(factors) != fan.n:
        raise RaysDoNotSpan("rays do not span the ambient space")
    for cone in fan.max_cones:
        defect = cone_defect(fan, cone)
        if defect:
            raise defect
    pair = _overlapping_cones(fan)
    if pair:
        s1, s2 = (tuple(i + 1 for i in cone) for cone in pair)
        raise FanValidationError(f"cones {s1} and {s2} intersect in more than a common face")


def irrelevant_ideal(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors of the generators of b, sorted: sigma-hat of each
    maximal cone. These need no membership check, and as no maximal cone
    lies in another (Fan keeps none), no sigma-hat divides another."""
    return tuple(sorted(tuple(0 if i in cone else 1 for i in range(fan.d))
                        for cone in fan.max_cones))


class GradingData:
    """The lattice exact sequence in computable form.

    iota is the d x n matrix with row i the ray v_i, so iota_of(p) is the
    tuple of pairings <v_i, p>; the class group is its cokernel, and
    class_group.project is the one class map of the grading:
    x^a d^b, and its symbol x^a xi^b, has the class project(a - b), so
    deg(x_i) = project(e_i) (class_group.unit_classes) = -deg(d_i).
    dual_basis spans the integer functionals vanishing on the image, and its
    j-th functional u_j pairs with a class as the class's j-th free
    coordinate, <u_j, beta> = beta_j, with no lattice representative.
    """

    def __init__(self, fan: Fan):
        self.fan = fan
        self.class_group = FinitelyGeneratedAbelianGroup(fan.smith_form())
        self.dual_basis = tuple(dual_lattice_basis(self.class_group))
        self.e_bar = self.class_group.project((1,) * fan.d)

    @property
    def d(self) -> int:
        return self.fan.d

    @property
    def n(self) -> int:
        return self.fan.n

    def iota_of(self, p) -> tuple[int, ...]:
        return tuple(sum(map(mul, ray, p)) for ray in self.fan.rays)


def grading_data(fan: Fan) -> GradingData:
    validate_smooth_fan(fan)
    return GradingData(fan)


def euler_operators(grading: GradingData) -> list[WeylElement]:
    """theta_u = sum_i <u, e_i> x_i d_i for each u of the dual basis."""
    return [theta_u(u) for u in grading.dual_basis]
