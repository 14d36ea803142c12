"""Shared test utilities: fixtures, seeded RNG and independent oracles."""

from __future__ import annotations

import ast
import heapq
import importlib.util
import os
import pathlib
import random
import re
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod
from operator import mul, sub

from toric_dmod.charvar import CharReport
from toric_dmod.dmod import (LEFT, GradedPresentation, d_module_left,
                             left_right_swap, local_radius, require_chart_cone,
                             weyl_degree)
from toric_dmod.errors import (FanValidationError, NonSimplicialCone, NonSmoothCone,
                               ParseError, RaysDoNotSpan)
from toric_dmod.fan_cox import (Fan, GradingData, _fm_feasible,
                                _overlapping_cones, grading_data)
from toric_dmod import groebner
from toric_dmod.groebner import (EMPTY_DIM, Poly, PolyRing,
                                 annihilator_of_graded_quotient, basis_dimension,
                                 initial_forms, radical_membership, weyl_buchberger)
from toric_dmod.lattice import integer_rref
from toric_dmod.parsing import MAX_COEFF_DIGITS, MAX_EXPONENT, MAX_TERMS
from toric_dmod.weyl import (WeylElement, from_theta_form, to_theta_form, tp_add,
                             tp_divide_linear_product, tp_linear_form,
                             tp_linear_product, tp_mul, tp_subst, theta_u,
                             weyl_mul)


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """A module of perfbench/ loaded from its file (the caller turns bytecode
    writing off, so nothing is written under perfbench/)."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_env() -> dict:
    """Environment for running the CLI in a child process: the package is
    found in src/ whether or not it is installed."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def rng(salt: int = 0) -> random.Random:
    seed = int(os.environ.get("TORIC_DMOD_SEED", "20240718"))
    return random.Random(seed + salt)



@contextmanager
def cpu_time_limit(seconds: float, what: str):
    """Raise TimeoutError in the block once it has used seconds of CPU time
    (a profiling timer, so a busy machine does not count against it).

    ITIMER_PROF is one timer per process, so a limit nested in another (the
    per-test bound of conftest.py) saves the outer timer's remainder and
    handler: when the outer limit runs out first, its handler raises, and
    on leaving the block the outer timer runs on with what the block left
    of it."""
    outer = signal.getitimer(signal.ITIMER_PROF)[0]
    inner_first = not outer or seconds <= outer

    def over(signum, frame):
        if inner_first:
            raise TimeoutError(f"{what} took over {seconds} s of CPU")
        previous(signum, frame)

    previous = signal.signal(signal.SIGPROF, over)
    start = time.process_time()
    signal.setitimer(signal.ITIMER_PROF, seconds if inner_first else outer)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
        if outer:
            left = outer - (time.process_time() - start)
            # an outer limit already spent fires at once
            signal.setitimer(signal.ITIMER_PROF, max(left, 1e-6))

def fan_p1() -> Fan:
    return Fan(1, [[1], [-1]], [[0], [1]])


def fan_p2() -> Fan:
    return Fan(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]])


def fan_p1p1() -> Fan:
    return Fan(2, [[1, 0], [-1, 0], [0, 1], [0, -1]],
               [[0, 2], [0, 3], [1, 2], [1, 3]])


def fan_hirzebruch1() -> Fan:
    return Fan(2, [[1, 0], [0, 1], [-1, 1], [0, -1]],
               [[0, 1], [1, 2], [2, 3], [3, 0]])


def fan_torsion() -> Fan:
    # two rays, no top cone: the class group is Z/2
    return Fan(2, [[1, 1], [1, -1]], [])


def fan_p3() -> Fan:
    return Fan(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
               list(combinations(range(4), 3)))


def fan_p1_cubed() -> Fan:
    return Fan(3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                   [0, 0, 1], [0, 0, -1]], list(product((0, 1), (2, 3), (4, 5))))


def all_fixture_fans():
    return [("p1", fan_p1()), ("p2", fan_p2()), ("p1p1", fan_p1p1()),
            ("hirzebruch1", fan_hirzebruch1())]


def grading(fan: Fan) -> GradingData:
    return grading_data(fan)


# generated fans and the per-ray common-face criterion


def star_subdivide(fan: Fan, tau) -> Fan:
    """The star subdivision of a smooth fan at its cone tau: the new ray is the
    sum of tau's rays, and each maximal cone s containing tau is replaced by
    the cones s - {i} + {new ray}, i in tau. Smooth and complete stay so."""
    new = fan.d
    ray = tuple(map(sum, zip(*(fan.rays[i] for i in tau))))
    cones = []
    for s in fan.max_cones:
        if set(tau) <= set(s):
            cones += [tuple(j for j in s if j != i) + (new,) for i in tau]
        else:
            cones.append(s)
    return Fan(fan.n, fan.rays + (ray,), cones)


def star_subdivided_fans(r: random.Random, fan: Fan, steps: int):
    """The fans after each of `steps` star subdivisions of `fan`, each at two
    rays of a random maximal cone or at the whole cone."""
    for _ in range(steps):
        cone = r.choice(fan.max_cones)
        tau = cone if r.random() < 0.5 else tuple(sorted(r.sample(cone, 2)))
        fan = star_subdivide(fan, tau)
        yield fan


def random_primitive_rays(r: random.Random, n: int, count: int) -> list:
    """count distinct primitive rays drawn from [-2, 2]^n, sorted. Z^1 has
    only the two primitive rays 1 and -1, so for n = 1 it returns at most
    those two."""
    if n == 1:
        count = min(count, 2)
    rays = set()
    while len(rays) < count:
        ray = tuple(r.randint(-2, 2) for _ in range(n))
        if any(ray) and gcd(*ray) == 1:
            rays.add(ray)
    return sorted(rays)


def random_simplicial_fan(r: random.Random, n: int) -> Fan:
    """Distinct primitive rays in [-2, 2]^n and a few random cones of linearly
    independent rays; the cones may overlap."""
    rays = random_primitive_rays(r, n, r.randint(n + 1, n + 4))
    cones = []
    for _ in range(r.randint(2, 4)):
        cone = r.sample(range(len(rays)), r.randint(1, n))
        if matrix_rank([rays[i] for i in cone]) == len(cone):
            cones.append(cone)
    return Fan(n, rays, cones)


def overlapping_cones_per_ray(fan: Fan):
    """Reference for the common-face check of simplicial fans: the first pair
    of maximal cones, in the order of combinations, that overlaps, or None.
    A pair overlaps when, in either order, one Fourier-Motzkin system per ray
    j0 of the other cone missing from the base is feasible: is there a point
    of both cones whose coordinate mu_j0 over the other cone is >= 1?"""
    for s1, s2 in combinations(fan.max_cones, 2):
        for base, other in ((s1, s2), (s2, s1)):
            for j0 in (j for j in other if j not in base):
                # mu over `other`, lam over `base`; sum mu v = sum lam v, mu_j0 >= 1
                nvars = len(other) + len(base)
                eqs = [([fan.rays[j][k] for j in other] + [-fan.rays[i][k] for i in base], 0)
                       for k in range(fan.n)]
                ineqs = [(tuple(int(t == k) for t in range(nvars)), 0) for k in range(nvars)]
                ineqs.append((tuple(int(t == other.index(j0)) for t in range(nvars)), -1))
                if _fm_feasible(eqs, ineqs, nvars):
                    return s1, s2
    return None


# the face set and the per-face cone checks, the reference for the checks
# on maximal cones


def fan_faces(fan: Fan) -> set:
    """Every cone of the fan as a sorted index tuple: all faces of the maximal
    cones, the zero cone included."""
    faces = {()}
    for cone in fan.max_cones:
        for k in range(1, len(cone) + 1):
            faces.update(combinations(cone, k))
    return faces


def defective_faces(fan: Fan) -> list:
    """(face, error class) for every nonzero face in (size, indices) order
    that is not simplicial (a rank test) or not smooth (the gcd of its k x k
    minors is not 1)."""
    defects = []
    for cone in sorted(fan_faces(fan), key=lambda c: (len(c), c)):
        if not cone:
            continue
        m, k = cone_rays(fan, cone), len(cone)
        if matrix_rank(m) != k:
            defects.append((cone, NonSimplicialCone))
            continue
        g = 0
        for cols in combinations(range(fan.n), k):
            g = gcd(g, det([[row[j] for j in cols] for row in m]))
        if abs(g) != 1:
            defects.append((cone, NonSmoothCone))
    return defects


def validate_per_face(fan: Fan):
    """Reference for validate_smooth_fan with the cone checks run on every
    face: the error it raises, or None. The first defective face is the
    smallest, so a fan whose maximal cone is not simplicial but has a face
    that is not smooth gets NonSmoothCone here."""
    for ray in fan.rays:
        if not any(ray) or gcd(*ray) != 1:
            return FanValidationError("ray is zero or not primitive")
    if len(set(fan.rays)) != len(fan.rays):
        return FanValidationError("rays are not pairwise distinct")
    if matrix_rank(fan.rays) != fan.n:
        return RaysDoNotSpan("rays do not span the ambient space")
    defects = defective_faces(fan)
    if defects:
        cone, cls = defects[0]
        return cls(f"cone {tuple(i + 1 for i in cone)}")
    if _overlapping_cones(fan):
        return FanValidationError("cones intersect in more than a common face")
    return None


def random_fan(r: random.Random, n: int) -> Fan:
    """Distinct primitive rays in [-2, 2]^n and a few random cones of 1 to
    n + 1 rays: cones may be dependent, not smooth or overlapping, and the
    rays may not span."""
    rays = random_primitive_rays(r, n, r.randint(n, n + 3))
    cones = [r.sample(range(len(rays)), r.randint(1, min(n + 1, len(rays))))
             for _ in range(r.randint(1, 4))]
    return Fan(n, rays, cones)


def cone_rays(fan: Fan, cone) -> tuple[tuple[int, ...], ...]:
    """The k x n ray matrix of a cone: the rows are its rays."""
    return tuple(fan.rays[i] for i in cone)


def identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matrix_product(a, b) -> tuple[tuple[int, ...], ...]:
    if any(len(row) != len(b) for row in a):
        raise ValueError("shape mismatch")
    return tuple(tuple(sum(map(mul, row, col)) for col in zip(*b)) for row in a)


def matrix_vector(m, v) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in m)


def matrix_rank(rows) -> int:
    """Rank over Q: the number of pivots of the integer row echelon form."""
    return len(integer_rref(rows)[1])


def unimodular_inverse(mat) -> tuple[tuple[int, ...], ...]:
    """Inverse of a unimodular matrix: the reduced form of [M | I] is [I | M^-1]."""
    n = len(mat)
    rows, pivots = integer_rref([tuple(row) + tuple(int(k == i) for k in range(n))
                                 for i, row in enumerate(mat)])
    if any(len(row) != n for row in mat) or pivots != list(range(n)) \
            or any(row[i] != 1 for i, row in enumerate(rows)):
        raise ValueError("matrix is not unimodular")
    return tuple(row[n:] for row in rows)


def class_section(group, cls) -> tuple[int, ...]:
    """A lattice representative of a class (a right inverse of project):
    the class's coordinates put at their Smith slots, then U^-1."""
    cls = group.reduce(cls)
    y = [0] * group.ambient_rank
    for c, slot in zip(cls, group._free_slots + group._torsion_slots):
        y[slot] = c
    return matrix_vector(unimodular_inverse(group._u), y)


def det(m) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("det of non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def invariant_factor_oracle(m) -> tuple[int, ...]:
    """Invariant factors via gcds of k x k minors (determinantal divisors),
    independent of the elimination-based Smith routine."""
    width = len(m[0]) if m else 0

    def minor_gcd(k: int) -> int:
        g = 0
        for rows in combinations(m, k):
            for cols in combinations(range(width), k):
                g = gcd(g, det([[row[j] for j in cols] for row in rows]))
        return abs(g)

    factors = []
    prev = 1
    for k in range(1, min(len(m), width) + 1):
        dk = minor_gcd(k)
        if dk == 0:
            break
        factors.append(dk // prev)
        prev = dk
    return tuple(factors)


def smith_normal_form_by_closures(m) -> tuple[tuple, tuple, tuple[int, ...]]:
    """Reference for lattice.smith_normal_form: the same pivot rule and the
    same row and column operations, each through a closure."""
    rows, cols = len(m), len(m[0]) if m else 0
    a = [list(row) for row in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def add_row(i, j, c):
        # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_col(i, j, c):
        # col i += c * col j
        for r in a:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]

    def pivot_search(k):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                x = abs(a[i][j])
                if x != 0 and (best is None or x < best[0]):
                    best = (x, i, j)
        return best

    k = 0
    while k < min(rows, cols):
        found = pivot_search(k)
        if found is None:
            break
        _, pi, pj = found
        if pi != k:
            swap_rows(k, pi)
        if pj != k:
            swap_cols(k, pj)
        if a[k][k] < 0:
            negate_row(k)
        # clear row and column k; remainders can reappear, so loop
        while True:
            dirty = False
            for i in range(k + 1, rows):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    add_row(i, k, -q)
                    if a[i][k] != 0:
                        swap_rows(k, i)
                        if a[k][k] < 0:
                            negate_row(k)
                        dirty = True
            for j in range(k + 1, cols):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    add_col(j, k, -q)
                    if a[k][j] != 0:
                        swap_cols(k, j)
                        if a[k][k] < 0:
                            negate_row(k)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of the trailing block by the pivot
        bad = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if a[i][j] % a[k][k] != 0:
                    bad = (i, j)
                    break
            if bad:
                break
        if bad is not None:
            add_row(k, bad[0], 1)
            continue
        k += 1

    factors = tuple(a[i][i] for i in range(k))
    return tuple(map(tuple, u)), tuple(map(tuple, v)), factors


def fraction_eval(p: dict, point) -> Fraction:
    """p at a point, term by term in plain Fraction arithmetic (independent
    of the kernel's common-denominator evaluation)."""
    total = Fraction(0)
    for e, c in p.items():
        v = Fraction(c)
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        total += v
    return total


def linear_product_per_factor(d: int, factors) -> dict:
    """weyl.tp_linear_product one factor at a time on the integer numerators
    of the whole d-variate product: (theta_i - m) = (s theta_i - r) / s for
    m = r / s in lowest terms."""
    den, nums = 1, {(0,) * d: 1}
    for i, m in factors:
        r, s = m.numerator, m.denominator
        out: dict = {}
        for e, c in nums.items():
            up = e[:i] + (e[i] + 1,) + e[i + 1:]
            out[up] = out.get(up, 0) + s * c
            out[e] = out.get(e, 0) - r * c
        den *= s
        nums = {e: c for e, c in out.items() if c}
    return {e: Fraction(c, den) for e, c in nums.items()}


# vertex-enumeration feasibility oracle (independent of Fourier-Motzkin)


def _unique_solution(rows, nvars: int):
    """The only z with co . z + c = 0 for every (co, c), or None when there
    is no solution or more than one."""
    a = [[Fraction(x) for x in co] + [Fraction(-c)] for co, c in rows]
    for col in range(nvars):
        piv = next((i for i in range(col, len(a)) if a[i][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(len(a)):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    if any(row[nvars] for row in a[nvars:]):
        return None
    return tuple(a[i][nvars] for i in range(nvars))


def vertex_feasible(eqs, ineqs, nvars: int) -> bool:
    """Whether {z : eq . z + c = 0, ineq . z + c >= 0} is nonempty over Q.

    Only for pointed polyhedra (z >= 0 among the inequalities, say): such a
    polyhedron is nonempty iff it has a vertex, a point where the equalities
    and some inequalities hold with equality and fix z uniquely.
    """
    def value(co, c, z):
        return sum(x * y for x, y in zip(co, z)) + c

    for k in range(nvars + 1):
        for active in combinations(ineqs, k):
            z = _unique_solution(list(eqs) + list(active), nvars)
            if z is not None and all(value(co, c, z) >= 0 for co, c in ineqs):
                return True
    return False


# Macaulay-matrix linear-algebra membership oracle (independent of Buchberger)


def _monomials_up_to(nvars: int, degree: int):
    def rec(pos, remaining):
        if pos == nvars - 1:
            for k in range(remaining + 1):
                yield (k,)
            return
        for k in range(remaining + 1):
            for rest in rec(pos + 1, remaining - k):
                yield (k,) + rest
    if nvars == 0:
        yield ()
        return
    yield from rec(0, degree)


def _echelon_reduce(row: dict, echelon: dict) -> dict:
    row = dict(row)
    while row:
        lead = max(row)
        if lead not in echelon:
            return row
        c = row[lead]
        for e, v in echelon[lead].items():
            nv = row.get(e, Fraction(0)) - c * v
            if nv:
                row[e] = nv
            else:
                row.pop(e, None)
    return row


class MacaulayOracle:
    """Span of {x^m g : total degree <= cap} via exact Gaussian elimination.

    A desk-scale membership decision procedure independent of Buchberger;
    the echelon basis is built once and reused across membership queries.
    """

    def __init__(self, gens: list[Poly], ring: PolyRing, degree_cap: int):
        self.cap = degree_cap
        self.echelon: dict = {}
        for g in gens:
            if g.is_zero():
                continue
            gdeg = g.total_degree()
            for m in _monomials_up_to(ring.nvars, max(degree_cap - gdeg, 0)):
                shifted = {tuple(x + y for x, y in zip(e, m)): c
                           for e, c in g.terms.items()}
                row = _echelon_reduce(shifted, self.echelon)
                if row:
                    lead = max(row)
                    c = row[lead]
                    self.echelon[lead] = {e: v / c for e, v in row.items()}

    def member(self, f: Poly) -> bool:
        return not _echelon_reduce(dict(f.terms), self.echelon)


def macaulay_membership(f: Poly, gens: list[Poly], degree_cap: int) -> bool:
    return MacaulayOracle(gens, f.ring, degree_cap).member(f)


def macaulay_membership_stable(f: Poly, gens: list[Poly], extra: int = 4) -> bool:
    """Membership with the multiplier degree window widened until stable."""
    base = max([f.total_degree()] + [g.total_degree() for g in gens])
    return any(macaulay_membership(f, gens, base + k) for k in range(extra + 1))


# filtered Macaulay-matrix membership oracle for left submodules of A_d^rank
# (independent of the Weyl engine and of its normal-ordering expansion)


def weyl_rows_to_dict(row) -> dict:
    """A row of WeylElements as {(component, a, b): coefficient}."""
    return {(comp, a, b): c for comp, elt in enumerate(row) for (a, b), c in elt.terms.items()}


def weyl_left_mul_var(terms: dict, var: str, i: int) -> dict:
    """x_i * f or d_i * f, from d_i x^a = x^a d_i + a_i x^(a - e_i)."""
    out: dict = {}
    for (comp, a, b), c in terms.items():
        step = tuple(int(j == i) for j in range(len(a)))
        if var == "x":
            moves = [((comp, tuple(map(sum, zip(a, step))), b), c)]
        else:
            moves = [((comp, a, tuple(map(sum, zip(b, step)))), c)]
            if a[i]:
                moves.append(((comp, tuple(x - y for x, y in zip(a, step)), b), c * a[i]))
        for key, v in moves:
            nv = out.get(key, Fraction(0)) + v
            if nv:
                out[key] = nv
            else:
                out.pop(key, None)
    return out


def weyl_left_mul_monomial(terms: dict, alpha, beta) -> dict:
    """x^alpha d^beta * f, one variable at a time (d's first)."""
    for i, k in enumerate(beta):
        for _ in range(k):
            terms = weyl_left_mul_var(terms, "d", i)
    for i, k in enumerate(alpha):
        for _ in range(k):
            terms = weyl_left_mul_var(terms, "x", i)
    return terms


def wreduce_max_scan(work: dict, reducers, order_key) -> tuple[dict, int]:
    """Reference for groebner._wreduce: the leading term by a max scan under
    order_key, the first reducer whose lead divides it, lc / gcd scaling,
    and the shifted reducer from weyl_left_mul_monomial."""
    remainder, scale = {}, 1
    while work:
        cab = max(work, key=order_key)
        comp, a, b = cab
        r = next((r for r in reducers if r.comp == comp
                  and all(x >= y for x, y in zip(a + b, r.a + r.b))), None)
        if r is None:
            remainder[cab] = work.pop(cab)
            continue
        g = gcd(work[cab], r.lc)
        c, m = work[cab] // g, r.lc // g
        work = {k: v * m for k, v in work.items()}
        remainder = {k: v * m for k, v in remainder.items()}
        scale *= m
        shifted = weyl_left_mul_monomial(r.vec, tuple(x - y for x, y in zip(a, r.a)),
                                         tuple(x - y for x, y in zip(b, r.b)))
        for k, v in shifted.items():
            work[k] = work.get(k, 0) - c * int(v)
        work = {k: v for k, v in work.items() if v}
    return remainder, scale


def weyl_buchberger_all_pairs(gens, rank: int, d: int) -> list:
    """Reference for the pair queue of groebner.weyl_buchberger: the same
    engine with every queued S-pair in one heap of (lcm key, i, j), each
    element's pairs pushed when it joins the basis. It calls the engine's
    kernel, S-element and inter-reduction through the module, so a test
    that patches groebner._s_element sees both engines' pairs."""
    groebner._check_rows(gens, rank, d)
    basis = sorted((groebner._WeylReducer(w) for w in map(groebner._rows_to_wdict, gens) if w),
                   key=lambda r: groebner._lead_key((r.comp, r.a, r.b)), reverse=True)
    heap: list = []

    def push_pairs(j):
        for i in range(j):
            ri, rj = basis[i], basis[j]
            if ri.comp == rj.comp:
                la, lb = tuple(map(max, ri.a, rj.a)), tuple(map(max, ri.b, rj.b))
                heapq.heappush(heap, (groebner._module_order_key((ri.comp, la, lb)), i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while heap:
        _, i, j = heapq.heappop(heap)
        s, _ = groebner._wreduce(groebner._s_element(basis[i], basis[j]), basis)
        if s:
            basis.append(groebner._WeylReducer(s))
            push_pairs(len(basis) - 1)
    return [groebner._wdict_to_rows(h, den, rank, d) for h, den in groebner._interreduced(basis)]


def bernstein_degree(terms: dict) -> int:
    """Largest |a| + |b| over the terms (0 for none)."""
    return max((sum(a) + sum(b) for (_, a, b) in terms), default=0)


class WeylMacaulayOracle:
    """Span of {x^alpha d^beta g : |alpha| + |beta| + deg g <= cap} for the
    generator rows g of a left submodule of A_d^rank, deg the Bernstein
    degree, by exact Gaussian elimination. A member at some cap is a member;
    the converse needs a large enough cap.
    """

    def __init__(self, gens, d: int, degree_cap: int):
        self.echelon: dict = {}
        for g in gens:
            g = weyl_rows_to_dict(g)
            room = degree_cap - bernstein_degree(g)
            for beta in _monomials_up_to(d, room):
                dg = weyl_left_mul_monomial(g, (0,) * d, beta)
                for alpha in _monomials_up_to(d, room - sum(beta)):
                    row = _echelon_reduce(weyl_left_mul_monomial(dg, alpha, (0,) * d),
                                          self.echelon)
                    if row:
                        lead = max(row)
                        c = row[lead]
                        self.echelon[lead] = {e: v / c for e, v in row.items()}

    def member(self, row) -> bool:
        return not _echelon_reduce(weyl_rows_to_dict(row), self.echelon)


def random_poly(r: random.Random, ring: PolyRing, degree: int, nterms: int) -> Poly:
    terms = {}
    for _ in range(nterms):
        total = r.randint(0, degree)
        e = [0] * ring.nvars
        for _ in range(total):
            e[r.randrange(ring.nvars)] += 1
        c = Fraction(r.randint(-5, 5))
        if c:
            terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
    return Poly(ring, terms)


def annihilator_two_step(init_vecs: list[dict], sprime: PolyRing, rank: int) -> list[Poly]:
    """Reference for annihilator_of_graded_quotient at rank >= 2: with the
    colon's component renumbered last, the colon is the reduced basis,
    built again, of the module basis elements led there; the annihilator is
    the intersection of the colons."""
    from toric_dmod.groebner import buchberger, groebner_basis, intersect_ideals
    ann = None
    for i in range(rank):
        place = {comp: k for k, comp in enumerate([j for j in range(rank) if j != i] + [i])}
        gb = buchberger([{(place[comp], e, ()): c for (comp, e), c in v.items()}
                         for v in init_vecs], rank)
        colon = groebner_basis([Poly(sprime, {a: c for (_, a, _), c in g.items()})
                                for g in gb if all(comp == rank - 1 for comp, _, _ in g)],
                               sprime)
        ann = colon if ann is None else intersect_ideals(ann, colon, sprime)
    return ann


def random_weyl(r: random.Random, d: int, degree: int = 2, nterms: int = 3) -> WeylElement:
    terms = {}
    for _ in range(nterms):
        a = tuple(r.randint(0, degree) for _ in range(d))
        b = tuple(r.randint(0, degree) for _ in range(d))
        c = Fraction(r.randint(-4, 4), r.randint(1, 3))
        if c:
            terms[(a, b)] = terms.get((a, b), Fraction(0)) + c
    return WeylElement(d, terms)


def random_homogeneous_weyl(r: random.Random, gd: GradingData, total: int = 2,
                            nterms: int = 2) -> WeylElement:
    """Nonzero homogeneous element of bounded total degree: monomials sharing
    a class-group degree, with random coefficients."""
    d = gd.d
    group = gd.class_group
    buckets: dict = {}
    for a in product(range(total + 1), repeat=d):
        if sum(a) > total:
            continue
        for b in product(range(total + 1 - sum(a)), repeat=d):
            cls = group.add(group.project(a), group.neg(group.project(b)))
            buckets.setdefault(cls, []).append((a, b))
    cls = r.choice(sorted(buckets))
    pool = buckets[cls]
    terms = {}
    for _ in range(nterms):
        a, b = pool[r.randrange(len(pool))]
        c = Fraction(r.randint(-3, 3))
        if c:
            terms[(a, b)] = terms.get((a, b), Fraction(0)) + c
    terms = {k: c for k, c in terms.items() if c}
    if not terms:
        a, b = pool[0]
        terms[(a, b)] = Fraction(1)
    return WeylElement(d, terms)


def random_presentation(r: random.Random, gd, rank: int) -> GradedPresentation:
    """D(0) on each of rank generators, plus up to two random homogeneous
    rows: one entry, or at rank 2 an entry and a theta multiple of it (a
    theta has degree 0, so the row stays homogeneous)."""
    d, zero = gd.d, WeylElement.zero(gd.d)
    euler = [row[0] for row in d_module_left(gd, gd.class_group.zero()).relations]
    rows = [tuple(e if j == i else zero for j in range(rank))
            for i in range(rank) for e in euler]
    for _ in range(r.randint(0, 2)):
        g = random_homogeneous_weyl(r, gd, total=2)
        if rank == 1:
            rows.append((g,))
        else:
            th = theta_u(tuple(r.randint(-1, 1) for _ in range(d)), r.randint(-2, 2))
            rows.append(r.choice([(g, zero), (zero, g), (g, weyl_mul(th, g))]))
    return GradedPresentation(gd, LEFT, [gd.class_group.zero()] * rank, rows)


# the local box oracles one point at a time, the references for dmod's walk
# by box lines and intervals and for its one-pass slab oracle


def box_points(fan: Fan, cone, p, radius: int):
    """Every q of the box [-radius, radius]^n in lexicographic order, as
    (q, iota(q), q in the dual cone, q in Y(p)), with every pairing <q, v_i>
    and <q + p, v_i> summed directly."""
    for q in product(range(-radius, radius + 1), repeat=fan.n):
        iq = tuple(sum(a * b for a, b in zip(q, ray)) for ray in fan.rays)
        in_dual = all(iq[i] >= 0 for i in cone)
        shifted = [sum((a + b) * c for a, b, c in zip(q, p, fan.rays[i])) for i in cone]
        yield q, iq, in_dual, in_dual and any(x < 0 for x in shifted)


def y_p_points_per_point(fan: Fan, cone, p, radius: int) -> list:
    return [q for q, _, _, in_y in box_points(fan, cone, p, radius) if in_y]


def i_p_evaluations_per_point(fan: Fan, cone, p, ip_at, radius: int) -> tuple[bool, list]:
    """The verdict of dmod.i_p_matches_y_p and the points where it evaluates
    ip, in order: the dual-cone points up to the first one where ip's
    vanishing disagrees with Y(p) membership."""
    seen = []
    for q, _, in_dual, in_y in box_points(fan, cone, p, radius):
        if in_dual:
            seen.append(q)
            if (ip_at(q) == 0) != in_y:
                return False, seen
    return True, seen


def actions_hold_per_point(grading: GradingData, cone, p, actions, value_den: int,
                           value_line, radius: int) -> bool:
    """dmod._actions_hold with the composite applied to each y^q of the box
    on its own, as a dict {q: 1}: over D, the product of the action
    denominators, it must give {q: value * D}, and 0 on Y(p). The value at
    q is value_line(q[:-1], iota(q[:-1] + (0,)), [q[-1]])[0]."""
    den = prod(d for d, _ in actions)
    rays = grading.fan.rays
    for q, iq, _, in_y in box_points(grading.fan, cone, p, radius):
        cur = {q: 1}
        for _, apply in actions:
            cur = apply(cur)
        partial = tuple(v - q[-1] * ray[-1] for v, ray in zip(iq, rays))
        coeff, rem = divmod(value_line(q[:-1], partial, [q[-1]])[0] * den, value_den)
        if rem or cur != ({q: coeff} if coeff else {}) or (in_y and coeff):
            return False
    return True


def j_p_oracle_per_slab(grading: GradingData, cone, p, radius: int):
    """dmod.j_p_oracle with one scan of the whole box per slab: a slab is a
    factor iff every point on it is bad, and every bad point must lie on a
    factor slab. The box must hold every slab: radius >= local_radius(p)."""
    cone = grading.fan.require_cone(cone)
    ip = grading.iota_of(p)
    assert radius >= local_radius(grading, p), (radius, p)

    def bad(assign) -> bool:
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
        assert any(pt[pos] == m for (_, m, pos) in candidates), \
            "enumerated set is not covered by coordinate slabs"
    return sorted((i, m) for (i, m, _) in candidates)


# modules every fan has: O, and the b-torsion module delta


def _units(d: int):
    return [tuple(int(k == i) for k in range(d)) for i in range(d)]


def structure_sheaf(gd: GradingData) -> GradedPresentation:
    """O: A(0) modulo the left ideal of the d_i."""
    zero = (0,) * gd.d
    rows = [(WeylElement.monomial(gd.d, zero, unit),) for unit in _units(gd.d)]
    return GradedPresentation(gd, LEFT, [gd.class_group.zero()], rows)


def delta_module(gd: GradingData) -> GradedPresentation:
    """delta: A(e) modulo the left ideal of the x_i; b-torsion."""
    zero = (0,) * gd.d
    rows = [(WeylElement.monomial(gd.d, unit, zero),) for unit in _units(gd.d)]
    return GradedPresentation(gd, LEFT, [gd.e_bar], rows)


# the chart restriction oracle: the D-module on the chart U_sigma computed
# directly (Musson 1987, Cox 1995), against the report's quotient side


def cone_dual_rows(fan: Fan, cone) -> tuple[tuple[int, ...], ...]:
    """m_j, the dual basis of the cone's rays: <m_j, v_k> = [j == k], in
    Fraction arithmetic (independent of the Smith form of the cone)."""
    rows = []
    for j in range(len(cone)):
        m = _unique_solution([(fan.rays[i], -int(k == j)) for k, i in enumerate(cone)],
                             fan.n)
        assert m is not None and all(x.denominator == 1 for x in m), (cone, j)
        rows.append(tuple(int(x) for x in m))
    return tuple(rows)


def section_off_cone(gd: GradingData, cone, cls) -> tuple[int, ...]:
    """The section of cls with zero exponents on the rays of a smooth
    full-dimensional cone, solved in Fraction arithmetic from
    <u_j, a> = cls_j for the dual basis u_j and a_i = 0 on the cone (the
    class group is free there), independent of chart_frame."""
    d = gd.d
    group = gd.class_group
    assert not group.torsion_orders
    rows = [(u, -c) for u, c in zip(gd.dual_basis, group.reduce(cls))]
    rows += [(unit, 0) for i, unit in enumerate(_units(d)) if i in cone]
    a = _unique_solution(rows, d)
    assert a is not None and all(x.denominator == 1 for x in a), (cone, cls)
    return tuple(int(x) for x in a)


def chart_restriction(gd: GradingData, pres: GradedPresentation, cone) -> list[WeylElement]:
    """The relations of a rank-one left module F = A(b) / N restricted to the
    chart at a full-dimensional cone sigma: elements of A_n in the chart
    coordinates t_j = x^(iota(m_j)) and d/dt_j.

    The chart module is generated by x^s e, s the section of b that is zero
    on the cone rays. With d_i^k = x_i^(-k) theta_i (theta_i - 1) ... folded
    in, a relation is r = sum_c x^c Q_c(theta), and x^(-a) r x^(-s) =
    sum_c t^p Q_c(theta - s) with a the section of deg(r) - b and p the part
    of c on the cone rays. theta_i acts there as sum_j <m_j, v_i> vartheta_j,
    vartheta_j = t_j d/dt_j, and where p_j < 0, t_j^(p_j) Q = d_j^(-p_j) Q /
    (vartheta_j (vartheta_j - 1) ...), an exact division.
    """
    cone = require_chart_cone(gd, cone)
    assert pres.side == LEFT and pres.rank == 1
    d, n, group = gd.d, gd.n, gd.class_group
    dual = cone_dual_rows(gd.fan, cone)
    b = pres.twists[0]
    s = section_off_cone(gd, cone, b)
    images = [tp_linear_form([sum(map(mul, m, ray)) for m in dual], -si)
              for ray, si in zip(gd.fan.rays, s)]
    out = []
    for (r,) in pres.relations:
        if r.is_zero():
            continue
        a = section_off_cone(gd, cone, group.add(weyl_degree(gd, r), group.neg(b)))
        tf: dict = {}
        for c, w in to_theta_form(r).items():
            p = tuple(c[i] for i in cone)
            # x^(c - s - a) is the degree-zero monomial t^p
            assert tuple(map(sub, c, map(sum, zip(s, a)))) == gd.iota_of(
                [sum(pj * m[k] for pj, m in zip(p, dual)) for k in range(n)])
            lowered = tp_linear_product(d, [(i, k) for i, ci in enumerate(c)
                                            for k in range(-ci)])
            q = tp_divide_linear_product(tp_subst(tp_mul(lowered, w), images, n),
                                         [(j, k) for j, pj in enumerate(p)
                                          for k in range(-pj)])
            assert q is not None, (cone, c)
            tf[p] = tp_add(tf.get(p, {}), q)
        out.append(from_theta_form(n, {p: q for p, q in tf.items() if q}))
    return out


@dataclass(frozen=True)
class RestrictedChart:
    """The restricted module A_n / (chart_restriction) at one cone: whether
    it is zero (its basis holds a unit) and its characteristic ideal in
    k[t, tau], tau_j the symbol of d/dt_j, with that ideal's dimension."""

    cone: tuple[int, ...]
    ring: PolyRing
    zero: bool
    char_ideal: list[Poly]
    dimension: object          # int or EMPTY_DIM


def restrict_to_chart(gd: GradingData, pres: GradedPresentation, cone) -> RestrictedChart:
    n = gd.n
    cone = require_chart_cone(gd, cone)
    ring = PolyRing(tuple(f"t{j + 1}" for j in range(n))
                    + tuple(f"tau{j + 1}" for j in range(n)))
    rows = [(g,) for g in chart_restriction(gd, pres, cone) if not g.is_zero()]
    gb = weyl_buchberger(rows, 1, n) if rows else []
    ideal = annihilator_of_graded_quotient(initial_forms(gb), ring, 1)
    one = WeylElement.monomial(n, (0,) * n, (0,) * n)
    return RestrictedChart(cone, ring, (one,) in gb, ideal, basis_dimension(ideal, ring))


def chart_generator_exponents(frame) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (x, xi) exponents of the chart generators t_1..t_n, u_1..u_d of
    frame, read from the frame: t_j = x^iota(m_j), u_i = x^(s_i) xi_i."""
    d = len(frame.u_sections)
    return ([(t, (0,) * d) for t in frame.t_exponents]
            + list(zip(frame.u_sections, _units(d))))


def chart_in_cotangent(gd: GradingData, chart, ring: PolyRing) -> list[Poly]:
    """The report's chart ideal in k[t, tau]: t_j stays, u_i goes to tau_j
    when i is the j-th ray of the cone and to sum_j <m_j, v_i> t_j tau_j
    otherwise."""
    n, cone = gd.n, chart.frame.cone
    dual = cone_dual_rows(gd.fan, cone)

    def unit(*ks):
        return tuple(int(k in ks) for k in range(2 * n))
    images = [{unit(j): Fraction(1)} for j in range(n)]
    for i, ray in enumerate(gd.fan.rays):
        if i in cone:
            images.append({unit(n + cone.index(i)): Fraction(1)})
        else:
            pairings = [sum(map(mul, m, ray)) for m in dual]
            images.append({unit(j, n + j): Fraction(c) for j, c in enumerate(pairings) if c})
    return [Poly(ring, tp_subst(g.terms, images, 2 * n)) for g in chart.image_ideal]


def assert_restriction_agrees(gd: GradingData, pres: GradedPresentation,
                              report: CharReport) -> list[RestrictedChart]:
    """Check the report of pres against its restriction to every chart and
    return the restrictions; a right module is restricted through
    left_right_swap.

    On each full-dimensional maximal cone the restricted characteristic
    ideal and the report's chart ideal have one radical and one dimension;
    the report reads torsion exactly when every restriction is zero, and
    holonomic-sheaf exactly when some restriction is nonzero and every one
    has characteristic dimension at most n (the paper's main theorems).
    """
    left = pres if pres.side == LEFT else left_right_swap(pres)
    assert report.charts is not None
    restricted = []
    for chart in report.charts:
        rc = restrict_to_chart(gd, left, chart.frame.cone)
        image = chart_in_cotangent(gd, chart, rc.ring)
        assert all(radical_membership(f, rc.char_ideal, rc.ring) for f in image), rc.cone
        assert all(radical_membership(f, image, rc.ring) for f in rc.char_ideal), rc.cone
        assert chart.dimension == rc.dimension, rc.cone
        assert rc.zero == (rc.dimension == EMPTY_DIM), rc.cone
        restricted.append(rc)
    live = [rc.dimension for rc in restricted if not rc.zero]
    assert report.torsion == (not live)
    assert report.holonomic_sheaf == (bool(live) and max(live) <= gd.n)
    return restricted


# the document and expression readers the CLI used before it read plain values
# through json and one factor per regex match: the references for cli._value,
# cli._strip_comment and parsing.parse_terms


def strip_comment_by_loop(line: str) -> str:
    """Everything before the first # outside quotes, one character at a time."""
    out = []
    quote = None
    for ch in line:
        if quote:
            out.append(ch)
            if ch == quote:
                quote = None
            continue
        if ch in "'\"":
            quote = ch
            out.append(ch)
            continue
        if ch == "#":
            break
        out.append(ch)
    return "".join(out)


literal_value = ast.literal_eval

_DESCENT_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[a-zA-Z]+)(?P<idx>\d+)|(?P<op>[*^+/\-]))")


def _descent_tokens(text: str):
    pos = 0
    while pos < len(text):
        m = _DESCENT_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r} at offset {pos}")
        try:
            if m.group("int") is not None:
                token = ("int", int(m.group("int")))
            elif m.group("var") is not None:
                token = ("var", (m.group("var"), int(m.group("idx"))))
            else:
                token = ("op", m.group("op"))
        except ValueError:  # more digits than int() converts
            raise ParseError(f"integer too long at offset {pos}") from None
        pos = m.end()
        yield token


def parse_terms_by_descent(text: str) -> list:
    """parsing.parse_terms by recursive descent over a lazy token stream, with
    one token of lookahead and the same bounds, checked factor by factor."""
    limit = 10 ** MAX_COEFF_DIGITS
    tokens = _descent_tokens(text)
    ahead = next(tokens, (None, None))
    if ahead[0] is None:
        raise ParseError("empty expression")

    def take(kind, value=None):
        nonlocal ahead
        tk, tv = ahead
        if tk != kind or (value is not None and tv != value):
            raise ParseError(f"unexpected token {tv!r}")
        ahead = next(tokens, (None, None))
        return tv

    def parse_factor():
        tk, tv = ahead
        if tk == "int":
            take("int")
            if ahead == ("op", "/"):
                take("op", "/")
                den = take("int")
                if den == 0:
                    raise ParseError("zero denominator")
                return Fraction(tv, den), None
            return Fraction(tv), None
        if tk == "var":
            take("var")
            exp = 1
            if ahead == ("op", "^"):
                take("op", "^")
                exp = take("int")
            return None, (tv[0], tv[1], exp)
        raise ParseError("expected a coefficient or variable")

    def parse_term():
        num = den = 1
        degree = 0
        vars_ = []
        while True:
            c, v = parse_factor()
            if c is not None:
                num *= c.numerator
                den *= c.denominator
                if abs(num) >= limit or den >= limit:
                    raise ParseError(f"more than {MAX_COEFF_DIGITS} digits")
            else:
                vars_.append(v)
                degree += v[2]
                if degree > MAX_EXPONENT:
                    raise ParseError(f"exponents summing to more than {MAX_EXPONENT}")
            if ahead == ("op", "*"):
                take("op", "*")
                continue
            break
        return Fraction(num, den), vars_

    terms = []
    sign = 1
    tk, tv = ahead
    if tk == "op" and tv in "+-":
        sign = -1 if tv == "-" else 1
        take("op")
    while True:
        if len(terms) == MAX_TERMS:
            raise ParseError(f"more than {MAX_TERMS} terms")
        coeff, vars_ = parse_term()
        terms.append((sign * coeff, vars_))
        tk, tv = ahead
        if tk is None:
            break
        if tk == "op" and tv in "+-":
            sign = -1 if tv == "-" else 1
            take("op")
            continue
        raise ParseError(f"unexpected token {tv!r}")
    return terms


def sum_terms_by_fractions(terms, d: int, prefixes: tuple) -> dict:
    """weyl._parse_sum's dict, {exponents: coefficient}, summed through
    Fraction arithmetic: every coefficient is added to the one stored, 0 for a
    new key, and a zero sum is dropped."""
    slots = {pfx: k * d for k, pfx in enumerate(prefixes)}
    out: dict = {}
    for coeff, vars_ in terms:
        e = [0] * (len(prefixes) * d)
        for pfx, idx, exp in vars_:
            if pfx not in slots or not 1 <= idx <= d:
                raise ParseError(f"bad variable {pfx}{idx}")
            e[slots[pfx] + idx - 1] += exp
        nc = out.get(tuple(e), 0) + coeff
        if nc:
            out[tuple(e)] = nc
        else:
            out.pop(tuple(e), None)
    return out
