"""Exact integer linear algebra: Smith normal form, cokernels, dual bases.

Everything works with arbitrary-precision Python ints; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular integer matrix."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise ValueError("ragged matrix")

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return IntMatrix(tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                  for j in range(other.cols))
            for i in range(self.rows)))

    def mul_vec(self, v) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(map(mul, row, v)) for row in self.entries)

    def rank(self) -> int:
        """Rank over Q: the number of pivots of the integer row echelon form."""
        return len(integer_rref(self.entries)[1])


def primitive(row) -> tuple[int, ...]:
    """The row divided by the gcd of its entries (unchanged if that is 0 or 1)."""
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def integer_rref(rows) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon form over Z, without fractions.

    Returns the nonzero rows and their pivot columns. Every row is a primitive
    integer vector with a positive pivot, and each pivot column is zero in
    every other row; the rows span the input's row space over Q. A row op
    scales by the (positive) pivot and divides out the gcd, so no fraction
    arises and common factors do not build up.
    """
    a = [primitive([int(x) for x in row]) for row in rows]
    width = len(a[0]) if a else 0
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r] if a[r][col] > 0 else tuple(-x for x in a[r])
        a[r] = prow
        p = prow[col]
        for i, row in enumerate(a):
            f = row[col]
            if f and i != r:
                a[i] = primitive([p * x - f * y for x, y in zip(row, prow)])
        pivots.append(col)
    return a[:len(pivots)], pivots


def unimodular_inverse(mat: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix: the reduced form of [M | I] is [I | M^-1]."""
    n = mat.rows
    rows, pivots = integer_rref([row + tuple(int(k == i) for k in range(n))
                                 for i, row in enumerate(mat.entries)])
    if mat.cols != n or pivots != list(range(n)) \
            or any(row[i] != 1 for i, row in enumerate(rows)):
        raise ValueError("matrix is not unimodular")
    return IntMatrix.from_rows([row[n:] for row in rows])


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = D with U, V unimodular and D diagonal; the nonzero
    diagonal entries of D are a prefix, the invariant factors."""

    U: IntMatrix
    V: IntMatrix
    invariant_factors: tuple[int, ...]


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form by elementary row/column operations; the row
    operations are recorded in U, the column operations in V.

    Pivot selection is deterministic (smallest |entry|, ties by position) so
    repeated runs produce identical decompositions.
    """
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
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
    return SmithDecomposition(IntMatrix(tuple(map(tuple, u))), IntMatrix(tuple(map(tuple, v))),
                              factors)


class FinitelyGeneratedAbelianGroup:
    """Cokernel of an integer matrix, with projection and section maps.

    Elements are canonical coordinate tuples: free coordinates first (in the
    Smith basis, signs normalized), then torsion residues reduced modulo their
    orders.
    """

    def __init__(self, snf: SmithDecomposition, ambient_rank: int):
        self.ambient_rank = ambient_rank
        diag = snf.invariant_factors + (0,) * (ambient_rank - len(snf.invariant_factors))
        self._torsion_slots = tuple(i for i, x in enumerate(diag) if x >= 2)
        self._free_slots = tuple(i for i, x in enumerate(diag) if x == 0)
        self.torsion_orders = tuple(diag[i] for i in self._torsion_slots)
        self.free_rank = len(self._free_slots)
        u = [list(row) for row in snf.U.entries]
        # sign-normalize the free rows of U so projections are reproducible
        for slot in self._free_slots:
            lead = next((x for x in u[slot] if x != 0), 0)
            if lead < 0:
                u[slot] = [-x for x in u[slot]]
        self._u = IntMatrix.from_rows(u)
        self._u_inv = None      # U^-1, built by the first section call

    def zero(self) -> tuple[int, ...]:
        return (0,) * (self.free_rank + len(self.torsion_orders))

    def project(self, a) -> tuple[int, ...]:
        """Image of a lattice vector in the cokernel, canonically reduced."""
        if len(a) != self.ambient_rank:
            raise ValueError("vector length mismatch")
        y = self._u.mul_vec(a)
        free = tuple(y[i] for i in self._free_slots)
        tors = tuple(y[s] % o for s, o in zip(self._torsion_slots, self.torsion_orders))
        return free + tors

    def section(self, cls) -> tuple[int, ...]:
        """A lattice representative of a group element (right inverse of project)."""
        cls = self.reduce(cls)
        y = [0] * self.ambient_rank
        for c, slot in zip(cls[:self.free_rank], self._free_slots):
            y[slot] = c
        for c, slot in zip(cls[self.free_rank:], self._torsion_slots):
            y[slot] = c
        if self._u_inv is None:
            self._u_inv = unimodular_inverse(self._u)
        return self._u_inv.mul_vec(y)

    def reduce(self, cls) -> tuple[int, ...]:
        if len(cls) != self.free_rank + len(self.torsion_orders):
            raise ValueError("class coordinate length mismatch")
        free = tuple(int(c) for c in cls[:self.free_rank])
        tors = tuple(int(c) % o for c, o in zip(cls[self.free_rank:], self.torsion_orders))
        return free + tors

    def add(self, c1, c2) -> tuple[int, ...]:
        return self.reduce(tuple(x + y for x, y in zip(self.reduce(c1), self.reduce(c2))))

    def neg(self, c) -> tuple[int, ...]:
        return self.reduce(tuple(-x for x in self.reduce(c)))


def cokernel(m: IntMatrix) -> FinitelyGeneratedAbelianGroup:
    """Cokernel of Z^cols -> Z^rows given by the matrix."""
    return FinitelyGeneratedAbelianGroup(smith_normal_form(m), m.rows)


def dual_lattice_basis(group: FinitelyGeneratedAbelianGroup) -> list[tuple[int, ...]]:
    """Integer functionals on the ambient lattice spanning Hom(coker, Z).

    The j-th functional evaluates a lattice vector to the j-th free coordinate
    of its class, so torsion is annihilated by construction.
    """
    u = group._u
    return [tuple(u.entries[slot]) for slot in group._free_slots]
