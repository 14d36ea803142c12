"""Exact integer linear algebra: Smith normal form, cokernels, dual bases.

Everything works with arbitrary-precision Python ints; no floats anywhere.
"""

from __future__ import annotations

from math import gcd
from operator import mul


class IntMatrix:
    """Rectangular integer matrix, a tuple of row tuples; nothing writes
    `entries` after __init__. Equal entries make equal, equally hashed
    matrices."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries):
                raise ValueError("ragged matrix")
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is not IntMatrix:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({self.entries!r})"

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def mul_vec(self, v) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(map(mul, row, v)) for row in self.entries)


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


class SmithDecomposition:
    """U * M * V = D with U, V unimodular and D diagonal; the nonzero
    diagonal entries of D are a prefix, the invariant factors. Equal U, V
    and factors make equal, equally hashed decompositions."""

    __slots__ = ("U", "V", "invariant_factors")

    def __init__(self, U: IntMatrix, V: IntMatrix, invariant_factors: tuple[int, ...]):
        self.U = U
        self.V = V
        self.invariant_factors = invariant_factors

    def _key(self):
        return self.U, self.V, self.invariant_factors

    def __eq__(self, other):
        if other.__class__ is not SmithDecomposition:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "SmithDecomposition(U={!r}, V={!r}, invariant_factors={!r})".format(*self._key())


def _rectangular(rows) -> IntMatrix:
    """An IntMatrix of rows this module built with equal lengths, without
    the ragged-matrix check."""
    mat = object.__new__(IntMatrix)
    mat.entries = tuple(map(tuple, rows))
    return mat


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form by elementary row/column operations; the row
    operations are recorded in U, the column operations in V.

    Pivot selection is deterministic (smallest |entry|, ties by position) so
    repeated runs produce identical decompositions.
    """
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[0] * i + [1] + [0] * (rows - 1 - i) for i in range(rows)]
    v = [[0] * i + [1] + [0] * (cols - 1 - i) for i in range(cols)]
    k = 0
    while k < min(rows, cols):
        # the first entry of least |value| in the trailing block, rows first;
        # none comes before a first 1
        best = 0
        for i in range(k, rows):
            row = a[i]
            for j in range(k, cols):
                x = abs(row[j])
                if x and (not best or x < best):
                    best, pi, pj = x, i, j
                    if x == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            u[k], u[pi] = u[pi], u[k]
        if pj != k:
            for r in a:
                r[k], r[pj] = r[pj], r[k]
            for r in v:
                r[k], r[pj] = r[pj], r[k]
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        # clear row and column k; remainders can reappear, so loop. The
        # pivot stays positive: a floor remainder by a positive pivot lies in
        # [0, pivot), and only a nonzero one is swapped in
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, rows):
                if a[i][k]:
                    # row i -= q * row k
                    q = a[i][k] // a[k][k]
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[k])]
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        u[k], u[i] = u[i], u[k]
                        dirty = True
            for j in range(k + 1, cols):
                if a[k][j]:
                    # col j -= q * col k
                    q = a[k][j] // a[k][k]
                    for r in a:
                        r[j] -= q * r[k]
                    for r in v:
                        r[j] -= q * r[k]
                    if a[k][j]:
                        for r in a:
                            r[k], r[j] = r[j], r[k]
                        for r in v:
                            r[k], r[j] = r[j], r[k]
                        dirty = True
        # enforce divisibility of the trailing block by the pivot: add the
        # first row with an entry it does not divide to row k, and redo k
        p = a[k][k]
        bad = None if p == 1 else next(
            (i for i in range(k + 1, rows) if any(x % p for x in a[i][k + 1:])), None)
        if bad is not None:
            a[k] = [x + y for x, y in zip(a[k], a[bad])]
            u[k] = [x + y for x, y in zip(u[k], u[bad])]
            continue
        k += 1

    factors = tuple(a[i][i] for i in range(k))
    return SmithDecomposition(_rectangular(u), _rectangular(v), factors)


class FinitelyGeneratedAbelianGroup:
    """Cokernel of an integer matrix, with its projection map.

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
        self._u = _rectangular(u)

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

    def unit_classes(self) -> tuple[tuple[int, ...], ...]:
        """project(e_i) for each unit vector e_i of the ambient lattice: U e_i
        is column i of U, read at the free slots and reduced at the torsion ones."""
        u = self._u.entries
        free = [u[s] for s in self._free_slots]
        tors = [(u[s], o) for s, o in zip(self._torsion_slots, self.torsion_orders)]
        return tuple(tuple(row[i] for row in free) + tuple(row[i] % o for row, o in tors)
                     for i in range(self.ambient_rank))

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
