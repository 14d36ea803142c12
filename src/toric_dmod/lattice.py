"""Exact integer linear algebra: Smith normal form, cokernels, dual bases.

A matrix is a sequence of equally long integer rows, and every matrix
returned is a tuple of row tuples. Everything works with arbitrary-precision
Python ints; no floats anywhere.
"""

from __future__ import annotations

from math import gcd
from operator import mul


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


def smith_normal_form(m) -> tuple[tuple, tuple, tuple[int, ...]]:
    """(U, V, invariant factors) with U * M * V = D, U and V unimodular and
    D diagonal, its nonzero entries a prefix, the invariant factors; found by
    elementary row/column operations, the row operations recorded in U, the
    column operations in V.

    Pivot selection is deterministic (smallest |entry|, ties by position) so
    repeated runs produce identical decompositions.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    a = [list(row) for row in m]
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
    return tuple(map(tuple, u)), tuple(map(tuple, v)), factors


class FinitelyGeneratedAbelianGroup:
    """Cokernel of an integer matrix, with its projection map, read off the
    matrix's Smith form (U, V, invariant factors).

    Elements are canonical coordinate tuples: free coordinates first (in the
    Smith basis, signs normalized), then torsion residues reduced modulo their
    orders.
    """

    def __init__(self, smith):
        u, _, factors = smith
        self.ambient_rank = ambient_rank = len(u)
        diag = factors + (0,) * (ambient_rank - len(factors))
        self._torsion_slots = tuple(i for i, x in enumerate(diag) if x >= 2)
        self._free_slots = tuple(i for i, x in enumerate(diag) if x == 0)
        self.torsion_orders = tuple(diag[i] for i in self._torsion_slots)
        self.free_rank = len(self._free_slots)
        u = list(u)
        # sign-normalize the free rows of U so projections are reproducible
        for slot in self._free_slots:
            lead = next((x for x in u[slot] if x != 0), 0)
            if lead < 0:
                u[slot] = tuple(-x for x in u[slot])
        self._u = tuple(u)

    def zero(self) -> tuple[int, ...]:
        return (0,) * (self.free_rank + len(self.torsion_orders))

    def project(self, a) -> tuple[int, ...]:
        """Image of a lattice vector in the cokernel, canonically reduced."""
        if len(a) != self.ambient_rank:
            raise ValueError("vector length mismatch")
        y = [sum(map(mul, row, a)) for row in self._u]
        free = tuple(y[i] for i in self._free_slots)
        tors = tuple(y[s] % o for s, o in zip(self._torsion_slots, self.torsion_orders))
        return free + tors

    def unit_classes(self) -> tuple[tuple[int, ...], ...]:
        """project(e_i) for each unit vector e_i of the ambient lattice: U e_i
        is column i of U, read at the free slots and reduced at the torsion ones."""
        u = self._u
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


def cokernel(m) -> FinitelyGeneratedAbelianGroup:
    """Cokernel of Z^cols -> Z^rows given by the matrix."""
    return FinitelyGeneratedAbelianGroup(smith_normal_form(m))


def dual_lattice_basis(group: FinitelyGeneratedAbelianGroup) -> list[tuple[int, ...]]:
    """Integer functionals on the ambient lattice spanning Hom(coker, Z).

    The j-th functional evaluates a lattice vector to the j-th free coordinate
    of its class, so torsion is annihilated by construction.
    """
    return [group._u[slot] for slot in group._free_slots]
