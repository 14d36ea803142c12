"""The integer row echelon routine and its three callers against oracles.

Rank is checked against sympy (skipped when it is not installed), the
unimodular inverse of the test oracles by multiplying back, and the
Fourier-Motzkin feasibility test by vertex enumeration.
"""

from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from helpers import (identity_matrix, matrix_product, matrix_rank,  # noqa: E402
                     unimodular_inverse, vertex_feasible)
from toric_dmod.fan_cox import _fm_feasible  # noqa: E402
from toric_dmod.lattice import integer_rref  # noqa: E402

small = st.integers(-3, 3)


@st.composite
def low_rank_matrices(draw):
    """A product (m x k)(k x c): rank at most k, often less than m and c."""
    m, k, c = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    left = draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(small, min_size=c, max_size=c), min_size=k, max_size=k))
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(c)]
            for i in range(m)]


@given(low_rank_matrices())
def test_integer_rref_is_reduced_and_primitive(rows):
    out, pivots = integer_rref(rows)
    assert pivots == sorted(set(pivots))
    for row, col in zip(out, pivots):
        assert row[col] > 0
        assert not any(row[:col])
        assert gcd(*row) == 1
        assert all(other[col] == 0 for other in out if other is not row)


@given(low_rank_matrices())
def test_rank_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    assert matrix_rank(rows) == sympy.Matrix(rows).rank()
    out, _ = integer_rref(rows)
    # same row space: stacking the echelon rows onto the input adds no rank
    assert sympy.Matrix(rows + out).rank() == len(out)


@st.composite
def unimodular_matrices(draw):
    """The identity after random row additions, swaps and negations."""
    n = draw(st.integers(1, 4))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), small)
    for i, j, c in draw(st.lists(ops, max_size=10)):
        if i == j:
            rows[i] = [-x for x in rows[i]]
        elif c == 0:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return tuple(map(tuple, rows))


@given(unimodular_matrices())
def test_unimodular_inverse_multiplies_to_identity(m):
    inv = unimodular_inverse(m)
    identity = identity_matrix(len(m))
    assert matrix_product(inv, m) == identity
    assert matrix_product(m, inv) == identity


def test_unimodular_inverse_rejects_other_matrices():
    for rows in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[0]], [[1, 0]], [[1], [0]]):
        with pytest.raises(ValueError):
            unimodular_inverse(rows)


@st.composite
def pointed_systems(draw):
    """Random equalities and inequalities on z >= 0, the shape of the cone
    intersection test (which adds one mu_j >= 1)."""
    nvars = draw(st.integers(1, 4))
    row = st.tuples(st.tuples(*[small] * nvars), small)
    eqs = draw(st.lists(row, max_size=3))
    if draw(st.booleans()):
        eqs = [(co, 0) for co, _ in eqs]
    ineqs = [(tuple(int(t == k) for t in range(nvars)), 0) for k in range(nvars)]
    ineqs += draw(st.lists(row, max_size=3))
    return eqs, ineqs, nvars


@given(pointed_systems())
def test_fm_feasible_matches_vertex_enumeration(system):
    eqs, ineqs, nvars = system
    assert _fm_feasible(eqs, ineqs, nvars) == vertex_feasible(eqs, ineqs, nvars)


def test_fm_feasible_hand_cases():
    # z1 = z2, z1 >= 1, z2 <= 0 on z >= 0: empty
    nonneg = [((1, 0), 0), ((0, 1), 0)]
    assert not _fm_feasible([((1, -1), 0)], nonneg + [((1, 0), -1), ((0, -1), 0)], 2)
    # 2 z1 = 1 has the rational point 1/2
    assert _fm_feasible([((2, 0), -1)], nonneg, 2)
    # 0 = 1
    assert not _fm_feasible([((0, 0), 1)], nonneg, 2)
