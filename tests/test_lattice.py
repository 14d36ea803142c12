"""Smith normal form, cokernels and dual bases against independent oracles."""

from helpers import (class_section, det, fan_p1p1, fan_torsion, grading, identity_matrix,
                     invariant_factor_oracle, matrix_product, matrix_rank, matrix_vector,
                     rng)
from toric_dmod.lattice import cokernel, dual_lattice_basis, smith_normal_form


def diagonal(factors, m):
    """The rows x cols diagonal matrix whose diagonal starts with the
    invariant factors and is zero after them."""
    return tuple(tuple(factors[i] if i == j and i < len(factors) else 0
                       for j in range(len(row))) for i, row in enumerate(m))


def reconstruct(m):
    """The Smith form (U, V, factors) of m, checked: U * M * V = D with V
    unimodular, and independently of V: U * M = D * W with the rows of W
    extending to a basis of Z^cols, as the rows of U * M after the invariant
    factors are zero, the first r are d_i times a row of W, and W's r x r
    minors have gcd 1."""
    u, v, factors = snf = smith_normal_form(m)
    um = matrix_product(u, m)
    assert matrix_product(um, v) == diagonal(factors, m)
    assert abs(det(v)) == 1
    r = len(factors)
    assert not any(any(row) for row in um[r:])
    assert all(x % d == 0 for d, row in zip(factors, um) for x in row)
    w = [[x // d for x in row] for d, row in zip(factors, um)]
    assert invariant_factor_oracle(w) == (1,) * r
    return snf


def test_column_vector_hand_reduction():
    # row-reduce [[1], [-1]] by hand: add row 1 to row 2
    m = ((1,), (-1,))
    _, _, factors = reconstruct(m)
    assert diagonal(factors, m) == ((1,), (0,))
    assert factors == (1,)


def test_identity_is_fixed():
    m = identity_matrix(2)
    _, _, factors = reconstruct(m)
    assert factors == (1, 1)
    assert diagonal(factors, m) == m


def test_diag_2_3_gives_1_6():
    m = ((2, 0), (0, 3))
    _, _, factors = reconstruct(m)
    assert factors == (1, 6)
    assert invariant_factor_oracle(m) == (1, 6)


def test_randomized_against_minor_gcd_oracle():
    r = rng(1)
    for _ in range(40):
        rows = r.randint(1, 4)
        cols = r.randint(1, 4)
        m = [[r.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        u, _, factors = reconstruct(m)
        assert abs(det(u)) == 1
        assert factors == invariant_factor_oracle(m)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_cokernel_p1_is_z():
    g = cokernel([[1], [-1]])
    assert g.free_rank == 1
    assert g.torsion_orders == ()
    assert g.project((1, 0)) == g.project((0, 1)) == (1,)


def test_cokernel_p1p1_is_z2():
    g = cokernel([[1, 0], [-1, 0], [0, 1], [0, -1]])
    assert g.free_rank == 2
    assert g.torsion_orders == ()


def test_cokernel_unimodular_is_trivial():
    g = cokernel([[2, 1], [1, 1]])
    assert (g.free_rank, g.torsion_orders) == (0, ())
    assert g.project((5, -3)) == ()


def test_cokernel_exactness_and_section():
    r = rng(2)
    for _ in range(30):
        rows = r.randint(1, 4)
        cols = r.randint(1, 4)
        m = [[r.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        g = cokernel(m)
        assert g.unit_classes() == tuple(g.project(tuple(int(j == i) for j in range(rows)))
                                         for i in range(rows))
        for _ in range(5):
            p = tuple(r.randint(-4, 4) for _ in range(cols))
            assert g.project(matrix_vector(m, p)) == g.zero()
        for _ in range(5):
            a = tuple(r.randint(-4, 4) for _ in range(rows))
            cls = g.project(a)
            assert g.project(class_section(g, cls)) == cls


def test_class_section_oracle_on_free_and_torsion_groups():
    # the oracle's representative projects back, torsion slots included
    free = cokernel([[1, 0], [-1, 0], [0, 1], [0, -1]])
    torsion = cokernel([[2, 0], [0, 1], [0, 0]])
    groups = [free, torsion, grading(fan_torsion()).class_group,
              grading(fan_p1p1()).class_group]
    assert torsion.torsion_orders == (2,) and groups[2].torsion_orders == (2,)
    for g in groups:
        for a in [(1,) + (0,) * (g.ambient_rank - 1), (3, -1) + (2,) * (g.ambient_rank - 2)]:
            cls = g.project(a)
            assert g.project(class_section(g, cls)) == cls


def test_dual_basis_p1():
    g = cokernel([[1], [-1]])
    (u,) = dual_lattice_basis(g)
    assert u == (1, 1)


def test_dual_basis_trivial_group_empty():
    g = cokernel(identity_matrix(3))
    assert dual_lattice_basis(g) == []


def test_dual_basis_p1p1_up_to_basis_change():
    g = cokernel([[1, 0], [-1, 0], [0, 1], [0, -1]])
    basis = dual_lattice_basis(g)
    assert len(basis) == 2
    # each functional is constant on {e1,e2} and on {e3,e4}
    for u in basis:
        assert u[0] == u[1] and u[2] == u[3]
    assert abs(det([[u[0], u[2]] for u in basis])) == 1


def test_dual_basis_sign_normalization_and_independence():
    r = rng(3)
    for _ in range(25):
        rows = r.randint(1, 4)
        cols = r.randint(1, rows)
        m = [[r.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        g = cokernel(m)
        basis = dual_lattice_basis(g)
        assert len(basis) == g.free_rank
        for u in basis:
            lead = next((x for x in u if x != 0), 0)
            assert lead > 0
            for j in range(cols):
                col = [row[j] for row in m]
                assert sum(x * y for x, y in zip(u, col)) == 0
        if basis:
            assert matrix_rank(basis) == len(basis)


def test_dual_basis_annihilates_torsion():
    m = [[2, 0], [0, 1], [0, 0]]
    g = cokernel(m)
    assert g.torsion_orders == (2,)
    assert g.free_rank == 1
    for u in dual_lattice_basis(g):
        # the torsion class 2a has the same functional value as the zero class
        for a in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            doubled = tuple(2 * x for x in a)
            v1 = sum(x * y for x, y in zip(u, a))
            assert 2 * v1 == sum(x * y for x, y in zip(u, doubled))
