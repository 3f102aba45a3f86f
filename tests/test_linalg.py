from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from singlib.linalg import (
    echelon_basis,
    hermite_basis,
    lattice_coords,
    rank,
    solve_linear,
)


def test_rref_rank_and_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(rows) == 2
    _, ns = solve_linear(rows, [0] * len(rows))
    assert len(ns) == 1
    v = ns[0]
    for row in rows:
        assert sum(F(a) * x for a, x in zip(row, v)) == 0


def test_solve_linear_inconsistent():
    assert solve_linear([[1, 1], [1, 1]], [1, 2]) is None
    sol = solve_linear([[1, 1], [0, 1]], [3, 1])
    assert sol is not None and sol[0] == (F(2), F(1))


def test_subspace_sum_and_intersection():
    a = echelon_basis([(1, 0, 0), (0, 1, 0)])
    b = echelon_basis([(0, 1, 0), (0, 0, 1)])
    assert all(type(x) is int for row in a + b for x in row)  # int pivot rows
    assert rank(a + b) == 3
    # dim(a & b) = dim a + dim b - dim(a + b)
    assert len(a) + len(b) - rank(a + b) == 1


def _gauss_rank(rows) -> int:
    """Rank by textbook Gaussian elimination over Fraction."""
    mat = [[F(x) for x in r] for r in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        p = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][c] / mat[r][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _system(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    # a few zero entries make rank drops and free columns likely
    entry = st.one_of(st.just(F(0)), _rationals)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [draw(entry) for _ in range(nrows)]
    return rows, rhs


@settings(max_examples=150, deadline=None)
@given(_system())
def test_kernel_against_gaussian_elimination(system):
    rows, rhs = system
    ncols = len(rows[0])
    r = rank(rows)
    assert r == _gauss_rank(rows)
    assert len(echelon_basis(rows)) == r
    _, null = solve_linear(rows, [0] * len(rows))
    assert len(null) == ncols - r
    assert _gauss_rank(null) == len(null)
    for v in null:
        for row in rows:
            assert sum(a * x for a, x in zip(row, v)) == 0
    sol = solve_linear(rows, rhs)
    assert (sol is None) == (_gauss_rank([row + [b] for row, b in zip(rows, rhs)]) > r)
    if sol is not None:
        x, sol_null = sol
        assert sol_null == null
        for row, b in zip(rows, rhs):
            assert sum(a * xi for a, xi in zip(row, x)) == b
        # free columns (no pivot) are 0: a column is free iff it adds no rank
        # to the columns before it
        cols = [[row[j] for row in rows] for j in range(ncols)]
        for j in range(ncols):
            if _gauss_rank(cols[: j + 1]) == _gauss_rank(cols[:j]):
                assert x[j] == 0


def test_hermite_basis_and_coords():
    basis = hermite_basis([(-8, 6, 0), (-14, 0, 5)])
    assert len(basis) == 2
    for v in [(-8, 6, 0), (-14, 0, 5), (-22, 6, 5)]:
        c = lattice_coords(basis, v)
        assert c is not None
        rec = [sum(ci * bi[j] for ci, bi in zip(c, basis)) for j in range(3)]
        assert tuple(rec) == v
    # the basis is reduced, so it depends on the lattice, not on the spanning rows
    for rows in ([(1, 1, -2), (0, 1, -1)], [(0, 1, -1), (1, 0, -1)],
                 [(2, -2, 0), (1, 1, -2), (0, 3, -3)]):
        assert hermite_basis(rows) == [(1, 0, -1), (0, 1, -1)]


_rows = st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=1, max_size=3)


@given(_rows, st.tuples(*[st.integers(-4, 4)] * 3), st.tuples(*[st.integers(-9, 9)] * 3))
@settings(max_examples=150, deadline=None)
def test_lattice_coords_match_rational_solve(rows, mult, v):
    basis = hermite_basis(rows)
    on = tuple(sum(c * b[j] for c, b in zip(mult, basis)) for j in range(3))
    for w in (on, v):
        # the oracle: the unique rational solution, accepted iff it is integral
        sol = solve_linear([list(col) for col in zip(*basis)], list(w)) if basis else None
        expected = None
        if not basis:
            expected = () if not any(w) else None
        elif sol is not None and all(c.denominator == 1 for c in sol[0]):
            expected = tuple(int(c) for c in sol[0])
        assert lattice_coords(basis, w) == expected, (rows, w)
    assert lattice_coords(basis, on) == tuple(mult[:len(basis)])
