"""Smith normal form and rational elimination.

Claims:
    - U * A * V == D with U, V unimodular and a positive divisibility chain
    - identity and zero matrices are fixed points
    - [[2,4],[6,8]] diagonalizes to diag(2,4)
    - ranks agree with an independently written row reduction
"""

from hypothesis import given, settings, strategies as st

from orthomeasure.intlinalg import (
    rational_rank,
    rational_solve,
    smith_normal_form,
    snf_diagonal,
)

from oracles import det_bareiss, mat_mul, rank as oracle_rank


def assert_valid_snf(a):
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1
    m, n = len(a), len(a[0]) if a else 0
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    diag = snf_diagonal(d)
    assert all(x > 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert y % x == 0
    # entries past the nonzero diagonal block vanish
    for i in range(len(diag), min(m, n)):
        assert d[i][i] == 0
    return diag


def test_identity_matrix_is_fixed():
    a = [[1, 0], [0, 1]]
    diag = assert_valid_snf(a)
    assert diag == [1, 1]


def test_zero_matrix():
    a = [[0, 0, 0], [0, 0, 0]]
    diag = assert_valid_snf(a)
    assert diag == []


def test_two_by_two_example():
    diag = assert_valid_snf([[2, 4], [6, 8]])
    assert diag == [2, 4]


def test_single_row_and_column():
    assert assert_valid_snf([[-6, 10, 15]]) == [1]
    assert assert_valid_snf([[4], [6]]) == [2]


def test_torsion_example():
    # relations 2x = 0, 3y = 0 in Z^3
    diag = assert_valid_snf([[2, 0, 0], [0, 3, 0]])
    assert diag == [1, 6]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_random_matrices(rows):
    diag = assert_valid_snf(rows)
    assert len(diag) == oracle_rank(rows)


def test_rational_rank_against_oracle():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rational_rank(rows) == oracle_rank(rows) == 2


def test_rational_solve_consistent_and_not():
    assert rational_solve([[2, 0], [0, 4]], [6, 8]) == [3, 2]
    assert rational_solve([[1, 1], [2, 2]], [1, 3]) is None


def test_rational_solve_underdetermined_sets_free_to_zero():
    sol = rational_solve([[1, 1, 1]], [5])
    assert sol == [5, 0, 0]
