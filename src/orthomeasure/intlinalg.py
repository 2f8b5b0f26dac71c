"""Exact integer and rational linear algebra.

Everything here runs on Python's arbitrary-precision integers and
``fractions.Fraction``; there is no floating point anywhere in the kernel.
Entry growth during elimination is therefore a speed concern, never a
correctness one.
"""

from __future__ import annotations

from fractions import Fraction

IntMatrix = list[list[int]]


def smith_normal_form(matrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns ``(U, D, V)`` with ``U * matrix * V == D``, ``D`` diagonal with
    nonnegative entries satisfying the divisibility chain d1 | d2 | ..., and
    ``U``, ``V`` unimodular.  Pivots are chosen with minimal absolute value
    (row-major tie break), which keeps intermediate entries small and makes
    the output deterministic.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    M = [[int(x) for x in row] for row in matrix]
    if any(len(row) != n for row in M):
        raise ValueError("ragged matrix")
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def sub_row(dst, src, q):
        # row[dst] -= q * row[src]
        if q:
            M[dst] = [a - q * b for a, b in zip(M[dst], M[src])]
            U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def sub_col(dst, src, q):
        if q:
            for row in M:
                row[dst] -= q * row[src]
            for row in V:
                row[dst] -= q * row[src]

    def negate_row(i):
        M[i] = [-a for a in M[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        # minimal-absolute-value pivot in the trailing submatrix
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = M[i][j]
                if a and (best is None or abs(a) < best[0]):
                    best = (abs(a), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        if M[t][t] < 0:
            negate_row(t)

        while True:
            for i in range(m):
                if i != t and M[i][t]:
                    sub_row(i, t, M[i][t] // M[t][t])
            stray = [i for i in range(m) if i != t and M[i][t]]
            if stray:
                # a remainder strictly smaller than the pivot appeared
                i = min(stray, key=lambda r: (abs(M[r][t]), r))
                swap_rows(t, i)
                if M[t][t] < 0:
                    negate_row(t)
                continue
            for j in range(n):
                if j != t and M[t][j]:
                    sub_col(j, t, M[t][j] // M[t][t])
            stray = [j for j in range(n) if j != t and M[t][j]]
            if stray:
                j = min(stray, key=lambda c: (abs(M[t][c]), c))
                swap_cols(t, j)
                if M[t][t] < 0:
                    negate_row(t)
                continue
            break

        # enforce the divisibility chain: the pivot must divide every entry
        # of the trailing submatrix
        culprit = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if M[i][j] % M[t][t]:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            sub_row(t, culprit, -1)  # fold the offending row into row t
            continue
        t += 1

    return U, M, V


def snf_diagonal(d: IntMatrix) -> list[int]:
    """Nonzero diagonal entries of a Smith normal form."""
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(d[i][i])
    return out


# --- rational elimination ----------------------------------------------------


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    n = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rational_rank(matrix) -> int:
    rows = [[Fraction(x) for x in row] for row in matrix]
    return len(_echelon(rows)[1])


def rational_solve(matrix, rhs) -> list[Fraction] | None:
    """One exact solution of ``matrix * x == rhs``, or None if inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    if not matrix:
        return []
    n = len(matrix[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    ech, pivots = _echelon(aug)
    sol = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        if pc == n:
            return None  # pivot in the augmented column: inconsistent
        sol[pc] = ech[r][n]
    return sol
