"""Repeated triangular passes in front of the Smith normal form.

Claims:
    - FPAbelianGroup.from_relations gives the rank and torsion of the dense
      Smith normal form of the whole matrix, and of sympy's invariant
      factors, on sparse matrices with entries in -3..3 (unit-free rows
      included, so the dense core is often nonempty and carries torsion)
    - every relation maps to zero, and the generators' images reach every
      element of Z/d (+) ... (+) Z^rank
    - the free coordinates of the images and the free columns of the dense
      V span the same Z-module of integer measures
    - the Smith normal form sees only the rows the passes leave, and on the
      family's orthogonal-pair rows it is never called
    - closed forms past the 32-element test family, under wall-clock
      bounds: rank M(B_8) = 8, rank M(MO3 x MO4) = 9, B_9 distributive
"""

import time

import pytest
from hypothesis import example, given, settings

import orthomeasure.measures as measures_mod
from orthomeasure import (
    FPAbelianGroup,
    boolean,
    is_distributive,
    measure_module,
    mo,
    product,
    relation_matrix,
    smith_normal_form,
)
from orthomeasure.intlinalg import snf_diagonal

from oracles import solve_exact
from strategies import sparse_matrices


def _dense_route(width, rows):
    """(rank, torsion, free basis as columns of V) from the whole matrix."""
    _, d, v = smith_normal_form(rows or [[0] * width])
    diagonal = snf_diagonal(d)
    s = len(diagonal)
    basis = [[v[j][t] for j in range(width)] for t in range(s, width)]
    return width - s, tuple(x for x in diagonal if x > 1), basis


def _spans_within(vectors, basis):
    """Every vector is an integer combination of the (independent) basis."""
    columns = [list(r) for r in zip(*basis)]
    for vec in vectors:
        x = solve_exact(columns, vec)
        if x is None or any(c.denominator != 1 for c in x):
            return False
    return True


def _check_group(width, rows):
    group = FPAbelianGroup.from_relations(width, rows)
    rank, torsion, dense_basis = _dense_route(width, rows)
    assert (group.rank, group.torsion) == (rank, torsion)
    k = len(group.torsion)
    zero = (0,) * (k + group.rank)
    for row in rows:
        assert group.reduced(row) == zero
    # the images together with the torsion relations generate the target
    target = [list(img) for img in group.images]
    target += [[d if t == i else 0 for t in range(k + group.rank)] for i, d in enumerate(torsion)]
    if k + group.rank:
        assert snf_diagonal(smith_normal_form(target)[1]) == [1] * (k + group.rank)
    basis = [[img[k + t] for img in group.images] for t in range(group.rank)]
    if basis:
        assert _spans_within(basis, dense_basis) and _spans_within(dense_basis, basis)
    return group


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
@example((2, [[0, 2]]))
@example((2, [[2, 4], [6, 8]]))
@example((3, [[1, 2, 0], [0, 2, 4], [3, 0, 3]]))
@example((4, [[2, 0, 0, 0], [0, 3, 0, 0], [1, 1, 1, 0]]))
def test_from_relations_matches_dense_snf(case):
    _check_group(*case)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
@example((3, [[2, 0, 4], [0, 6, 3]]))
def test_from_relations_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    from sympy.polys.domains import ZZ

    width, rows = case
    group = FPAbelianGroup.from_relations(width, rows)
    factors = invariant_factors(sympy.Matrix(rows), domain=ZZ) if rows else ()
    assert group.rank == width - sum(1 for d in factors if d)
    assert group.torsion == tuple(int(d) for d in factors if d > 1)


def _snf_inputs(monkeypatch):
    """The matrices measures.smith_normal_form is called on, as they come."""
    seen = []
    original = measures_mod.smith_normal_form

    def snf(matrix):
        seen.append(matrix)
        return original(matrix)

    monkeypatch.setattr(measures_mod, "smith_normal_form", snf)
    return seen


def test_core_carries_the_torsion(monkeypatch):
    # the unit row is taken; the rows left for the SNF are the two even rows
    seen = _snf_inputs(monkeypatch)
    group = _check_group(4, [[2, 0, 0, 0], [0, 2, 2, 0], [1, 1, 1, 1]])
    assert group.torsion == (2, 2) and group.rank == 1
    assert seen == [[[2, 0, 0], [0, 2, 2]]]


def test_pivots_are_taken_cheapest_first(monkeypatch):
    # rows 0 and 1 are taken at columns 2 and 1; row 2 is left as 2 e0
    seen = _snf_inputs(monkeypatch)
    assert FPAbelianGroup.from_relations(3, [[1, 1, 1], [1, -1, 0], [0, 0, -1]]).torsion == (2,)
    assert seen == [[[2]]]


def test_measure_group_of_the_family_has_no_core(family, monkeypatch):
    seen = _snf_inputs(monkeypatch)
    for name, lattice in family.items():
        group = FPAbelianGroup.from_relations(len(lattice), relation_matrix(lattice))
        assert group.rank == measure_module(lattice).rank, name
        assert seen == [], name


def test_rank_of_boolean_8():
    start = time.perf_counter()
    assert measure_module(boolean(8)).rank == 8
    assert time.perf_counter() - start < 10.0


def test_rank_of_mo3_times_mo4():
    start = time.perf_counter()
    module = measure_module(product(mo(3), mo(4)))
    assert (module.rank, module.torsion) == (9, ())
    assert time.perf_counter() - start < 5.0


def test_boolean_9_is_distributive():
    lattice = boolean(9)
    start = time.perf_counter()
    assert is_distributive(lattice).ok
    assert time.perf_counter() - start < 5.0
