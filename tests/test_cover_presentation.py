"""The measure group from cover rows in one height-ordered pass.

Claims:
    - orthogonal_index_pairs visits the pairs of the all-pairs scan, in its
      order, on the family and on composites
    - on composites of boolean, mo, benzene and subspaces(F_3^2) by product
      and horizontal sum, plain and under the full and a cyclic group, the
      rank and torsion equal those of the orthogonal-pair oracle, and every
      orthogonal-pair row maps to zero in the new group
    - on an orthomodular lattice only atom columns (or atom orbits) reach
      the elimination, and the Smith normal form never sees an empty core
    - a Boolean lattice's integer basis is the atom indicators; benzene
      keeps the basis of the orthogonal-pair elimination
    - closed forms past the 32-element test family, under wall-clock
      bounds: rank M(B_11) = 11 and rank M(MO(400)) = 401
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

import orthomeasure.measures as measures_mod
from orthomeasure import (
    INTEGERS,
    benzene,
    boolean,
    close_group,
    coinvariants,
    is_orthomodular,
    measure_basis,
    measure_module,
    mo,
    orthogonal_pairs,
    relation_matrix,
)
from orthomeasure.symmetry import automorphism_group

from oracles import measure_group_by_pairs
from strategies import composite_lattices


def _actions(lattice):
    yield "plain", None
    full = automorphism_group(lattice)
    yield "full", full
    if full.generators:
        yield "cyclic", close_group(lattice, full.generators[:1])


def _merged(module, row):
    out = [0] * module.group.generator_count
    for c, x in zip(module.columns, row):
        out[c] += x
    return out


def _check_against_pairs(lattice):
    rows = relation_matrix(lattice)
    for kind, action in _actions(lattice):
        module = measure_module(lattice, action)
        oracle = measure_group_by_pairs(lattice, action)
        assert (module.rank, module.torsion) == (oracle.rank, oracle.torsion), (lattice, kind)
        for row in rows:
            assert module.group.reduced(_merged(module, row)) == module.zero, (lattice, kind)
        if action is not None:
            assert coinvariants(measure_module(lattice), action).group == module.group


def _all_pairs_scan(lattice):
    n = len(lattice)
    return [(i, j) for i in range(n) for j in range(i, n)
            if lattice.leq_index(j, lattice.orth_map[i])]


def test_walker_matches_all_pairs_scan(family):
    for lattice in family.values():
        scan = _all_pairs_scan(lattice)
        assert list(lattice.orthogonal_index_pairs()) == scan
        assert orthogonal_pairs(lattice) == [
            (lattice.elements[i], lattice.elements[j]) for i, j in scan]


@settings(max_examples=60, deadline=None)
@given(composite_lattices())
def test_walker_on_composites(lattice):
    assert list(lattice.orthogonal_index_pairs()) == _all_pairs_scan(lattice)


def test_family_matches_orthogonal_pair_oracle(family):
    for lattice in family.values():
        _check_against_pairs(lattice)


@settings(max_examples=80, deadline=None)
@given(composite_lattices())
def test_composites_match_orthogonal_pair_oracle(lattice):
    _check_against_pairs(lattice)


@settings(max_examples=40, deadline=None)
@given(composite_lattices(), st.booleans())
def test_only_atoms_reach_the_elimination(lattice, use_group):
    action = automorphism_group(lattice) if use_group else None
    seen = []
    original_eliminate = measures_mod.eliminate_unit_pivots
    original_snf = measures_mod.smith_normal_form

    def eliminate(rows):
        seen.extend(j for row in rows for j in row)
        return original_eliminate(rows)

    def snf(matrix):
        assert matrix and matrix[0]
        return original_snf(matrix)

    measures_mod.eliminate_unit_pivots = eliminate
    measures_mod.smith_normal_form = snf
    try:
        module = measure_module(lattice, action)
    finally:
        measures_mod.eliminate_unit_pivots = original_eliminate
        measures_mod.smith_normal_form = original_snf
    if is_orthomodular(lattice).ok:
        atom_columns = {module.columns[a] for a in lattice.atom_indices()}
        assert set(seen) <= atom_columns


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_boolean_basis_is_the_atom_indicators(n):
    lattice = boolean(n)
    basis = measure_basis(lattice, INTEGERS)
    expected = [
        {e: int(lattice.leq(a, e)) for e in lattice.elements}
        for a in (lattice.elements[i] for i in lattice.atom_indices())
    ]
    assert [dict(m.values) for m in basis] == expected


def test_benzene_keeps_the_orthogonal_pair_basis():
    lattice = benzene()
    assert not is_orthomodular(lattice).ok
    basis = [dict(m.values) for m in measure_basis(lattice, INTEGERS)]
    assert basis == [
        {"0": 0, "a": 1, "b": 1, "b'": -1, "a'": -1, "1": 0},
        {"0": 0, "a": 1, "b": 1, "b'": 0, "a'": 0, "1": 1},
    ]
    oracle = measure_group_by_pairs(lattice)
    assert measure_module(lattice).group.images == oracle.images


def test_rank_of_boolean_11():
    lattice = boolean(11)
    start = time.perf_counter()
    module = measure_module(lattice)
    assert (module.rank, module.torsion) == (11, ())
    assert time.perf_counter() - start < 3.0


def test_rank_of_mo_400():
    lattice = mo(400)
    start = time.perf_counter()
    module = measure_module(lattice)
    assert (module.rank, module.torsion) == (401, ())
    assert time.perf_counter() - start < 3.0
