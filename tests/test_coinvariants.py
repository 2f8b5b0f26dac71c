"""Coinvariants by orbit-merged columns, against the row-appending route.

Claims:
    - summing each orbit's columns of the relation matrix gives the same
      rank and torsion as appending a row e_gx - e_x for every group element
      and element, on the family, products and horizontal sums, under full
      automorphism groups and under cyclic subgroups
    - sympy's invariant factors of the row-appended matrix agree
    - measure_module(lattice, action) and coinvariants of the plain module
      agree, and their projections are additive and constant on orbits
    - the invariant measure basis is invariant and of length rank
"""

import pytest

from orthomeasure import (
    FPAbelianGroup,
    LatticeAutomorphism,
    RATIONALS,
    benzene,
    boolean,
    close_group,
    coinvariants,
    horizontal_sum,
    is_measure,
    measure_basis,
    measure_module,
    mo,
    orbit_of,
    product,
)
from orthomeasure.symmetry import automorphism_group

from oracles import row_appended_coinvariant_rows


def _cases(family):
    cases = []
    for name, lattice in family.items():
        cases.append((name, lattice))
    for a, b in ((mo(1), mo(2)), (boolean(2), mo(2)), (mo(2), mo(2))):
        cases.append((f"product({a.name},{b.name})", product(a, b)))
    for a, b in ((boolean(2), mo(2)), (boolean(3), mo(3)), (mo(2), benzene())):
        cases.append((f"hsum({a.name},{b.name})", horizontal_sum(a, b)))
    return cases


def _actions(lattice):
    full = automorphism_group(lattice)
    yield "full", full
    if full.generators:
        # the generator that moves the most elements, the first of equals
        g = max(full.generators, key=lambda g: sum(i != j for i, j in enumerate(g.perm)))
        yield "cyclic", close_group(lattice, [g])


def test_orbit_merged_matches_row_appended(family):
    for name, lattice in _cases(family):
        for kind, action in _actions(lattice):
            merged = measure_module(lattice, action)
            rows = row_appended_coinvariant_rows(lattice, action.perms)
            appended = FPAbelianGroup.from_relations(len(lattice), rows)
            assert (merged.rank, merged.torsion) == (appended.rank, appended.torsion), (
                name, kind)


def test_orbit_merged_matches_sympy(family):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    from sympy.polys.domains import ZZ

    for name, lattice in _cases(family):
        if len(lattice) > 16:
            continue
        for kind, action in _actions(lattice):
            rows = row_appended_coinvariant_rows(lattice, action.perms)
            factors = invariant_factors(sympy.Matrix(rows), domain=ZZ)
            rank = len(lattice) - sum(1 for d in factors if d)
            torsion = tuple(int(d) for d in factors if d > 1)
            merged = measure_module(lattice, action)
            assert (merged.rank, merged.torsion) == (rank, torsion), (name, kind)


def test_entry_point_matches_coinvariants_of_plain_module(family):
    for name in ("mo(3)", "boolean(4)", "subspaces(F_3^2)", "benzene"):
        lattice = family[name]
        action = automorphism_group(lattice)
        direct = measure_module(lattice, action)
        via_plain = coinvariants(measure_module(lattice), action)
        assert direct.variant == via_plain.variant == "coinvariant"
        assert direct.group == via_plain.group
        for e in lattice.elements:
            assert direct.projection(e) == via_plain.projection(e)
            for x in orbit_of(action, e):
                assert direct.projection(x) == direct.projection(e)
            for y in lattice.elements:
                if lattice.orthogonal(e, y):
                    assert direct.add(direct.projection(e), direct.projection(y)) == (
                        direct.projection(lattice.join(e, y)))


def test_coinvariants_needs_a_plain_module():
    lattice = mo(2)
    action = automorphism_group(lattice)
    with pytest.raises(ValueError):
        coinvariants(measure_module(lattice, action), action)


def test_invariant_basis_of_rank_two():
    lattice = mo(4)
    # the block rotation a_i -> a_(i+1): the atom orbits {a_i} and {a_i'}
    rotation = {"0": "0", "1": "1"}
    for i in range(1, 5):
        j = i % 4 + 1
        rotation[f"a{i}"], rotation[f"a{i}'"] = f"a{j}", f"a{j}'"
    cyclic = close_group(lattice, [LatticeAutomorphism.from_mapping(lattice, rotation)])
    module = measure_module(lattice, cyclic)
    basis = measure_basis(lattice, RATIONALS, cyclic)
    assert len(basis) == module.rank >= 2
    for m in basis:
        assert is_measure(lattice, m.values, RATIONALS).ok
        for g in cyclic.generators:
            assert all(m.values[g(x)] == m.values[x] for x in lattice.elements)
