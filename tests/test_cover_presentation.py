"""The measure group from cover rows in repeated height-ordered passes.

Claims:
    - orthogonal_index_pairs visits the pairs of the all-pairs scan, in its
      order, on the family and on composites
    - on composites of boolean, mo, benzene and subspaces(F_3^2) by product
      and horizontal sum, plain and under the full and a cyclic group, the
      rank and torsion equal those of the orthogonal-pair oracle, and every
      orthogonal-pair row maps to zero in the new group
    - on an orthomodular lattice the first pass leaves only atom columns
      (or atom orbits), and the Smith normal form never sees an empty core
    - a Boolean lattice's integer basis is the atom indicators; benzene's
      basis measures are additive and generate its integer measures
    - the coinvariants of hsum(benzene, MO3) under its full group are
      Z (+) Z/2: the orthogonal-pair oracle, hom counts into Z/2 and Z/3
      and brute-force invariant measures agree
    - random ortholattices, almost none orthomodular, match the
      orthogonal-pair oracle too, and on some of them -e_0 and the cover
      rows alone would present another group
    - the 10-element ortholattice 0, p0..p3, q0..q3, 1 (qi = pi') with the
      covers of ``_ten``, not orthomodular: its measure group is Z^2, with
      4 measures into Z/2 and 9 into Z/3 by brute force, while its cover
      rows present Z^3, so measure_module needs its is_orthomodular guard
    - closed forms past the 32-element test family, under wall-clock
      bounds: rank M(B_11) = 11 and rank M(MO(400)) = 401; with the atoms
      of MO(400) listed a1..a400, a400'..a1', the passes make at most two
      rewrites per element, as in the canonical order
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

import orthomeasure.measures as measures_mod
from orthomeasure import (
    INTEGERS,
    CheckResult,
    LatticeDescription,
    benzene,
    boolean,
    brute_force_measures,
    build_lattice,
    close_group,
    coinvariants,
    hom_count,
    horizontal_sum,
    integers_mod,
    is_measure,
    is_orthomodular,
    measure_basis,
    measure_module,
    mo,
    orthogonal_pairs,
    relation_matrix,
    verify_ortho,
)
from orthomeasure.symmetry import automorphism_group

from oracles import measure_group_by_pairs, solve_exact
from strategies import composite_lattices, random_ortholattices


def _actions(lattice):
    yield "plain", None
    full = automorphism_group(lattice)
    yield "full", full
    if full.generators:
        # the generator that moves the most elements, the first of equals
        g = max(full.generators, key=lambda g: sum(i != j for i, j in enumerate(g.perm)))
        yield "cyclic", close_group(lattice, [g])


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


def _rank_and_torsion(module):
    return module.rank, module.torsion


def _from_cover_rows(monkeypatch, lattice):
    """The module of -e_0 and the cover rows, as if the lattice were
    orthomodular."""
    with monkeypatch.context() as patched:
        patched.setattr(measures_mod, "is_orthomodular", lambda lat: CheckResult(True))
        return measure_module(lattice)


def test_random_ortholattices_match_orthogonal_pair_oracle(monkeypatch):
    differ = 0
    for lattice in random_ortholattices(1, 120):
        _check_against_pairs(lattice)
        differ += (_rank_and_torsion(_from_cover_rows(monkeypatch, lattice))
                   != _rank_and_torsion(measure_module(lattice)))
    assert differ > 0


def _ten():
    """The smallest ortholattice found whose cover rows present another
    group than its orthogonal pairs: 0, p0..p3, q0..q3, 1 with qi = pi',
    given by its covers."""
    p = [f"p{i}" for i in range(4)]
    q = [f"q{i}" for i in range(4)]
    covers = [("0", "p0"), ("0", "p2"), ("0", "p3"),
              ("p0", "p1"), ("p0", "q2"), ("p1", "q3"), ("p2", "q0"), ("p2", "q3"),
              ("p3", "q1"), ("p3", "q2"),
              ("q1", "q0"), ("q0", "1"), ("q2", "1"), ("q3", "1")]
    orth = {"0": "1", "1": "0"}
    for a, b in zip(p, q):
        orth[a], orth[b] = b, a
    return build_lattice(LatticeDescription("ten", ("0", *p, *q, "1"), tuple(covers), orth))


def test_cover_rows_need_the_orthomodular_guard(monkeypatch):
    lattice = _ten()
    assert verify_ortho(lattice).ok
    assert is_orthomodular(lattice) == CheckResult(False, ("p0", "p1"))
    module = measure_module(lattice)
    assert _rank_and_torsion(module) == _rank_and_torsion(measure_group_by_pairs(lattice)) == (2, ())
    for m, count in ((2, 4), (3, 9)):
        assert hom_count(module, m) == count
        assert len(brute_force_measures(lattice, range(m), integers_mod(m))) == count
    # -e_0 and the cover rows miss mu(p1) + mu(q1) = mu(1)
    assert _rank_and_torsion(_from_cover_rows(monkeypatch, lattice)) == (3, ())


@settings(max_examples=40, deadline=None)
@given(composite_lattices(), st.booleans())
def test_only_atoms_reach_the_elimination(lattice, use_group):
    # on an OML the first pass takes every column but the atoms, so every
    # rewritten row and every taken column's expression is over the atoms,
    # and the SNF sees no more columns than there are atoms
    action = automorphism_group(lattice) if use_group else None
    written, widths = [], []
    original_combine = measures_mod._combine
    original_snf = measures_mod.smith_normal_form

    def combine(terms, vectors):
        out = original_combine(terms, vectors)
        written.extend(out)
        return out

    def snf(matrix):
        assert matrix and matrix[0]
        widths.append(len(matrix[0]))
        return original_snf(matrix)

    measures_mod._combine = combine
    measures_mod.smith_normal_form = snf
    try:
        module = measure_module(lattice, action)
    finally:
        measures_mod._combine = original_combine
        measures_mod.smith_normal_form = original_snf
    if is_orthomodular(lattice).ok:
        atom_columns = {module.columns[a] for a in lattice.atom_indices()}
        assert set(written) <= atom_columns
        assert all(w <= len(atom_columns) for w in widths)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_boolean_basis_is_the_atom_indicators(n):
    lattice = boolean(n)
    basis = measure_basis(lattice, INTEGERS)
    expected = [
        {e: int(lattice.leq(a, e)) for e in lattice.elements}
        for a in (lattice.elements[i] for i in lattice.atom_indices())
    ]
    assert [dict(m.values) for m in basis] == expected


def test_benzene_basis_generates_its_integer_measures():
    lattice = benzene()
    assert not is_orthomodular(lattice).ok
    basis = measure_basis(lattice, INTEGERS)
    assert len(basis) == measure_module(lattice).rank == 2
    for m in basis:
        assert is_measure(lattice, m.values, INTEGERS).ok
    columns = [[m(e) for m in basis] for e in lattice.elements]
    found = brute_force_measures(lattice, range(-2, 3), INTEGERS)
    assert len(found) > 1
    for m in found:
        x = solve_exact(columns, [m(e) for e in lattice.elements])
        assert x is not None and all(c.denominator == 1 for c in x), dict(m.values)


def test_first_torsion_in_an_invariant_measure_group():
    lattice = horizontal_sum(benzene(), mo(3))
    action = automorphism_group(lattice)
    module = measure_module(lattice, action)
    oracle = measure_group_by_pairs(lattice, action)
    assert (module.rank, module.torsion) == (oracle.rank, oracle.torsion) == (1, (2,))
    labels = action.orbit_labels()
    orbit_count = len(set(labels))
    for m, count in ((2, 4), (3, 3)):
        assert hom_count(module, m) == count
        found = brute_force_measures(lattice, range(m), integers_mod(m))
        invariant = [x for x in found
                     if len({(label, x(e)) for label, e in zip(labels, lattice.elements)})
                     == orbit_count]
        assert len(invariant) == count


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


def _nested_mo(n):
    """MO(n) with its elements listed 0, a1..an, an'..a1', 1."""
    atoms = [f"a{i}" for i in range(1, n + 1)]
    primes = [f"a{i}'" for i in range(n, 0, -1)]
    orth = {"0": "1", "1": "0"}
    for i in range(1, n + 1):
        orth[f"a{i}"], orth[f"a{i}'"] = f"a{i}'", f"a{i}"
    pairs = [("0", a) for a in atoms + primes] + [(a, "1") for a in atoms + primes]
    return build_lattice(LatticeDescription(f"nested mo({n})", ("0", *atoms, *primes, "1"),
                                            tuple(pairs), orth))


def test_work_on_mo_400_does_not_depend_on_element_order(monkeypatch):
    # every row a1 + a1' - ai - ai' left by the first pass holds a1 and a1';
    # listed first in the second pass's order, they are no row's top, so
    # that pass takes all 399 rows instead of one per pass
    lattice = _nested_mo(400)
    calls = 0
    original = measures_mod._combine

    def combine(terms, vectors):
        nonlocal calls
        calls += 1
        return original(terms, vectors)

    monkeypatch.setattr(measures_mod, "_combine", combine)
    start = time.perf_counter()
    module = measure_module(lattice)
    assert (module.rank, module.torsion) == (401, ())
    assert calls <= 2 * len(lattice)
    assert time.perf_counter() - start < 3.0
