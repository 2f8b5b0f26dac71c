"""One closure over pairwise orthogonal joins decides generation and gives
both measure extensions, with no cap on the number of members joined.

Claims:
    - on Boolean, MO, benzene, subspace, product and horizontal-sum
      lattices the closure reaches exactly the joins of pairwise orthogonal
      member sets (a scan over all subsets), its path sums of a measure's
      member values are the measure's values, and orthogonal generation
      agrees with the scan, witness included
    - on random composites and random member sets in canonical order, the
      closure, which reads the members below x' off one mask, reaches the
      same elements first by the same paths as the loop that tests every
      member at every element: the same first missing element and the same
      path sums
    - the closure from the 4 000 atoms of mo(2000) takes under 0.5 s
    - the classical extension succeeds exactly when the members contain
      every atom, satisfy the inclusion-exclusion identities (subset-scan
      oracle) and give bottom zero; it then returns the atom sums, and
      generation is checked before consistency
    - atom extensions on boolean(9..12), whose top joins 9 to 12 members,
      are exact within a stated bound
    - over Z/7 the unique extension from the atoms of boolean(5) is found
      with the trivial action without listing the 16 807 homomorphisms
    - the invariant extension on mo(13) and on the horizontal sum of ten
      copies of MO(2) with their full groups, and orthogonal generation by
      the 40 atoms of that sum, stay within 2 s each
"""

import random
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from orthomeasure import (
    INTEGERS,
    InconsistentExtensionError,
    NotGeneratingError,
    PartialMeasure,
    RATIONALS,
    atoms,
    automorphism_group,
    benzene,
    boolean,
    classical_groemer_extend,
    hom_count,
    horizontal_sum,
    integers_mod,
    is_orthogonal_generating_set,
    measure_basis,
    measure_module,
    mo,
    orth_groemer_extend,
    product,
    subspace_lattice,
    trivial_action,
)
from orthomeasure.groemer import _orthogonal_closure

from oracles import (
    inclusion_exclusion_check,
    orthogonal_closure_by_members,
    orthogonal_joins_by_subsets,
)
from strategies import composite_lattices


def _meet_closed(lattice, names):
    """The names with every pairwise meet added, bottom left implicit."""
    out = set(names)
    grew = True
    while grew:
        grew = False
        for a in list(out):
            for b in list(out):
                m = lattice.meet(a, b)
                if m != lattice.bottom and m not in out:
                    out.add(m)
                    grew = True
    return out


LATTICES = {
    "boolean(3)": boolean(3),
    "boolean(4)": boolean(4),
    "mo(3)": mo(3),
    "benzene": benzene(),
    "subspaces(F_3^2)": subspace_lattice(3, 2, (1, 1)),
    "product(boolean(1),mo(2))": product(boolean(1), mo(2)),
    "hsum(boolean(3),mo(3))": horizontal_sum(boolean(3), mo(3)),
    "hsum(benzene,mo(2))": horizontal_sum(benzene(), mo(2)),
}


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_closure_matches_subset_scan(name):
    # orbit sets need not be meet-closed, so the closure takes any set; the
    # public check takes the meet-closed ones
    lattice = LATTICES[name]
    rng = random.Random(name)
    basis = measure_basis(lattice, RATIONALS)
    for _ in range(80):
        members = sorted(rng.sample(lattice.elements, rng.randint(0, 6)), key=lattice.index)
        weights = [rng.randint(-3, 3) for _ in basis]
        mu = {e: sum(w * m.values[e] for w, m in zip(weights, basis)) for e in lattice.elements}
        missing, sums = _orthogonal_closure(lattice, members, {b: mu[b] for b in members})
        reached = orthogonal_joins_by_subsets(lattice, members)
        first = next((e for e in lattice.elements if e not in reached), None)
        assert {lattice.elements[i] for i in sums} == reached, members
        assert missing == first, members
        for i, total in sums.items():
            assert total == mu[lattice.elements[i]], (members, lattice.elements[i])
        if _meet_closed(lattice, members) == set(members):
            result = is_orthogonal_generating_set(lattice, members)
            assert (result.ok, result.witness) == (first is None, first and (first,))


def _atom_sum(lattice, weights, name):
    """Value at a bitstring-named element of boolean(n): the weights of its
    points."""
    return sum(w for w, bit in zip(weights, name) if bit == "1")


@settings(max_examples=150, deadline=None)
@given(composite_lattices(), st.data())
def test_closure_matches_the_loop_over_every_member(lattice, data):
    chosen = data.draw(st.sets(st.integers(0, len(lattice) - 1)))
    members = [lattice.elements[i] for i in sorted(chosen)]
    values = {b: data.draw(st.integers(-5, 5)) for b in members}
    assert _orthogonal_closure(lattice, members, values) == \
        orthogonal_closure_by_members(lattice, members, values)


def test_closure_from_the_atoms_of_mo_2000():
    lattice = mo(2000)
    members = atoms(lattice)
    start = time.perf_counter()
    missing, sums = _orthogonal_closure(lattice, members, dict.fromkeys(members, 1))
    elapsed = time.perf_counter() - start
    assert missing is None
    assert sums[lattice.top_index] == 2 and sums[lattice.index("a7")] == 1
    assert elapsed < 0.5


@st.composite
def classical_inputs(draw):
    """boolean(2..5), a meet-closed set of at most 8 members (all atoms in
    three cases in four), values summed from random atom weights, and, in
    about half the cases, one member value moved off by a nonzero amount
    (a non-atom member when there is one)."""
    n = draw(st.integers(2, 5))
    lattice = boolean(n)
    members = set(atoms(lattice)) if draw(st.integers(0, 3)) else set()
    for extra in draw(st.lists(st.sampled_from(lattice.elements), max_size=5)):
        grown = _meet_closed(lattice, members | {extra})
        if len(grown) <= 8:
            members = grown
    members = sorted(members, key=lattice.index)
    domain = draw(st.sampled_from([INTEGERS, RATIONALS, integers_mod(5)]))
    weights = [domain.validate(draw(st.integers(-3, 3))) for _ in range(n)]
    values = {b: domain.validate(_atom_sum(lattice, weights, b)) for b in members}
    # moving an atom's value only changes the weights, so prefer the others
    movable = [b for b in members if b.count("1") != 1] or members
    if movable and draw(st.booleans()):
        b = draw(st.sampled_from(movable))
        values[b] = domain.validate(values[b] + draw(st.sampled_from([-2, -1, 1, 2])))
    return lattice, members, PartialMeasure(domain, values)


@settings(max_examples=300, deadline=None)
@given(classical_inputs())
def test_classical_extension_matches_inclusion_exclusion_oracle(case):
    lattice, members, partial = case
    domain = partial.domain
    if not set(atoms(lattice)) <= set(members):
        with pytest.raises(NotGeneratingError):
            classical_groemer_extend(lattice, members, partial)
        return
    consistent = (
        inclusion_exclusion_check(lattice, members, partial).ok
        and partial.values.get(lattice.bottom, domain.zero) == domain.zero
    )
    if not consistent:
        with pytest.raises(InconsistentExtensionError):
            classical_groemer_extend(lattice, members, partial)
        return
    measure = classical_groemer_extend(lattice, members, partial)
    point_weights = [partial.values[a] for a in sorted(atoms(lattice), key=lambda a: a.index("1"))]
    for e in lattice.elements:
        assert measure.values[e] == domain.validate(_atom_sum(lattice, point_weights, e)), e
    for b, v in partial.values.items():
        assert measure.values[b] == v


def test_classical_checks_generation_before_consistency():
    lattice = boolean(3)
    # "001" is missing, and the values at "100", "010" and "110" clash
    partial = PartialMeasure(INTEGERS, {"100": 1, "010": 1, "110": 5})
    with pytest.raises(NotGeneratingError):
        classical_groemer_extend(lattice, ["100", "010", "110"], partial)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_classical_atom_extension_beyond_eight_members(n):
    lattice = boolean(n)
    names = atoms(lattice)
    weights = {a: a.index("1") + 1 for a in names}
    start = time.perf_counter()
    measure = classical_groemer_extend(lattice, names, PartialMeasure(INTEGERS, weights))
    assert time.perf_counter() - start < 10.0
    point_weights = list(range(1, n + 1))
    assert measure.values[lattice.top] == n * (n + 1) // 2
    for e in lattice.elements:
        assert measure.values[e] == _atom_sum(lattice, point_weights, e)
    if n == 9:
        assert is_orthogonal_generating_set(lattice, names).ok


def test_zmod_extension_with_many_homomorphisms():
    lattice = boolean(5)
    names = atoms(lattice)
    domain = integers_mod(7)
    assert hom_count(measure_module(lattice), 7) == 7 ** 5 > 10 ** 4
    weights = {a: 3 * a.index("1") + 2 for a in names}
    start = time.perf_counter()
    measure = orth_groemer_extend(
        lattice, trivial_action(lattice), names, PartialMeasure(domain, weights)
    )
    assert time.perf_counter() - start < 2.0
    point_weights = [3 * i + 2 for i in range(5)]
    for e in lattice.elements:
        assert measure.values[e] == _atom_sum(lattice, point_weights, e) % 7


def test_invariant_extension_with_many_orthogonal_members():
    for lattice in (mo(13), reduce(horizontal_sum, [mo(2)] * 10)):
        names = atoms(lattice)
        assert len(names) in (26, 40)
        action = automorphism_group(lattice)
        start = time.perf_counter()
        assert is_orthogonal_generating_set(lattice, names).ok
        measure = orth_groemer_extend(
            lattice, action, [names[0]],
            PartialMeasure(RATIONALS, {names[0]: Fraction(1, 2)}),
        )
        assert time.perf_counter() - start < 2.0
        assert all(measure.values[a] == Fraction(1, 2) for a in names)
        assert measure.values[lattice.top] == 1
        assert measure.values[lattice.bottom] == 0
