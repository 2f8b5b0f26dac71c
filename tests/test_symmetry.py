"""Group actions by lattice automorphisms.

Claims:
    - automorphism validation rejects order- or complement-breaking maps,
      and a map to a name that is no element, naming the image
    - closure from generators matches known group orders; a group given by
      generators lists its elements only when its order or elements are
      read, and that listing raises GroupTooLargeError past the cap
    - the full automorphism groups of the test family have the expected
      orders (n! for power sets, 2^n n! for atom-pair lattices, 2 for the
      non-orthomodular hexagon)
    - every closed group element preserves joins, meets, and the complement
    - orbits partition; orbit times stabilizer equals group order
    - orbits lists, for each orbit met by the subset, the whole orbit found
      by applying the generators to names, represented by its first subset
      member and in that member's index order, under the full group and
      the trivial action on the family and its pairwise composites, for
      every element and for every other element
    - normalizers are subgroups; the quotient class map injectivity test
      matches hand-computed cases, and matches the class-by-class oracle
      for every atom and every pair of atoms of the family under the full
      group, the trivial action and a cyclic group given by a generator
    - the group file format round-trips
"""

from itertools import combinations
from math import factorial
from operator import attrgetter

import pytest

from orthomeasure import (
    GroupTooLargeError,
    LatticeAutomorphism,
    NotAnAutomorphismError,
    atoms,
    automorphism_group,
    benzene,
    boolean,
    close_group,
    load_group,
    mo,
    normalizer,
    orbit_of,
    orbits,
    quotient_map_injective,
    save_group,
    stabilizer,
    trivial_action,
)
from orthomeasure.symmetry import generating_subset

from oracles import quotient_map_injective_by_classes
from strategies import pairwise_composites


def swap_blocks_mo2():
    lat = mo(2)
    return lat, LatticeAutomorphism.from_mapping(lat, {
        "0": "0", "1": "1",
        "a1": "a2", "a2": "a1", "a1'": "a2'", "a2'": "a1'",
    })


def test_automorphism_validation_rejects_bad_maps():
    lat = mo(2)
    with pytest.raises(NotAnAutomorphismError):
        LatticeAutomorphism.from_mapping(lat, {
            "0": "1", "1": "0",
            "a1": "a1", "a1'": "a1'", "a2": "a2", "a2'": "a2'",
        })
    with pytest.raises(NotAnAutomorphismError):
        # order-preserving bijection that breaks the orthocomplement
        LatticeAutomorphism.from_mapping(lat, {
            "0": "0", "1": "1",
            "a1": "a2", "a2": "a1'", "a1'": "a1", "a2'": "a2'",
        })
    with pytest.raises(NotAnAutomorphismError):
        LatticeAutomorphism.from_mapping(lat, {e: "0" for e in lat.elements})


def test_a_mapping_to_a_non_element_names_the_image():
    lat = mo(2)
    mapping = {e: e for e in lat.elements}
    mapping["a1"] = "zz"
    with pytest.raises(NotAnAutomorphismError, match="'a1' maps to 'zz', which is not an element"):
        LatticeAutomorphism.from_mapping(lat, mapping)


def test_close_group_identity_only():
    lat = mo(2)
    action = close_group(lat, [LatticeAutomorphism.identity(lat)])
    assert action.order == 1


def test_close_group_single_swap():
    lat, swap = swap_blocks_mo2()
    assert close_group(lat, [swap]).order == 2


def test_close_group_full_mo2():
    lat = mo(2)
    swap_blocks = LatticeAutomorphism.from_mapping(lat, {
        "0": "0", "1": "1",
        "a1": "a2", "a2": "a1", "a1'": "a2'", "a2'": "a1'",
    })
    swap_in_1 = LatticeAutomorphism.from_mapping(lat, {
        "0": "0", "1": "1",
        "a1": "a1'", "a1'": "a1", "a2": "a2", "a2'": "a2'",
    })
    swap_in_2 = LatticeAutomorphism.from_mapping(lat, {
        "0": "0", "1": "1",
        "a1": "a1", "a1'": "a1'", "a2": "a2'", "a2'": "a2",
    })
    action = close_group(lat, [swap_blocks, swap_in_1, swap_in_2])
    assert action.order == 8


def test_close_group_cap(monkeypatch):
    # Aut(MO(3)) has 48 elements: past a cap of 10, reading the order or the
    # elements lists them and raises, while building the group lists nothing
    import orthomeasure.symmetry as symmetry_mod

    lat = mo(3)
    gens = list(automorphism_group(lat))
    monkeypatch.setattr(symmetry_mod, "DEFAULT_MAX_GROUP", 10)
    for read in (attrgetter("order"), attrgetter("perms"), list):
        action = close_group(lat, gens)
        with pytest.raises(GroupTooLargeError):
            read(action)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_automorphism_group_boolean(n, aut_groups):
    assert aut_groups[f"boolean({n})"].order == factorial(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_automorphism_group_mo(n, aut_groups):
    assert aut_groups[f"mo({n})"].order == 2 ** n * factorial(n)


def test_automorphism_group_benzene(aut_groups):
    action = aut_groups["benzene"]
    assert action.order == 2
    nontrivial = next(g for g in action if g.perm != tuple(range(6)))
    assert nontrivial("a") == "b'" and nontrivial("b") == "a'"


def test_group_elements_are_morphisms(family, aut_groups):
    for name in ("boolean(3)", "mo(3)", "benzene", "subspaces(F_3^2)"):
        lat = family[name]
        for g in aut_groups[name]:
            for x in lat.elements:
                assert g(lat.orthocomplement(x)) == lat.orthocomplement(g(x))
                for y in lat.elements:
                    assert g(lat.join(x, y)) == lat.join(g(x), g(y))
                    assert g(lat.meet(x, y)) == lat.meet(g(x), g(y))


def test_orbits_partition_and_orbit_stabilizer(family, aut_groups):
    for name, lat in family.items():
        action = aut_groups[name]
        seen = []
        for orb in orbits(action):
            seen.extend(orb.members)
            assert orb.representative == orb.members[0]
        assert sorted(seen) == sorted(lat.elements)
        for x in lat.elements:
            assert len(orbit_of(action, x)) * stabilizer(action, x).order == action.order


def _orbits_by_generators(action, subset):
    """(representative, members) per orbit met by the subset: the first
    subset member of each orbit in index order, and its orbit closed under
    the generators' maps, in index order."""
    lattice = action.lattice
    out, covered = [], set()
    for x in sorted(subset, key=lattice.index):
        if x in covered:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            frontier = [g(y) for y in frontier for g in action.generators if g(y) not in orbit]
            orbit.update(frontier)
        covered |= orbit
        out.append((x, tuple(sorted(orbit, key=lattice.index))))
    return out


def test_orbits_match_the_generator_closure(family):
    for lattice in [*family.values(), *pairwise_composites(family.values())]:
        for action in (automorphism_group(lattice), trivial_action(lattice)):
            for subset in (lattice.elements, lattice.elements[1::2]):
                got = [(orb.representative, orb.members) for orb in orbits(action, subset)]
                assert got == _orbits_by_generators(action, subset), lattice


def test_trivial_action_orbits():
    lat = mo(2)
    action = trivial_action(lat)
    assert all(len(orb.members) == 1 for orb in orbits(action))
    assert quotient_map_injective(action, ["a1", "a2"])


def test_normalizer_mo2():
    lat = mo(2)
    action = automorphism_group(lat)
    norm = normalizer(action, ["a1"])
    assert norm.order == 2
    assert all(g("a1") == "a1" for g in norm)
    identity = tuple(range(len(lat)))
    assert identity in norm
    assert quotient_map_injective(action, ["a1"])


def test_normalizer_is_subgroup(aut_groups):
    action = aut_groups["mo(3)"]
    norm = normalizer(action, ["a1", "a1'"])
    perms = set(norm.perms)
    for p in norm.perms:
        for q in norm.perms:
            assert tuple(p[j] for j in q) in perms


def test_normalizer_boolean3_one_atom(aut_groups):
    action = aut_groups["boolean(3)"]
    first_atom = atoms(boolean(3))[0]
    norm = normalizer(action, [first_atom])
    assert norm.order == 2  # the two permutations of the remaining atoms
    assert orbit_of(action, first_atom) == atoms(boolean(3))


def test_quotient_map_not_injective_case():
    # under the 3-cycle on atoms, two atoms sit in one big orbit but in
    # distinct (singleton) normalizer classes
    lat = boolean(3)
    cycle = LatticeAutomorphism.from_mapping(lat, {
        "000": "000", "111": "111",
        "100": "010", "010": "001", "001": "100",
        "110": "011", "011": "101", "101": "110",
    })
    action = close_group(lat, [cycle])
    assert action.order == 3
    assert not quotient_map_injective(action, ["100", "010"])
    # the same set under the full group is a single normalizer class
    assert quotient_map_injective(automorphism_group(lat), ["100", "010"])


def test_quotient_map_injective_matches_the_class_oracle(family, aut_groups):
    outcomes = set()
    for name, lat in family.items():
        full = aut_groups[name]
        # one element, the product of the full group's generators, held by
        # its generator as a group file is
        g = LatticeAutomorphism.identity(lat)
        for h in full.generators:
            g = g.compose(h)
        points = atoms(lat)
        for action in (full, trivial_action(lat), close_group(lat, [g])):
            for members in [[a] for a in points] + [list(p) for p in combinations(points, 2)]:
                got = quotient_map_injective(action, members)
                assert got == quotient_map_injective_by_classes(action, members), (name, members)
                outcomes.add(got)
    assert outcomes == {True, False}


def test_group_file_round_trip(tmp_path):
    lat = mo(2)
    action = automorphism_group(lat)
    path = tmp_path / "group.json"
    save_group(action, path)
    again = load_group(path, lat)
    assert again.order == action.order
    assert set(again.perms) == set(action.perms)


def test_generating_subset_generates(aut_groups):
    action = aut_groups["mo(2)"]
    gens = generating_subset(action)
    assert close_group(action.lattice, gens).order == action.order
    assert len(gens) <= 3
