"""Set stabilizers composed from the lattice's blocks, and the one-sided
refinement behind the searched blocks.

Claims:
    - with no group element listed, within 10 s on a 2-vCPU host:
      |Stab_{Aut(MO(n))}({a1})| = 2^(n-1) (n-1)!,
      |Stab({a1, a1'})| = 2^n (n-1)! and |Stab({a1, a2})| = 2^(n-1) (n-2)!
      for n = 1..20 and n = 50, 100, 200, 500, 1000, 2000, and
      |Stab_{Aut(B_k)}(j atoms)| = j! (k-j)! for 1 <= k <= 10
    - the composed normalizer of a member set (0 to 3 members) has exactly
      the elements the listing filter keeps in the closed group of the same
      generators, on the test family, products and horizontal sums, and so
      do nested normalizers
    - on random composites and on greechie_loop(5) with its sums and
      products with mo(2) and boolean(2), nested normalizers of 0 to 3
      members (atoms, non-atoms, 0 and 1) have the order and the orbits of
      one search of the whole lattice coloured by the sets, every
      generator is an automorphism mapping each set onto itself, and under
      1 000 elements the group is the listing filter's
    - isomorphic searched blocks are matched by a map that keeps their
      colours, so the summands of hsum(loop(5), loop(5)) fall in one class
      exactly when their coloured atoms lie in one orbit
    - a product whose member lies below no single central atom is searched
      at that node alone, with its colours; every other node is composed
    - membership in a composed group, decided without listing, agrees with
      the listed group on small lattices and holds up on Aut(MO(20))
    - at the root and after each fix of random fix sequences, the search
      prunes exactly when a joint refinement of both sides
      (``oracles.TwoSidedRefinement``) does, and otherwise splits
      src + dst into the same cells up to a renaming of colours: for
      isomorphic and non-isomorphic pairs, for a lattice against copies of
      itself listed in random orders, unmarked, with random marks on the
      element indices and with marks read per side, and on random
      composites
    - with marks read per side, a lattice and a relabelled copy whose marks
      follow the element names are isomorphic by a map that keeps every
      mark, and are not when one mark moves to another element
    - nested normalizers of pairs in Aut(boolean(4)) keep both pairs and
      have the order that filtering the listed full group gives
"""

import random
import time
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthomeasure import (
    LatticeAutomorphism,
    LatticeDescription,
    atoms,
    automorphism_group,
    benzene,
    boolean,
    build_lattice,
    close_group,
    horizontal_sum,
    mo,
    normalizer,
    orbits,
    product,
    stabilizer,
    subspace_lattice,
)
from orthomeasure import symmetry
from orthomeasure.lattice import IsomorphismSearch

from oracles import TwoSidedRefinement, normalizer_by_listing, normalizer_by_search
from strategies import composite_lattices, greechie_loop


def _no_listing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a group was listed")

    monkeypatch.setattr(symmetry, "_closure", refuse)


def test_atom_stabilizer_of_mo_closed_form(monkeypatch):
    _no_listing(monkeypatch)
    start = time.perf_counter()
    for n in [*range(1, 21), 50, 100, 200, 500, 1000, 2000]:
        action = automorphism_group(mo(n))
        assert stabilizer(action, "a1").order == 2 ** (n - 1) * factorial(n - 1), n
        assert normalizer(action, ["a1", "a1'"]).order == 2 ** n * factorial(n - 1), n
        if n >= 2:
            assert normalizer(action, ["a1", "a2"]).order == 2 ** (n - 1) * factorial(n - 2), n
    for k in range(1, 11):
        lattice = boolean(k)
        action = automorphism_group(lattice)
        names = atoms(lattice)
        for j in range(k + 1):
            assert normalizer(action, names[:j]).order == factorial(j) * factorial(k - j), (k, j)
    assert time.perf_counter() - start < 10.0


def _lattices():
    return {
        "boolean(3)": boolean(3),
        "boolean(4)": boolean(4),
        "mo(2)": mo(2),
        "mo(3)": mo(3),
        "mo(4)": mo(4),
        "benzene": benzene(),
        "subspaces(F_3^2)": subspace_lattice(3, 2, (1, 1)),
        "product(boolean(1),mo(2))": product(boolean(1), mo(2)),
        "product(mo(2),mo(2))": product(mo(2), mo(2)),
        "hsum(boolean(3),mo(3))": horizontal_sum(boolean(3), mo(3)),
        "hsum(benzene,mo(2))": horizontal_sum(benzene(), mo(2)),
    }


def _member_sets(lattice, rng):
    names = lattice.elements
    sets = [()]
    for size in (1, 2, 3):
        sets += [tuple(rng.sample(names, size)) for _ in range(4)]
    return sets


@pytest.mark.parametrize("name", sorted(_lattices()))
def test_normalizer_search_matches_listing(name):
    lattice = _lattices()[name]
    rng = random.Random(name)
    searched = automorphism_group(lattice)
    listed = close_group(lattice, searched.generators)
    assert listed.order == searched.order
    index = lattice.index
    for members in _member_sets(lattice, rng):
        norm = normalizer(searched, members)
        assert norm._perms is None
        expected = normalizer_by_listing(listed.perms, [index(e) for e in members])
        assert norm.order == len(expected), members
        assert set(norm.perms) == expected, members
        assert orbits(norm) == orbits(normalizer(listed, members))
        for more in _member_sets(lattice, rng)[::3]:
            nested = normalizer(norm, more)
            both = normalizer_by_listing(expected, [index(e) for e in more])
            assert nested.order == len(both), (members, more)
            assert set(nested.perms) == both, (members, more)


LOOPS = {
    "loop(5)": lambda: greechie_loop(5),
    "hsum(loop(5),mo(2))": lambda: horizontal_sum(greechie_loop(5), mo(2)),
    "hsum(boolean(2),loop(5))": lambda: horizontal_sum(boolean(2), greechie_loop(5)),
    "product(loop(5),mo(2))": lambda: product(greechie_loop(5), mo(2)),
    "product(boolean(2),loop(5))": lambda: product(boolean(2), greechie_loop(5)),
    "hsum(loop(5),loop(5))": lambda: horizontal_sum(greechie_loop(5), greechie_loop(5)),
}


def _check_composed_normalizers(lattice, member_sets):
    """Nested normalizers of the member sets against one search of the
    whole lattice coloured by the sets so far, and under 1 000 elements
    against the listing filter."""
    full = automorphism_group(lattice)
    listed = close_group(lattice, full.generators).perms if full.order <= 5000 else None
    group, sets = full, []
    for members in member_sets:
        group = normalizer(group, [lattice.elements[i] for i in members])
        sets.append(frozenset(members))
        assert group.stabilized == tuple(sets)
        expected = normalizer_by_search(lattice, sets)
        assert group.order == expected.order, sets
        assert group.orbit_labels() == expected.orbit_labels(), sets
        for g in group.generators:
            symmetry._validate_automorphism(lattice, g.perm)
            assert all({g.perm[i] for i in s} == s for s in sets), sets
        if listed is not None and group.order < 1000:
            kept = listed
            for s in sets:
                kept = normalizer_by_listing(kept, s)
            assert set(close_group(lattice, group.generators).perms) == kept, sets
        assert group._perms is None


@st.composite
def _member_index_sets(draw, lattice):
    """One to three sets of 0 to 3 element indices, each drawn from the
    atoms, from the other elements (0 and 1 included) or from all."""
    atom_indices = lattice.atom_indices()
    others = [i for i in range(len(lattice)) if i not in atom_indices]
    pools = [atom_indices, others, list(range(len(lattice)))]
    sets = []
    for _ in range(draw(st.integers(1, 3))):
        pool = draw(st.sampled_from([p for p in pools if p]))
        sets.append(draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)))
    return sets


@settings(max_examples=120, deadline=None)
@given(st.one_of(composite_lattices(), st.sampled_from(sorted(LOOPS)).map(
    lambda name: LOOPS[name]())), st.data())
def test_composed_normalizer_matches_whole_lattice_search(lattice, data):
    _check_composed_normalizers(lattice, data.draw(_member_index_sets(lattice)))


def test_searched_blocks_are_matched_with_their_colours():
    # the two summands are searched blocks of one shape; a corner and a
    # middle atom of the loop lie in different orbits, two corners in one
    lattice = LOOPS["hsum(loop(5),loop(5))"]()
    for names in (["a:c0", "b:m0"], ["a:c0", "b:c2"], ["a:m1", "b:m3"], ["a:c1", "b:c1'"]):
        _check_composed_normalizers(lattice, [[lattice.index(e) for e in names]])


def test_a_member_below_no_single_central_atom_searches_that_node_alone(monkeypatch):
    seen = []
    search = symmetry._search_group

    def recorded(lat, colours):
        seen.append(len(lat))
        return search(lat, colours)

    inner = product(mo(2), mo(3))  # 48 elements, central atoms (1,0) and (0,1)
    for lattice, prefix in ((inner, ""), (horizontal_sum(inner, mo(3)), "a:")):
        # (a1,0) lies below the central atom (1,0); (a1,a1) below neither
        for name, searched in (("(a1,0)", []), ("(a1,a1)", [48])):
            full = automorphism_group(lattice)
            monkeypatch.setattr(symmetry, "_search_group", recorded)
            seen.clear()
            normalizer(full, [prefix + name])
            monkeypatch.undo()
            assert seen == searched, (lattice, name)
            _check_composed_normalizers(lattice, [[lattice.index(prefix + name)]])


@pytest.mark.parametrize("name", ["mo(2)", "mo(3)", "boolean(3)", "benzene",
                                  "product(boolean(1),mo(2))"])
def test_membership_without_listing_matches_listing(name):
    lattice = _lattices()[name]
    n = len(lattice)
    full = automorphism_group(lattice)
    groups = [full, stabilizer(full, lattice.elements[1]),
              normalizer(full, lattice.elements[1:3])]
    if n <= 8:
        candidates = list(permutations(range(n)))
    else:
        rng = random.Random(name)
        candidates = [tuple(rng.sample(range(n), n)) for _ in range(3000)]
        candidates += [tuple(range(n))]
    for group in groups:
        listed = set(close_group(lattice, group.generators).perms)
        candidates += list(listed)
        for perm in candidates:
            assert (perm in group) == (perm in listed), perm
        assert group._perms is None


def test_membership_in_aut_mo20_lists_nothing(monkeypatch):
    _no_listing(monkeypatch)
    lattice = mo(20)
    full = automorphism_group(lattice)
    stab = stabilizer(full, "a1")
    identity = tuple(range(len(lattice)))
    assert identity in full and identity in stab
    # g rotates the blocks a_i -> a_(i+1), h flips a1 <-> a1'
    g = {"0": "0", "1": "1"}
    for i in range(1, 21):
        g[f"a{i}"], g[f"a{i}'"] = f"a{i % 20 + 1}", f"a{i % 20 + 1}'"
    h = {e: e for e in lattice.elements}
    h["a1"], h["a1'"] = "a1'", "a1"
    g, h = (LatticeAutomorphism.from_mapping(lattice, m) for m in (g, h))
    assert g in full and h in full
    assert g.compose(h) in full
    assert h.inverse() in full
    moves_a1 = next(g for g in full.generators if g("a1") != "a1")
    assert moves_a1 not in stab
    for g in stab.generators:
        assert g in stab and g in full
    index = lattice.index
    swap = list(identity)
    # a1 <-> a2 alone breaks the orthocomplement
    swap[index("a1")], swap[index("a2")] = index("a2"), index("a1")
    assert tuple(swap) not in full
    assert identity[:-1] not in full  # wrong length
    assert tuple(reversed(identity)) not in full  # swaps 0 and 1


def _relabelled(lattice, seed):
    """The same lattice with its elements listed in a shuffled order."""
    desc = lattice.to_description()
    elements = list(desc.elements)
    random.Random(seed).shuffle(elements)
    return build_lattice(LatticeDescription(
        desc.name, tuple(elements), desc.leq_pairs, desc.orthocomplement))


PAIRS = {
    "mo(4)~relabelled": lambda: (mo(4), _relabelled(mo(4), 1)),
    "boolean(4)~relabelled": lambda: (boolean(4), _relabelled(boolean(4), 2)),
    "hsum~relabelled": lambda: (horizontal_sum(boolean(3), mo(2)),
                                _relabelled(horizontal_sum(boolean(3), mo(2)), 3)),
    "benzene~itself": lambda: (benzene(), benzene()),
    "mo(3)/boolean(3)": lambda: (mo(3), boolean(3)),
    "boolean(3)/hsum(boolean(2),mo(2))": lambda: (boolean(3), horizontal_sum(boolean(2), mo(2))),
    "product(boolean(1),mo(2))/mo(5)": lambda: (product(boolean(1), mo(2)), mo(5)),
    "mo(3)~hsum(mo(1),mo(2))": lambda: (mo(3), horizontal_sum(mo(1), mo(2))),
}


def _same_partition(node, colours):
    """The search node splits src + dst as the oracle's colourings do, up to
    a renaming of colours."""
    ours = list(node[0].partition.colours) + list(node[1].colours)
    theirs = colours[0] + colours[1]
    return len(set(zip(ours, theirs))) == len(set(ours)) == len(set(theirs))


def _check_against_oracle(src, dst, marks, rng, walks):
    """The root and the nodes of random fix sequences: the search prunes
    exactly when the joint refinement does, and otherwise partitions both
    sides as it does."""
    search = IsomorphismSearch(src, dst, marks)
    oracle = TwoSidedRefinement(src, dst, marks)
    assert (search.root is None) == (oracle.root is None)
    if oracle.root is None:
        return
    assert _same_partition(search.root, oracle.root)
    for _ in range(walks):
        node, theirs = search.root, oracle.root
        while theirs is not None and len(set(theirs[0])) < len(src):
            x = rng.randrange(len(src))
            same = [y for y, c in enumerate(theirs[1]) if c == theirs[0][x]]
            y = rng.choice(same) if same and rng.random() < 0.9 else rng.randrange(len(dst))
            node, theirs = search.fix(node, x, y), oracle.fix(theirs, x, y)
            assert (node is None) == (theirs is None), (x, y)
            if node is not None:
                assert _same_partition(node, theirs), (x, y)


def _by_name(marks, src, dst):
    """The src marks moved to the dst elements of the same names."""
    return [marks[src.index(e)] for e in dst.elements]


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("marked", [False, True])
def test_one_sided_refinement_matches_joint_refinement(name, marked):
    src, dst = PAIRS[name]()
    rng = random.Random(f"{name}:{marked}")
    marks = [rng.randrange(2) for _ in range(len(src))] if marked else None
    _check_against_oracle(src, dst, marks and (marks, marks), rng, walks=30)
    # the source against copies of itself listed in random orders, so that
    # the target's initial colouring is the source's moved by a random
    # bijection; with one element index marked on both sides, the marks
    # mostly fall on different elements and the two sides disagree, and
    # with the mark read per side and moved with the names they agree
    for k in range(12):
        copy = _relabelled(src, f"{name}:{marked}:{k}")
        marked_index = rng.randrange(len(src))
        marks = [int(i == marked_index) for i in range(len(src))] if k % 2 else None
        _check_against_oracle(src, copy, marks and (marks, marks), rng, walks=3)
        if marks:
            _check_against_oracle(src, copy, (marks, _by_name(marks, src, copy)), rng, walks=3)


@settings(max_examples=100, deadline=None)
@given(composite_lattices(), st.integers(0, 2 ** 32), st.booleans(), st.booleans())
def test_refinement_matches_joint_refinement_on_composites(lattice, seed, relabel, marked):
    rng = random.Random(seed)
    dst = _relabelled(lattice, rng.random()) if relabel else lattice
    marks = [rng.randrange(2) for _ in range(len(lattice))] if marked else None
    _check_against_oracle(lattice, dst, marks and (marks, marks), rng, walks=4)
    if marks and relabel:
        _check_against_oracle(lattice, dst, (marks, _by_name(marks, lattice, dst)), rng, walks=4)


@pytest.mark.parametrize("name", [name for name in sorted(PAIRS) if "~" in name])
def test_marks_are_read_per_side(name):
    src, _ = PAIRS[name]()
    rng = random.Random(name)
    for k in range(6):
        copy = _relabelled(src, f"{name}:{k}")
        marks = [rng.randrange(3) for _ in range(len(src))]
        moved = _by_name(marks, src, copy)
        search = IsomorphismSearch(src, copy, (marks, moved))
        found = next(search.leaves(search.root), None)
        assert found is not None
        assert [moved[j] for j in found] == marks
        # one more mark, on an element that had none, and no map keeps them
        unmarked = [i for i, m in enumerate(moved) if m == 0]
        if unmarked:
            moved[rng.choice(unmarked)] = 3
            search = IsomorphismSearch(src, copy, (marks, moved))
            assert next(search.leaves(search.root), None) is None


def test_isomorphic_pairs_are_found_and_others_are_not():
    for name, make in PAIRS.items():
        src, dst = make()
        search = IsomorphismSearch(src, dst)
        found = next(search.leaves(search.root), None)
        expected = "~" in name
        assert (found is not None) == expected, name
        if found is not None:
            for i, j in enumerate(found):
                assert dst.orth_map[j] == found[src.orth_map[i]]
                for k in range(len(src)):
                    assert src.leq_index(i, k) == dst.leq_index(j, found[k])


def test_nested_normalizers_keep_both_sets():
    lattice = boolean(4)
    pairs = list(combinations(range(len(lattice)), 2))
    rng = random.Random(4)
    full = automorphism_group(lattice)
    for _ in range(10):
        chosen = rng.sample(pairs, 2)
        sets = [[lattice.elements[i] for i in pair] for pair in chosen]
        group = normalizer(normalizer(full, sets[0]), sets[1])
        for g in close_group(lattice, group.generators):
            for s in sets:
                assert {g(e) for e in s} == set(s)
        kept = [p for p in full.perms
                if all({lattice.elements[p[lattice.index(e)]] for e in s} == set(s) for s in sets)]
        assert group.order == len(kept)
