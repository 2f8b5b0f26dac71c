"""The whole-lattice automorphism search: a base and strong generating set.

``automorphism_group`` runs this search only on irreducible non-Boolean
blocks (see test_decomposition.py), so these tests call it directly.

Claims:
    - the search gives the closed-form orders |Aut(MO(n))| = 2^n n! up to
      n = 20 and |Aut(B_n)| = n! up to n = 7, and 2 (|Aut A|)^2 for the
      square of a directly irreducible lattice, without listing elements
    - every returned generator passes the automorphism validation
    - the order, of the search and of ``automorphism_group``, matches an
      independent count of networkx DiGraphMatcher isomorphisms of the
      cover graph with its orthocomplement edges, and both list exactly
      the isomorphisms the two-lattice search enumerates
    - union-find orbits equal the orbits read off the listed closure
    - each strong generator joins two orbits of the generators found before
      it, so none is redundant
    - element listing stays under DEFAULT_MAX_GROUP
    - the search keeps no Python frame per level: Aut(MO(120)), base
      length 120, comes out with the recursion limit 60 frames above the
      caller's depth
    - the search's counts of refinements, splitter cells and neighbour
      visits repeat exactly, and the visits grow at most 5-fold from MO(100)
      to MO(200), as a quadratic search allows (a cubic one gives 8-fold)
"""

import sys
import time
from math import factorial

import pytest

from orthomeasure import (
    GroupTooLargeError,
    benzene,
    boolean,
    close_group,
    horizontal_sum,
    mo,
    orbit_of,
    orbits,
    product,
    subspace_lattice,
)
from orthomeasure import symmetry
from orthomeasure.lattice import IsomorphismSearch, iter_isomorphisms
from orthomeasure.symmetry import (
    DEFAULT_MAX_GROUP,
    LatticeAutomorphism,
    _search_group,
    _validate_automorphism,
    automorphism_group,
)

from oracles import normalizer_by_search, orbits_by_listing


def searched(lattice):
    action = _search_group(lattice, ())
    for g in action.generators:
        _validate_automorphism(lattice, g.perm)
    return action


@pytest.mark.parametrize("n", range(1, 21))
def test_mo_order_closed_form(n):
    action = searched(mo(n))
    assert action.order == 2 ** n * factorial(n)
    assert action._perms is None  # nothing was listed


@pytest.mark.parametrize("n", [6, 7])
def test_boolean_order_closed_form(n):
    assert searched(boolean(n)).order == factorial(n)


def test_mo2_squared():
    assert searched(product(mo(2), mo(2))).order == 128


def test_mo3_squared_within_bound():
    lattice = product(mo(3), mo(3))
    start = time.perf_counter()
    action = searched(lattice)
    elapsed = time.perf_counter() - start
    assert action.order == 2 * 48 ** 2 == 4608
    assert elapsed < 10.0


def _matcher_count(lattice):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher

    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(lattice)))
    for i, mask in enumerate(lattice.cover_masks()):
        for j in range(len(lattice)):
            if mask >> j & 1:
                graph.add_edge(i, j, kind="cover")
    for i, j in enumerate(lattice.orth_map):
        if i != j:
            if graph.has_edge(i, j):
                graph.edges[i, j]["kind"] += "+orth"
            else:
                graph.add_edge(i, j, kind="orth")
    matcher = DiGraphMatcher(
        graph, graph, edge_match=lambda a, b: a["kind"] == b["kind"]
    )
    return sum(1 for _ in matcher.isomorphisms_iter())


SMALL = {
    "boolean(3)": lambda: boolean(3),
    "boolean(4)": lambda: boolean(4),
    "mo(3)": lambda: mo(3),
    "mo(4)": lambda: mo(4),
    "benzene": benzene,
    "subspaces(F_3^2)": lambda: subspace_lattice(3, 2, (1, 1)),
    "hsum(boolean(2),mo(2))": lambda: horizontal_sum(boolean(2), mo(2)),
    "product(boolean(1),mo(2))": lambda: product(boolean(1), mo(2)),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_order_matches_networkx_count(name):
    lattice = SMALL[name]()
    count = _matcher_count(lattice)
    assert searched(lattice).order == count
    assert automorphism_group(lattice).order == count


@pytest.mark.parametrize("name", sorted(SMALL))
def test_order_matches_enumerated_isomorphisms(name):
    lattice = SMALL[name]()
    listed = set(iter_isomorphisms(lattice, lattice))
    for action in (searched(lattice), automorphism_group(lattice)):
        assert action.order == len(listed)
        assert set(action.perms) == listed


def test_union_find_orbits_match_listing(family, aut_groups):
    lattices = dict(family)
    lattices["product(mo(1),mo(2))"] = product(mo(1), mo(2))
    lattices["hsum(boolean(3),mo(3))"] = horizontal_sum(boolean(3), mo(3))
    for name, lattice in lattices.items():
        action = aut_groups[name] if name in aut_groups else automorphism_group(lattice)
        listed = orbits_by_listing(action.perms, len(lattice))
        for i, e in enumerate(lattice.elements):
            assert {lattice.index(x) for x in orbit_of(action, e)} == listed[i]
        assert sum(len(o.members) for o in orbits(action)) == len(lattice)


def test_union_find_orbits_of_a_closed_subgroup():
    lattice = mo(4)
    # swaps the blocks of a1 and a2 and flips that of a3
    g = LatticeAutomorphism.from_mapping(lattice, {
        "0": "0", "1": "1", "a1": "a2", "a1'": "a2'", "a2": "a1", "a2'": "a1'",
        "a3": "a3'", "a3'": "a3", "a4": "a4", "a4'": "a4'"})
    action = close_group(lattice, [g])
    listed = orbits_by_listing(action.perms, len(lattice))
    for i, e in enumerate(lattice.elements):
        assert {lattice.index(x) for x in orbit_of(action, e)} == listed[i]


def _orbit_count(perms, n):
    """Connected components of i -- p[i] over the maps, by search."""
    seen, count = set(), 0
    for start in range(n):
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            for p in perms:
                if p[i] not in seen:
                    seen.add(p[i])
                    stack.append(p[i])
    return count


def test_each_generator_joins_orbits():
    # generators are returned last found first
    five = mo(5)
    for action in (searched(mo(4)), searched(boolean(4)),
                   searched(product(mo(2), mo(2))),
                   searched(horizontal_sum(boolean(3), mo(3))),
                   normalizer_by_search(five, [{five.index("a1"), five.index("a2'")}])):
        perms = [g.perm for g in action.generators]
        n = len(action.lattice)
        for k in range(len(perms)):
            assert _orbit_count(perms[k:], n) < _orbit_count(perms[k + 1:], n), k


def test_listing_respects_the_cap():
    action = automorphism_group(mo(7))
    assert action.order == 645120 > DEFAULT_MAX_GROUP
    with pytest.raises(GroupTooLargeError):
        action.perms
    with pytest.raises(GroupTooLargeError):
        list(action)


def test_leaf_check_rejects_non_isomorphisms():
    # the guard behind every discrete leaf, in case refinement (whose cover
    # multisets are hashed) ever leaves a wrong bijection
    lattice = mo(2)
    search = IsomorphismSearch(lattice, lattice)
    index = {e: lattice.index(e) for e in lattice.elements}
    identity = tuple(range(len(lattice)))
    assert search._preserves_structure(identity)

    def swapped(*pairs):
        perm = list(identity)
        for a, b in pairs:
            perm[index[a]], perm[index[b]] = index[b], index[a]
        return tuple(perm)

    # keeps complements, breaks covers
    assert not search._preserves_structure(swapped(("0", "a1"), ("1", "a1'")))
    # keeps covers, breaks complements
    assert not search._preserves_structure(swapped(("a1", "a2")))
    assert search._preserves_structure(swapped(("a1", "a1'")))


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_deep_base_needs_no_recursion():
    lattice = mo(120)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        action = _search_group(lattice, ())
    finally:
        sys.setrecursionlimit(limit)
    assert action.order == 2 ** 120 * factorial(120)


def _search_counts(monkeypatch, lattice):
    """(refinements, splitter cells, neighbour visits) of the whole-lattice
    search."""
    searches = []

    class Recorded(IsomorphismSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(symmetry, "IsomorphismSearch", Recorded)
    _search_group(lattice, ())
    (search,) = searches
    return search.refinements, search.splitters, search.visits


def test_search_counts_repeat_exactly(monkeypatch):
    for make in (lambda: mo(30), lambda: boolean(6), lambda: product(mo(2), mo(2)),
                 lambda: horizontal_sum(boolean(3), mo(3)), benzene):
        first = _search_counts(monkeypatch, make())
        assert all(first)
        assert _search_counts(monkeypatch, make()) == first


def test_search_visits_grow_quadratically_on_mo(monkeypatch):
    small = _search_counts(monkeypatch, mo(100))
    large = _search_counts(monkeypatch, mo(200))
    assert large[2] <= 5 * small[2], (small, large)
