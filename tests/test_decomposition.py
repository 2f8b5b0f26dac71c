"""Automorphism groups by decomposition, against the whole-lattice search.

Claims:
    - on random composites of boolean, mo, benzene and subspaces(F_3^2) by
      product and horizontal sum (half of them with their elements in a
      shuffled order), on non-orthomodular composites of benzene and on
      the 1-, 2- and 4-element lattices, ``automorphism_group`` has the
      order and the orbits of the search, every generator passes the
      automorphism validation, and the generators close to a group of
      exactly that order wherever it is at most 10^4
    - a lattice with no closed form, irreducible and not Boolean, goes
      through the search and gets its generators; the search runs on
      such blocks only, once per isomorphism class, and never on MO(n),
      Boolean lattices or their products and horizontal sums
    - MO(n) splits into n four-element summands and its group has 3
      generators; MO(2) x MO(3) splits into two factors; benzene splits
      neither way; every summand and factor of the family's products and
      horizontal sums up to 64 elements passes verify_ortho
    - horizontal_summands builds each shape once: summands listed alike
      share their down masks (one object), and two summands with the same
      orthocomplement and down-set sizes but different orders each get
      their own
    - past the search's reach, under wall-clock bounds on the group alone:
      |Aut(MO(2000))| = 2^2000 2000! in under 2 s (and listing it is
      refused, its 6 338-digit order in the message), |Aut(B_12)| = 12! in
      under 2 s and |Aut(MO(3) x MO(3))| = 2 48^2 in under 1 s
"""

import time
from math import factorial

import pytest
from hypothesis import given, settings

from orthomeasure import (
    GroupTooLargeError,
    LatticeDescription,
    benzene,
    boolean,
    build_lattice,
    close_group,
    horizontal_sum,
    mo,
    product,
    verify_ortho,
)
from orthomeasure import symmetry
from orthomeasure.lattice import direct_factors, horizontal_summands
from orthomeasure.symmetry import (
    _search_group,
    _validate_automorphism,
    automorphism_group,
)

from strategies import composite_lattices, pairwise_composites


def _point():
    return build_lattice(LatticeDescription("point", ("0",), (), {"0": "0"}))


def _check_against_search(lattice):
    group = automorphism_group(lattice)
    searched = _search_group(lattice, ())
    assert group.order == searched.order, lattice
    assert group.orbit_labels() == searched.orbit_labels(), lattice
    assert group.stabilized == ()
    for g in group.generators:
        _validate_automorphism(lattice, g.perm)
    if group.order <= 10 ** 4:
        assert close_group(lattice, group.generators).order == group.order, lattice


@settings(max_examples=80, deadline=None)
@given(composite_lattices())
def test_decomposition_matches_the_search_on_composites(lattice):
    _check_against_search(lattice)


NAMED = {
    "point": _point,
    "boolean(1)": lambda: boolean(1),
    "boolean(2)": lambda: boolean(2),
    "mo(1)": lambda: mo(1),
    "benzene": benzene,
    "hsum(hsum(benzene,benzene),mo(2))":
        lambda: horizontal_sum(horizontal_sum(benzene(), benzene()), mo(2)),
    "product(benzene,boolean(2))": lambda: product(benzene(), boolean(2)),
    "product(benzene,benzene)": lambda: product(benzene(), benzene()),
    "product(benzene,mo(2))": lambda: product(benzene(), mo(2)),
    "hsum(product(benzene,boolean(1)),benzene)":
        lambda: horizontal_sum(product(benzene(), boolean(1)), benzene()),
    "hsum(product(mo(2),boolean(2)),product(boolean(2),mo(2)))":
        lambda: horizontal_sum(product(mo(2), boolean(2)), product(boolean(2), mo(2))),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_decomposition_matches_the_search_on_named_lattices(name):
    _check_against_search(NAMED[name]())


def _searches(monkeypatch, lattice):
    """The lattices the search ran on inside automorphism_group."""
    seen = []

    def recorded(lat, sets):
        seen.append(lat)
        return _search_group(lat, sets)

    monkeypatch.setattr(symmetry, "_search_group", recorded)
    group = automorphism_group(lattice)
    monkeypatch.undo()
    return group, seen


def test_an_irreducible_lattice_goes_through_the_search(monkeypatch):
    lattice = benzene()
    group, seen = _searches(monkeypatch, lattice)
    assert seen == [lattice]
    searched = _search_group(lattice, ())
    assert [g.perm for g in group.generators] == [g.perm for g in searched.generators]


def test_the_search_runs_once_per_class_of_irreducible_blocks(monkeypatch):
    for lattice, sizes in (
            (mo(5), []), (boolean(5), []), (product(mo(2), mo(3)), []),
            (horizontal_sum(boolean(3), mo(3)), []),
            (horizontal_sum(benzene(), benzene()), [6]),
            (product(benzene(), boolean(2)), [6]),
            (horizontal_sum(product(benzene(), boolean(1)), mo(2)), [6])):
        _, seen = _searches(monkeypatch, lattice)
        assert [len(lat) for lat in seen] == sizes, lattice


def test_splits():
    lattice = mo(5)
    summands = horizontal_summands(lattice)
    assert [len(block) for block, _ in summands] == [4] * 5
    for block, members in summands:
        assert [lattice.elements[i] for i in members] == list(block.elements)
    assert direct_factors(lattice) == ([], [])
    assert len(automorphism_group(mo(7)).generators) == 3

    lattice = product(mo(2), mo(3))
    assert horizontal_summands(lattice) == []
    factors, coordinates = direct_factors(lattice)
    assert sorted(len(f) for f, _ in factors) == [6, 8]
    assert len(set(coordinates)) == len(lattice)

    assert horizontal_summands(benzene()) == []
    assert direct_factors(benzene()) == ([], [])


def test_summands_and_factors_pass_verify_ortho(family):
    # their masks are written directly, not proved by build_lattice
    blocks = 0
    for lattice in pairwise_composites(family.values()):
        for block, _ in horizontal_summands(lattice) + direct_factors(lattice)[0]:
            assert verify_ortho(block).ok, (lattice, block)
            blocks += 1
    assert blocks > 1000


def _restricted(lattice, members):
    """The down masks and orthocomplement of the lattice on ``members``,
    over their own indices, read one comparison at a time."""
    where = {i: k for k, i in enumerate(members)}
    down = tuple(sum(1 << where[j] for j in members if lattice.leq_index(j, i)) for i in members)
    return down, tuple(where[lattice.orth_map[i]] for i in members)


def test_summands_are_built_once_per_shape():
    # (a1,1) and (a2,1) change places in the second copy's listing, and so
    # do their complements (a1',0) and (a2',0): the two summands list the
    # same orthocomplement and the same down-set sizes, but (a1,0), third in
    # both, lies below the fourth element in one and the eighth in the other
    first = product(mo(2), boolean(1))
    desc = first.to_description()
    swap = {"(a1,1)": "(a2,1)", "(a2,1)": "(a1,1)", "(a1',0)": "(a2',0)", "(a2',0)": "(a1',0)"}
    second = build_lattice(LatticeDescription(
        desc.name, tuple(swap.get(e, e) for e in desc.elements), desc.leq_pairs,
        dict(desc.orthocomplement)))
    for lattice, shapes in ((horizontal_sum(first, second), 2), (mo(5), 1),
                            (horizontal_sum(mo(2), first), 2)):
        summands = horizontal_summands(lattice)
        for block, members in summands:
            assert (block.down_masks, block.orth_map) == _restricted(lattice, members)
            assert list(block.elements) == [lattice.elements[i] for i in members]
            assert verify_ortho(block).ok
        # a summand of a shape met before shares its masks
        assert len({id(block.down_masks) for block, _ in summands}) == shapes, lattice


def _timed(lattice):
    start = time.perf_counter()
    group = automorphism_group(lattice)
    return group, time.perf_counter() - start


def test_closed_form_of_mo_2000():
    group, elapsed = _timed(mo(2000))
    assert group.order == 2 ** 2000 * factorial(2000)
    assert len(group.generators) == 3
    assert elapsed < 2.0
    with pytest.raises(GroupTooLargeError):
        group.perms


def test_closed_form_of_boolean_12():
    group, elapsed = _timed(boolean(12))
    assert group.order == factorial(12)
    assert elapsed < 2.0


def test_closed_form_of_mo3_squared():
    group, elapsed = _timed(product(mo(3), mo(3)))
    assert group.order == 2 * 48 ** 2
    assert elapsed < 1.0
