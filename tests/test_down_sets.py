"""The order held once, as down-sets, against up-sets read by comparisons.

Claims:
    - on random composites of boolean, mo, benzene and subspaces(F_3^2) by
      product and horizontal sum, half of them with their elements in a
      shuffled order, every answer that reads an up-set through the
      orthocomplement is the one the up-sets give, read one comparison at
      a time (``oracles``): the covers peeled off the down-sets of the
      orthocomplements, every pair's join, is_atomistic's verdict and
      witness, direct_factors' members, coordinates and factor
      orthocomplements, and the generators of the automorphism group and
      of the whole-lattice search, against the search rooted at the
      colours that counted up-set sizes
    - direct_factors gives the oracle's split, which checks its map, on
      random ortholattices (almost none orthomodular), their products with
      the base lattices and shuffled copies of both
    - the automorphism validation names, for a map that does not preserve
      the order, the first i by index and then the first j with i <= j
      and perm[i] <= perm[j] disagreeing, and accepts every generator
    - at the 4 096-element cap a lattice retains under 5 MB once built
      (about 8 MB while it kept its up-sets too), and on
      product(boolean(9), mo(3)) cover_masks and is_orthomodular each take
      under 0.1 s (about 0.3 s each when they scanned comparable pairs)
"""

import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import orthomeasure.lattice as lattice_mod
from orthomeasure import (
    NotAnAutomorphismError,
    boolean,
    is_atomistic,
    is_orthomodular,
    mo,
    product,
)
from orthomeasure.lattice import CheckResult, direct_factors
from orthomeasure.symmetry import _search_group, _validate_automorphism, automorphism_group

from oracles import (
    atomistic_failure_by_up_sets,
    cover_masks_by_up_sets,
    direct_factors_by_definition,
    join_by_up_sets,
    rank_colours_by_up_sets,
    up_sets_by_leq,
)
from strategies import (
    BASES,
    MAX_ELEMENTS,
    base,
    composite_lattices,
    random_ortholattices,
    relisted,
)


@settings(max_examples=60, deadline=None)
@given(composite_lattices())
def test_covers_and_joins_match_the_up_sets(lattice):
    assert lattice.cover_masks() == cover_masks_by_up_sets(lattice)
    up = up_sets_by_leq(lattice)
    n = len(lattice)
    assert [[lattice.join_index(i, j) for j in range(n)] for i in range(n)] == [
        [join_by_up_sets(up, i, j) for j in range(n)] for i in range(n)]
    failure = atomistic_failure_by_up_sets(lattice)
    assert is_atomistic(lattice) == CheckResult(failure is None,
                                                None if failure is None else (failure,))


def _check_direct_factors(lattice):
    factors, coordinates = direct_factors(lattice)
    members, expected, orths = direct_factors_by_definition(lattice)
    assert [m for _, m in factors] == members
    assert coordinates == expected
    assert [list(f.orth_map) for f, _ in factors] == orths
    for (factor, m) in factors:
        assert list(factor.elements) == [lattice.elements[i] for i in m]
    return bool(factors)


@settings(max_examples=40, deadline=None)
@given(composite_lattices())
def test_direct_factors_match_the_definition(lattice):
    _check_direct_factors(lattice)


def test_direct_factors_match_the_definition_on_random_ortholattices():
    # almost none is orthomodular: direct_factors builds its map unchecked,
    # and the oracle still checks the map it builds
    rng = random.Random(5)
    lattices = random_ortholattices(1, 60)
    products = []
    for lattice in lattices:
        for name in sorted(BASES):
            if len(lattice) * len(base(name)) <= MAX_ELEMENTS:
                pair = (lattice, base(name)) if rng.random() < 0.5 else (base(name), lattice)
                products.append(product(*pair))
    checked = lattices + products
    checked += [relisted(lat, rng.sample(lat.elements, len(lat))) for lat in checked[::4]]
    assert sum(map(_check_direct_factors, checked)) > 200


def _generators(lattice):
    """The generators of the composed group and of the whole-lattice search."""
    plain = [0] * len(lattice)
    return [[g.perm for g in group.generators]
            for group in (automorphism_group(lattice), _search_group(lattice, plain))]


@settings(max_examples=40, deadline=None)
@given(composite_lattices())
def test_automorphism_generators_match_the_up_set_colouring(lattice):
    ours = _generators(lattice)
    with mock.patch.object(lattice_mod, "_rank_colours", rank_colours_by_up_sets):
        theirs = _generators(lattice)
    assert ours == theirs
    for perm in ours[0] + ours[1]:
        _validate_automorphism(lattice, perm)


@settings(max_examples=60, deadline=None)
@given(composite_lattices(), st.randoms(use_true_random=False))
def test_automorphism_validation_names_the_first_pair(lattice, rng):
    n = len(lattice)
    perm = list(range(n))
    rng.shuffle(perm)
    names, orth = lattice.elements, lattice.orth_map
    expected = next((f"order not preserved on ({names[i]!r}, {names[j]!r})"
                     for i in range(n) for j in range(n)
                     if lattice.leq_index(i, j) != lattice.leq_index(perm[i], perm[j])),
                    None) or next((f"orthocomplement not preserved at {names[i]!r}"
                                   for i in range(n) if perm[orth[i]] != orth[perm[i]]), None)
    if expected is None:
        _validate_automorphism(lattice, tuple(perm))
        return
    with pytest.raises(NotAnAutomorphismError) as raised:
        _validate_automorphism(lattice, tuple(perm))
    assert str(raised.value) == expected


@pytest.mark.parametrize("make", [lambda: mo(2000), lambda: product(boolean(9), mo(3))],
                         ids=["mo(2000)", "product(boolean(9),mo(3))"])
def test_a_lattice_at_the_cap_retains_under_5_mb(make):
    tracemalloc.start()
    try:
        lattice = make()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lattice) >= 4000
    assert retained < 5_000_000


def test_covers_and_orthomodularity_at_the_cap_are_bounded():
    lattice = product(boolean(9), mo(3))
    start = time.perf_counter()
    covers = lattice.cover_masks()
    assert time.perf_counter() - start < 0.1
    # covers of B_9 (9 * 2^8) times |MO(3)|, and |B_9| times covers of MO(3)
    assert sum(mask.bit_count() for mask in covers) == 2304 * 8 + 512 * 12
    start = time.perf_counter()
    result = is_orthomodular(lattice)
    assert time.perf_counter() - start < 0.1
    assert result.ok
