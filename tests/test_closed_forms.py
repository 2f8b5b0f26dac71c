"""Closed forms against the routes they stand in for.

Claims:
    - on boolean(1..9), plain, under the full group and under the cyclic
      rotation of the points, the Boolean closed form of measure_module
      gives the rank, invariants, columns and coordinates of the cover-row
      route, and the coinvariants of the plain module equal the module
      under the action
    - M(A x B) = M(A) (+) M(B) in rank and torsion over pairs of family
      members
    - M(hsum(A, B)) = (M(A) (+) M(B)) / <[1_A] - [1_B]>, the pushout over
      the shared top, in rank and torsion over every pair of family
      members, benzene among them
    - past the 32-element family, under wall-clock bounds: rank M(B_12) =
      12, rank M(MO(2000)) = 2001, and verify_ortho(boolean(11)) passes
      every check
    - state polytopes composed from the blocks, under wall-clock bounds:
      the horizontal sum of four boolean(6), of rank 21 (past the cap of
      whole-lattice double description), has the 6^4 tuples of Dirac
      states as its vertices within 5 s, and MO(15), whose 2^15 vertices
      pass the ray cap, raises DimensionCapError naming that count within
      1 s, before any measure module of the whole lattice is built
    - subspace_lattice rejects n >= 3 at the first isotropic vector in
      lexicographic order without listing F_q^n, in under 1 s for
      F_101^4, and for n = 2 and an anisotropic form it is MO((q + 1) / 2)
    - subspace_lattice gives the lattice of the description that lists
      every subspace in ``oracles``, with its names and masks, or its
      exception and message, for every prime q <= 23 and every form with
      n = 1, 2, and for sampled forms with n = 3; F_4091^2 (4 094
      elements) builds in under 10 s, and F_4099^2, past the element cap,
      is refused in under 1 s
    - the Greechie loop of k three-atom blocks, k = 5..13: its measure
      group is Z^(k + 1) (free on the k corners and the top), its
      automorphism group is dihedral of order 2k, and its state polytope
      has L_k + (k mod 2) vertices, L_k the k-th Lucas number: the L_k
      two-valued states (the stable sets of the k-cycle of corners) and,
      for odd k, the state that is 1/2 at every corner
    - the loop of k = 1000 blocks (4 002 elements), through the
      automorphism search: its measure group has rank 1001, its group
      order 2000, and ``states`` on it exits 3 on the rank cap; building
      the loop and all three take under 3 s
"""

import itertools
import random
import time

import pytest

import orthomeasure.cli as cli
import orthomeasure.cones as cones_mod
import orthomeasure.measures as measures_mod
import orthomeasure.symmetry as symmetry_mod
from orthomeasure import (
    DimensionCapError,
    FPAbelianGroup,
    IsotropicFormError,
    LatticeAutomorphism,
    SizeCapError,
    are_isomorphic,
    atoms,
    boolean,
    build_lattice,
    close_group,
    coinvariants,
    horizontal_sum,
    measure_module,
    mo,
    product,
    relation_matrix,
    state_polytope,
    subspace_lattice,
    verify_ortho,
)
from orthomeasure.cones import DEFAULT_MAX_DIMENSION, MAX_RAYS
from orthomeasure.symmetry import automorphism_group

from oracles import subspace_description_by_listing
from strategies import greechie_loop


def _row_route(lattice, action):
    rows = measures_mod._presentation_rows(lattice)
    return measures_mod._module(lattice, rows, action)


def _rotation(lattice):
    """The group generated by moving point i of boolean(n) to point i + 1."""
    mapping = {s: s[-1] + s[:-1] for s in lattice.elements}
    return close_group(lattice, [LatticeAutomorphism.from_mapping(lattice, mapping)])


@pytest.mark.parametrize("n", range(1, 10))
def test_boolean_closed_form_matches_the_row_route(n):
    lattice = boolean(n)
    plain = measure_module(lattice)
    for action in (None, automorphism_group(lattice), _rotation(lattice)):
        module = measure_module(lattice, action)
        oracle = _row_route(lattice, action)
        assert (module.rank, module.torsion) == (oracle.rank, oracle.torsion)
        assert module.rank == (n if action is None else 1)
        assert module.group.invariants == oracle.group.invariants
        assert module.columns == oracle.columns
        assert [module.projection_index(i) for i in range(len(lattice))] == [
            oracle.projection_index(i) for i in range(len(lattice))]
        if action is not None:
            via_plain = coinvariants(plain, action)
            assert via_plain.group == module.group
            assert via_plain.columns == module.columns


def _elementary_divisors(torsion):
    """The prime powers of the torsion invariants, sorted."""
    out = []
    for d in torsion:
        p = 2
        while d > 1:
            power = 1
            while d % p == 0:
                d //= p
                power *= p
            if power > 1:
                out.append(power)
            p += 1
    return sorted(out)


def test_measure_group_of_a_product_is_the_direct_sum(family):
    # a measure on A x B is (x, y) -> mu(x, 0) + mu(0, y), as (x, 0) and
    # (0, y) are orthogonal with join (x, y), so Hom(M(A x B), G) =
    # Hom(M(A), G) x Hom(M(B), G) for every abelian group G
    pairs = 0
    for a_name, b_name in itertools.combinations_with_replacement(sorted(family), 2):
        a, b = family[a_name], family[b_name]
        if len(a) * len(b) > 64:
            continue
        pairs += 1
        left, right = measure_module(a), measure_module(b)
        both = measure_module(product(a, b))
        assert both.rank == left.rank + right.rank, (a_name, b_name)
        assert _elementary_divisors(both.torsion) == _elementary_divisors(
            left.torsion + right.torsion), (a_name, b_name)
    assert pairs >= 40


def test_measure_group_of_a_horizontal_sum_is_the_pushout(family):
    # a proper x of A and a proper y of B are incomparable, so y <= x'
    # fails and no orthogonal pair crosses the summands: the relations are
    # those of A and of B, with 0 and 1 shared; each side's (0, 0) row
    # sends its bottom to zero, so only the tops need gluing
    pairs = 0
    for a_name, b_name in itertools.combinations_with_replacement(sorted(family), 2):
        a, b = family[a_name], family[b_name]
        pairs += 1
        width = len(a) + len(b)
        rows = [row + [0] * len(b) for row in relation_matrix(a)]
        rows += [[0] * len(a) + row for row in relation_matrix(b)]
        glue = [0] * width
        glue[a.top_index] = 1
        glue[len(a) + b.top_index] = -1
        pushout = FPAbelianGroup.from_relations(width, rows + [glue])
        both = measure_module(horizontal_sum(a, b))
        assert (both.rank, both.torsion) == (pushout.rank, pushout.torsion), (a_name, b_name)
    assert pairs >= 40 and "benzene" in family


def test_rank_of_boolean_12():
    start = time.perf_counter()
    lattice = boolean(12)
    built = time.perf_counter()
    module = measure_module(lattice)
    done = time.perf_counter()
    assert (module.rank, module.torsion) == (12, ())
    assert built - start < 10.0
    assert done - built < 1.0


def test_rank_of_mo_2000():
    start = time.perf_counter()
    lattice = mo(2000)
    built = time.perf_counter()
    module = measure_module(lattice)
    done = time.perf_counter()
    assert (module.rank, module.torsion) == (2001, ())
    assert built - start < 10.0
    assert done - built < 5.0


def test_states_of_four_boolean_6_summands():
    b6 = boolean(6)
    lattice = horizontal_sum(horizontal_sum(b6, b6), horizontal_sum(b6, b6))
    assert len(lattice) == 250
    rank = measure_module(lattice).rank
    assert rank == 21 > DEFAULT_MAX_DIMENSION
    start = time.perf_counter()
    vertices = state_polytope(lattice).vertices
    assert time.perf_counter() - start < 5.0
    assert len(vertices) == 6 ** 4
    # each vertex is 1 on the elements above one atom of each summand
    points = set()
    for v in vertices:
        assert v.scale == 1 and set(v.numerators) == {0, 1}
        point = frozenset(a for a in atoms(lattice) if v.values[a] == 1)
        assert len(point) == 4 and len({a.rsplit(":", 1)[0] for a in point}) == 4
        points.add(point)
    assert len(points) == 6 ** 4


def test_state_polytope_of_mo_15_is_refused_by_its_vertex_count(monkeypatch):
    assert 2 ** 15 > MAX_RAYS
    start = time.perf_counter()
    with pytest.raises(DimensionCapError, match="32768 vertices .* rays"):
        state_polytope(mo(15))
    assert time.perf_counter() - start < 1.0

    # the count is refused before the measure module of the whole lattice
    # is built: on mo(2000) that module takes about a second
    def unreachable(*args):
        raise AssertionError("measure module built before the count")

    monkeypatch.setattr(cones_mod, "measure_module", unreachable)
    with pytest.raises(DimensionCapError, match="32768 vertices"):
        state_polytope(mo(15))


def test_verify_ortho_on_boolean_11():
    lattice = boolean(11)
    start = time.perf_counter()
    report = verify_ortho(lattice)
    assert time.perf_counter() - start < 10.0
    assert report.ok
    assert all(check.ok for check in report.checks.values())


def test_subspace_lattice_rejects_four_dimensions_without_listing():
    start = time.perf_counter()
    with pytest.raises(IsotropicFormError, match=r"isotropic vector \(0, 0, 1, 10\) over F_101"):
        subspace_lattice(101, 4, (1, 1, 1, 1))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("q,form", [
    (2, (1, 1, 1)), (3, (1, 1, 1)), (5, (1, 2, 3)), (7, (3, 5, 6, 1)), (11, (1, 1, 1)),
    (3, (0, 1, 1)),
])
def test_subspace_lattice_names_the_first_isotropic_vector(q, form):
    # Chevalley-Warning: every form in three or more variables is isotropic
    first = min(v for v in itertools.product(range(q), repeat=len(form))
                if any(v) and sum(c * x * x for c, x in zip(form, v)) % q == 0)
    with pytest.raises(IsotropicFormError, match=rf"isotropic vector \({', '.join(map(str, first))}\) "):
        subspace_lattice(q, len(form), form)


@pytest.mark.parametrize("q,form", [(3, (1, 1)), (5, (1, 2)), (7, (1, 1)), (11, (1, 1)),
                                    (13, (1, 2))])
def test_anisotropic_plane_is_mo(q, form):
    # an anisotropic form pairs each of the q + 1 lines with another line
    assert are_isomorphic(subspace_lattice(q, 2, form), mo((q + 1) // 2))


def _lattice_or_error(build, q, n, form):
    """The name, elements, down masks and orthocomplement of the lattice
    built, or the class and message raised."""
    try:
        lattice = build(q, n, form)
    except IsotropicFormError as exc:
        return type(exc), str(exc)
    return lattice.name, lattice.elements, lattice.down_masks, lattice.orth_map


def _listed_subspaces(q, n, form):
    return build_lattice(subspace_description_by_listing(q, n, form))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_subspace_lattice_matches_the_listing(q):
    forms = [*itertools.product(range(q), repeat=1), *itertools.product(range(q), repeat=2)]
    rng = random.Random(q)
    forms += [tuple(rng.randrange(q) for _ in range(3)) for _ in range(3)]
    outcomes = set()
    for form in forms:
        got = _lattice_or_error(subspace_lattice, q, len(form), form)
        assert got == _lattice_or_error(_listed_subspaces, q, len(form), form)
        outcomes.add(got[0] is IsotropicFormError)
    assert outcomes == {True, False}


def test_subspace_lattice_of_f4091_squared():
    start = time.perf_counter()
    lattice = subspace_lattice(4091, 2, (1, 1))
    assert time.perf_counter() - start < 10.0
    assert len(lattice) == 4094


def test_subspace_lattice_past_the_cap_is_refused_before_it_is_built():
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match="4102 subspaces exceeds the cap"):
        subspace_lattice(4099, 2, (1, 1))
    assert time.perf_counter() - start < 1.0


def _lucas(k):
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("k", range(5, 14))
def test_closed_forms_of_greechie_loops(k):
    loop = greechie_loop(k)
    module = measure_module(loop)
    assert module.rank == k + 1
    assert not module.torsion
    assert automorphism_group(loop).order == 2 * k
    polytope = state_polytope(loop)
    assert len(polytope.rows) == _lucas(k) + k % 2
    two_valued = [ids for _, ids in polytope.rows
                  if {polytope.values[i] for i in ids} <= {0, 1}]
    assert len(two_valued) == _lucas(k)


def test_loop_1000_at_scale(monkeypatch, capsys):
    searched, search_group = [], symmetry_mod._search_group

    def search(lattice, sets):
        searched.append(lattice)
        return search_group(lattice, sets)

    monkeypatch.setattr(symmetry_mod, "_search_group", search)
    start = time.perf_counter()
    loop = greechie_loop(1000)
    assert len(loop) == 4002
    module = measure_module(loop)
    assert (module.rank, module.torsion) == (1001, ())
    assert automorphism_group(loop).order == 2000
    # irreducible and not Boolean: its group comes from the search
    assert searched == [loop]
    monkeypatch.setattr(cli, "load_lattice", lambda path, max_elements, digest: loop)
    assert cli.run(["states", "loop(1000).json"]) == cli.EXIT_CAP
    assert capsys.readouterr().out.startswith('{"error": "DimensionCapError", "detail": "dimension 1001 ')
    assert time.perf_counter() - start < 3.0
