"""Positive-measure cones and state polytopes.

Claims:
    - dual cones of orthants and degenerate generator sets are correct
    - the double description output is self-consistent: every ray satisfies
      every halfspace, and regenerating each representation from the other
      (the dual of the dual, by double description twice) yields an
      equivalent cone
    - positive cones of the small family have the known ray counts and the
      rays map to nonneg measures (power-set rays are the atom point masses)
    - state polytopes: power sets give simplices with affinely independent
      vertices, the two-block lattice gives a square, the hexagon a segment,
      and full symmetry collapses the atom-pair lattices to a single state
    - every vertex is a probability measure; every dyadic-grid probability
      measure lies in the exact convex hull of the vertices
    - degenerate slices raise the documented errors, on the composed route
      and on the whole lattice, with the measure module's sparse
      projections rewritten: a zero top, or every other element negated
    - the integer slicing gives the vertices, coordinates and values of a
      Fraction slicing of the same rays, in the same order, on the family
      and on products and horizontal sums, with and without the full group;
      the polytope's value table lists each value they take once, ascending
    - closed forms: |V(MO(n))| = 2^n for n = 1..11 (mo(11) within 10 s),
      V(A x B) = V(A) + V(B) and V(hsum(A, B)) = V(A) V(B), every vertex a
      probability measure
    - cones and state polytopes above the dimension cap raise
      DimensionCapError, and so do those past the ray budget (mo(19),
      within 20 s); state_polytope keeps both caps where it runs double
      description: on the whole lattice under an action, and on an
      irreducible block of a horizontal sum
    - the state polytope composed from the decomposition gives the
      vertices, coordinates and values of whole-lattice double description
      (compared in integers, each ray and value cross-multiplied with the
      oracle's, in the order of the oracle's Fraction coordinates),
      on random composites (shuffled element orders among them) and on the
      products and horizontal sums of every pair of family members, and on
      sums with a Greechie loop of five blocks, whose vertices have scales
      1 and 2; each vertex's ray is primitive, and its integer values over
      its scale are additive on orthogonal pairs, 1 at the top and within
      [0, 1]; double
      description runs only on the irreducible non-Boolean blocks, once per
      shape, dense coordinates are written for those blocks only, and no
      automorphism or orbit search runs
    - the unit elements read off the sparse module are those of a scan of
      every element's dense coordinates, on plain and coinvariant modules
      (torsion Z/2 among them) and on shuffled element orders
    - a rank refused by the cap costs no more than the measure module: on
      loop(1000) and on mo(2000) under the trivial group the refused state
      polytope's traced peak is at most 1.5 times the module's
"""

import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul

import pytest
from hypothesis import given, settings

import orthomeasure
from orthomeasure import (
    DimensionCapError,
    EmptyPolytopeError,
    RATIONALS,
    UnboundedSliceError,
    automorphism_group,
    benzene,
    boolean,
    brute_force_measures,
    close_group,
    dual_cone,
    horizontal_sum,
    is_orthomodular,
    is_probability_measure,
    measure_coordinates,
    measure_module,
    mo,
    positive_cone,
    product,
    state_polytope,
    trivial_action,
)
from orthomeasure.cones import (
    DEFAULT_MAX_DIMENSION,
    MAX_RAYS,
    PolyCone,
    _unit_elements,
    double_description,
)
from orthomeasure.lattice import direct_factors, horizontal_summands

from oracles import (
    in_convex_hull,
    state_vertices_by_fractions,
    state_vertices_by_pairings,
    unit_elements_by_dense_scan,
)
from strategies import composite_lattices, greechie_loop, pairwise_composites


def _negated(vec):
    return tuple(-x for x in vec)


def _contains(cone, vec):
    """Every normal of the cone pairs nonnegatively with the vector."""
    return all(sum(map(mul, n, vec)) >= 0 for n in cone.normals)


def _generators(cone):
    """The rays plus both signs of the lineality basis."""
    return [*cone.rays, *cone.lineality, *map(_negated, cone.lineality)]


def cone_from_rays(rays, dim, lineality=()):
    """The cone the rays and lines generate, by double description twice:
    the rays of its dual cone are its facet normals, each line of the dual
    gives two opposite normals, and its rays follow from those normals."""
    dual_normals = [r for r in rays if any(r)] + [*lineality, *map(_negated, lineality)]
    facets, dual_lineality = double_description(dual_normals, dim)
    normals = (*facets, *dual_lineality, *map(_negated, dual_lineality))
    rays, lineality = double_description(normals, dim)
    return PolyCone(dim, normals, tuple(rays), tuple(lineality))


def cones_equivalent(a, b):
    """Mutual containment of the generator sets, checked exactly."""
    return (all(_contains(b, g) for g in _generators(a))
            and all(_contains(a, g) for g in _generators(b)))


def test_dual_cone_positive_orthant():
    cone = dual_cone([(1, 0), (0, 1)])
    assert sorted(cone.rays) == [(0, 1), (1, 0)]
    assert cone.lineality == ()


def test_dual_cone_of_zero_is_everything():
    cone = dual_cone([(0, 0, 0)])
    assert cone.rays == ()
    assert len(cone.lineality) == 3


def test_dual_cone_halfline():
    cone = dual_cone([(1, 0)])
    # one honest ray plus a full line orthogonal to the generator
    assert cone.rays == ((1, 0),)
    assert cone.lineality == ((0, 1),)


def test_dual_cone_of_element_coordinates_mo2():
    coords = measure_coordinates(mo(2))
    cone = dual_cone(coords)
    assert len(cone.rays) == 4


def test_double_description_simplex_cone():
    rays, lineality = double_description([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert sorted(rays) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert lineality == []


def test_double_description_infeasible_direction():
    rays, lineality = double_description([(1, 0), (0, 1), (-1, -1)], 2)
    assert rays == [] and lineality == []


def test_cone_from_rays_round_trip():
    original = dual_cone([(2, 1), (1, 3)])
    rebuilt = cone_from_rays(original.rays, dim=2, lineality=original.lineality)
    assert cones_equivalent(original, rebuilt)
    # and back again through the halfspaces
    rays, lineality = double_description(rebuilt.normals, 2)
    again = PolyCone(2, rebuilt.normals, tuple(rays), tuple(lineality))
    assert cones_equivalent(rebuilt, again)


def test_positive_cone_counts(family, aut_groups):
    assert len(positive_cone(family["boolean(2)"]).rays) == 2
    assert len(positive_cone(family["mo(2)"]).rays) == 4
    invariant = positive_cone(family["mo(2)"], aut_groups["mo(2)"])
    assert len(invariant.rays) == 1


def test_positive_cone_rays_satisfy_halfspaces(family):
    for name in ("boolean(3)", "mo(2)", "benzene"):
        cone = positive_cone(family[name])
        for ray in cone.rays:
            assert _contains(cone, ray)
        assert cone.lineality == ()


def test_positive_cone_double_description_consistency(family):
    for name in ("boolean(2)", "boolean(3)", "mo(2)", "mo(3)", "benzene"):
        cone = positive_cone(family[name])
        rebuilt = cone_from_rays(cone.rays, cone.dim, cone.lineality)
        assert cones_equivalent(cone, rebuilt)


def test_boolean_rays_are_atom_point_masses(family):
    lat = family["boolean(2)"]
    coords = measure_coordinates(lat)
    cone = positive_cone(lat)
    seen = set()
    for ray in cone.rays:
        values = tuple(
            sum(c * x for c, x in zip(ray, coords[i]))
            for i in range(len(lat))
        )
        by_name = dict(zip(lat.elements, values))
        support = [a for a in ("10", "01") if by_name[a]]
        assert len(support) == 1
        seen.add(support[0])
    assert seen == {"10", "01"}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_state_polytope_boolean_is_simplex(n):
    polytope = state_polytope(boolean(n))
    assert len(polytope.vertices) == n
    # affine independence: differences of vertex coordinates have full rank
    from oracles import rank

    first = polytope.vertices[0].coords
    diffs = [
        [b - a for a, b in zip(first, v.coords)] for v in polytope.vertices[1:]
    ]
    assert rank(diffs) == n - 1
    # vertices are the atom point masses
    lat = boolean(n)
    for v in polytope.vertices:
        support = [a for a in lat.elements if v.values[a] == 1 and len(a.replace("0", "")) == 1]
        assert len(support) == 1


def test_state_polytope_mo2_square(family):
    polytope = state_polytope(family["mo(2)"])
    assert len(polytope.vertices) == 4
    patterns = {
        (v.values["a1"], v.values["a2"]) for v in polytope.vertices
    }
    assert patterns == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for v in polytope.vertices:
        assert v.values["a1"] + v.values["a1'"] == 1
        assert v.values["a2"] + v.values["a2'"] == 1


def test_state_polytope_benzene_segment():
    polytope = state_polytope(benzene())
    assert len(polytope.vertices) == 2
    values = [
        {e: v.values[e] for e in ("a", "b", "b'", "a'")} for v in polytope.vertices
    ]
    assert {"a": Fraction(1), "b": Fraction(1), "b'": Fraction(0), "a'": Fraction(0)} in values


@pytest.mark.parametrize("n", [2, 3, 4])
def test_invariant_state_polytope_is_point(n, family, aut_groups):
    polytope = state_polytope(family[f"mo({n})"], aut_groups[f"mo({n})"])
    assert len(polytope.vertices) == 1
    vertex = polytope.vertices[0]
    lat = family[f"mo({n})"]
    for a in lat.elements:
        if a not in (lat.bottom, lat.top):
            assert vertex.values[a] == Fraction(1, 2)
    assert vertex.values[lat.top] == 1


def test_vertices_are_probability_measures(family, aut_groups):
    for name in ("boolean(3)", "mo(2)", "mo(3)", "benzene", "subspaces(F_3^2)"):
        lat = family[name]
        for v in state_polytope(lat).vertices:
            assert is_probability_measure(lat, v.values).ok
        for v in state_polytope(lat, aut_groups[name]).vertices:
            assert is_probability_measure(lat, v.values).ok
            for g in aut_groups[name]:
                assert all(v.values[g(x)] == v.values[x] for x in lat.elements)


def test_is_probability_measure_examples(family):
    b2 = family["boolean(2)"]
    assert is_probability_measure(
        b2, {"00": Fraction(0), "10": Fraction(1, 2), "01": Fraction(1, 2), "11": Fraction(1)}
    ).ok
    m2 = family["mo(2)"]
    half = {e: Fraction(1, 2) for e in m2.elements}
    half["0"], half["1"] = Fraction(0), Fraction(1)
    assert is_probability_measure(m2, half).ok
    bz = benzene()
    vertex = {"0": 0, "a": 1, "b": 1, "b'": 0, "a'": 0, "1": 1}
    assert is_probability_measure(bz, vertex).ok
    # rejections: bad normalization, range, additivity
    assert not is_probability_measure(b2, {"00": 0, "10": 1, "01": 1, "11": 2}).ok
    assert not is_probability_measure(
        b2, {"00": 0, "10": Fraction(3, 2), "01": Fraction(-1, 2), "11": 1}
    ).ok
    assert is_probability_measure(
        b2, {"00": 0, "10": Fraction(1, 2), "01": Fraction(1, 4), "11": 1}
    ).witness[0] == "additivity"


def test_dyadic_probability_measures_in_hull(family):
    grid = [Fraction(k, 4) for k in range(5)]
    for name in ("boolean(2)", "boolean(3)", "mo(2)", "mo(3)", "benzene"):
        lat = family[name]
        polytope = state_polytope(lat)
        coords = measure_coordinates(lat)
        vertex_coords = [v.coords for v in polytope.vertices]
        for m in brute_force_measures(lat, grid, RATIONALS):
            check = is_probability_measure(lat, m.values)
            if not check.ok:
                continue
            # coordinates of the measure in the basis: values on elements
            # determine them through the coordinate rows
            from oracles import solve_exact

            rows = [list(coords[i]) for i in range(len(lat))]
            point = solve_exact(rows, [m.values[e] for e in lat.elements])
            assert point is not None
            assert in_convex_hull(point, vertex_coords)


def test_state_polytope_matches_fraction_slicing(family, aut_groups):
    parts = [boolean(1), boolean(2), boolean(3), mo(1), mo(2), mo(3), benzene()]
    composites = [product(a, b) for i, a in enumerate(parts) for b in parts[i:]]
    composites += [horizontal_sum(a, b) for i, a in enumerate(parts) for b in parts[i:]]
    cases = [(lat, None) for lat in family.values()]
    cases += [(lat, aut_groups[name]) for name, lat in family.items()]
    cases += [(lat, None) for lat in composites]
    cases += [(lat, automorphism_group(lat)) for lat in composites]
    for lattice, action in cases:
        polytope = state_polytope(lattice, action)
        coords = measure_coordinates(lattice, action)
        expected = state_vertices_by_fractions(
            lattice, positive_cone(lattice, action).rays, coords
        )
        got = [(v.coords, v.values) for v in polytope.vertices]
        assert got == expected, (lattice.name, action is not None)
        # the table holds each value the vertices take once, ascending
        taken = {x for vertex, values in expected for x in (*vertex, *values.values())}
        assert polytope.values == tuple(sorted(taken)), lattice.name


def test_state_polytope_error_paths(monkeypatch):
    # the seam is the measure module state_polytope reads, with some
    # element's sparse projection rewritten.  Without an action benzene is
    # one irreducible block and boolean(2) composes its Dirac states, so
    # the zero top is found on the sparse module, and with the trivial
    # action both run double description on the whole lattice
    import orthomeasure.cones as cones_mod

    lattices = (benzene(), boolean(2))
    real = cones_mod.measure_module

    def rewritten(top, other):
        """measure_module, the top's projection terms sent through top and
        every other element's through other."""
        def build(lattice, action=None):
            module = real(lattice, action)
            module._terms = tuple((top if i == lattice.top_index else other)(terms)
                                  for i, terms in enumerate(module._terms))
            return module
        return build

    def kept(terms):
        return terms

    # degenerate top projection: zero normalization functional
    monkeypatch.setattr(cones_mod, "measure_module", rewritten(lambda terms: (), kept))
    for lat in lattices:
        for action in (None, trivial_action(lat)):
            with pytest.raises(UnboundedSliceError):
                state_polytope(lat, action)

    # flip the sign of every projection except the top's, leaving the cone
    # empty of directions that pair positively with the top
    monkeypatch.setattr(cones_mod, "measure_module",
                        rewritten(kept, lambda terms: tuple((t, -x) for t, x in terms)))
    for lat in lattices:
        for action in (None, trivial_action(lat)):
            with pytest.raises((EmptyPolytopeError, UnboundedSliceError)):
                state_polytope(lat, action)


def _assert_composed_path_matches_whole_lattice(lattice):
    coords = measure_coordinates(lattice)
    vertices = state_polytope(lattice).vertices
    rays = positive_cone(lattice).rays
    # the vertices in the order of the oracle's Fraction coordinates, each
    # the oracle's ray r over s = top . r, and each value n / scale equal
    # to the pairing p over s: compared as n * s == p * scale
    expected = state_vertices_by_pairings(lattice, rays, coords)
    assert len(vertices) == len(expected), lattice.name
    for v, (_, r, pairings, s) in zip(vertices, expected):
        assert len(v.ray) == len(r) and len(v.numerators) == len(pairings), lattice.name
        assert all(x * s == y * v.scale for x, y in zip(v.ray, r)), lattice.name
        assert all(n * s == p * v.scale for n, p in zip(v.numerators, pairings)), lattice.name
    # the cone's rays are primitive, and so each vertex's ray must be
    assert sorted(v.ray for v in vertices) == sorted(rays), lattice.name
    top = coords[lattice.top_index]
    # each vertex is a probability measure, checked on its integer values
    # over its scale
    pairs = [(x, y, lattice.join_index(x, y)) for x, y in lattice.orthogonal_index_pairs()]
    for v in vertices:
        nums, scale = v.numerators, v.scale
        assert scale == sum(a * b for a, b in zip(top, v.ray)), lattice.name
        assert nums[lattice.top_index] == scale, lattice.name
        assert all(0 <= x <= scale for x in nums), lattice.name
        assert all(nums[z] == nums[x] + nums[y] for x, y, z in pairs), lattice.name


def test_composed_state_polytope_rescales_fractional_blocks():
    # a loop of five blocks is an irreducible orthomodular lattice with a
    # vertex of scale 2, so sums with it mix scales 1 and 2
    loop5 = greechie_loop(5)
    assert is_orthomodular(loop5).ok
    assert {v.scale for v in state_polytope(loop5).vertices} == {1, 2}
    for lattice in (horizontal_sum(loop5, mo(1)), horizontal_sum(mo(2), loop5),
                    horizontal_sum(loop5, loop5), product(loop5, boolean(1))):
        _assert_composed_path_matches_whole_lattice(lattice)


@settings(max_examples=150, deadline=None)
@given(composite_lattices())
def test_composed_state_polytope_matches_whole_lattice_dd(lattice):
    _assert_composed_path_matches_whole_lattice(lattice)


def test_composed_state_polytope_matches_on_pairwise_composites(family):
    for lattice in pairwise_composites(family.values()):
        _assert_composed_path_matches_whole_lattice(lattice)


def test_double_description_runs_once_per_irreducible_block_shape(monkeypatch):
    import orthomeasure.cones as cones_mod

    calls, written = [], []
    real = cones_mod.double_description
    real_dense = cones_mod._dense_coordinates

    def counted(normals, dim):
        calls.append(dim)
        return real(normals, dim)

    def dense(module):
        written.append(module.lattice)
        return real_dense(module)

    monkeypatch.setattr(cones_mod, "double_description", counted)
    monkeypatch.setattr(cones_mod, "_dense_coordinates", dense)
    # mo(9) is nine Boolean blocks, boolean(5) one; the two benzene
    # summands share one shape.  Dense coordinates are written for the
    # irreducible block only, never for the composed lattice
    for lattice, runs in ((mo(9), 0), (boolean(5), 0),
                          (horizontal_sum(benzene(), benzene()), 1)):
        calls.clear()
        written.clear()
        state_polytope(lattice)
        assert len(calls) == runs, lattice.name
        assert len(written) == runs and lattice not in written, lattice.name


def test_sparse_unit_elements_match_the_dense_scan(family, aut_groups):
    # plain modules of the composites; coinvariant modules of the family
    # and of a few composites, hsum(benzene, mo(3)) with torsion Z/2 among them
    modules = [measure_module(lattice) for lattice in pairwise_composites(family.values())]
    modules += [measure_module(lattice, aut_groups[name]) for name, lattice in family.items()]
    for lattice in (product(mo(2), boolean(2)), horizontal_sum(mo(2), benzene()),
                    horizontal_sum(benzene(), mo(3))):
        modules.append(measure_module(lattice, automorphism_group(lattice)))
    assert modules[-1].torsion == (2,)
    # every element's projection negated: no element is the image of a
    # basis vector
    flipped = measure_module(mo(2))
    flipped._terms = tuple(tuple((t, -x) for t, x in terms) for terms in flipped._terms)
    modules.append(flipped)
    for module in modules:
        assert _unit_elements(module) == unit_elements_by_dense_scan(module), module.lattice.name
    assert _unit_elements(flipped) is None


@settings(max_examples=100, deadline=None)
@given(composite_lattices())
def test_sparse_unit_elements_match_the_dense_scan_on_shuffled_orders(lattice):
    for action in (None, trivial_action(lattice)):
        module = measure_module(lattice, action)
        assert _unit_elements(module) == unit_elements_by_dense_scan(module)


def _traced_peak(call):
    """The peak of the memory traced while call() runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [
    lambda: (greechie_loop(1000), None),
    lambda: (mo(2000), ()),
])
def test_refused_rank_costs_no_more_than_the_measure_module(build):
    # loop(1000) is one irreducible block of rank 1001, refused in the
    # block's double description; mo(2000) under the trivial group, given
    # by no generators, runs double description on the whole lattice at
    # rank 2001.  Either way the rank is refused before any dense
    # coordinate is written
    lattice, generators = build()
    action = None if generators is None else close_group(lattice, generators)

    def refused():
        with pytest.raises(DimensionCapError, match="dimension"):
            state_polytope(lattice, action)

    assert _traced_peak(refused) <= 1.5 * _traced_peak(lambda: measure_module(lattice, action))


def test_state_polytope_searches_no_group(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("state_polytope searched a group")

    names = ("automorphism_group", "orbits", "normalizer", "close_group",
             "generating_subset", "quotient_map_injective")
    bound = [module for name, module in sys.modules.items()
             if name.split(".")[0] == "orthomeasure"]
    assert orthomeasure in bound
    for module in bound:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unreachable)
    for lattice in (mo(5), boolean(4), benzene(), product(mo(2), boolean(2)),
                    horizontal_sum(benzene(), mo(3)), horizontal_sum(mo(2), mo(2))):
        assert state_polytope(lattice).vertices


def _checked_vertex_count(lattice):
    vertices = state_polytope(lattice).vertices
    for v in vertices:
        assert is_probability_measure(lattice, v.values).ok
    return len(vertices)


@pytest.mark.parametrize("n", range(1, 12))
def test_mo_state_polytope_is_cube(n):
    lattice = mo(n)
    start = time.perf_counter()
    vertices = state_polytope(lattice).vertices
    assert time.perf_counter() - start < 10.0
    assert len(vertices) == 2 ** n
    for v in vertices:
        assert is_probability_measure(lattice, v.values).ok
    # the cube's vertices are the 0/1 assignments to the atom pairs
    assert {tuple(v.values[f"a{i}"] for i in range(1, n + 1)) for v in vertices} == {
        tuple(Fraction(b) for b in format(m, f"0{n}b")) for m in range(2 ** n)
    }


PARTS = {"boolean(2)": boolean(2), "boolean(3)": boolean(3), "mo(2)": mo(2), "mo(3)": mo(3)}


@pytest.mark.parametrize("left,right", list(combinations_with_replacement(PARTS, 2)))
def test_vertex_counts_of_products_and_horizontal_sums(left, right):
    a, b = PARTS[left], PARTS[right]
    va, vb = _checked_vertex_count(a), _checked_vertex_count(b)
    # a state of A x B is a convex combination t s_A + (1 - t) s_B
    assert _checked_vertex_count(product(a, b)) == va + vb
    # a state of the horizontal sum is a free pair of states
    assert _checked_vertex_count(horizontal_sum(a, b)) == va * vb


@pytest.mark.parametrize("build", [positive_cone, state_polytope])
def test_ray_budget_bounds_the_work(build):
    # mo(19) has rank 20, inside the dimension cap, and 2^19 extreme rays
    assert 2 ** 19 > MAX_RAYS >= 2 ** 11
    start = time.perf_counter()
    with pytest.raises(DimensionCapError, match="rays"):
        build(mo(19))
    assert time.perf_counter() - start < 20.0


def test_cone_layer_dimension_cap():
    n = DEFAULT_MAX_DIMENSION  # mo(n) has rank n + 1
    with pytest.raises(DimensionCapError):
        positive_cone(mo(n))
    with pytest.raises(DimensionCapError):
        state_polytope(mo(n))


def test_state_polytope_double_description_keeps_both_caps():
    # a trivial action sends mo(19) (rank 20) to whole-lattice double
    # description, which stops at the ray budget
    lattice = mo(19)
    start = time.perf_counter()
    with pytest.raises(DimensionCapError, match="rays in the double description"):
        state_polytope(lattice, trivial_action(lattice))
    assert time.perf_counter() - start < 20.0
    # a loop of k blocks has measure rank k + 1, so loop(20) is an
    # irreducible block over the rank cap inside a horizontal sum
    loop = greechie_loop(DEFAULT_MAX_DIMENSION)
    assert not horizontal_summands(loop) and not direct_factors(loop)[0]
    with pytest.raises(DimensionCapError, match=f"dimension {DEFAULT_MAX_DIMENSION + 1} exceeds"):
        state_polytope(horizontal_sum(loop, mo(1)))
