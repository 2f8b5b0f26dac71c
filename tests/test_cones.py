"""Positive-measure cones and state polytopes.

Claims:
    - dual cones of orthants and degenerate generator sets are correct
    - the double description output is self-consistent: every ray satisfies
      every halfspace, and regenerating each representation from the other
      yields an equivalent cone
    - positive cones of the small family have the known ray counts and the
      rays map to nonneg measures (power-set rays are the atom point masses)
    - state polytopes: power sets give simplices with affinely independent
      vertices, the two-block lattice gives a square, the hexagon a segment,
      and full symmetry collapses the atom-pair lattices to a single state
    - every vertex is a probability measure; every dyadic-grid probability
      measure lies in the exact convex hull of the vertices
    - degenerate slices raise the documented errors
    - the integer slicing gives the vertices, coordinates and values of a
      Fraction slicing of the same rays, in the same order, on the family
      and on products and horizontal sums, with and without the full group
    - closed forms: |V(MO(n))| = 2^n for n = 1..11 (mo(11) within 10 s),
      V(A x B) = V(A) + V(B) and V(hsum(A, B)) = V(A) V(B), every vertex a
      probability measure
    - cones and state polytopes above the dimension cap raise
      DimensionCapError, and so do those past the ray budget (mo(19),
      within 20 s)
"""

import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from orthomeasure import (
    DimensionCapError,
    EmptyPolytopeError,
    RATIONALS,
    UnboundedSliceError,
    automorphism_group,
    benzene,
    boolean,
    brute_force_measures,
    cone_from_rays,
    cones_equivalent,
    dual_cone,
    horizontal_sum,
    is_probability_measure,
    measure_coordinates,
    mo,
    positive_cone,
    product,
    state_polytope,
)
from orthomeasure.cones import DEFAULT_MAX_DIMENSION, MAX_RAYS, PolyCone, double_description

from oracles import in_convex_hull, state_vertices_by_fractions


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
    _, coords = measure_coordinates(mo(2))
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
            assert cone.contains(ray)
        assert cone.lineality == ()


def test_positive_cone_double_description_consistency(family):
    for name in ("boolean(2)", "boolean(3)", "mo(2)", "mo(3)", "benzene"):
        cone = positive_cone(family[name])
        rebuilt = cone_from_rays(cone.rays, cone.dim, cone.lineality)
        assert cones_equivalent(cone, rebuilt)


def test_boolean_rays_are_atom_point_masses(family):
    lat = family["boolean(2)"]
    _, coords = measure_coordinates(lat)
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
        _, coords = measure_coordinates(lat)
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
        _, coords = measure_coordinates(lattice, action)
        expected = state_vertices_by_fractions(
            lattice, positive_cone(lattice, action).rays, coords
        )
        got = [(v.coords, v.values) for v in polytope.vertices]
        assert got == expected, (lattice.name, action is not None)


def test_state_polytope_error_paths(monkeypatch):
    # degenerate top projection: zero normalization functional
    import orthomeasure.cones as cones_mod

    lat = boolean(2)

    real = cones_mod.measure_coordinates

    def zero_top(lattice, action=None):
        module, coords = real(lattice, action)
        coords = list(coords)
        coords[lattice.top_index] = tuple(0 for _ in coords[lattice.top_index])
        return module, coords

    monkeypatch.setattr(cones_mod, "measure_coordinates", zero_top)
    with pytest.raises(UnboundedSliceError):
        state_polytope(lat)

    def no_positive(lattice, action=None):
        module, coords = real(lattice, action)
        # flip the sign of every nonzero row except the top, leaving the
        # cone empty of directions that pair positively with the top
        flipped = []
        for i, c in enumerate(coords):
            if i == lattice.top_index:
                flipped.append(c)
            else:
                flipped.append(tuple(-x for x in c))
        return module, flipped

    monkeypatch.setattr(cones_mod, "measure_coordinates", no_positive)
    with pytest.raises((EmptyPolytopeError, UnboundedSliceError)):
        state_polytope(lat)


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
