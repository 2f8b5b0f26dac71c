"""Double description against the rank-based oracle.

Claims:
    - on random integer normals (dimension at most 6, at most 12
      constraints, with zero, repeated and opposite normals so that
      lineality survives) the tight-set adjacency test returns exactly the
      rays and lineality basis of the rank-based test in ``oracles``
    - the same holds for the positive cone of every lattice in the test
      family, with and without its full automorphism group
"""

from hypothesis import example, given, settings, strategies as st

from orthomeasure import measure_coordinates, positive_cone
from orthomeasure.cones import double_description

from oracles import double_description_by_rank


@st.composite
def normal_lists(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    # small entries make degenerate cones: many constraints tight at a ray
    vector = st.tuples(*[st.integers(min_value=-1, max_value=1)] * dim)
    normals = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(
            ("fresh", "fresh", "fresh", "zero", "repeat", "opposite")
        ))
        if kind == "zero":
            normals.append((0,) * dim)
        elif kind != "fresh" and normals:
            earlier = draw(st.sampled_from(normals))
            if kind == "opposite":
                earlier = tuple(-x for x in earlier)
            normals.append(earlier)
        else:
            normals.append(draw(vector))
    return normals, dim


@settings(max_examples=400, deadline=None)
@given(normal_lists())
# a repeated normal puts two bits on one constraint: a pair with enough
# common tight bits whose face still holds a third ray
@example(([(1, 0, 1, 0), (-1, -1, -1, 1), (1, 0, 1, 1), (1, -1, -1, -1),
           (1, -1, -1, -1), (0, 0, 1, 0), (1, 1, 1, 1)], 4))
def test_random_cones_match_rank_oracle(case):
    normals, dim = case
    assert double_description(normals, dim) == double_description_by_rank(
        normals, dim
    )


def test_equality_pair_keeps_lineality():
    # x >= 0 and -x >= 0 in the plane: the line x = 0 survives
    assert double_description([(1, 0), (-1, 0)], 2) == ([], [(0, 1)])
    assert double_description_by_rank([(1, 0), (-1, 0)], 2) == ([], [(0, 1)])


def test_positive_cones_of_family_match_rank_oracle(family, aut_groups):
    for name, lattice in family.items():
        for action in (None, aut_groups[name]):
            coords = measure_coordinates(lattice, action)
            normals = list(dict.fromkeys(c for c in coords if any(c)))
            rays, lineality = double_description_by_rank(normals, len(coords[0]))
            cone = positive_cone(lattice, action)
            assert (list(cone.rays), list(cone.lineality)) == (rays, lineality), name
