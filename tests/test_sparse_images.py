"""Measure modules kept as sparse images.

Claims:
    - over composite lattices, plain and under the full automorphism
      group, measure_module gives the invariants, the dense images, the
      projection of every element and the measure bases over Z, Q, Z/2 and
      Z/6 of the dense back-substitution in ``oracles``, and the rank and
      torsion of the orthogonal-pair presentation
    - FPAbelianGroup.from_relations gives the dense back-substitution's
      invariants and images on sparse matrices with entries in -3..3, and
      ``reduced`` sends each generator to its image
    - on MO(n) the images hold O(n) nonzeros in all: the taken atom of each
      pair is the sum of three coordinates, the top of two
"""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings, strategies as st

from orthomeasure import (
    FPAbelianGroup,
    INTEGERS,
    Measure,
    RATIONALS,
    automorphism_group,
    benzene,
    horizontal_sum,
    integers_mod,
    measure_module,
    mo,
)

from orthomeasure.measures import basis_from_module

from oracles import dense_presented, measure_group_by_pairs, module_by_dense_images
from strategies import composite_lattices, sparse_matrices


def _basis_from_dense(lattice, torsion, rank, projection, domain):
    """The measure basis read off dense projections, one element at a time."""
    k = len(torsion)
    n = len(lattice)
    out = []
    if domain.kind in ("Z", "Q"):
        for j in range(rank):
            values = [projection[i][k + j] for i in range(n)]
            if next((v for v in values if v), 0) < 0:
                values = [-v for v in values]
            if domain.kind == "Q":
                values = [Fraction(v) for v in values]
            out.append(Measure(domain, dict(zip(lattice.elements, values))))
        return out
    m = domain.modulus
    for t, d in enumerate(torsion):
        if gcd(d, m) > 1:
            scale = m // gcd(d, m)
            out.append(Measure(domain, {e: scale * projection[i][t] % m
                                        for i, e in enumerate(lattice.elements)}))
    for j in range(rank):
        out.append(Measure(domain, {e: projection[i][k + j] % m
                                    for i, e in enumerate(lattice.elements)}))
    return out


@settings(max_examples=60, deadline=None)
@given(composite_lattices(), st.booleans())
@example(horizontal_sum(benzene(), mo(3)), True)  # Z + Z/2: a torsion coordinate
def test_sparse_images_match_the_dense_back_substitution(lattice, use_group):
    action = automorphism_group(lattice) if use_group else None
    module = measure_module(lattice, action)
    invariants, images, columns = module_by_dense_images(lattice, action)
    assert module.group.invariants == invariants
    assert module.group.images == images
    assert list(module.columns) == columns
    projection = [images[c] for c in columns]
    assert [module.projection_index(i) for i in range(len(lattice))] == projection
    assert [module.projection(e) for e in lattice.elements] == projection
    for c, image in enumerate(images):
        unit = [0] * module.group.generator_count
        unit[c] = 1
        assert module.group.reduced(unit) == image
    by_pairs = measure_group_by_pairs(lattice, action)
    assert (module.rank, module.torsion) == (by_pairs.rank, by_pairs.torsion)
    for domain in (INTEGERS, RATIONALS, integers_mod(2), integers_mod(6)):
        assert basis_from_module(module, domain) == _basis_from_dense(
            lattice, module.torsion, module.rank, projection, domain)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
@example((2, [[0, 2]]))
@example((2, [[2, 4], [6, 8]]))
@example((4, [[2, 0, 0, 0], [0, 3, 0, 0], [1, 1, 1, 0]]))
def test_from_relations_matches_the_dense_back_substitution(case):
    width, rows = case
    group = FPAbelianGroup.from_relations(width, rows)
    sparse = [tuple((j, a) for j, a in enumerate(r) if a) for r in rows]
    invariants, images = dense_presented(width, [r for r in sparse if r], [0] * width)
    assert (group.invariants, group.images) == (invariants, images)
    for terms, image in zip(group.sparse_images, images):
        assert terms == tuple((t, x) for t, x in enumerate(image) if x)


def test_mo_images_stay_linear():
    n = 300
    module = measure_module(mo(n))
    assert module.rank == n + 1
    sizes = sorted(len(terms) for terms in module.group.sparse_images)
    # 0 maps to zero; the untaken atoms are unit vectors, each taken atom is
    # a1 + a1' minus its partner, and the top is a1 + a1'
    assert sizes == [0] + [1] * (n + 1) + [2] + [3] * (n - 1)
