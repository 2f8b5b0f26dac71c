"""Exact rational cones and state polytopes of measure spaces.

The cone of positive measures is cut out, in measure-basis coordinates, by
one halfspace per lattice element (the dual-cone picture applied to the
image of the whole lattice); slicing it by the normalization at the top
element gives the polytope of probability measures.

Vertex and ray enumeration uses the double description method in exact
integers.  Each ray carries the set of inserted constraints tight at it, as
an int bitset, and two rays are adjacent when no third ray is tight on every
constraint tight at both (Fukuda & Prodon, *Double description method
revisited*, 1996).  The test is exact because the rays are precisely the
extreme rays of the cone modulo its lineality space: the constraints tight
at both rays cut out the smallest face holding them, and that face is
two-dimensional exactly when it has no third extreme ray.  No rank is
computed, so vertex counts are exact and deterministic.

A state polytope is held as one table: the ascending tuple of the distinct
values its vertices take, coordinates included, and per vertex a tuple of
small-int ids into it, for its coordinates and for its value at each
element.  Each value is reduced to a Fraction once, however many vertices
take it.  Ids ascend with value, so sorting the vertices by their
coordinate ids orders them exactly by their coordinates.  The vertices as
``StateVertex`` objects (a primitive ray over its scale top . ray) are
derived from the table on first read of ``StatePolytope.vertices``.

Without a group action the state polytope is composed from the splits that
``automorphism_group`` uses.  A Boolean lattice's vertices are the Dirac
states of its atoms, with values 0 and 1; a horizontal sum's are the
tuples of one vertex per summand, their ids concatenated over the union
of the summands' values, with no rescaling, since an id names an exact
value; a product's over its center are the vertices of each factor, read
on the elements below that factor's central atom.  Only an irreducible
non-Boolean block runs double description, once per shape.  A composed
vertex's coordinates are its values at the elements whose images are the
basis vectors, found on the whole lattice's sparse module.  The vertex
count of a sum (the product of the summands' counts) or of a product (the
sum of the factors') is known before any vertex is listed, and past
MAX_RAYS it raises DimensionCapError at once.  The rank cap
DEFAULT_MAX_DIMENSION and MAX_RAYS then bound the double description of
each irreducible block, so a decomposable lattice gets an exact answer
wherever its vertex count fits, whatever its rank.  Double description
runs in ``_vertex_table`` or ``positive_cone``, on dense coordinates
written in one place, after the rank cap: a refused rank costs no more
than the measure module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from operator import add, itemgetter, mul
from typing import NamedTuple

from .errors import (
    DimensionCapError,
    DomainMismatchError,
    EmptyPolytopeError,
    UnboundedSliceError,
)
from .lattice import (
    CheckResult,
    Decomposer,
    OrthoLattice,
)
from .measures import (
    MeasureModule,
    RATIONALS,
    is_measure,
    measure_module,
)
from .symmetry import GroupAction

DEFAULT_MAX_DIMENSION = 20
# rays one double description step may hold; MO(14) has exactly this many
MAX_RAYS = 2 ** 14

Vector = tuple[int, ...]


def _primitive(vec) -> Vector:
    """Scale a rational vector to coprime integers, keeping its direction."""
    ints = tuple(vec)
    if not all(type(x) is int for x in ints):
        fracs = [Fraction(x) for x in ints]
        denom = lcm(*(f.denominator for f in fracs))
        ints = tuple(int(f * denom) for f in fracs)
    return _coprime(ints)


def _coprime(ints: Vector) -> Vector:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*ints)
    if g > 1:
        ints = tuple(x // g for x in ints)
    return ints


def _sign_canonical(vec: Vector) -> Vector:
    first = next((x for x in vec if x), 0)
    return tuple(-x for x in vec) if first < 0 else vec


def _dot(a, b):
    return sum(map(mul, a, b))


class PolyCone(NamedTuple):
    """A polyhedral cone {x : n . x >= 0 for every normal n}, with its
    extreme rays and a lineality basis."""

    dim: int
    normals: tuple[Vector, ...]
    rays: tuple[Vector, ...]
    lineality: tuple[Vector, ...]


def double_description(normals, dim: int) -> tuple[list[Vector], list[Vector]]:
    """Extreme rays and lineality basis of {x : n . x >= 0 for all n}.

    Constraints are inserted in the given order; while a constraint cuts the
    current lineality space a pivot vector is turned into a ray, afterwards
    new rays come from adjacent positive/negative pairs.

    Each ray keeps an int bitset of the inserted constraints tight at it.
    The bitsets update exactly: a projected ray keeps its set and gains the
    new constraint (inserted constraints vanish on the lineality space, so
    the projection moves no old pairing off zero); the pivot is tight at
    every inserted constraint; a combination of p and n is tight where both
    are, and at the new constraint.  The inserted constraints span the
    complement of the lineality space, so a face of the cone modulo it has
    dimension dim - len(lineality) minus the rank of its tight constraints.
    Two rays are adjacent when the face cut out by their common tight set is
    two-dimensional: that set must hold at least dim - len(lineality) - 2
    constraints, and no third ray may be tight on all of them.

    Only the given normals may be rational; every vector the method forms
    is an integer combination of integer vectors, so it is reduced by the
    gcd alone.

    Raises DimensionCapError as soon as a step holds more than MAX_RAYS
    rays.  That bounds the output and the rays one step holds, not the
    work: a step tests every positive/negative pair, and each pair that
    passes the count filter scans every ray's tight set, so a step costs
    up to P * N * R bitset tests.  A Greechie loop of 19 three-atom blocks,
    whose 9 350 rays stay under the cap, took 116 s on a 2-vCPU host.
    """
    lineality: list[Vector] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[Vector] = []
    tight: list[int] = []  # per ray: bit j set when constraint j is tight
    inserted = 0  # bitset of every constraint inserted so far
    for raw in normals:
        a = _primitive(raw)
        if not any(a):
            continue
        bit = inserted + 1
        pairings = [_dot(a, l) for l in lineality]
        pivot = next((i for i, d in enumerate(pairings) if d), None)
        if pivot is not None:
            l0 = lineality[pivot]
            if pairings[pivot] < 0:
                l0 = tuple(-x for x in l0)
            d0 = abs(pairings[pivot])
            new_lineality = []
            for i, l in enumerate(lineality):
                if i == pivot:
                    continue
                if pairings[i]:
                    l = _coprime(
                        tuple(d0 * x - pairings[i] * y for x, y in zip(l, l0))
                    )
                new_lineality.append(_sign_canonical(l))
            projected = {}
            for r, z in zip(rays, tight):
                v = _dot(a, r)
                projected[_coprime(
                    tuple(d0 * x - v * y for x, y in zip(r, l0))
                )] = z | bit
            projected[l0] = inserted
            lineality = new_lineality
            rays, tight = list(projected), list(projected.values())
        else:
            values = [_dot(a, r) for r in rays]
            if any(v < 0 for v in values):
                need = dim - len(lineality) - 2
                nxt = {}
                positive, negative = [], []
                for r, z, v in zip(rays, tight, values):
                    if v >= 0:
                        nxt[r] = z | bit if v == 0 else z
                    if v > 0:
                        positive.append((r, z, v))
                    elif v < 0:
                        negative.append((r, z, v))
                for p, zp, vp in positive:
                    for n, zn, vn in negative:
                        common = zp & zn
                        if common.bit_count() < need:
                            continue
                        # p and n are tight on common; a third ray is not
                        holders = 0
                        for z in tight:
                            if z & common == common:
                                holders += 1
                                if holders > 2:
                                    break
                        if holders > 2:
                            continue
                        nxt[_coprime(
                            tuple(vp * x - vn * y for x, y in zip(n, p))
                        )] = common | bit
                        if len(nxt) > MAX_RAYS:
                            raise DimensionCapError(
                                f"more than {MAX_RAYS} rays in the double description"
                            )
                rays, tight = list(nxt), list(nxt.values())
            else:
                tight = [z if v else z | bit for z, v in zip(tight, values)]
        inserted |= bit
    rays.sort()
    lineality = sorted(lineality)
    return rays, lineality


def _check_dimension(dim: int) -> None:
    """Raise DimensionCapError when a cone would be wider than
    DEFAULT_MAX_DIMENSION."""
    if dim > DEFAULT_MAX_DIMENSION:
        raise DimensionCapError(f"dimension {dim} exceeds the cap of {DEFAULT_MAX_DIMENSION}")


def dual_cone(generators) -> PolyCone:
    """The cone of linear functionals nonnegative on every generator.

    The halfspace representation is one halfspace per (nonzero) generator;
    the ray representation follows by double description.  Raises
    DimensionCapError when the dimension exceeds DEFAULT_MAX_DIMENSION.
    """
    generators = [tuple(g) for g in generators]
    if not generators:
        raise ValueError("at least one generator (possibly zero) is required")
    dim = len(generators[0])
    if any(len(g) != dim for g in generators):
        raise ValueError("generators must share one ambient dimension")
    _check_dimension(dim)
    normals = tuple(dict.fromkeys(_primitive(g) for g in generators if any(g)))
    rays, lineality = double_description(normals, dim)
    return PolyCone(dim, normals, tuple(rays), tuple(lineality))


# --- measure cones -----------------------------------------------------------------


def _dense_coordinates(module: MeasureModule) -> list[Vector]:
    """Each element's free coordinates, as a dense vector, once the rank
    passes the cap: the one place double description's input is written."""
    _check_dimension(module.rank)
    k = len(module.torsion)
    return [module.projection_index(i)[k:] for i in range(len(module.lattice))]


def measure_coordinates(lattice: OrthoLattice,
                        action: GroupAction | None = None) -> list[Vector]:
    """Free measure-basis coordinates of every element, canonical order, as
    dense vectors: the input of double description.  A rank above
    DEFAULT_MAX_DIMENSION raises DimensionCapError before any is written."""
    return _dense_coordinates(measure_module(lattice, action))


def positive_cone(lattice: OrthoLattice,
                  action: GroupAction | None = None) -> PolyCone:
    """Cone of measures nonnegative on every lattice element.

    Constraints are imposed for every element, not only atoms; on
    non-atomistic lattices the two constraint sets differ.  With an action
    the same construction runs in coinvariant coordinates, which realizes
    the invariant slice.  Raises DimensionCapError when the measure space
    has rank above DEFAULT_MAX_DIMENSION, before any dense coordinate is
    written, or the cone past MAX_RAYS rays.
    """
    return dual_cone(measure_coordinates(lattice, action))


class _VertexFields(NamedTuple):
    ray: Vector
    scale: int
    numerators: tuple[int, ...]
    elements: tuple[str, ...]


class StateVertex(_VertexFields):
    """One vertex of the state polytope, kept as exact integers.

    The vertex is ``ray / scale``: ``ray`` is a primitive extreme ray of the
    positive cone and ``scale`` its pairing with the top element (always
    positive).  ``numerators[i]`` is the vertex's value at ``elements[i]``
    times ``scale``.  ``coords`` and ``values`` give the same numbers as
    Fractions.  The fields are read-only; the subclass of the NamedTuple
    holds the cached properties in its instance ``__dict__``.
    """

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.scale) for x in self.ray)

    @cached_property
    def values(self) -> dict[str, Fraction]:
        return {
            e: Fraction(n, self.scale)
            for e, n in zip(self.elements, self.numerators)
        }


class _PolytopeFields(NamedTuple):
    elements: tuple[str, ...]
    values: tuple[Fraction, ...]
    rows: tuple[tuple[Vector, Vector], ...]


class StatePolytope(_PolytopeFields):
    """Probability measures as the normalized slice of the positive cone,
    held as one table: ``values`` lists the distinct values its vertices
    take, coordinates included, in ascending order, and each row of
    ``rows`` gives one vertex as the ids into ``values`` of its
    coordinates and of its values at ``elements``.  The rows are sorted by
    their coordinate ids, which orders them as their coordinates.  As
    with StateVertex, the fields are read-only and ``vertices`` is cached
    in the instance ``__dict__``."""

    @cached_property
    def vertices(self) -> tuple[StateVertex, ...]:
        """The rows as StateVertex, each over its scale: a vertex's
        coordinates pair with the top's to 1, so its primitive ray over
        top . ray is its coordinates over the lcm of their denominators."""
        values, out = self.values, []
        for coord_ids, value_ids in self.rows:
            coords = [values[i] for i in coord_ids]
            scale = lcm(*[c.denominator for c in coords])
            out.append(StateVertex(
                tuple([c.numerator * (scale // c.denominator) for c in coords]),
                scale,
                tuple([values[i].numerator * (scale // values[i].denominator)
                       for i in value_ids]),
                self.elements,
            ))
        return tuple(out)


def _pairings(coords, rays) -> list[tuple[int, ...]]:
    """Row k holds coords[i] . rays[k] for every i.

    Computed one coordinate row at a time across every ray: a row has only
    a few nonzero entries, so its pairings are a combination of that many
    columns of the ray matrix.
    """
    columns = list(zip(*rays))
    count = len(rays)
    per_row = []
    for row in coords:
        acc = [0] * count
        for j, c in enumerate(row):
            if c:
                column = columns[j] if c == 1 else map(mul, columns[j], repeat(c))
                acc = list(map(add, acc, column))
        per_row.append(acc)
    return list(zip(*per_row))


# Vertices as one table: the ascending distinct values they take, and per
# vertex a tuple of ids into those values.  A nonempty table of states
# starts with 0, the value at the bottom, and ends with 1, the value at the
# top.
Table = tuple[tuple[Fraction, ...], list[Vector]]

_ZERO_ONE = (Fraction(0), Fraction(1))


def _value_table(scales: list[int], numerators) -> Table:
    """The rows numerators[k] / scales[k] as a table, each distinct
    numerator over its scale reduced to a Fraction once."""
    reduced: dict[int, dict[int, Fraction]] = {}
    for s, nums in zip(scales, numerators):
        known = reduced.setdefault(s, {})
        for n in set(nums).difference(known):
            known[n] = Fraction(n, s)
    values = sorted({f for known in reduced.values() for f in known.values()})
    index = {f: i for i, f in enumerate(values)}
    ids = {s: {n: index[f] for n, f in known.items()} for s, known in reduced.items()}
    return tuple(values), [tuple(map(ids[s].__getitem__, nums))
                           for s, nums in zip(scales, numerators)]


def _merged(tables: list[Table]) -> tuple[tuple[Fraction, ...], list[list[Vector]]]:
    """One ascending value tuple for several tables, and each table's rows
    with their ids into it."""
    values = tuple(sorted(set().union(*[own for own, _ in tables])))
    index = {f: i for i, f in enumerate(values)}
    out = []
    for own, rows in tables:
        if own != values:
            renumber = [index[f] for f in own]
            rows = [tuple(map(renumber.__getitem__, r)) for r in rows]
        out.append(rows)
    return values, out


def _vertex_table(coords: list[Vector], top_index: int) -> Table:
    """The vertices of the normalized slice of the positive cone on the
    coordinates, by double description: each ray r over its scale top . r,
    as a row of the ids of its coordinates, then of its values."""
    top = coords[top_index]
    cone = dual_cone(coords)
    scales = [_dot(top, r) for r in cone.rays]
    if cone.lineality or any(s <= 0 for s in scales):
        # positivity at every element together with additivity at the top
        # rules this out; reaching it means the input is degenerate
        raise UnboundedSliceError("the normalized slice is not a polytope")
    pairings = _pairings(coords, cone.rays) if cone.rays else []
    return _value_table(scales, [r + nums for r, nums in zip(cone.rays, pairings)])


def _capped(count: int) -> None:
    """Raise DimensionCapError when a composed vertex set would be larger
    than one double description step may be."""
    if count > MAX_RAYS:
        raise DimensionCapError(f"{count} vertices exceed the cap of {MAX_RAYS} rays")


def _dirac_vertices(lattice: OrthoLattice) -> Table:
    """The states of a Boolean lattice: one per atom a, 1 on the elements
    above a and 0 elsewhere."""
    down = lattice.down_masks
    return _ZERO_ONE, [tuple(d >> a & 1 for d in down) for a in lattice.atom_indices()]


def _cone_vertices(lattice: OrthoLattice) -> Table:
    """The vertices of an irreducible block, by double description in its
    own measure coordinates, as their value ids; none when its top is zero
    there (then every positive measure vanishes)."""
    module = measure_module(lattice)
    if _zero_top(module):
        return (), []
    values, rows = _vertex_table(_dense_coordinates(module), lattice.top_index)
    return values, [row[module.rank:] for row in rows]


def _getter(indices: list[int]):
    """The function from a tuple to the tuple of its entries at
    ``indices``."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices)


class _Blocks(Decomposer):
    """The vertices of a lattice composed from its decomposition, as a
    table (see ``Table``), the table of every block and factor met kept by
    its shape (see ``Decomposer``)."""

    boolean = staticmethod(_dirac_vertices)
    irreducible = staticmethod(_cone_vertices)

    def summed(self, lattice: OrthoLattice, summands) -> Table:
        """Every choice of one vertex per summand: a horizontal sum's
        orthogonal pairs and their joins lie within one summand, so its
        states are the free tuples of the summands' states, and its
        vertices the tuples of their vertices.

        An id names one exact value, so a tuple is the concatenation of
        the summands' ids at their proper elements, after the bottom's
        and the top's, placed at the sum's elements with one getter."""
        proper, tables = [], []
        count = 1
        for block, members in summands:
            inner = [k for k in range(len(block))
                     if k != block.bottom_index and k != block.top_index]
            values, rows = self.solve(block)
            proper.extend(members[k] for k in inner)
            tables.append((values, [tuple([r[k] for k in inner]) for r in rows]))
            count *= len(rows)
        _capped(count)
        if not count:
            return (), []
        values, choices = _merged(tables)
        # ids of 0 and 1, the bottom's and the top's values: first and last
        partial = [(0, len(values) - 1)]
        for rows in choices:
            partial = [x + y for x in partial for y in rows]
        # the element at position p of (bottom, top, the proper elements)
        where = [0] * len(lattice)
        where[lattice.top_index] = 1
        for p, i in enumerate(proper, 2):
            where[i] = p
        return values, list(map(itemgetter(*where), partial))

    def product(self, lattice: OrthoLattice, factors, coordinates) -> Table:
        """The vertices of each factor [0, z], read at t ^ z for every
        element t: a state of the product is a convex combination of states
        that each live on one factor."""
        found = [self.solve(factor) for factor, _ in factors]
        _capped(sum(len(rows) for _, rows in found))
        values, merged = _merged(found)
        out = []
        for j, rows in enumerate(merged):
            out.extend(map(itemgetter(*[c[j] for c in coordinates]), rows))
        return values, out


def _zero_top(module: MeasureModule) -> bool:
    """Whether the top's projection has no free coordinate (its terms list
    the torsion ones first): then every measure into Q vanishes there."""
    terms = module.projection_terms(module.lattice.top_index)
    return not terms or terms[-1][0] < len(module.torsion)


def _unit_elements(module: MeasureModule) -> list[int] | None:
    """An element whose free coordinates are e_j, for each basis vector
    e_j, or None if some e_j is no element's image.  A measure's coordinate
    j is then its value there."""
    k = len(module.torsion)
    units: list[int | None] = [None] * module.rank
    for i in range(len(module.lattice)):
        free = [term for term in module.projection_terms(i) if term[0] >= k]
        if len(free) == 1 and free[0][1] == 1 and units[free[0][0] - k] is None:
            units[free[0][0] - k] = i
    return None if None in units else units


def state_polytope(lattice: OrthoLattice,
                   action: GroupAction | None = None) -> StatePolytope:
    """Exact vertices of the polytope of (invariant) probability measures.

    With no action the vertices are composed from the lattice's
    decomposition, block by block, as ``automorphism_group`` splits it: a
    Boolean lattice has the Dirac states of its atoms; a horizontal sum
    has every tuple of one vertex per summand; a product over the center
    has the vertices of each factor.  Only an irreducible non-Boolean
    block runs double description, in its own measure coordinates, and a
    block of the same shape is solved once.  A composed vertex's
    coordinates are its values at the elements whose images are the basis
    vectors, read off the whole lattice's sparse module; no dense
    coordinate of the whole lattice is written.  A sum's or product's
    vertex count past MAX_RAYS raises DimensionCapError before the whole
    lattice's measure module is built.  With an action, or when some basis
    vector is no element's image, the double description runs on the whole
    lattice, under both caps, and each ray r over its scale top . r gives a
    vertex, with coordinates r / scale.

    Either way the vertices form one table (see ``StatePolytope``), each
    value reduced once, and its rows are sorted by their coordinate ids:
    ids ascend with value, so this orders the vertices by their
    coordinates.  Raises UnboundedSliceError when the top element projects
    to zero (the degenerate case where no normalization is possible),
    found on the sparse module before the rank cap, and EmptyPolytopeError
    when no probability measure exists.
    """
    # the blocks come first, so a vertex count past the cap stops the call
    # before the whole lattice's measure module is built
    composed = None if action is not None else _Blocks().split(lattice)
    module = measure_module(lattice, action)
    if _zero_top(module):
        raise UnboundedSliceError("the top element is zero in the rational measure space")
    units = None if composed is None else _unit_elements(module)
    if units is None:
        values, rows = _vertex_table(_dense_coordinates(module), lattice.top_index)
        rows = sorted((row[:module.rank], row[module.rank:]) for row in rows)
    else:
        values, rows = composed
        rows = sorted(zip(map(_getter(units), rows), rows))
    if not rows:
        raise EmptyPolytopeError("no probability measure exists")
    return StatePolytope(lattice.elements, values, tuple(rows))


def is_probability_measure(lattice: OrthoLattice, values) -> CheckResult:
    """Additivity, normalization at the top, and range within [0, 1]."""
    missing = [e for e in lattice.elements if e not in values]
    if missing:
        raise DomainMismatchError(f"no value given for element {missing[0]!r}")
    rational = {e: Fraction(values[e]) for e in lattice.elements}
    additive = is_measure(lattice, rational, RATIONALS)
    if not additive.ok:
        return CheckResult(False, ("additivity",) + additive.witness)
    if rational[lattice.top] != 1:
        return CheckResult(False, ("normalization", lattice.top))
    for e in lattice.elements:
        if not 0 <= rational[e] <= 1:
            return CheckResult(False, ("range", e))
    return CheckResult(True)
