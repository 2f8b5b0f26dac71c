"""Exact rational cones and state polytopes of measure spaces.

The cone of positive measures is cut out, in measure-basis coordinates, by
one halfspace per lattice element (the dual-cone picture applied to the
image of the whole lattice); slicing it by the normalization at the top
element gives the polytope of probability measures.  Vertex and ray
enumeration uses the double description method over exact rationals with a
rank-based adjacency test, so vertex counts are exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DimensionCapError,
    DomainMismatchError,
    EmptyPolytopeError,
    UnboundedSliceError,
)
from .intlinalg import rational_rank
from .lattice import CheckResult, OrthoLattice
from .measures import (
    MeasureModule,
    RATIONALS,
    is_measure,
    measure_module,
)
from .symmetry import GroupAction

DEFAULT_MAX_DIMENSION = 20

Vector = tuple[int, ...]


def _primitive(vec) -> Vector:
    """Scale a rational vector to coprime integers, keeping its direction."""
    fracs = [Fraction(x) for x in vec]
    denom = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _sign_canonical(vec: Vector) -> Vector:
    first = next((x for x in vec if x), 0)
    return tuple(-x for x in vec) if first < 0 else vec


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


@dataclass(frozen=True)
class Halfspace:
    """The set of points with nonnegative pairing against the normal."""

    normal: Vector

    def __post_init__(self):
        if not any(self.normal):
            raise ValueError("halfspace normal must be nonzero")


@dataclass(frozen=True)
class PolyCone:
    """A polyhedral cone with matching halfspace and ray representations."""

    dim: int
    halfspaces: tuple[Halfspace, ...]
    rays: tuple[Vector, ...]
    lineality: tuple[Vector, ...]

    @classmethod
    def from_parts(cls, dim, normals, rays, lineality) -> "PolyCone":
        return cls(
            dim,
            tuple(Halfspace(tuple(n)) for n in normals),
            tuple(rays),
            tuple(lineality),
        )

    @property
    def normals(self) -> tuple[Vector, ...]:
        return tuple(h.normal for h in self.halfspaces)

    def contains(self, vec) -> bool:
        return all(_dot(h.normal, vec) >= 0 for h in self.halfspaces)

    def generators(self) -> list[Vector]:
        """Rays plus both signs of the lineality basis."""
        out = list(self.rays)
        for l in self.lineality:
            out.append(l)
            out.append(tuple(-x for x in l))
        return out


def double_description(normals, dim: int) -> tuple[list[Vector], list[Vector]]:
    """Extreme rays and lineality basis of {x : n . x >= 0 for all n}.

    Constraints are inserted in the given order; while a constraint cuts the
    current lineality space a pivot vector is turned into a ray, afterwards
    new rays come from adjacent positive/negative pairs.  Adjacency of two
    rays is decided by the rank of the inserted constraints tight at both.
    """
    lineality: list[Vector] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[Vector] = []
    processed: list[Vector] = []
    for raw in normals:
        a = _primitive(raw)
        if not any(a):
            continue
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
                    l = _primitive(
                        tuple(d0 * x - pairings[i] * y for x, y in zip(l, l0))
                    )
                new_lineality.append(_sign_canonical(l))
            rays = [
                _primitive(
                    tuple(d0 * x - _dot(a, r) * y for x, y in zip(r, l0))
                )
                for r in rays
            ]
            rays.append(l0)
            lineality = new_lineality
            rays = list(dict.fromkeys(rays))
        else:
            values = [_dot(a, r) for r in rays]
            if any(v < 0 for v in values):
                target = rational_rank(processed) - 2
                keep = [r for r, v in zip(rays, values) if v >= 0]
                combos = []
                for p, vp in zip(rays, values):
                    if vp <= 0:
                        continue
                    for nray, vn in zip(rays, values):
                        if vn >= 0:
                            continue
                        tight = [
                            row for row in processed
                            if _dot(row, p) == 0 and _dot(row, nray) == 0
                        ]
                        if rational_rank(tight) != target:
                            continue
                        combos.append(
                            _primitive(
                                tuple(vp * x - vn * y for x, y in zip(nray, p))
                            )
                        )
                rays = list(dict.fromkeys(keep + combos))
        processed.append(a)
    rays.sort()
    lineality = sorted(lineality)
    return rays, lineality


def dual_cone(generators, max_dim: int = DEFAULT_MAX_DIMENSION) -> PolyCone:
    """The cone of linear functionals nonnegative on every generator.

    The halfspace representation is one halfspace per (nonzero) generator;
    the ray representation follows by double description.
    """
    generators = [tuple(g) for g in generators]
    if not generators:
        raise ValueError("at least one generator (possibly zero) is required")
    dim = len(generators[0])
    if any(len(g) != dim for g in generators):
        raise ValueError("generators must share one ambient dimension")
    if dim > max_dim:
        raise DimensionCapError(f"dimension {dim} exceeds the cap of {max_dim}")
    normals = list(
        dict.fromkeys(_primitive(g) for g in generators if any(g))
    )
    rays, lineality = double_description(normals, dim)
    return PolyCone.from_parts(dim, normals, rays, lineality)


def cone_from_rays(rays, dim: int, lineality=(),
                   max_dim: int = DEFAULT_MAX_DIMENSION) -> PolyCone:
    """Cone generated by rays (and lines); halfspaces found by dualizing.

    Rays of the dual cone are the facet normals; lineality of the dual marks
    directions the cone does not span, contributing equality pairs.
    """
    if dim > max_dim:
        raise DimensionCapError(f"dimension {dim} exceeds the cap of {max_dim}")
    dual_normals = [_primitive(r) for r in rays if any(r)]
    for l in lineality:
        dual_normals.append(_primitive(l))
        dual_normals.append(tuple(-x for x in _primitive(l)))
    facet_rays, dual_lineality = double_description(dual_normals, dim)
    halfspaces = list(facet_rays)
    for l in dual_lineality:
        halfspaces.append(l)
        halfspaces.append(tuple(-x for x in l))
    canon_rays, canon_lineality = double_description(halfspaces, dim)
    return PolyCone.from_parts(dim, halfspaces, canon_rays, canon_lineality)


def cones_equivalent(a: PolyCone, b: PolyCone) -> bool:
    """Mutual containment of the generator sets, checked exactly."""
    return all(b.contains(g) for g in a.generators()) and all(
        a.contains(g) for g in b.generators()
    )


# --- measure cones -----------------------------------------------------------------


def measure_coordinates(lattice: OrthoLattice,
                        action: GroupAction | None = None) -> tuple[MeasureModule, list[Vector]]:
    """Free measure-basis coordinates of every element, canonical order."""
    module = measure_module(lattice, action)
    k = len(module.moduli)
    coords = [module.projection_index(i)[k:] for i in range(len(lattice))]
    return module, coords


def positive_cone(lattice: OrthoLattice,
                  action: GroupAction | None = None) -> PolyCone:
    """Cone of measures nonnegative on every lattice element.

    Constraints are imposed for every element, not only atoms; on
    non-atomistic lattices the two constraint sets differ.  With an action
    the same construction runs in coinvariant coordinates, which realizes
    the invariant slice.
    """
    module, coords = measure_coordinates(lattice, action)
    dim = module.rank
    normals = list(dict.fromkeys(c for c in coords if any(c)))
    rays, lineality = double_description(normals, dim)
    return PolyCone.from_parts(dim, normals, rays, lineality)


@dataclass(frozen=True)
class StateVertex:
    coords: tuple[Fraction, ...]
    values: dict[str, Fraction]


@dataclass(frozen=True)
class StatePolytope:
    """Probability measures as the normalized slice of the positive cone."""

    cone: PolyCone
    normalization: Vector
    vertices: tuple[StateVertex, ...]


def state_polytope(lattice: OrthoLattice,
                   action: GroupAction | None = None) -> StatePolytope:
    """Exact vertices of the polytope of (invariant) probability measures.

    Raises UnboundedSliceError when the top element projects to zero (the
    degenerate case where no normalization is possible) and
    EmptyPolytopeError when no probability measure exists.
    """
    module, coords = measure_coordinates(lattice, action)
    dim = module.rank
    normals = list(dict.fromkeys(c for c in coords if any(c)))
    rays, lineality = double_description(normals, dim)
    cone = PolyCone.from_parts(dim, normals, rays, lineality)
    top = coords[lattice.top_index]
    if not any(top):
        raise UnboundedSliceError(
            "the top element is zero in the rational measure space"
        )
    if lineality or any(_dot(top, r) <= 0 for r in rays):
        # positivity at every element together with additivity at the top
        # rules this out; reaching it means the input is degenerate
        raise UnboundedSliceError("the normalized slice is not a polytope")
    vertices = []
    for r in rays:
        scale = Fraction(1, _dot(top, r))
        coeff = tuple(scale * x for x in r)
        values = {
            e: sum(
                (c * x for c, x in zip(coeff, coords[i])), Fraction(0)
            )
            for i, e in enumerate(lattice.elements)
        }
        vertices.append(StateVertex(coeff, values))
    if not vertices:
        raise EmptyPolytopeError("no probability measure exists")
    vertices.sort(key=lambda v: v.coords)
    return StatePolytope(cone, top, tuple(vertices))


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
