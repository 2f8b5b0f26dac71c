"""Finite groups acting on a lattice by orthocomplementation-preserving
automorphisms: decomposition, search, closure, orbits, stabilizers,
normalizers.

A group is held by a generating set and its order.  The full automorphism
group is built from a decomposition of the lattice: Boolean lattices,
horizontal sums and products over the center have it in closed form, as
S_k and as wreath products over classes of isomorphic blocks, and only
the blocks that are irreducible and not Boolean are searched for a base
and strong generating set; either way its order is known without listing
a single element.  Orbits are the connected components of the
generators, found by union-find.  The full group and its normalizers
also remember the element sets they stabilize (none for the full group):
the stabilizer in Aut(L) of sets S_1, ..., S_k is the automorphism group
of L coloured by membership in each S_i.  It is composed from the same
decomposition, each block coloured by its elements' colours: a Boolean
block coloured on its atoms has a Young subgroup, sums and products
wreathe their classes of isomorphic coloured blocks, and only the blocks
with no closed form are searched.  So a normalizer or stabilizer in the
full group or in a normalizer lists nothing, and membership is an
automorphism check plus a check of the sets.  A group given by
generators (``close_group``, ``load_group``) is held by them alone:
orbits need only the generators, so orbits, coinvariants, measures,
cones and states under it list nothing.  Its order, ``perms``,
iteration, membership and normalizers list its elements, on first read.
Every group lists its elements only on demand, and never past
DEFAULT_MAX_GROUP.
"""

from __future__ import annotations

import json
from decimal import Decimal
from itertools import groupby
from math import factorial
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import GroupTooLargeError, NotAnAutomorphismError, SchemaError
from .lattice import (
    Decomposer,
    IsomorphismSearch,
    OrthoLattice,
    _bits,
    read_json,
)

DEFAULT_MAX_GROUP = 100_000

Perm = tuple[int, ...]


class LatticeAutomorphism:
    """A bijective element map preserving order both ways and the
    orthocomplement (hence bottom, top, meets and joins)."""

    __slots__ = ("lattice", "perm")

    def __init__(self, lattice: OrthoLattice, perm: Perm, _checked: bool = False):
        self.lattice = lattice
        self.perm = tuple(perm)
        if not _checked:
            _validate_automorphism(lattice, self.perm)

    @classmethod
    def from_mapping(cls, lattice: OrthoLattice, mapping: dict[str, str]) -> "LatticeAutomorphism":
        if set(mapping) != set(lattice.elements):
            raise NotAnAutomorphismError("mapping must cover every element exactly once")
        perm = []
        for e in lattice.elements:
            image = mapping[e]
            if image not in lattice:
                raise NotAnAutomorphismError(f"{e!r} maps to {image!r}, which is not an element")
            perm.append(lattice.index(image))
        return cls(lattice, perm)

    @classmethod
    def identity(cls, lattice: OrthoLattice) -> "LatticeAutomorphism":
        return cls(lattice, tuple(range(len(lattice))), _checked=True)

    def __call__(self, name: str) -> str:
        return self.lattice.elements[self.perm[self.lattice.index(name)]]

    def compose(self, other: "LatticeAutomorphism") -> "LatticeAutomorphism":
        """self after other."""
        return LatticeAutomorphism(
            self.lattice, tuple(self.perm[j] for j in other.perm), _checked=True
        )

    def inverse(self) -> "LatticeAutomorphism":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return LatticeAutomorphism(self.lattice, tuple(inv), _checked=True)

    @property
    def mapping(self) -> dict[str, str]:
        return {
            e: self.lattice.elements[self.perm[i]]
            for i, e in enumerate(self.lattice.elements)
        }

    def __eq__(self, other):
        return (
            isinstance(other, LatticeAutomorphism)
            and self.lattice is other.lattice
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((id(self.lattice), self.perm))

    def __repr__(self):
        return f"<LatticeAutomorphism {self.mapping}>"


def _validate_automorphism(lattice: OrthoLattice, perm: Perm) -> None:
    n = len(lattice)
    if sorted(perm) != list(range(n)):
        raise NotAnAutomorphismError("element map is not a bijection")
    # bit i of moved is set when i <= j and perm[i] <= perm[j] disagree for
    # some j: the down-set of j against the preimage of that of perm[j]
    down = lattice.down_masks
    inverse = sorted(range(n), key=perm.__getitem__)
    moved = 0
    for j, d in enumerate(down):
        moved |= d ^ sum(1 << inverse[k] for k in _bits(down[perm[j]]))
    if moved:
        i = (moved & -moved).bit_length() - 1
        j = next(j for j in range(n)
                 if lattice.leq_index(i, j) != lattice.leq_index(perm[i], perm[j]))
        raise NotAnAutomorphismError(
            f"order not preserved on ({lattice.elements[i]!r}, {lattice.elements[j]!r})")
    for i in range(n):
        if perm[lattice.orth_map[i]] != lattice.orth_map[perm[i]]:
            raise NotAnAutomorphismError(
                f"orthocomplement not preserved at {lattice.elements[i]!r}"
            )


class Orbit(NamedTuple):
    representative: str
    members: tuple[str, ...]


class GroupAction:
    """A finite group of lattice automorphisms, held by its generators.

    ``stabilized`` is None for a group given by its generators.  For the
    full automorphism group it is empty, and for a normalizer in it it
    holds the element index sets whose common setwise stabilizer in the
    full automorphism group the group is; membership is then decided
    without listing.  The full group and its normalizers know their order
    when built; a
    group given by generators learns it by listing its elements on the
    first read of ``order``.  ``perms`` (and iteration) list the elements
    on first use.  Either listing raises GroupTooLargeError past
    DEFAULT_MAX_GROUP elements.
    """

    __slots__ = ("lattice", "generators", "stabilized", "_order", "_perms", "_labels")

    def __init__(self, lattice: OrthoLattice, generators: Sequence[LatticeAutomorphism],
                 order: int | None = None, perms: Sequence[Perm] | None = None,
                 stabilized: Sequence[frozenset[int]] | None = None):
        self.lattice = lattice
        self.generators = tuple(generators)
        self.stabilized = None if stabilized is None else tuple(stabilized)
        self._order = order
        self._perms = None if perms is None else tuple(sorted(perms))
        self._labels = None

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = len(self.perms)
        return self._order

    @property
    def perms(self) -> tuple[Perm, ...]:
        if self._perms is None:
            if self._order is not None and self._order > DEFAULT_MAX_GROUP:
                # Decimal prints ints of any length
                raise GroupTooLargeError(
                    f"listing {Decimal(self._order)} elements exceeds the cap of {DEFAULT_MAX_GROUP}"
                )
            gens = [g.perm for g in self.generators]
            self._perms = tuple(sorted(_closure(len(self.lattice), gens)))
        return self._perms

    def orbit_labels(self) -> list[int]:
        """label[i] is the least element index in the orbit of element i."""
        if self._labels is None:
            self._labels = _orbit_labels(len(self.lattice), [g.perm for g in self.generators])
        return self._labels

    def __iter__(self) -> Iterator[LatticeAutomorphism]:
        for p in self.perms:
            yield LatticeAutomorphism(self.lattice, p, _checked=True)

    def __contains__(self, item) -> bool:
        perm = item.perm if isinstance(item, LatticeAutomorphism) else tuple(item)
        if self.stabilized is None:
            return perm in self.perms
        try:
            _validate_automorphism(self.lattice, perm)
        except NotAnAutomorphismError:
            return False
        return all({perm[i] for i in s} == s for s in self.stabilized)

    def __repr__(self):
        order = "not yet listed" if self._order is None else Decimal(self._order)
        return f"<GroupAction of order {order} on {self.lattice!r}>"


def _closure(n: int, gen_perms: Sequence[Perm]) -> set[Perm]:
    """Breadth-first closure of the permutations under composition, raising
    GroupTooLargeError past DEFAULT_MAX_GROUP elements.

    Inverses come for free: the closure of a finite set of permutations
    under composition is already a group.
    """
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for g in gen_perms:
                q = tuple(map(g.__getitem__, p))
                if q not in seen:
                    seen.add(q)
                    new.append(q)
                    if len(seen) > DEFAULT_MAX_GROUP:
                        raise GroupTooLargeError(
                            f"closure exceeds the cap of {DEFAULT_MAX_GROUP}"
                        )
        frontier = new
    return seen


def _find(parent: list[int], i: int) -> int:
    """The root of i's class in a union-find forest, halving the path."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _join_cycles(parent: list[int], perm: Perm) -> None:
    """Merge the classes of i and perm[i] for every point perm moves; each
    class stays rooted at its least index."""
    for i, j in enumerate(perm):
        if i != j:
            a, b = _find(parent, i), _find(parent, j)
            if a != b:
                parent[max(a, b)] = min(a, b)


def _orbit_labels(n: int, perms: Iterable[Perm]) -> list[int]:
    """Classes of the equivalence generated by i ~ p[i] for every map p,
    found by union-find; each class is labelled by its least index."""
    parent = list(range(n))
    for p in perms:
        _join_cycles(parent, p)
    return [_find(parent, i) for i in range(n)]


def close_group(lattice: OrthoLattice, generators: Iterable[LatticeAutomorphism]) -> GroupAction:
    """The group the generators generate, held by them; its elements are
    listed by breadth-first closure only when read (see GroupAction)."""
    gens = list(generators)
    for g in gens:
        if g.lattice is not lattice:
            raise NotAnAutomorphismError("generator defined on a different lattice")
    return GroupAction(lattice, gens)


def automorphism_group(lattice: OrthoLattice) -> GroupAction:
    """The full group of orthocomplement-preserving lattice automorphisms,
    built from a decomposition of the lattice and searched only on the
    blocks that have no closed form.

    Applied to the lattice and, recursively, to each block and factor:

    - a Boolean lattice with k atoms has Aut = S_k: a transposition and a
      cycle of the atoms, each extended to every element through its set
      of atoms below;
    - a horizontal sum of m >= 2 summands (:func:`horizontal_summands`)
      has Aut = prod Aut(B) wr S_m over the classes of isomorphic summands,
      as every automorphism fixes 0 and 1 and permutes the summands;
    - a lattice whose center has m >= 2 atoms (:func:`direct_factors`) has
      Aut = prod Aut(F) wr S_m over the classes of isomorphic factors
      [0, z], as every automorphism permutes the atoms of the center;
    - any other lattice, irreducible and not Boolean, is searched as in
      :func:`_search_group`.  Such blocks are matched against the ones
      already searched by the two-lattice search, and an isomorphic one
      takes their group by conjugation.

    Each class contributes the generators of its first member, and for
    m >= 2 a transposition and, for m >= 3, a cycle of its members, which
    carry one member onto another by matching their listings (see
    ``_Part``).  The order is prod |Aut(B)|^m m!, and no element is
    listed; ``perms`` lists them under the default cap.  This is the
    uncoloured case of :func:`_composed`.  A lattice that
    ``lattice.load_lattice`` keeps keeps its group too, so every call on
    it returns the same object.
    """
    kept = lattice._kept
    if kept is None:
        return _composed(lattice, ())
    group = kept.get("aut")
    if group is None:
        group = kept["aut"] = _composed(lattice, ())
    return group


def _composed(lattice: OrthoLattice, sets: tuple[frozenset[int], ...]) -> GroupAction:
    """The stabilizer in Aut(L) of the index sets, as the automorphism
    group of L coloured by membership in them, composed from the
    lattice's decomposition as in :func:`automorphism_group`.

    Element i gets the bitmask of the sets that hold it; 0 and 1 get no
    colour, since every automorphism fixes them.  Each block is solved
    with the colours of its elements (see ``_Parts``), and the group keeps
    the sets as ``stabilized``.
    """
    colours = [0] * len(lattice)
    for k, members in enumerate(sets):
        for i in members:
            colours[i] |= 1 << k
    colours[lattice.bottom_index] = colours[lattice.top_index] = 0
    part = _Parts().solve(lattice, tuple(colours))
    gens = [LatticeAutomorphism(lattice, p, _checked=True) for p in part.generators]
    return GroupAction(lattice, gens, part.order, stabilized=sets)


class _Part(NamedTuple):
    """A coloured lattice's automorphism group, a key and a listing of its
    element indices such that two lattices with equal keys are isomorphic,
    colours included, by matching their listings in order."""

    order: int
    generators: list[Perm]
    key: tuple
    listing: list[int]


class _Parts(Decomposer):
    """The decomposition of one coloured lattice into the parts of
    ``_composed``, with the blocks searched so far; each block and factor
    is solved with the colours of its elements, and the part of every
    one met is kept by its shape and colours (see ``Decomposer``).

    A colouring is a tuple of ints, one per element, whose 0 and 1 are
    uncoloured; the automorphisms of a part preserve it.
    """

    def __init__(self):
        super().__init__()
        self.searched: list[tuple[OrthoLattice, tuple[int, ...], _Part]] = []

    def boolean(self, lattice: OrthoLattice, colours: tuple[int, ...]) -> _Part:
        """The Young subgroup when only atoms are coloured; otherwise the
        block is searched."""
        if any(colours):
            atoms = set(lattice.atom_indices())
            if any(c and i not in atoms for i, c in enumerate(colours)):
                return self.irreducible(lattice, colours)
        return _boolean_part(lattice, colours)

    def irreducible(self, lattice: OrthoLattice, colours: tuple[int, ...]) -> _Part:
        """The searched group, or the group of a block searched before
        carried over by an isomorphism p that maps each colour to an equal
        colour: g -> p g p^-1."""
        for known, known_colours, part in self.searched:
            if len(known) == len(lattice) and sorted(known_colours) == sorted(colours):
                search = IsomorphismSearch(known, lattice,
                                           (known_colours, colours) if any(colours) else None)
                p = next(search.leaves(search.root), None)
                if p is not None:
                    gens = []
                    for g in part.generators:
                        image = [0] * len(p)
                        for i, j in zip(p, g):
                            image[i] = p[j]
                        gens.append(tuple(image))
                    return _Part(part.order, gens, part.key, [p[k] for k in part.listing])
        group = _search_group(lattice, colours)
        part = _Part(group.order, [g.perm for g in group.generators],
                     ("searched", len(self.searched)), list(range(len(lattice))))
        self.searched.append((lattice, colours, part))
        return part

    def summed(self, lattice: OrthoLattice, summands, colours: tuple[int, ...]) -> _Part:
        """Summands as blocks: each moves its proper elements, and the
        transpositions and cycles of a class of isomorphic coloured blocks
        carry the proper elements of one block onto another's in listing
        order."""
        n = len(lattice)
        blocks = []
        for block, members in summands:
            part = self.solve(block, tuple([colours[i] for i in members]))
            ends = (block.bottom_index, block.top_index)
            proper = [members[k] for k in part.listing if k not in ends]
            blocks.append((part, members, proper))
        blocks.sort(key=lambda b: b[0].key)
        order, gens = 1, []
        for cls in _runs(blocks, lambda b: b[0].key):
            part, members, _ = cls[0]
            order *= part.order ** len(cls) * factorial(len(cls))
            for g in part.generators:
                perm = list(range(n))
                for i, j in zip(members, g):
                    perm[i] = members[j]
                gens.append(tuple(perm))
            for move in _moves(len(cls)):
                perm = list(range(n))
                for a, b in move:
                    for i, j in zip(cls[a][2], cls[b][2]):
                        perm[i] = j
                gens.append(tuple(perm))
        listing = [lattice.bottom_index, *(i for b in blocks for i in b[2]), lattice.top_index]
        return _Part(order, gens, ("sum", tuple(b[0].key for b in blocks)), listing)

    def product(self, lattice: OrthoLattice, factors, coordinates,
                colours: tuple[int, ...]) -> _Part:
        """Factors as coordinates: an element is the tuple of the listing
        positions of its coordinates, factors sorted by key, and the
        transpositions and cycles of a class move those positions from
        one factor to another.

        A coloured element below one central atom z colours the factor
        [0, z]: a factor's key is the colour of its top z and the key of
        its part, solved with z uncoloured.  When a coloured element lies
        below no single z, the colouring is no product of the factors'
        colourings, and the lattice is searched."""
        if any(colours):
            below_one = set().union(*(members for _, members in factors))
            if any(c and i not in below_one for i, c in enumerate(colours)):
                return self.irreducible(lattice, colours)
        keys, parts = [], []
        for factor, members in factors:
            inner = [colours[i] for i in members]
            top, inner[factor.top_index] = inner[factor.top_index], 0
            part = self.solve(factor, tuple(inner))
            keys.append((top, part.key))
            parts.append(part)
        by_key = sorted(range(len(factors)), key=keys.__getitem__)
        keys = [keys[j] for j in by_key]
        parts = [parts[j] for j in by_key]
        positions = []
        for part in parts:
            at = [0] * len(part.listing)
            for p, k in enumerate(part.listing):
                at[k] = p
            positions.append(at)
        points = [tuple(at[c[j]] for j, at in zip(by_key, positions)) for c in coordinates]
        element = {point: t for t, point in enumerate(points)}
        order, gens, start = 1, [], 0
        for cls in _runs(list(zip(keys, parts)), itemgetter(0)):
            part, m = cls[0][1], len(cls)
            order *= part.order ** m * factorial(m)
            for g in part.generators:
                moved = [positions[start][g[k]] for k in part.listing]
                gens.append(tuple(element[p[:start] + (moved[p[start]],) + p[start + 1:]]
                                  for p in points))
            for move in _moves(m):
                perm = []
                for p in points:
                    q = list(p)
                    for a, b in move:
                        q[start + b] = p[start + a]
                    perm.append(element[tuple(q)])
                gens.append(tuple(perm))
            start += m
        listing = sorted(range(len(lattice)), key=points.__getitem__)
        return _Part(order, gens, ("product", tuple(keys)), listing)


def _boolean_part(lattice: OrthoLattice, colours: tuple[int, ...]) -> _Part:
    """The automorphisms of a Boolean lattice whose coloured elements are
    atoms: one symmetric group on each colour class of atoms, a Young
    subgroup of S_k.  The atoms are listed by (colour, index), so each
    class is a run of positions, and element x sits at the bits of the
    positions of the atoms below it; each class of c atoms moves its run
    by a transposition of its first two and, for c >= 3, a cycle."""
    atoms = sorted(lattice.atom_indices(), key=colours.__getitem__)
    sets = [sum(1 << r for r, a in enumerate(atoms) if d >> a & 1) for d in lattice.down_masks]
    listing = [0] * len(lattice)
    for x, s in enumerate(sets):
        listing[s] = x
    order, moves, low = 1, [], 0
    for run in _runs(atoms, colours.__getitem__):
        c = len(run)
        order *= factorial(c)
        if c >= 2:  # the run's first two atoms swapped
            moves.append(lambda s, low=low: s ^ (3 << low) * ((s >> low ^ s >> low + 1) & 1))
        if c >= 3:  # atom low + r -> low + (r + 1) mod c
            mask = (1 << c) - 1 << low
            moves.append(lambda s, low=low, c=c, mask=mask:
                         s & ~mask | ((s & mask) << 1 | (s & mask) >> c - 1) & mask)
        low += c
    gens = [tuple(listing[move(s)] for s in sets) for move in moves]
    key = ("boolean", len(atoms), tuple([colours[a] for a in atoms]))
    return _Part(order, gens, key, listing)


def _runs(items: list, key) -> list[list]:
    """The runs of equal keys in a list sorted by key: the classes of
    isomorphic parts."""
    return [list(run) for _, run in groupby(items, key)]


def _moves(m: int) -> list[list[tuple[int, int]]]:
    """Permutations of the m members of a class, as (from, to) pairs,
    that generate S_m: a transposition and, for m >= 3, the cycle
    through all."""
    moves = [[(0, 1), (1, 0)]] if m >= 2 else []
    if m >= 3:
        moves.append([(a, (a + 1) % m) for a in range(m)])
    return moves


def _search_group(lattice: OrthoLattice, colours: Sequence[int]) -> GroupAction:
    """The automorphisms that preserve the colouring (one int per element,
    or none), as a strong generating set relative to a base, found by a
    search of the lattice in which each element's initial colour includes
    its colour.  ``_Parts`` runs it on the blocks it cannot compose: the
    irreducible ones, Boolean ones coloured off their atoms and products
    whose colours straddle their factors.

    The base b_1, ..., b_k individualizes elements of the search's colour
    refinement until the colouring is discrete, so only the identity fixes
    all of it.  Let G_i fix b_1, ..., b_{i-1}.  From the last level up, the
    generators found so far generate G_{i+1}; for each element c of b_i's
    colour class that their orbit of b_i does not reach, one search for an
    automorphism fixing b_1, ..., b_{i-1} with b_i -> c either fails or
    yields a new generator.  Then the generators generate G_i, b_i's orbit
    is all of G_i b_i, and |G| is the product of the orbit lengths, so no
    element is ever listed.  An uncoloured search gives the full group,
    with no set stabilized; a coloured one is held by its generators.
    """
    coloured = any(colours)
    search = IsomorphismSearch(lattice, lattice, (colours, colours) if coloured else None)
    base: list[int] = []
    cells: list[list[int]] = []  # cells[i] holds base[i] at nodes[i]
    nodes = [search.root]  # nodes[i] fixes base[:i] pointwise
    while (cell := search.branch_cell(nodes[-1])) is not None:
        base.append(cell[0])
        cells.append(cell)
        nodes.append(search.fix(nodes[-1], cell[0], cell[0]))

    found: list[LatticeAutomorphism] = []
    parent = list(range(len(lattice)))  # orbits of the generators found so far
    order = 1
    for level in reversed(range(len(base))):
        # the orbit of b under automorphisms fixing base[:level] lies in its cell
        b = base[level]
        for c in cells[level]:
            if _find(parent, c) == _find(parent, b):
                continue
            perm = next(search.leaves(search.fix(nodes[level], b, c)), None)
            if perm is not None:
                # every leaf has passed _preserves_structure
                found.append(LatticeAutomorphism(lattice, perm, _checked=True))
                _join_cycles(parent, perm)
        root = _find(parent, b)
        order *= sum(_find(parent, c) == root for c in cells[level])
    return GroupAction(lattice, found[::-1], order, stabilized=None if coloured else ())


def trivial_action(lattice: OrthoLattice) -> GroupAction:
    return GroupAction(lattice, (), 1, (tuple(range(len(lattice))),))


def orbits(action: GroupAction, subset: Iterable[str] | None = None) -> list[Orbit]:
    """Orbit partition of the subset (default: all elements), canonical order.

    Each orbit is listed whole, represented by its first subset member.
    """
    lattice = action.lattice
    pool = list(subset) if subset is not None else list(lattice.elements)
    pool_idx = sorted({lattice.index(e) for e in pool})
    labels = action.orbit_labels()
    members: dict[int, list[str]] = {}
    for e, label in zip(lattice.elements, labels):
        members.setdefault(label, []).append(e)
    out = []
    for i in pool_idx:
        orbit = members.pop(labels[i], None)
        if orbit is not None:
            out.append(Orbit(lattice.elements[i], tuple(orbit)))
    return out


def orbit_of(action: GroupAction, name: str) -> tuple[str, ...]:
    labels = action.orbit_labels()
    label = labels[action.lattice.index(name)]
    return tuple(e for e, k in zip(action.lattice.elements, labels) if k == label)


def stabilizer(action: GroupAction, name: str) -> GroupAction:
    return normalizer(action, [name])


def normalizer(action: GroupAction, members: Iterable[str]) -> GroupAction:
    """Subgroup of elements mapping the set onto itself.

    In the full group or a normalizer in it (the stabilizer in Aut(L) of
    the sets it remembers) this is the stabilizer of those sets and the
    new one, composed from the lattice's blocks coloured by membership
    (:func:`_composed`): only the blocks with no closed form are searched,
    nothing is listed, and nested normalizers stay exact.  A group given
    by generators is listed, under DEFAULT_MAX_GROUP, and the list is
    filtered; the result's generators are all of its elements.
    """
    lattice = action.lattice
    target = frozenset(lattice.index(e) for e in members)
    if action.stabilized is not None:
        return _composed(lattice, action.stabilized + (target,))
    perms = [p for p in action.perms if {p[i] for i in target} == target]
    gens = [LatticeAutomorphism(lattice, p, _checked=True) for p in perms]
    return GroupAction(lattice, gens, len(perms), perms)


def quotient_map_injective(action: GroupAction, members: Iterable[str]) -> bool:
    """Distinct normalizer orbits inside the set land in distinct full
    orbits: no two of their representatives share an orbit label."""
    members = list(members)
    classes = orbits(normalizer(action, members), members)
    labels, index = action.orbit_labels(), action.lattice.index
    return len({labels[index(orb.representative)] for orb in classes}) == len(classes)


def generating_subset(action: GroupAction) -> list[LatticeAutomorphism]:
    """The action's generators without the identity and repeats: for the
    full group those of its decomposition (``automorphism_group``), for a
    normalizer those of its coloured decomposition, for a closed group the
    given ones."""
    identity = tuple(range(len(action.lattice)))
    have = {identity}
    gens: list[LatticeAutomorphism] = []
    for g in action.generators:
        if g.perm not in have:
            have.add(g.perm)
            gens.append(g)
    return gens


# --- file format -----------------------------------------------------------------


def load_group(path, lattice: OrthoLattice) -> GroupAction:
    """Read {"generators": [{elem: elem, ...}, ...]}: the group they
    generate, held by them (``close_group``).

    Every image must name an element; the map of each generator is then
    checked to be an automorphism.
    """
    data = read_json(path)
    if not isinstance(data, dict) or set(data) != {"generators"}:
        raise SchemaError('group file must be {"generators": [...]}')
    raw = data["generators"]
    if not isinstance(raw, list) or not all(isinstance(g, dict) for g in raw):
        raise SchemaError("'generators' must be a list of element maps")
    for g in raw:
        for e, image in g.items():
            if not isinstance(image, str) or image not in lattice:
                raise SchemaError(f"generator maps {e!r} to {image!r}, which is not an element")
    gens = [LatticeAutomorphism.from_mapping(lattice, g) for g in raw]
    return close_group(lattice, gens)


def save_group(action: GroupAction, path) -> None:
    data = {"generators": [g.mapping for g in generating_subset(action)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
