"""Finite orthocomplemented lattices: construction, validation, interrogation.

Elements are identified by strings; the element order given at construction
time is canonical and every scan, witness, and report iterates in that order.
Internally the order relation is kept once, as each element's down-set, a
bitmask over element indices and again over the positions of a topological
order.  No up-set, meet or join is stored: the meet of two elements is the
element at the highest position of their common down-set, one AND and one
bit scan, and since the orthocomplement reverses the order, the up-set of
x is the down-set of x' read through it and x v y = (x' ^ y')'.
The constructors write these masks themselves.  Building from a
description, as a file is loaded, puts the elements in a topological
order of the given pairs, closes the order in one pass over it, and
proves that every pair has a meet by checking only pairs of lower covers
of a common element, so a description costs O(pairs + covered pairs)
big-int operations and writes nothing quadratic, whether it is accepted
or rejected: each check that fails names the fault from what it holds.

After construction an instance changes only by keeping answers asked of
it (see :class:`OrthoLattice`), and it is safe to share between readers:
``load_lattice`` hands one lattice out again for repeated loads of the
same bytes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
from array import array
from collections import Counter
from functools import partial
from heapq import heapify, heappop, heappush
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    BadOrthocomplementError,
    IsotropicFormError,
    NotALatticeError,
    NotAPartialOrderError,
    SchemaError,
    SizeCapError,
)

# Only build_lattice and load_lattice take the element cap as a parameter
# (--max-elements); the constructors check this constant.
DEFAULT_MAX_ELEMENTS = 4096
# The most files whose bytes load_lattice remembers, so as to keep the
# lattice of a file read again; the lattices kept also hold at most
# DEFAULT_MAX_ELEMENTS elements together.
LOADED_LATTICES = 32


class CheckResult(NamedTuple):
    """Outcome of an exhaustive check; ``witness`` names the first failure."""

    ok: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


class VerificationReport(NamedTuple):
    """Named sub-checks of the orthocomplemented-lattice axioms."""

    checks: dict[str, CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def __bool__(self) -> bool:
        return self.ok


class LatticeDescription(NamedTuple):
    """Ingestion form of a lattice: order pairs plus the complement map.

    ``leq_pairs`` may be any generating set of the order relation; the
    reflexive-transitive closure is computed by :func:`build_lattice`.
    ``orthocomplement`` defaults to an empty read-only mapping, so no two
    descriptions share a mutable default.
    """

    name: str
    elements: tuple[str, ...]
    leq_pairs: tuple[tuple[str, str], ...]
    orthocomplement: Mapping[str, str] = MappingProxyType({})

    @classmethod
    def from_json_dict(cls, data: dict) -> "LatticeDescription":
        if not isinstance(data, dict):
            raise SchemaError("lattice file must contain a JSON object")
        allowed = {"name", "elements", "leq", "orthocomplement"}
        unknown = set(data) - allowed
        if unknown:
            raise SchemaError(f"unknown keys in lattice file: {sorted(unknown)}")
        for key in ("elements", "leq", "orthocomplement"):
            if key not in data:
                raise SchemaError(f"lattice file missing key {key!r}")
        # each check is one map of isinstance or len, run in C; ``text``
        # never runs out, so every map shares it
        text = itertools.repeat(str)
        elements = data["elements"]
        if not isinstance(elements, list) or not all(map(isinstance, elements, text)):
            raise SchemaError("'elements' must be a list of strings")
        pairs = data["leq"]
        if not (isinstance(pairs, list) and all(map(isinstance, pairs, itertools.repeat(list)))
                and set(map(len, pairs)) <= {2}
                and all(map(isinstance, itertools.chain.from_iterable(pairs), text))):
            raise SchemaError("'leq' must be a list of [str, str] pairs")
        orth = data["orthocomplement"]
        if not (isinstance(orth, dict) and all(map(isinstance, orth, text))
                and all(map(isinstance, orth.values(), text))):
            raise SchemaError("'orthocomplement' must map strings to strings")
        name = data.get("name", "")
        if not isinstance(name, str):
            raise SchemaError("'name' must be a string")
        return cls(name, tuple(elements), tuple(map(tuple, pairs)), dict(orth))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "elements": list(self.elements),
            "leq": [[a, b] for a, b in self.leq_pairs],
            "orthocomplement": dict(self.orthocomplement),
        }


class OrthoLattice:
    """A validated finite orthocomplemented lattice.

    Use :func:`load_lattice` (through :func:`build_lattice`) or one of the
    constructors below; the raw constructor assumes already-validated
    data.  The constructors vouch for the masks they write: ``boolean``,
    ``mo``, ``benzene`` and ``subspace_lattice`` write them in closed
    form, and ``product`` and ``horizontal_sum`` compose them from their
    parts' masks, as a product or a horizontal sum of ortholattices is
    again an ortholattice (Kalmbach, *Orthomodular Lattices*, 1983).
    ``down_masks`` holds each element's down-set as bits over element
    indices; ``order`` lists the element indices in some linear extension
    of the order, which one is up to the constructor and no answer
    depends on it, and ``down_pos`` holds the same sets as bits over
    positions in it.  Every element of a down-set sits at a lower
    position than its maximum, so the meet of i and j is the element at
    the highest set bit of ``down_pos[i] & down_pos[j]``.  Up-sets are
    not kept: the orthocomplement ``orth_map`` reverses the order, so
    x <= y exactly when y' <= x', the up-set of x is the down-set of x'
    read through ``orth_map``, and the join of i and j is the
    orthocomplement of the meet of i' and j'.  These index-level fields
    are part of the API for sibling modules that run exhaustive scans.
    Nothing changes after construction but the answers kept on first
    request: whether it is Boolean (:func:`is_boolean`) and how it splits
    (:func:`decomposition`).  While the table of :func:`load_lattice`
    holds a lattice, ``_kept`` is a dict that also keeps its automorphism
    group (``symmetry.automorphism_group``) and its measure module, plain
    and under that group (``measures.measure_module``); the table empties
    it to None when it drops the lattice.  Those answers point back at
    the lattice, so keeping them on every lattice, the blocks that a
    decomposition builds included, would leave each one in a reference
    cycle that only the cyclic collector frees.
    """

    __slots__ = (
        "name",
        "elements",
        "_index",
        "down_masks",
        "orth_map",
        "order",
        "down_pos",
        "bottom_index",
        "top_index",
        "_boolean",
        "_split",
        "_kept",
    )

    def __init__(self, name, elements, down_masks, orth_map, order, down_pos):
        self.name = name
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.down_masks = tuple(down_masks)
        self.orth_map = tuple(orth_map)
        self.order = tuple(order)
        self.down_pos = tuple(down_pos)
        # a lattice's only minimal element is its bottom, its only maximal its top
        self.bottom_index = self.order[0]
        self.top_index = self.order[-1]
        self._boolean = None  # decided by is_boolean on its first call
        self._split = None  # decided by decomposition on its first call
        self._kept = None  # a dict while load_lattice's table holds the lattice

    # --- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        label = self.name or "lattice"
        return f"<OrthoLattice {label}: {len(self)} elements>"

    def index(self, name: str) -> int:
        return self._index[name]

    @property
    def bottom(self) -> str:
        return self.elements[self.bottom_index]

    @property
    def top(self) -> str:
        return self.elements[self.top_index]

    def leq(self, a: str, b: str) -> bool:
        return bool(self.down_masks[self._index[b]] >> self._index[a] & 1)

    def leq_index(self, i: int, j: int) -> bool:
        return bool(self.down_masks[j] >> i & 1)

    def meet_index(self, i: int, j: int) -> int:
        return self.order[(self.down_pos[i] & self.down_pos[j]).bit_length() - 1]

    def join_index(self, i: int, j: int) -> int:
        """(i' ^ j')': the orthocomplement reverses the order."""
        orth, down_pos = self.orth_map, self.down_pos
        return orth[self.order[(down_pos[orth[i]] & down_pos[orth[j]]).bit_length() - 1]]

    def meet(self, a: str, b: str) -> str:
        return self.elements[self.meet_index(self._index[a], self._index[b])]

    def join(self, a: str, b: str) -> str:
        return self.elements[self.join_index(self._index[a], self._index[b])]

    def orthocomplement(self, a: str) -> str:
        return self.elements[self.orth_map[self._index[a]]]

    def orthogonal(self, a: str, b: str) -> bool:
        """b <= a-orthocomplement."""
        i, j = self._index[a], self._index[b]
        return self.leq_index(j, self.orth_map[i])

    def atom_indices(self) -> list[int]:
        """The covers of the bottom, ascending: the orthocomplements of the
        lower covers of the top."""
        return sorted(self.orth_map[c]
                      for c in _lower_covers(self.order, self.down_pos, self.top_index))

    def orthogonal_index_pairs(self) -> Iterator[tuple[int, int]]:
        """Index pairs (i, j) with i <= j and j <= i', i ascending, then j.

        The j of one i are the set bits of the down-set of i', from bit i
        up, so the walk costs one step per orthogonal pair rather than one
        order test per index pair.
        """
        for i, o in enumerate(self.orth_map):
            rest = self.down_masks[o] >> i << i
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                yield i, j

    def cover_masks(self) -> list[int]:
        """covers[i] = bitmask of elements covering i: the orthocomplements
        of the lower covers of i'."""
        orth = self.orth_map
        return [sum(1 << orth[c] for c in _lower_covers(self.order, self.down_pos, o))
                for o in orth]

    def to_description(self) -> LatticeDescription:
        """Export with the cover relation as the order generating set."""
        covers = self.cover_masks()
        pairs = []
        for i, mask in enumerate(covers):
            rest = mask
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                pairs.append((self.elements[i], self.elements[j]))
        orth = {e: self.elements[self.orth_map[i]] for i, e in enumerate(self.elements)}
        return LatticeDescription(self.name, self.elements, tuple(pairs), orth)


def same_lattice(a: OrthoLattice, b: OrthoLattice) -> bool:
    """Structural equality: same elements, order, and orthocomplement."""
    return a is b or (
        a.elements == b.elements
        and a.down_masks == b.down_masks
        and a.orth_map == b.orth_map
    )


def build_lattice(desc: LatticeDescription, max_elements: int = DEFAULT_MAX_ELEMENTS) -> OrthoLattice:
    """Validate a description and construct the lattice.

    The elements are first put in a linear extension of the order: Kahn's
    topological sort of the given pairs, which leaves elements unsorted
    exactly when the pairs close into a cycle.  One pass forwards over the
    order closes the down-sets (x with the down-sets of the elements given
    below x), over element indices and over positions in the order, one
    big-int OR per given pair and mask; one pass in reverse closes the
    up-sets over positions, which only the complement laws read.

    Every element of a down-set sits at a lower position than its
    maximum, so if the lower bounds of a pair have a greatest element, it is
    the one at the highest set bit of their down-sets' AND; one equality
    check (its down-set is the whole bound set) decides whether the meet
    exists.  Only a few pairs need that check (:func:`_is_lattice`), by
    this lemma: a finite poset with a top in which any two distinct lower
    covers of a common element have a meet has every meet.

    Proof.  Take x and y and a common upper bound z (the top is one), and
    induct on the size of the down-set of z.  If z is x or y, the meet is
    the other.  Otherwise pick lower covers x1 >= x and y1 >= y of z.  If
    x1 = y1, it is a common upper bound with a smaller down-set.  Else
    w = x1 ^ y1 exists; u = x ^ w exists by induction at x1, an upper bound
    of x and w; and v = y ^ u exists by induction at y1, an upper bound of
    y and u.  Every lower bound of x and y lies below w, then u, then v,
    and v <= y, v <= u <= x, so v = x ^ y.

    So the scan first proves a single minimal and a single maximal
    element, which in a finite poset are the bottom and the top.  Then it
    checks the pairs of distinct lower covers of each element, skipping a
    pair that holds an atom: an atom's only other lower bound is the
    bottom, and two covers of one element are incomparable, so the meet
    is the bottom.  MO(n) has no pair left to check, boolean(12) 67 518 of
    its 8.4 million, and nothing is written.

    Joins need no check of their own once the orthocomplement is an
    order-reversing involution: then z >= x, y exactly when z' <= x', y',
    so x v y = (x' ^ y')', as :meth:`OrthoLattice.join_index` takes it.
    So does the join half of the complement laws, x v x' = (x' ^ x)' =
    0' = 1, but it is checked too, one AND of position up-sets per
    element, so that an involution that breaks it is named by it rather
    than by order reversal.  Order reversal is checked on the given pairs
    only: reversing a generating relation reverses its transitive closure.

    Each check raises as soon as it fails, naming the fault from what it
    holds, in this order: a duplicate element (the first, in file order,
    that occurs more than once); a pair naming an unknown element; a cycle
    (stepping down from the first unsorted element, by index, to its
    first unsorted given lower neighbour until an element x repeats;
    x <= y <= x for the y stepped to from x); a missing meet or join
    (:func:`_is_lattice`); a missing or unknown image, then an image of
    no element; the lowest element that fails the involution, then the
    complement laws; the first given pair (a, b), a by index and b in
    file order, with b' not below a'.  A rejection costs no more than an
    acceptance, and neither reaches :func:`verify_ortho`.

    So a returned lattice satisfies every axiom :func:`verify_ortho`
    checks.  The ``check`` command relies on this: it reports those axioms
    for a file that :func:`load_lattice` accepted without checking any of
    them again.  Only descriptions read from files come through here
    (:func:`load_lattice`); the constructors write their masks directly.
    """
    elements = desc.elements
    n = len(elements)
    if n == 0:
        raise NotALatticeError("a lattice needs at least one element")
    _refuse_oversize(n, max_elements)
    index = {e: i for i, e in enumerate(elements)}
    _refuse_duplicates(elements, index)

    above = [[] for _ in range(n)]  # given strict upper neighbours
    below = [[] for _ in range(n)]
    for a, b in desc.leq_pairs:
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise SchemaError(f"leq pair references unknown element {missing!r}")
        i, j = index[a], index[b]
        if i != j:
            above[i].append(j)
            below[j].append(i)

    unplaced = [len(lower) for lower in below]
    order = [i for i in range(n) if not unplaced[i]]
    for i in order:  # grows while it is read
        for j in above[i]:
            unplaced[j] -= 1
            if not unplaced[j]:
                order.append(j)
    if len(order) < n:
        # an unsorted element keeps an unsorted given lower neighbour, so
        # the steps down end in a loop
        step = {}
        i = next(i for i in range(n) if unplaced[i])
        while i not in step:
            step[i] = next(j for j in below[i] if unplaced[j])
            i = step[i]
        raise NotAPartialOrderError(
            f"cycle: {elements[i]!r} <= {elements[step[i]]!r} <= {elements[i]!r}"
        )

    # down: bits over indices; down_pos, up_pos (for x v x' = 1 only): over positions
    up_pos = [0] * n
    for p in range(n - 1, -1, -1):
        mask_pos = 1 << p
        for j in above[order[p]]:
            mask_pos |= up_pos[j]
        up_pos[order[p]] = mask_pos
    down = [0] * n
    down_pos = [0] * n
    for p, i in enumerate(order):
        mask, mask_pos = 1 << i, 1 << p
        for j in below[i]:
            mask |= down[j]
            mask_pos |= down_pos[j]
        down[i], down_pos[i] = mask, mask_pos

    failure = _is_lattice(above, below, order, down_pos)
    if failure is not None:
        kind, i, j = failure
        raise NotALatticeError(f"{elements[i]!r} and {elements[j]!r} have no {kind}")

    # None marks a missing or unknown image
    orth = [index.get(desc.orthocomplement.get(e)) for e in elements]
    if None in orth:
        e = elements[orth.index(None)]
        img = desc.orthocomplement.get(e)
        if img is None:
            raise BadOrthocomplementError(f"no orthocomplement given for {e!r}")
        raise SchemaError(f"orthocomplement references unknown element {img!r}")
    if len(desc.orthocomplement) != n:
        extra = set(desc.orthocomplement) - index.keys()
        raise SchemaError(f"orthocomplement keys not in elements: {sorted(extra)}")
    # in a lattice position 0 holds the bottom and position n - 1 the top,
    # so x ^ x' = 0 reads as a common down-set of the bottom alone, and
    # x v x' = 1 as a common up-set of the top alone
    top = 1 << n - 1
    for i, o in enumerate(orth):
        if orth[o] != i:
            raise BadOrthocomplementError(f"involution fails at {elements[i]!r}")
        if down_pos[i] & down_pos[o] != 1 or up_pos[i] & up_pos[o] != top:
            raise BadOrthocomplementError(f"complement laws fail at {elements[i]!r}")
    for i, o in enumerate(orth):
        for j in above[i]:
            if not down[o] >> orth[j] & 1:
                raise BadOrthocomplementError(
                    f"order reversal fails on ({elements[i]!r}, {elements[j]!r})")
    return OrthoLattice(desc.name, elements, down, orth, order, down_pos)


def _refuse_oversize(n: int, max_elements: int) -> None:
    if n > max_elements:
        raise SizeCapError(f"{n} elements exceeds the cap of {max_elements}")


def _refuse_duplicates(elements: Sequence[str], index: Mapping[str, int]) -> None:
    """SchemaError naming the first element, in listed order, that occurs
    more than once, when ``index`` (name to index) has fewer names than
    ``elements``."""
    if len(index) != len(elements):
        count = Counter(elements)
        dup = next(e for e in elements if count[e] > 1)
        raise SchemaError(f"duplicate element identifier {dup!r}")


def _is_lattice(above, below, order, down_pos) -> tuple[str, int, int] | None:
    """None when the order is a lattice, else the first failure found, as
    ``(kind, i, j)``: elements i < j whose lower bounds have no greatest
    element (``kind`` "meet") or whose upper bounds have no least one
    ("join").

    By the lemma at :func:`build_lattice`, the order is a lattice exactly
    when it has a single minimal element, a single maximal one, and a meet
    for every two distinct non-atoms that are lower covers of a common
    element.  These are checked in turn: two minimal elements, the first
    two by index, have no meet; two maximal ones no join; and then the
    first pair of non-atom lower covers without a meet is named, by the
    lower cover z's index, then the pair's positions.

    The minimal elements are those given no lower neighbour, the maximal
    ones those given no upper neighbour.  The lower covers of z are peeled
    off its down-set (:func:`_lower_covers`).  A pair's meet is checked as
    in a full scan: the lower bounds' element at their highest position
    must have them all as its down-set.
    """
    for kind, given in (("meet", below), ("join", above)):
        ends = [i for i, near in enumerate(given) if not near][:2]
        if len(ends) == 2:
            return kind, *ends
    down_at = [down_pos[i] for i in order]
    for z, given in enumerate(below):
        if len(given) < 2:
            continue
        # the non-atoms among the lower covers, by position; an atom's
        # down-set has 2 bits
        covers = [x for x in _lower_covers(order, down_pos, z) if down_pos[x].bit_count() > 2]
        covers.reverse()
        for p, x in enumerate(covers):
            d = down_pos[x]
            for y in covers[p + 1:]:
                lb = d & down_pos[y]
                if down_at[lb.bit_length() - 1] != lb:
                    return "meet", min(x, y), max(x, y)
    return None


# --- file format --------------------------------------------------------------


def read_json(path):
    """The JSON value in the file at ``path``: the one reader of every input
    file but lattices, which :func:`load_lattice` reads through the same
    two steps.  A file that is not UTF-8 JSON raises SchemaError naming the
    path."""
    return _json_value(_read_bytes(path), path)


def _read_bytes(path) -> bytes:
    """The file's bytes, read once."""
    with open(path, "rb") as fh:
        return fh.read()


def _json_value(data: bytes, path):
    """The JSON value of a file's bytes, decoded strictly as UTF-8
    (``json.loads`` on bytes would take UTF-16 and UTF-32 too), with line
    ends translated as a text-mode read does, so an error names the same
    position."""
    try:
        return json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    # ValueError: malformed JSON, bytes that are not UTF-8, or an int past
    # the int-to-str digit limit; RecursionError: nesting too deep
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


# The files load_lattice read lately, by the SHA-256 of their bytes, least
# recently loaded first: each maps to its lattice once loaded twice, to None
# before (see load_lattice).  Each read or update of the table holds the
# lock, as threads may load at once.
_LOADED: dict[bytes, OrthoLattice | None] = {}
_LOADED_LOCK = threading.Lock()


def load_lattice(path, max_elements: int = DEFAULT_MAX_ELEMENTS, digest=None) -> OrthoLattice:
    """The lattice in the file at ``path``.  The file is read once, as
    bytes, and ``digest``, a callable, is given the hex SHA-256 of those
    bytes if given, so a report can name the very input it parsed.

    The table remembers the last :data:`LOADED_LATTICES` files loaded by
    that SHA-256.  From the second load of the same bytes on, it keeps
    the lattice and returns it again, the same object with the answers
    kept on it (see :class:`OrthoLattice`), after the size check of
    :func:`build_lattice`.  A file read once keeps nothing, so a process
    that asks one question of each file builds no more than it uses.
    The least recently loaded file goes first, also while the kept
    lattices hold more than DEFAULT_MAX_ELEMENTS elements in all; a
    larger lattice and a file that fails to load are not remembered.
    """
    data = _read_bytes(path)
    sha = hashlib.sha256(data)
    if digest is not None:
        digest(sha.hexdigest())
    key = sha.digest()
    with _LOADED_LOCK:
        seen = key in _LOADED
        lattice = _LOADED.get(key)
    if lattice is None:
        lattice = build_lattice(LatticeDescription.from_json_dict(_json_value(data, path)),
                                max_elements)
    else:
        _refuse_oversize(len(lattice), max_elements)
    if len(lattice) <= DEFAULT_MAX_ELEMENTS:
        with _LOADED_LOCK:
            _LOADED.pop(key, None)  # the most recent again
            _LOADED[key] = lattice if seen else None
            if seen and lattice._kept is None:
                lattice._kept = {}
            while (len(_LOADED) > LOADED_LATTICES
                   or sum(len(kept) for kept in _LOADED.values() if kept is not None)
                   > DEFAULT_MAX_ELEMENTS):
                dropped = _LOADED.pop(next(iter(_LOADED)))
                if dropped is not None:
                    # its answers point back at it: dropping them frees it
                    # by reference count once no caller holds it
                    dropped._kept = None
    return lattice


def save_lattice(lattice: OrthoLattice, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lattice.to_description().to_json_dict(), fh, indent=2)
        fh.write("\n")


# --- constructors ---------------------------------------------------------------


def boolean(n: int) -> OrthoLattice:
    """Power-set lattice of an n-point set; complement is set complement.

    Elements are named by membership bitstrings ("010" is the atom of point 1),
    ordered by (popcount, numeric value), so bottom comes first and top last.
    That order is a linear extension, so positions are indices, and each
    down-set is the element's own bit with the down-sets of its lower
    covers, the sets with one point fewer.  Raises SizeCapError when 2^n
    exceeds DEFAULT_MAX_ELEMENTS.
    """
    if n < 1:
        raise ValueError("boolean lattice needs n >= 1")
    if n > 20 or 2 ** n > DEFAULT_MAX_ELEMENTS:
        raise SizeCapError(f"2^{n} elements exceeds the cap of {DEFAULT_MAX_ELEMENTS}")
    masks = sorted(range(2 ** n), key=lambda m: (m.bit_count(), m))
    full = 2 ** n - 1

    name = ["".join("1" if m >> i & 1 else "0" for i in range(n)) for m in range(full + 1)]
    index = [0] * (full + 1)
    for k, m in enumerate(masks):
        index[m] = k
    down = []
    for k, m in enumerate(masks):
        d = 1 << k
        for i in _bits(m):
            d |= down[index[m ^ 1 << i]]
        down.append(d)
    down = tuple(down)
    return OrthoLattice(f"boolean({n})", [name[m] for m in masks], down,
                        [index[m ^ full] for m in masks], range(full + 1), down)


def _flat(name: str, elements: Sequence[str], orth: Sequence[int]) -> OrthoLattice:
    """The lattice of ``elements``, listed bottom first and top last, in
    which every other element is an atom: MO-shaped, or the chain 0 < 1
    when there are two.  Listed so, positions are indices."""
    top = len(elements) - 1
    down = (1, *(1 | 1 << k for k in range(1, top)), (1 << top + 1) - 1)
    return OrthoLattice(name, elements, down, orth, range(top + 1), down)


def mo(n: int) -> OrthoLattice:
    """The lattice with n orthocomplementary atom pairs glued at 0 and 1.

    Orthomodular for every n; distributive only for n = 1.  Raises
    SizeCapError when its 2n + 2 elements exceed DEFAULT_MAX_ELEMENTS.
    """
    if n < 1:
        raise ValueError("mo(n) needs n >= 1")
    if 2 * n + 2 > DEFAULT_MAX_ELEMENTS:
        raise SizeCapError(f"{2 * n + 2} elements exceeds the cap of {DEFAULT_MAX_ELEMENTS}")
    atoms = []
    for i in range(1, n + 1):
        atoms.extend([f"a{i}", f"a{i}'"])
    # a{i} sits at index 2i - 1 and a{i}' at 2i
    orth = [2 * n + 1, *(k + 1 if k % 2 else k - 1 for k in range(1, 2 * n + 1)), 0]
    return _flat(f"mo({n})", ("0", *atoms, "1"), orth)


def benzene() -> OrthoLattice:
    """The 6-element orthocomplemented, non-orthomodular lattice.

    Two chains 0 < a < b < 1 and 0 < b' < a' < 1 with a' and b' the
    orthocomplements of a and b.
    """
    # listed in a linear extension of the order, so positions are indices
    down = (0b1, 0b11, 0b111, 0b1001, 0b11001, 0b111111)
    return OrthoLattice("benzene", ("0", "a", "b", "b'", "a'", "1"), down,
                        (5, 4, 3, 2, 1, 0), range(6), down)


def subspace_lattice(q: int, n: int, form: tuple[int, ...]) -> OrthoLattice:
    """Lattice of subspaces of F_q^n with the form-orthogonal complement.

    ``form`` lists the diagonal coefficients of the bilinear form.  The form
    must be anisotropic (no nonzero self-orthogonal vector), which is exactly
    what makes the orthogonality map a genuine orthocomplementation;
    violations raise IsotropicFormError naming the first isotropic vector in
    lexicographic order.  That vector has first nonzero entry 1 (dividing by
    its leading entry would move it earlier), so only such vectors are
    scanned, in lexicographic order.  For n >= 3 one of the q^2 + q + 1 of
    them that vary only the last three coordinates is isotropic
    (Chevalley-Warning: a quadratic form in more variables than its degree
    has a nontrivial zero), so only n <= 2 passes.

    What passes is built in closed form: n = 1 gives the chain 0 < 1, and
    n = 2 gives 0, the q + 1 lines <0,1>, <1,0>, ..., <1,q-1> and 1, which
    is MO((q + 1) / 2).  The complement of the line spanned by p is the line
    spanned by (b p_1, -a p_0) for the form (a, b), scaled so that its first
    nonzero entry is 1.  Raises SizeCapError when the q + 3 subspaces exceed
    DEFAULT_MAX_ELEMENTS.
    """
    if n < 1 or len(form) != n:
        raise ValueError("form must list one diagonal coefficient per dimension")
    if not _is_prime(q):
        raise ValueError(f"q={q} is not prime (prime fields only)")
    coeffs = [c % q for c in form]
    for lead in range(n - 1, -1, -1):
        for rest in itertools.product(range(q), repeat=n - 1 - lead):
            v = (0,) * lead + (1,) + rest
            if sum(c * x * x for c, x in zip(coeffs, v)) % q == 0:
                raise IsotropicFormError(f"isotropic vector {v} over F_{q}")

    size = q + 3 if n == 2 else 2
    if size > DEFAULT_MAX_ELEMENTS:
        raise SizeCapError(f"{size} subspaces exceeds the cap")
    lines = [(0, 1), *((1, x) for x in range(q))] if n == 2 else []
    # <0,1> sits at index 1 and <1,x> at x + 2
    orth = [size - 1]
    for p0, p1 in lines:
        u, v = coeffs[1] * p1 % q, -coeffs[0] * p0 % q
        orth.append(v * pow(u, q - 2, q) % q + 2 if u else 1)
    orth.append(0)
    names = [f"<{p0},{p1}>" for p0, p1 in lines]
    return _flat(f"subspaces(F_{q}^{n})", ("0", *names, "1"), orth)


def _is_prime(q):
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def product(a: OrthoLattice, b: OrthoLattice) -> OrthoLattice:
    """Componentwise product lattice; elements are named "(x,y)", x-major.

    (x, y) has index x |b| + y, and its down-set is the product of x's and
    y's: x's mask with bit u spread to bit u |b|, times y's mask, since
    the copies of y's mask shifted by multiples of |b| never overlap.
    The order is lexicographic in (x's position, y's position), a linear
    extension, and its masks are made the same way.  Raises SizeCapError
    when |a| |b| exceeds DEFAULT_MAX_ELEMENTS, and SchemaError when two
    names coincide.
    """
    if len(a) * len(b) > DEFAULT_MAX_ELEMENTS:
        raise SizeCapError("product exceeds the element cap")
    nb = len(b)
    names = [f"({x},{y})" for x in a.elements for y in b.elements]
    _refuse_duplicates(names, dict.fromkeys(names))

    unit = [1 << u * nb for u in range(len(a))]

    def spread(masks):
        return [sum(map(unit.__getitem__, _bits(m))) for m in masks]

    return OrthoLattice(
        f"product({a.name},{b.name})", names,
        [s * m for s in spread(a.down_masks) for m in b.down_masks],
        [ox * nb + oy for ox in a.orth_map for oy in b.orth_map],
        [x * nb + y for x in a.order for y in b.order],
        [s * m for s in spread(a.down_pos) for m in b.down_pos])


def horizontal_sum(a: OrthoLattice, b: OrthoLattice) -> OrthoLattice:
    """Glue two orthocomplemented lattices at a shared bottom and top.

    Proper elements keep their own order and orthocomplement and are
    incomparable across the two summands.  Elements are "0", a's proper
    elements as "a:x", b's as "b:y", each in its summand's index order,
    and "1"; the order is 0, a's proper elements in a's order, b's in
    b's, then 1.  Raises SizeCapError when the sum's elements exceed
    DEFAULT_MAX_ELEMENTS.
    """
    proper_a = [i for i in range(len(a)) if i not in (a.bottom_index, a.top_index)]
    proper_b = [i for i in range(len(b)) if i not in (b.bottom_index, b.top_index)]
    n = len(proper_a) + len(proper_b) + 2
    if n > DEFAULT_MAX_ELEMENTS:
        raise SizeCapError("horizontal sum exceeds the element cap")
    elements = ["0"]
    down = [1]
    down_pos = [1]
    orth = [n - 1]
    order = [0]
    for side, lat, proper in (("a", a, proper_a), ("b", b, proper_b)):
        start = len(elements)
        # a proper element's down-set holds the summand's bottom, not its top
        glued = {i: start + k for k, i in enumerate(proper)}
        bit = {i: 1 << k for i, k in glued.items()}
        bit[lat.bottom_index] = 1
        pos_bit = {i: 1 << start + p for p, i in enumerate(lat.order[1:-1])}
        pos_bit[lat.bottom_index] = 1
        masks, masks_pos = _moved([lat.down_masks[i] for i in proper], bit, pos_bit)
        elements += [f"{side}:{lat.elements[i]}" for i in proper]
        down += masks
        down_pos += masks_pos
        orth += [glued[lat.orth_map[i]] for i in proper]
        order += [glued[i] for i in lat.order[1:-1]]
    full = (1 << n) - 1
    return OrthoLattice(f"hsum({a.name},{b.name})", [*elements, "1"], [*down, full],
                        [*orth, 0], [*order, n - 1], [*down_pos, full])


# --- verification and classification -------------------------------------------


def verify_ortho(lattice: OrthoLattice) -> VerificationReport:
    """Exhaustively verify every orthocomplemented-lattice axiom.

    :func:`build_lattice` proves all of them on every description it
    accepts, and names the fault of every one it rejects, without calling
    this, so the ``check`` command never does.  It is the oracle the tests
    run on what the constructors return, :func:`_induced`'s summands and
    factors among them, all of which bypass :func:`build_lattice`.  It
    reads the order off ``down_masks`` and transposes it into up-sets
    itself.
    """
    up = _transposed(lattice.down_masks)
    checks = {
        "partial_order": _check_partial_order(lattice),
        "bounds": _check_bounds(lattice, up),
        "meet_join_tables": _check_meets_and_joins(lattice, up),
        "involution": _check_involution(lattice),
        "complement": _check_complement(lattice, up),
        "order_reversal": _check_order_reversal(lattice, up),
    }
    checks["de_morgan"] = _check_de_morgan(lattice, up, checks)
    return VerificationReport(checks)


def _transposed(down: Sequence[int]) -> list[int]:
    """The up-sets of the given down-sets, as bits over element indices."""
    up = [0] * len(down)
    for j, d in enumerate(down):
        for i in _bits(d):
            up[i] |= 1 << j
    return up


def _check_partial_order(lattice: OrthoLattice) -> CheckResult:
    """Reflexive, transitive and antisymmetric; the witness is the first
    element j, by index, whose down-set misses j, or the first i below it
    whose down-set is not inside j's or holds j."""
    elements, down = lattice.elements, lattice.down_masks
    for j, d in enumerate(down):
        if not d >> j & 1:
            return CheckResult(False, (elements[j],))
        for i in _bits(d ^ 1 << j):
            if down[i] | d != d or down[i] >> j & 1:
                return CheckResult(False, (elements[i], elements[j]))
    return CheckResult(True)


def _check_bounds(lattice: OrthoLattice, up: list[int]) -> CheckResult:
    full = (1 << len(lattice)) - 1
    if up[lattice.bottom_index] != full or lattice.down_masks[lattice.top_index] != full:
        return CheckResult(False, (lattice.bottom, lattice.top))
    return CheckResult(True)


def _check_meets_and_joins(lattice: OrthoLattice, up: list[int]) -> CheckResult:
    """Compares the meet and join of every pair i <= j, as
    :meth:`OrthoLattice.meet_index` and :meth:`OrthoLattice.join_index`
    give them, with the AND of their down-sets and of their up-sets; both
    are symmetric in i and j, so the first failure is the one a scan of
    all ordered pairs would meet first."""
    n = len(lattice)
    elements, down = lattice.elements, lattice.down_masks
    meet, join = lattice.meet_index, lattice.join_index
    for i in range(n):
        down_i, up_i = down[i], up[i]
        for j in range(i, n):
            if down[meet(i, j)] != down_i & down[j]:
                return CheckResult(False, ("meet", elements[i], elements[j]))
            if up[join(i, j)] != up_i & up[j]:
                return CheckResult(False, ("join", elements[i], elements[j]))
    return CheckResult(True)


def _check_involution(lattice: OrthoLattice) -> CheckResult:
    orth = lattice.orth_map
    witness = next(
        ((lattice.elements[i],) for i in range(len(lattice)) if orth[orth[i]] != i), None
    )
    return CheckResult(witness is None, witness)


def _check_complement(lattice: OrthoLattice, up: list[int]) -> CheckResult:
    """x ^ x' = 0 and x v x' = 1, read off the down- and up-sets."""
    down = lattice.down_masks
    bottom, top = 1 << lattice.bottom_index, 1 << lattice.top_index
    witness = next(
        ((lattice.elements[i],) for i, o in enumerate(lattice.orth_map)
         if down[i] & down[o] != bottom or up[i] & up[o] != top),
        None,
    )
    return CheckResult(witness is None, witness)


def _check_order_reversal(lattice: OrthoLattice, up: list[int]) -> CheckResult:
    orth = lattice.orth_map
    for i in range(len(lattice)):
        for j in _bits(up[i]):
            if not up[orth[j]] >> orth[i] & 1:
                return CheckResult(False, (lattice.elements[i], lattice.elements[j]))
    return CheckResult(True)


def _check_de_morgan(lattice: OrthoLattice, up: list[int],
                     checks: dict[str, CheckResult]) -> CheckResult:
    """Needs no scan when the partial order, the meets and joins, the
    involution and order reversal all hold (``checks``): x v y is then the
    least upper bound of x and y, and an order-reversing involution carries
    it to the greatest lower bound of x' and y', which is x' ^ y'.  Only
    when one of those fails is every pair scanned, for the witness.  The
    join there is the least upper bound, read off the up-sets, since
    :meth:`OrthoLattice.join_index` takes it through the orthocomplement."""
    if all(checks[name].ok for name in
           ("partial_order", "meet_join_tables", "involution", "order_reversal")):
        return CheckResult(True)
    n = len(lattice)
    orth = lattice.orth_map
    witness = next(
        ((lattice.elements[i], lattice.elements[j]) for i in range(n) for j in range(n)
         if next((orth[k] for k in _bits(up[i] & up[j]) if up[k] == up[i] & up[j]), None)
         != lattice.meet_index(orth[i], orth[j])),
        None,
    )
    return CheckResult(witness is None, witness)


def is_orthomodular(lattice: OrthoLattice) -> CheckResult:
    """a <= b implies a v (a' ^ b) == b; witness is the first failing pair.

    A distributive lattice passes at once (a v (a' ^ b) = (a v a') ^ (a v b)
    = b), by the proof of :func:`is_boolean`.  Any other ortholattice is
    orthomodular exactly when a <= b and a' ^ b = 0 force a = b: the law
    gives b = a v 0 = a, and conversely c = a v (a' ^ b) <= b has
    c' ^ b = d ^ d' = 0 for d = a' ^ b, so c = b.  Such an a < b has an
    upper cover c <= b of a, and a' ^ c = 0 too, so one AND per covering
    pair decides.  The witness is the first a by index with such a cover,
    then the first b by index with a < b and a' ^ b = 0, found in one
    pass; there a v (a' ^ b) = a, not b.
    """
    if is_boolean(lattice):
        return CheckResult(True)
    orth, order, down_pos = lattice.orth_map, lattice.order, lattice.down_pos
    for a, o in enumerate(orth):
        below = down_pos[o]
        # position 0 holds the bottom, so a' ^ c = 0 reads as a common down-set of 1
        if any(below & down_pos[orth[k]] == 1 for k in _lower_covers(order, down_pos, o)):
            b = next(b for b, d in enumerate(lattice.down_masks)
                     if d >> a & 1 and b != a and below & down_pos[b] == 1)
            return CheckResult(False, (lattice.elements[a], lattice.elements[b]))
    return CheckResult(True)


def is_distributive(lattice: OrthoLattice) -> CheckResult:
    """Both distributive laws; witness is a triple (i, x, j) breaking
    i ^ (x v j) = (i ^ x) v (i ^ j).

    The verdict is :func:`is_boolean`'s.  On any other lattice the join
    test of its proof runs with no count shortcut, and its first failure,
    x in index order and then the join-irreducible j, names the witness:
    i is the first join-irreducible below x v j but below neither x nor j.
    Then i ^ (x v j) = i, while i ^ x and i ^ j lie strictly below i and
    so below its one lower cover, as does their join.  The proof at
    :func:`is_boolean` shows that every lattice that is not distributive
    fails the test somewhere.
    """
    if is_boolean(lattice):
        return CheckResult(True)
    names = lattice.elements
    i, x, j = _join_failure(lattice, _join_irreducibles(lattice))
    return CheckResult(False, (names[i], names[x], names[j]))


def is_boolean(lattice: OrthoLattice) -> bool:
    """Distributive, and so Boolean, as the lattice is complemented.

    Decided by whether x -> J(x), the join-irreducibles below x, preserves
    joins.  J always preserves meets, and x is the join of J(x), so J is
    injective; when it also preserves joins it embeds the lattice in a
    lattice of sets, which is distributive.  Conversely, in a distributive
    lattice every join-irreducible j is join-prime (j <= x v y gives j <= x
    or j <= y).  So this holds exactly when the lattice is distributive.  It
    suffices to check J(x v j) = J(x) | J(j) for every x and join-irreducible
    j (:func:`_join_failure`): joining the elements of J(y) onto x one at a
    time then gives J(x v y) = J(x) | J(y).

    An element x != 0 is join-irreducible when the elements strictly below
    it have a greatest element, their join; otherwise that join is x.  The
    greatest candidate is the one at the highest position below x's, so
    finding J costs O(n) big-int operations and the whole proof O(n |J|).
    A finite Boolean lattice has 2^k elements and k join-irreducibles, its
    atoms, so any other count fails at once.

    The answer is decided once per lattice and kept on it: ``check``,
    ``measure_module`` and every decomposition step ask again.
    """
    if lattice._boolean is None:
        n = len(lattice)
        if n & n - 1:
            lattice._boolean = False
        else:
            irreducible = _join_irreducibles(lattice)
            lattice._boolean = (len(irreducible) == n.bit_length() - 1
                                and _join_failure(lattice, irreducible) is None)
    return lattice._boolean


def _join_irreducibles(lattice: OrthoLattice) -> list[int]:
    """The join-irreducible elements, ascending, as at :func:`is_boolean`."""
    order, down_pos = lattice.order, lattice.down_pos
    irreducible = []
    for x, d in enumerate(down_pos):
        strictly_below = d ^ 1 << d.bit_length() >> 1  # x is at the top bit
        if strictly_below and down_pos[order[strictly_below.bit_length() - 1]] == strictly_below:
            irreducible.append(x)
    return irreducible


def _join_failure(lattice: OrthoLattice,
                  irreducible: list[int]) -> tuple[int, int, int] | None:
    """The first x, then j of ``irreducible``, with J(x v j) != J(x) | J(j),
    as (i, x, j) for the first i in the difference; None if there is none."""
    order, orth, down_pos = lattice.order, lattice.orth_map, lattice.down_pos
    mask = sum(1 << j for j in irreducible)
    below = [d & mask for d in lattice.down_masks]
    for x, bx in enumerate(below):
        if x in (lattice.bottom_index, lattice.top_index):
            continue  # 0 v j = j and 1 v j = 1 keep the identity
        complement_x = down_pos[orth[x]]
        for j in irreducible:
            # x v j = (x' ^ j')'; J(x v j) holds J(x) | J(j), so the XOR
            # is what it has over them
            joined = orth[order[(complement_x & down_pos[orth[j]]).bit_length() - 1]]
            extra = below[joined] ^ (bx | below[j])
            if extra:
                return (extra & -extra).bit_length() - 1, x, j
    return None


def atoms(lattice: OrthoLattice) -> tuple[str, ...]:
    """Covers of the bottom element, in canonical order."""
    return tuple(lattice.elements[i] for i in lattice.atom_indices())


def is_atomistic(lattice: OrthoLattice) -> CheckResult:
    """Every element is the join of the atoms below it: its
    orthocomplement is the meet of theirs, the highest position of their
    common down-set."""
    atom_mask = sum(1 << a for a in lattice.atom_indices())
    order, orth, down_pos = lattice.order, lattice.orth_map, lattice.down_pos
    for i, down in enumerate(lattice.down_masks):
        common = down_pos[lattice.top_index]
        for a in _bits(down & atom_mask):
            common &= down_pos[orth[a]]
        if order[common.bit_length() - 1] != orth[i]:
            return CheckResult(False, (lattice.elements[i],))
    return CheckResult(True)


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _lower_covers(order: Sequence[int], down_pos: Sequence[int], y: int) -> Iterator[int]:
    """The lower covers of y, highest position first, peeled off its
    strict down-set: what is left has a maximal element at its highest
    position, a cover; its down-set goes next.  One AND per cover."""
    rest = down_pos[y] ^ 1 << down_pos[y].bit_length() >> 1  # y is at the top bit
    while rest:
        c = order[rest.bit_length() - 1]
        yield c
        rest &= ~down_pos[c]


def orthogonal_pairs(lattice: OrthoLattice) -> list[tuple[str, str]]:
    """Unordered orthogonal pairs {x, y} with y <= x', in canonical order.

    Includes ("0", "0"): bottom is the only self-orthogonal element, since
    a <= a' forces a == a ^ a' == 0.
    """
    names = lattice.elements
    return [(names[i], names[j]) for i, j in lattice.orthogonal_index_pairs()]


# --- decomposition ----------------------------------------------------------------


def horizontal_summands(lattice: OrthoLattice) -> list[tuple[OrthoLattice, list[int]]]:
    """The horizontal summands of the lattice if it has two or more, else [].

    The proper elements (all but 0 and 1) fall into the connected
    components of the graph that joins comparable elements, and each
    element to its orthocomplement.  Elements of different components
    meet in 0 and join in 1, since a proper bound of both would be
    comparable to both.  So each component together with 0 and 1 is a
    sub-ortholattice, and the lattice is their horizontal sum; this holds
    in any ortholattice.  Each summand comes with its members: the index
    in the lattice of each of its elements, ascending.  The walk steps
    from x to its down-set and to x', which reaches each y >= x by y' <= x'.

    Summands of one shape (the same masks and orthocomplement over their
    own indices, as the n summands of MO(n)) are built once and share
    those masks and that topological order; each keeps its own names.
    """
    down, orth = lattice.down_masks, lattice.orth_map
    ends = 1 << lattice.bottom_index | 1 << lattice.top_index
    unseen = ((1 << len(lattice)) - 1) & ~ends
    components = []
    while unseen:
        component = 0
        frontier = unseen & -unseen
        while frontier:
            component |= frontier
            reached = 0
            for i in _bits(frontier):
                reached |= down[i] | 1 << orth[i]
            frontier = reached & unseen & ~component
        unseen &= ~component
        components.append(component)
    if len(components) < 2:
        return []
    names = lattice.elements
    built: dict[tuple, list[OrthoLattice]] = {}
    summands = []
    for component in components:
        inside = component | ends
        members = list(_bits(inside))
        where = {i: k for k, i in enumerate(members)}
        orth_k = tuple([where[orth[i]] for i in members])
        proper = [down[i] & component for i in _bits(component)]
        # The places of 0 and 1, the orthocomplement and the down-set sizes
        # tell most shapes apart without a loop over bits.  With 0 and 1
        # in place, the proper elements' down-sets settle a match.
        bottom, top = where[lattice.bottom_index], where[lattice.top_index]
        same = built.setdefault(
            (bottom, top, orth_k, tuple([m.bit_count() for m in proper])), [])
        block = None
        if same:
            shape = [sum(1 << where[j] for j in _bits(m)) | 1 << bottom for m in proper]
            at = [where[i] for i in _bits(component)]
            block = next((b for b in same if list(map(b.down_masks.__getitem__, at)) == shape),
                         None)
        if block is None:
            block = _induced(lattice, members, orth_k)
            same.append(block)
        else:
            # the same shape with this summand's names
            block = OrthoLattice(lattice.name, [names[i] for i in members],
                                 block.down_masks, block.orth_map, block.order,
                                 block.down_pos)
        summands.append((block, members))
    return summands


def direct_factors(lattice: OrthoLattice
                   ) -> tuple[list[tuple[OrthoLattice, list[int]]], list[tuple[int, ...]]]:
    """The factors [0, z] over the atoms z of the center, and the
    coordinates of every element in them, if the center has two or more
    atoms; else ([], []).  The split holds in every ortholattice:

    Call z central when t = (t ^ z) v (t ^ z') for every t.  For a <= z,
    centrality at a' gives a' = (a' ^ z) v z', so a = (a v z') ^ z;
    likewise b = (b v z) ^ z' for b <= z'.  So t -> (t ^ z, t ^ z') is onto
    [0, z] x [0, z']: for t = a v b, centrality at t' gives t = (a v z') ^
    (b v z), so t ^ z = a.  It is injective, as t is the join of its
    image, and its inverse (a, b) -> a v b is monotone.  It carries ' to
    x -> x' ^ z on each side (the last step, applied to t' = (a' ^ z) v
    (b' ^ z')).  Centrality is componentwise in a product, so by induction
    the central elements form a Boolean algebra, whose atoms z_j are
    pairwise orthogonal, join to 1 and give an ortholattice isomorphism
    t -> (t ^ z_j)_j onto the product of the [0, z_j], each with x -> x' ^
    z_j as its orthocomplement.  So the map built here is not checked.

    The loop finds exactly those atoms.  Each atom lies below z or z' for a
    central z, so every central z passes the prefilter; the candidates go
    lowest first, and any z above a central element already found is
    skipped, as a larger central element has a smaller one below it.

    Each factor comes with its members, as in :func:`horizontal_summands`;
    coordinates[t][j] is the index in factor j of t ^ z_j.
    """
    n = len(lattice)
    down, orth = lattice.down_masks, lattice.orth_map
    atom_mask = sum(1 << a for a in lattice.atom_indices())
    candidates = sorted(
        (z for z in range(n)
         if z not in (lattice.bottom_index, lattice.top_index)
         and (down[z] | down[orth[z]]) & atom_mask == atom_mask),
        key=lambda z: down[z].bit_count())
    centre, found = 0, []
    for z in candidates:
        if not down[z] & centre and _is_central(lattice, z):
            centre |= 1 << z
            found.append(z)
    if len(found) < 2:
        return [], []

    members = [list(_bits(down[z])) for z in found]
    where = [{i: k for k, i in enumerate(m)} for m in members]
    order, down_pos = lattice.order, lattice.down_pos
    # t ^ z_j is the element at the highest position of their common down-set
    coordinates = [tuple([w[order[(d & down_pos[z]).bit_length() - 1]]
                          for z, w in zip(found, where)]) for d in down_pos]
    orths = [[c[j] for c in (coordinates[orth[i]] for i in m)]
             for j, m in enumerate(members)]
    factors = [(_induced(lattice, m, o), m) for m, o in zip(members, orths)]
    return factors, coordinates


def decomposition(lattice: OrthoLattice
                  ) -> tuple[list[tuple[OrthoLattice, list[int]]],
                             list[tuple[OrthoLattice, list[int]]], list[tuple[int, ...]]]:
    """(summands, factors, coordinates): the lattice's horizontal summands
    (:func:`horizontal_summands`), or else its direct factors and their
    coordinates (:func:`direct_factors`), or neither.

    Decided once per lattice and kept on it, as :func:`is_boolean` keeps
    its answer, so every decomposition of one lattice (its automorphism
    group, then normalizers in it) splits it once.  Each summand and
    factor is a lattice of its own and keeps its own split.
    """
    if lattice._split is None:
        summands = horizontal_summands(lattice)
        factors, coordinates = ([], []) if summands else direct_factors(lattice)
        lattice._split = (summands, factors, coordinates)
    return lattice._split


class Decomposer:
    """Solves a lattice from the first of its decompositions that applies:
    a Boolean lattice, then a horizontal sum, then a product over the
    center (both kept on the lattice by :func:`decomposition`), and last an
    irreducible block; both splits hold in every ortholattice.
    ``automorphism_group``, ``normalizer`` and ``state_polytope`` all break
    a lattice down this way.

    Subclasses define ``boolean(lattice, *more)``, ``summed(lattice,
    summands, *more)``, ``product(lattice, factors, coordinates, *more)``
    and ``irreducible(lattice, *more)``, and call :meth:`solve` on the
    parts; ``more`` is whatever further arguments :meth:`solve` was given
    (``symmetry`` passes a colouring of the elements, ``cones`` nothing).
    One result is kept per shape, a block's order and orthocomplement over
    its own indices together with those arguments, so blocks listed alike
    (the summands of MO(n)) are solved once."""

    def __init__(self):
        self.seen: dict[tuple, object] = {}

    def solve(self, lattice: OrthoLattice, *more):
        shape = (lattice.down_masks, lattice.orth_map, *more)
        found = self.seen.get(shape)
        if found is None:
            found = self.split(lattice, *more)
            if found is None:
                found = self.irreducible(lattice, *more)
            self.seen[shape] = found
        return found

    def split(self, lattice: OrthoLattice, *more):
        """The result composed from the lattice's decomposition, or None
        when it is irreducible and not Boolean."""
        if is_boolean(lattice):
            return self.boolean(lattice, *more)
        summands, factors, coordinates = decomposition(lattice)
        if summands:
            return self.summed(lattice, summands, *more)
        if factors:
            return self.product(lattice, factors, coordinates, *more)
        return None


def _is_central(lattice: OrthoLattice, z: int) -> bool:
    """t = (t ^ z) v (t ^ z') for every t: t' is the meet of the
    complements of t ^ z and t ^ z'."""
    order, orth, down_pos = lattice.order, lattice.orth_map, lattice.down_pos
    below_z, below_o = down_pos[z], down_pos[orth[z]]
    for t, d in enumerate(down_pos):
        common = (down_pos[orth[order[(d & below_z).bit_length() - 1]]]
                  & down_pos[orth[order[(d & below_o).bit_length() - 1]]])
        if order[common.bit_length() - 1] != orth[t]:
            return False
    return True


def _induced(lattice: OrthoLattice, members: list[int], orth: list[int]) -> OrthoLattice:
    """The subposet on ``members`` (ascending indices of the lattice), its
    element k being members[k], with ``orth`` (its own indices) as its
    orthocomplement; the caller vouches that this is an ortholattice.
    Its masks are the lattice's, compressed to the members, and its order
    is theirs in the lattice's topological order."""
    position = lattice.down_pos  # an element is the top bit of its own down-set
    order = sorted(members, key=lambda i: position[i].bit_length())
    bit = {i: 1 << k for k, i in enumerate(members)}
    pos_bit = {i: 1 << p for p, i in enumerate(order)}
    inside = sum(1 << i for i in members)
    down, down_pos = _moved([lattice.down_masks[i] & inside for i in members], bit, pos_bit)
    index = {i: k for k, i in enumerate(members)}
    return OrthoLattice(lattice.name, [lattice.elements[i] for i in members], down,
                        orth, [index[i] for i in order], down_pos)


def _moved(masks: Sequence[int], bit: Mapping[int, int],
           pos_bit: Mapping[int, int]) -> tuple[list[int], list[int]]:
    """Each mask with every set bit j moved to the bits of ``bit[j]``, and
    again to those of ``pos_bit[j]``: down-sets carried into another
    lattice's indices and positions."""
    down, down_pos = [], []
    for mask in masks:
        bits = pos = 0
        for j in _bits(mask):
            bits |= bit[j]
            pos |= pos_bit[j]
        down.append(bits)
        down_pos.append(pos)
    return down, down_pos


# --- isomorphism search ---------------------------------------------------------


def _cover_lists(lattice: OrthoLattice) -> tuple[list[list[int]], list[list[int]]]:
    """Upper and lower covers of every element, as sorted index lists; the
    upper covers of x are the orthocomplements of the lower covers of x'."""
    order, down_pos, orth = lattice.order, lattice.down_pos, lattice.orth_map
    downs = [sorted(_lower_covers(order, down_pos, y)) for y in range(len(orth))]
    return [sorted(orth[c] for c in downs[o]) for o in orth], downs


def _rank_colours(lattice: OrthoLattice, ups: list[list[int]],
                  downs: list[list[int]]) -> list[tuple[int, int, int, int]]:
    """The root colours of the isomorphism search: the sizes of each
    element's down-set and up-set (|up(x)| = |down(x')|), then its numbers
    of lower and of upper covers."""
    below = [mask.bit_count() for mask in lattice.down_masks]
    return list(zip(below, [below[o] for o in lattice.orth_map], map(len, downs), map(len, ups)))


class _Partition:
    """An ordered partition of the element indices into numbered cells.

    ``order`` lists the elements with each cell contiguous: cell c holds
    positions start[c] .. start[c] + size[c] - 1.  ``where`` inverts
    ``order`` and ``colours`` gives each element's cell.  All five are
    arrays of machine ints, so a copy is one memory copy each and the
    garbage collector never scans them.
    """

    __slots__ = ("colours", "order", "where", "start", "size")

    def __init__(self, colours: array, order: array, where: array,
                 start: array, size: array):
        self.colours = colours
        self.order = order
        self.where = where
        self.start = start
        self.size = size

    @classmethod
    def from_colours(cls, colours: list[int], count: int) -> "_Partition":
        """Cells 0 .. count - 1 in order, each in index order."""
        size = [0] * count
        for c in colours:
            size[c] += 1
        start = [0] * count
        for c in range(1, count):
            start[c] = start[c - 1] + size[c - 1]
        fill = start.copy()
        order = [0] * len(colours)
        where = [0] * len(colours)
        for i, c in enumerate(colours):
            order[fill[c]] = i
            where[i] = fill[c]
            fill[c] += 1
        return cls(*(array("i", a) for a in (colours, order, where, start, size)))

    def copy(self) -> "_Partition":
        return _Partition(self.colours[:], self.order[:], self.where[:],
                          self.start[:], self.size[:])

    def members(self, c: int) -> array:
        a = self.start[c]
        return self.order[a:a + self.size[c]]

    def individualize(self, x: int) -> int:
        """Move x out of its cell into a new singleton cell at the cell's
        last position, numbered after every cell; return that number."""
        order, where, start, size = self.order, self.where, self.start, self.size
        c = self.colours[x]
        size[c] -= 1
        last = start[c] + size[c]
        other = order[last]
        order[where[x]], where[other] = other, where[x]
        order[last], where[x] = x, last
        new = self.colours[x] = len(size)
        start.append(last)
        size.append(1)
        return new

    def split(self, codes: list[int], jbits: int, shift: int) -> list[tuple[int, list[int]]]:
        """Split the touched cells in place; return each cell that split with
        the numbers of its parts.

        ``codes`` are the sorted codes colour << shift | key | element of
        the touched elements of cells of two or more, the element in the
        low ``jbits`` bits, so they come grouped by cell and within a cell
        by key.  The untouched part keeps the cell's number and its first
        positions, or the part of the least key does when every element is
        touched; the other parts follow it in increasing key, numbered
        after every cell in use.  Only the touched elements and the
        untouched ones they displace move.
        """
        colours, order, where, start, size = (
            self.colours, self.order, self.where, self.start, self.size)
        low = (1 << jbits) - 1
        out = []
        for c, run in itertools.groupby(codes, shift.__rrshift__):
            run = list(run)
            m, t = size[c], len(run)
            if t == m and run[0] >> jbits == run[-1] >> jbits:
                continue
            tail = start[c] + m - t
            touched = [code & low for code in run]
            holes = [where[j] for j in touched if where[j] < tail]
            if holes:
                # untouched elements in the tail move into the holes
                inside = set(touched)
                for p in range(tail, tail + t):
                    e = order[p]
                    if e not in inside:
                        q = holes.pop()
                        order[q] = e
                        where[e] = q
            size[c] = m - t
            ids = [c]
            part, last = c, (run[0] >> jbits if t == m else None)
            for p, code in enumerate(run, tail):
                if code >> jbits != last:
                    last, part = code >> jbits, len(size)
                    ids.append(part)
                    start.append(p)
                    size.append(0)
                j = code & low
                order[p] = j
                where[j] = p
                colours[j] = part
                size[part] += 1
            out.append((c, ids))
        return out


def _neighbour_keys(ups: list[list[int]], downs: list[list[int]], orth: Sequence[int],
                    unit: int, jbits: int) -> list[dict[int, int]]:
    """What each element e adds to the key of each neighbour j when e is
    in a splitter, shifted above ``jbits`` bits: 1 when e covers j, unit
    when j covers e, unit^2 when e is j's orthocomplement.  A count of
    covers stays below the unit, so a key's digits in base unit are the
    three counts."""
    covered, covering, complement = 1 << jbits, unit << jbits, unit * unit << jbits
    keys = []
    for e, o in enumerate(orth):
        key = dict.fromkeys(downs[e], covered)
        key.update(dict.fromkeys(ups[e], covering))
        key[o] = key.get(o, 0) + complement
        keys.append(key)
    return keys


class _Source:
    """A stable colouring of the source side, and a node of the trie of
    source fixes: ``children[x]`` is the colouring after fixing x.

    ``trace`` is the refinement that led here: each splitter cell in the
    order it was processed, with the sorted codes colour | key of the
    elements it touched in cells of two or more.
    ``branch`` lists the elements of the first non-singleton cell in
    colour order, in index order, or is None when the colouring is
    discrete.  Nothing here changes after construction, so target nodes
    may share the partition.
    """

    __slots__ = ("partition", "trace", "branch", "children")

    def __init__(self, partition: _Partition, trace: list):
        self.partition = partition
        self.trace = trace
        c = next((c for c, m in enumerate(partition.size) if m > 1), None)
        self.branch = None if c is None else sorted(partition.members(c))
        self.children: dict[int, _Source] = {}


class IsomorphismSearch:
    """Individualization-refinement backtracking for isomorphisms src -> dst.

    A node of the search is a pair of colourings, of src and of dst, in
    which a colour names the same thing on either side, held as a source
    trie node and a target partition.  A colouring is an ordered partition
    into numbered cells, a colour the number of a cell.  The root colours
    each element by its rank data (:func:`_rank_colours`), and
    by its mark when ``marks`` is given: a pair of lists, one mark per
    element index of src and one per element index of dst; the initial
    cells are numbered in the sorted order of these tuples.  Fixing x -> y
    moves x and y into a new singleton cell, numbered after every cell in
    use.  An isomorphism that maps every fixed x to its y (and every src
    mark to an equal dst mark) preserves every colour, so a node whose two
    sides disagree is pruned.

    Refinement splits cells from a queue of splitter cells (McKay &
    Piperno, *Practical graph isomorphism, II*, 2014; bliss, Junttila &
    Kaski 2007).  For a splitter S it counts, for each element it touches,
    the element's upper covers in S, its lower covers in S and whether its
    orthocomplement is in S, and splits every touched cell by these
    counts: the untouched part keeps the cell's number, and the other
    parts, in increasing counts, get new numbers in order.  The least
    queued cell is the next splitter.  A cell that splits while queued
    queues all its new parts; any other queues all parts but its first
    largest (Hopcroft), since an element's counts into that part are its
    counts into the whole cell, alike across the element's own cell, minus
    its counts into the other parts.  So a node costs about the cover
    edges at the cells that split: fixing an atom of MO(n) touches only
    the atom, its complement, 0 and 1.  The stable colouring is the
    coarsest equitable refinement of the initial one, and no step reads an
    element index, only colours and counts, so corresponding cells on the
    two sides get the same number.

    Counts are kept and compared only for elements of cells of two or
    more: a singleton cannot split, and its counts into a larger cell
    follow from that cell's counts into it.  That leaves the cover and
    complement edges between singletons unchecked, so refinement stops
    once the source colouring is discrete, and the bijection a discrete
    colouring names is kept only if it maps covers onto covers and
    commutes with the orthocomplement (a bijection of finite posets
    mapping covers onto covers is an order isomorphism).

    The source side is refined once per source colouring: the search keeps
    a trie of source colourings, keyed by the source elements fixed, each
    with its trace, the splitters in order and, for each, the colour and
    counts of every element it touched.  The target side replays the
    trace, splitting by its own counts, and is pruned at the first
    splitter whose colours and counts differ.  That prunes exactly where a
    joint refinement of both sides over one palette finds unequal cell
    sizes, and otherwise gives both sides its partition.  Every child of a
    node branches on the same source element, so a whole search refines
    one source colouring per depth.  A node that is not discrete branches
    on the first element x of the first non-singleton source cell in
    colour order, over the dst elements of that cell in cell order.  Every
    isomorphism is reached exactly once and the output order is
    deterministic.

    ``refinements``, ``splitters`` and ``visits`` count the refinements
    run on either side, the splitter cells they processed and the pairs of
    a splitter member and a neighbour (a cover or the orthocomplement)
    they read.
    """

    def __init__(self, src: OrthoLattice, dst: OrthoLattice,
                 marks: tuple[Sequence[int], Sequence[int]] | None = None):
        self._src = _cover_lists(src) + (src.orth_map,)
        self._dst = self._src if dst is src else _cover_lists(dst) + (dst.orth_map,)
        covers = [(i, j) for i, above in enumerate(self._src[0]) for j in above]
        self._src_covers = [i for i, _ in covers], [j for _, j in covers]
        self._dst_covers = set(covers) if dst is src else {
            (i, j) for i, above in enumerate(self._dst[0]) for j in above}
        # a touched element's code is colour << shift | key | element, its
        # three fields in fixed bit widths
        unit = len(src) + 1
        self._jbits = len(src).bit_length()
        self._shift = (unit ** 3).bit_length() + self._jbits
        self._keys = [_neighbour_keys(*self._src, unit, self._jbits)]
        self._keys.append(self._keys[0] if dst is src
                          else _neighbour_keys(*self._dst, unit, self._jbits))
        self.refinements = self.splitters = self.visits = 0
        initial = []
        for lat, (ups, downs, _), side in zip((src, dst), (self._src, self._dst),
                                              marks or (None, None)):
            colours = _rank_colours(lat, ups, downs)
            initial.append(colours if side is None
                           else [c + (m,) for c, m in zip(colours, side)])
        palette = {c: k for k, c in enumerate(sorted(set(initial[0])))}
        part = _Partition.from_colours([palette[c] for c in initial[0]], len(palette))
        sizes = part.size.tolist()
        # every initial colour holds the element's numbers of upper and
        # lower covers, so counts into the whole lattice split no cell and
        # one largest cell need not be queued
        queue = list(range(len(sizes)))
        del queue[sizes.index(max(sizes))]
        source = self._refine(part, queue)
        self.root = None
        if dst is src and initial[1] == initial[0]:
            self.root = (source, source.partition)
        elif len(dst) == len(src) and set(initial[1]) <= palette.keys():
            part = _Partition.from_colours([palette[c] for c in initial[1]], len(palette))
            if part.size.tolist() == sizes:
                self.root = self._replay(source, part)

    def _refine(self, part: _Partition, queue: list[int]) -> _Source:
        """The source partition refined in place from the queued cells."""
        self.refinements += 1
        heapify(queue)
        queued = set(queue)
        trace = []
        size, jbits, n = part.size, self._jbits, len(part.colours)
        while queue and len(size) < n:
            s = heappop(queue)
            queued.discard(s)
            codes = self._counts(self._keys[0], part, s)
            trace.append((s, list(map(jbits.__rrshift__, codes))))
            for c, ids in part.split(codes, jbits, self._shift):
                if c not in queued:
                    sizes = [size[k] for k in ids]
                    del ids[sizes.index(max(sizes))]
                for k in ids:
                    if k not in queued:
                        queued.add(k)
                        heappush(queue, k)
        return _Source(part, trace)

    def _replay(self, source: _Source, part: _Partition):
        """The node of the source and the target partition refined in place
        along the source's trace, or None at the first splitter whose
        counts differ."""
        self.refinements += 1
        jbits = self._jbits
        for s, expected in source.trace:
            codes = self._counts(self._keys[1], part, s)
            if list(map(jbits.__rrshift__, codes)) != expected:
                return None
            part.split(codes, jbits, self._shift)
        return (source, part)

    def _counts(self, keys: list[dict[int, int]], part: _Partition, s: int) -> list[int]:
        """The sorted codes colour << shift | key | element of the elements
        the splitter cell s touches in cells of two or more, their keys
        summed over its members."""
        members = part.members(s)
        key = keys[members[0]]
        visits = len(key)
        if len(members) > 1:
            key = dict(key)
            get = key.get
            for e in members[1:]:
                for j, k in keys[e].items():
                    key[j] = get(j, 0) + k
                visits += len(keys[e])
        self.splitters += 1
        self.visits += visits
        colours, size, shift = part.colours, part.size, self._shift
        return sorted([c << shift | k | j for j, k in key.items()
                       if size[c := colours[j]] > 1])

    def fix(self, node, x: int, y: int):
        """The child node with x -> y fixed, or None if it is pruned."""
        if node is None:
            return None
        source, part = node
        c = source.partition.colours[x]
        if part.colours[y] != c:
            return None
        if source.partition.size[c] == 1:
            return node
        child = source.children.get(x)
        if child is None:
            fixed = source.partition.copy()
            child = source.children[x] = self._refine(fixed, [fixed.individualize(x)])
        if x == y and part is source.partition:
            return (child, child.partition)
        part = part.copy()
        part.individualize(y)
        return self._replay(child, part)

    @staticmethod
    def branch_cell(node) -> list[int] | None:
        """The source elements of the node's first non-singleton cell, in
        index order, or None when its colouring is discrete."""
        return node[0].branch

    def leaves(self, node) -> Iterator[tuple[int, ...]]:
        """Every isomorphism below the node, in search order."""
        stack = [iter([node])]
        while stack:
            for node in stack[-1]:
                if node is not None:
                    break
            else:
                stack.pop()
                continue
            source, part = node
            if source.branch is None:
                # both sides put corresponding cells at the same positions
                perm = tuple(map(part.order.__getitem__, source.partition.where))
                if self._preserves_structure(perm):
                    yield perm
                continue
            x = source.branch[0]
            cell = part.members(source.partition.colours[x])
            stack.append(map(partial(self.fix, node, x), cell))

    def _preserves_structure(self, perm: tuple[int, ...]) -> bool:
        """The bijection maps covers onto covers and commutes with the
        orthocomplement."""
        below, above = self._src_covers
        image = perm.__getitem__
        return (list(map(image, self._src[2])) == list(map(self._dst[2].__getitem__, perm))
                and set(zip(map(image, below), map(image, above))) == self._dst_covers)


def iter_isomorphisms(src: OrthoLattice, dst: OrthoLattice) -> Iterator[tuple[int, ...]]:
    """All order- and orthocomplement-preserving bijections src -> dst.

    Yields index permutations: position i holds the dst index of src element
    i.  See :class:`IsomorphismSearch` for the pruning; exponential only on
    lattices whose colour refinement leaves large ambiguous classes.
    """
    search = IsomorphismSearch(src, dst)
    return search.leaves(search.root)


def find_isomorphism(a: OrthoLattice, b: OrthoLattice) -> dict[str, str] | None:
    """An explicit isomorphism as an element map, or None."""
    for perm in iter_isomorphisms(a, b):
        return {a.elements[i]: b.elements[j] for i, j in enumerate(perm)}
    return None


def are_isomorphic(a: OrthoLattice, b: OrthoLattice) -> bool:
    return find_isomorphism(a, b) is not None
