"""The universal measure group of a lattice and its coinvariants.

The free abelian group on the elements, modulo one relation per unordered
orthogonal pair (the join minus the two parts), parameterizes measures:
group homomorphisms out of the quotient are exactly the additive measures,
and homomorphisms out of the coinvariants under a group action are exactly
the invariant ones.  Coinvariants need only the orbits: they are the free
group on the orbits modulo the relation rows with each orbit's columns
summed.

On a distributive lattice, which is Boolean, the group is free on the
atoms and is written down directly (``_boolean_module``).  On any other
orthomodular lattice it is presented by -e_0 and one row per covering
pair, built sparse from the masks (the proof is at ``_presentation_rows``);
other ortholattices keep one row per orthogonal pair.  Either way every
row has its +1 strictly above its two parts, so a
pass over the columns in order of down-set size takes a unit pivot for
every element but the bottom and the atoms, writing each as the sum of the
images of its parts.  The pass repeats on the rows left over, rewritten
over the columns still untaken, until it takes nothing; the Smith normal
form of what is left yields any torsion.  Back-substitution writes each
generator's image as its nonzero coordinates alone, so MO(n) keeps O(n)
numbers rather than n ranks' worth; a rank-wide vector is built only when
a caller asks for one (``projection_index``, ``FPAbelianGroup.images``,
the cone coordinates).  Measure bases over Z, Q, and Z/m are read off the
sparse images one coordinate column at a time.

Coefficient domains are fixed to Z, Q, and Z/m: the finitely computable
cases.  On a finite lattice every orthogonal family is finite, so additive
and sigma-additive collapse to the single Measure notion used here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DomainMismatchError, OracleTooLargeError
from .intlinalg import smith_normal_form, snf_diagonal
from .lattice import CheckResult, OrthoLattice, _bits, is_boolean, is_orthomodular, same_lattice
from .symmetry import GroupAction

DEFAULT_MAX_ORACLE = 10_000_000


# --- coefficient domains -------------------------------------------------------


class Domain(NamedTuple):
    """Coefficient domain: the integers, the rationals, or integers mod m."""

    kind: str  # "Z" | "Q" | "Zmod"
    modulus: int | None = None

    @property
    def label(self) -> str:
        return f"Z/{self.modulus}" if self.kind == "Zmod" else self.kind

    def validate(self, value):
        """Return the canonical representative, or raise DomainMismatchError.

        Over Z and Z/m an integral Fraction, as a file's "3" reads, is its
        integer; the message names a rejected value as it reads, "1/2"."""
        kind = self.kind
        if kind == "Q":
            if isinstance(value, int) and not isinstance(value, bool):
                return Fraction(value)
            if isinstance(value, Fraction):
                return value
            raise DomainMismatchError(f"{value} is not a rational")
        if isinstance(value, Fraction) and value.denominator == 1:
            value = int(value)
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainMismatchError(
                f"{value} is not an integer" if kind == "Z"
                else f"{value} is not a residue mod {self.modulus}")
        return value if kind == "Z" else value % self.modulus

    def add(self, a, b):
        s = a + b
        return s % self.modulus if self.kind == "Zmod" else s

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def serialize(self, value):
        return str(value) if self.kind == "Q" else int(value)


INTEGERS = Domain("Z")
RATIONALS = Domain("Q")


def integers_mod(m: int) -> Domain:
    if m < 1:
        raise ValueError("modulus must be >= 1")
    return Domain("Zmod", m)


def parse_domain(text: str) -> Domain:
    t = text.strip().lower()
    if t == "z":
        return INTEGERS
    if t == "q":
        return RATIONALS
    if t.startswith("z/"):
        try:
            return integers_mod(int(t[2:]))
        except ValueError as exc:
            raise DomainMismatchError(f"bad domain {text!r}") from exc
    raise DomainMismatchError(f"bad domain {text!r} (use z, q, or z/<m>)")


# --- measures --------------------------------------------------------------------


class FormalSum(NamedTuple):
    """An integer combination of lattice elements (the free abelian group)."""

    coefficients: Mapping[str, int]

    def vector(self, lattice: OrthoLattice) -> list[int]:
        vec = [0] * len(lattice)
        for name, c in self.coefficients.items():
            vec[lattice.index(name)] += int(c)
        return vec


class Measure(NamedTuple):
    """A coefficient-valued function on the lattice elements."""

    domain: Domain
    values: Mapping[str, object]

    def __call__(self, name: str):
        return self.values[name]

    def key(self) -> tuple:
        return (self.domain.label, tuple(sorted(self.values.items())))

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain.label,
            "values": {e: self.domain.serialize(v) for e, v in self.values.items()},
        }


def is_measure(lattice: OrthoLattice, values: Mapping[str, object],
               domain: Domain) -> CheckResult:
    """Additivity on every orthogonal pair; witness is the first failure
    among the pairs whose rows present the measure group.

    Those pairs are :func:`_relation_pairs`: on an orthomodular lattice
    (0, 0) and the covering pairs (x, a), x != 0 and a an atom below x',
    whose rows generate every orthogonal-pair row (see
    ``_presentation_rows``), and on any other lattice every orthogonal
    pair.  The pair ("0", "0") is orthogonal, so a nonzero value at
    bottom is itself a violation.
    """
    return _is_measure_of_validated(lattice, _validated_values(lattice, values, domain), domain)


def _is_measure_of_validated(lattice: OrthoLattice, vals: Sequence,
                             domain: Domain) -> CheckResult:
    """:func:`is_measure` on values already validated in ``domain``,
    listed by element index."""
    # Domain.add, with the record's fields read once per call, not per pair
    modulus = domain.modulus if domain.kind == "Zmod" else None
    join = lattice.join_index
    for i, j in _relation_pairs(lattice):
        total = vals[i] + vals[j]
        if modulus is not None:
            total %= modulus
        if total != vals[join(i, j)]:
            return CheckResult(False, (lattice.elements[i], lattice.elements[j]))
    return CheckResult(True)


def _validated_values(lattice, values, domain):
    validate = domain.validate
    out = []
    for e in lattice.elements:
        if e not in values:
            raise DomainMismatchError(f"no value given for element {e!r}")
        out.append(validate(values[e]))
    return out


# --- the relation matrix and its Smith form --------------------------------------


def relation_matrix(lattice: OrthoLattice) -> list[list[int]]:
    """One row per unordered orthogonal pair: join minus the two parts.

    Columns follow the canonical element order.  The ("0", "0") pair
    contributes the row forcing the bottom element to zero.  This is the
    dense view of the defining relations; :func:`measure_module` builds
    its rows sparse, and on an OML far fewer (see ``_presentation_rows``).
    """
    n = len(lattice)
    rows = []
    for i, j in lattice.orthogonal_index_pairs():
        row = [0] * n
        row[lattice.join_index(i, j)] += 1
        row[i] -= 1
        row[j] -= 1
        rows.append(row)
    return rows


class FPAbelianGroup(NamedTuple):
    """Z^n modulo the subgroup generated by some relation rows.

    The group is Z/d for each torsion invariant d, then Z^rank, coordinate
    t being the t-th of these factors.  ``sparse_images`` holds, per
    generator, the (coordinate, value) pairs of its image with a nonzero
    value, ascending; a torsion value is reduced mod its invariant.
    ``images`` derives the dense vectors from them.
    """

    generator_count: int
    invariants: tuple[int, ...]                         # nonzero Smith invariants, 1s first
    sparse_images: tuple[tuple[tuple[int, int], ...], ...]  # per generator

    @classmethod
    def from_relations(cls, generator_count: int, rows: Sequence[Sequence[int]]) -> "FPAbelianGroup":
        """Z^generator_count modulo dense rows, by the triangular passes of
        :meth:`_presented` with every column at the same height."""
        sparse = (tuple((j, a) for j, a in enumerate(r) if a) for r in rows)
        return cls._presented(generator_count, [r for r in sparse if r], [0] * generator_count)

    @classmethod
    def _presented(cls, generator_count: int, rows: Sequence[tuple[tuple[int, int], ...]],
                   heights: Sequence[int]) -> "FPAbelianGroup":
        """Z^generator_count modulo sparse rows, by repeated triangular
        passes and the Smith normal form of what they leave.

        A pass puts the columns its rows hold in order of (height, most
        rows holding the column first, index), and a row's top is its last
        column in that order.  A row whose top has coefficient +-1, and
        whose top no earlier row took, is taken as that column's pivot: it
        writes e_top as minus that coefficient times the rest of the row.
        The taken rows are triangular with unit diagonal, so taking them
        all is a unimodular change of generators.  Visiting the columns in
        order writes each taken column over the columns left untaken, and
        every other row, rewritten the same way, is a residual row over
        those.  Passes repeat on the residual rows until one takes nothing.
        Putting the columns that many rows hold first keeps them below the
        tops, so one pass takes many pivots whatever the element order.

        The dense Smith normal form runs only on the rows left, which is
        where any torsion lives.  Each live generator's image is its row of
        their V (or a unit vector when no row left holds it).  Each taken
        column's is the combination its row gives of the images of the
        row's other columns, pass by pass in reverse, and within a pass in
        its column order.  Every image is kept as its nonzero coordinates
        only, so back-substitution costs the number of nonzeros it writes,
        not the rank per generator.
        """
        passes: list[list[tuple[int, dict[int, int]]]] = []
        residual = [dict(row) for row in rows]
        while residual:
            holders: dict[int, int] = {}
            for row in residual:
                for j in row:
                    holders[j] = holders.get(j, 0) + 1
            order = sorted(holders, key=lambda c: (heights[c], -holders[c], c))
            position = {c: t for t, c in enumerate(order)}
            taken: dict[int, dict[int, int]] = {}
            rest = []
            for row in residual:
                c = max(row, key=position.__getitem__)
                if row[c] in (1, -1) and c not in taken:
                    taken[c] = row
                else:
                    rest.append(row)
            if not taken:
                break
            over_left: dict[int, dict[int, int]] = {}  # column -> {untaken column: coefficient}
            for c in order:
                row = taken.get(c)
                if row is None:
                    over_left[c] = {c: 1}
                else:
                    p = row[c]
                    over_left[c] = _combine(((j, -p * a) for j, a in row.items() if j != c), over_left)
            passes.append([(c, taken[c]) for c in order if c in taken])
            residual = [r for r in (_combine(row.items(), over_left) for row in rest) if r]
        core_columns = sorted({j for row in residual for j in row})
        if residual:
            _, d, v = smith_normal_form([[row.get(j, 0) for j in core_columns] for row in residual])
            diagonal = snf_diagonal(d)
        else:
            diagonal, v = [], []
        bound = {c for pivots in passes for c, _ in pivots} | set(core_columns)
        free_columns = [j for j in range(generator_count) if j not in bound]
        moduli = [x for x in diagonal if x > 1]
        k, s = len(moduli), len(diagonal)
        images: list = [None] * generator_count
        torsion = [q for q, x in enumerate(diagonal) if x > 1]
        for j, row in zip(core_columns, v):
            # the torsion coordinates, then the free ones from column s of V on
            acc = {t: row[q] for t, q in enumerate(torsion)}
            acc.update((k + q - s, row[q]) for q in range(s, len(row)))
            images[j] = _reduced_terms(acc, moduli)
        offset = k + len(core_columns) - s
        for q, j in enumerate(free_columns):
            images[j] = ((offset + q, 1),)
        for pivots in reversed(passes):
            for c, row in pivots:
                p = -row[c]
                acc = {}
                for j, a in row.items():
                    if j != c:
                        f = p * a
                        for t, y in images[j]:
                            acc[t] = acc.get(t, 0) + f * y
                images[c] = _reduced_terms(acc, moduli)
        invariants = (1,) * sum(map(len, passes)) + tuple(diagonal)
        return cls(generator_count, invariants, tuple(images))

    @property
    def images(self) -> tuple[tuple[int, ...], ...]:
        """Per generator, its image as a dense vector: torsion coordinates,
        then free ones."""
        width = len(self.torsion) + self.rank
        return tuple(_dense(terms, width) for terms in self.sparse_images)

    @property
    def rank(self) -> int:
        return self.generator_count - len(self.invariants)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariants if d > 1)

    def reduced(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Torsion coordinates (mod their invariant) followed by free ones."""
        moduli = self.torsion
        acc = [0] * (len(moduli) + self.rank)
        for x, terms in zip(vector, self.sparse_images):
            if x:
                for t, y in terms:
                    acc[t] += x * y
        k = len(moduli)
        return (*(a % m for a, m in zip(acc[:k], moduli)), *acc[k:])


def _reduced_terms(acc: Mapping[int, int], moduli: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The nonzero (coordinate, value) pairs of ``acc``, ascending, with the
    value at torsion coordinate t reduced mod moduli[t]."""
    k = len(moduli)
    if k:
        acc = {t: x % moduli[t] if t < k else x for t, x in acc.items()}
    return tuple(sorted([(t, x) for t, x in acc.items() if x]))


def _dense(terms: Iterable[tuple[int, int]], width: int) -> tuple[int, ...]:
    """The vector of the given width with the given nonzero entries."""
    vec = [0] * width
    for t, x in terms:
        vec[t] = x
    return tuple(vec)


class MeasureModule:
    """The universal measure group of a lattice, or its coinvariants,
    together with the projection of every element into it.

    The generators are the elements, or under an action the orbits, in
    order of their least element index; ``columns[i]`` is the generator
    that element i maps to.  Each element's projection is kept sparse, as
    its generator's ``sparse_images`` entry (:meth:`projection_terms`);
    :meth:`projection` and :meth:`projection_index` build the dense vector
    on each call.
    """

    __slots__ = ("lattice", "group", "action", "columns", "torsion", "rank", "_terms")

    def __init__(self, lattice: OrthoLattice, group: FPAbelianGroup,
                 action: GroupAction | None, columns: Sequence[int]):
        self.lattice = lattice
        self.group = group
        self.action = action
        self.columns = columns
        self.torsion = group.torsion
        self.rank = group.rank
        images = group.sparse_images
        self._terms = tuple([images[c] for c in columns])

    @property
    def variant(self) -> str:
        return "plain" if self.action is None else "coinvariant"

    def projection_terms(self, i: int) -> tuple[tuple[int, int], ...]:
        """The nonzero (coordinate, value) pairs of element i's projection,
        ascending: torsion coordinates first, then free ones."""
        return self._terms[i]

    def projection(self, name: str) -> tuple[int, ...]:
        return self.projection_index(self.lattice.index(name))

    def evaluate(self, formal_sum: "FormalSum") -> tuple[int, ...]:
        """Image of a formal sum under the quotient map (linear in it)."""
        vector = [0] * self.group.generator_count
        for c, x in zip(self.columns, formal_sum.vector(self.lattice)):
            vector[c] += x
        return self.group.reduced(vector)

    def projection_index(self, i: int) -> tuple[int, ...]:
        return _dense(self._terms[i], len(self.torsion) + self.rank)

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        k = len(self.torsion)
        torsion = tuple((x + y) % d for x, y, d in zip(a[:k], b[:k], self.torsion))
        free = tuple(x + y for x, y in zip(a[k:], b[k:]))
        return torsion + free

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * (len(self.torsion) + self.rank)

    def report_dict(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}


def _orbit_columns(lattice: OrthoLattice, action: GroupAction | None) -> list[int]:
    """Generator index per element: the element itself, or its orbit."""
    if action is None:
        return list(range(len(lattice)))
    if not same_lattice(action.lattice, lattice):
        raise ValueError("action is defined on a different lattice")
    labels = action.orbit_labels()
    position = {label: k for k, label in enumerate(sorted(set(labels)))}
    return [position[label] for label in labels]


def measure_module(lattice: OrthoLattice,
                   action: GroupAction | None = None) -> MeasureModule:
    """The universal measure group, or with an action its coinvariants,
    with projection coordinates per element.  A Boolean lattice takes the
    closed form; otherwise the rows are cover rows on an orthomodular
    lattice and orthogonal-pair rows on any other."""
    if is_boolean(lattice):
        return _boolean_module(lattice, action)
    return _module(lattice, _presentation_rows(lattice), action)


def coinvariants(module: MeasureModule, action: GroupAction) -> MeasureModule:
    """The coinvariants of a plain module under the action: the module of
    its lattice under that action, whose rows are the plain rows merged by
    orbit."""
    if module.action is not None:
        raise ValueError("coinvariants needs the plain module")
    return measure_module(module.lattice, action)


def _presentation_rows(lattice: OrthoLattice) -> list[tuple[tuple[int, int], ...]]:
    """Sparse rows presenting the measure group: R(x, y) = e_{x v y} - e_x
    - e_y for each pair (x, y) of :func:`_relation_pairs`, in its order.

    On an orthomodular lattice (OML) the rows are R(0, 0) = -e_0, then
    R(x, a) for every x != 0 and every atom a <= x', once for each pair of
    atoms.  On any other ortholattice they are R(x, y) for every orthogonal
    pair, as in :func:`relation_matrix`.

    On an OML the rows R(x, a) are one per covering pair, and together
    with -e_0 they generate every R(x, y).  Let S(x, z) = e_z - e_x -
    e_{z ^ x'} for x <= z.
      - Orthogonal pairs biject with comparable ones.  For x _|_ y,
        orthomodularity applied to y <= x' gives x' ^ (x v y) = y, so
        R(x, y) = S(x, x v y).  Conversely z = x v (z ^ x') for x <= z,
        so S(x, z) = R(x, z ^ x').
      - t -> t ^ x' maps [x, z] isomorphically onto [0, z ^ x'], with
        inverse s -> s v x.  So z covers x exactly when z ^ x' is an
        atom, and the covering pairs give the rows R(x, a) above.
      - For x <= y <= z, S(x, z) = S(x, y) + S(y, z) - S(y ^ x', z ^ x').
        Expanded, this needs (z ^ x') ^ (y ^ x')' = z ^ y'.  The left
        side is z ^ (x' ^ (y' v x)), and x' ^ (y' v x) = y' by
        orthomodularity applied to y' <= x' (Foulis-Holland).
      - Induct on the length of the longest chain in [x, z].  Length 0
        gives S(x, x) = -e_0, length 1 a covering pair.  Otherwise pick y
        with x covered by y < z; each interval on the right is shorter,
        since [y ^ x', z ^ x'] is the image of [y, z] under the
        isomorphism.
    Outside OMLs the isomorphism fails (benzene has a < b with b ^ a' = 0),
    and so can the presentation: on the ortholattice 0, p0..p3, q0..q3, 1
    with qi = pi' and covers 0 < p0, p2, p3; p0 < p1, q2; p1 < q3; p2 < q0,
    q3; p3 < q1, q2; q1 < q0; q0, q2, q3 < 1, the measure group is Z^2, but
    -e_0 and the cover rows present Z^3: they miss mu(p1) + mu(q1) = mu(1).
    """
    join = lattice.join_index
    bottom = lattice.bottom_index
    return [((bottom, -1),) if bottom in (i, j)
            else tuple(sorted(((join(i, j), 1), (i, -1), (j, -1))))
            for i, j in _relation_pairs(lattice)]


def _relation_pairs(lattice: OrthoLattice) -> Iterator[tuple[int, int]]:
    """The orthogonal pairs whose rows present the measure group.

    On an orthomodular lattice, (0, 0) and then the pairs (x, a), x != 0
    and a an atom below x', one per covering pair: two orthogonal atoms
    give one pair, taken at the lower index.  On any other lattice every
    orthogonal pair, as :meth:`OrthoLattice.orthogonal_index_pairs` lists
    them, since there the cover rows may present a larger group (the
    10-element lattice at ``_presentation_rows``).
    """
    if not is_orthomodular(lattice).ok:
        return lattice.orthogonal_index_pairs()
    bottom = lattice.bottom_index
    atom_mask = sum(1 << a for a in lattice.atom_indices())
    covering = ((i, j) for i, o in enumerate(lattice.orth_map) if i != bottom
                for j in _bits(lattice.down_masks[o] & atom_mask
                               & (-1 << i if atom_mask >> i & 1 else -1)))
    return chain([(bottom, bottom)], covering)


def _combine(terms: Iterable[tuple[int, int]], vectors: Sequence[Mapping[int, int]]) -> dict[int, int]:
    """The sum of a * vectors[j] over the terms (j, a), zeros dropped."""
    acc: dict[int, int] = {}
    for j, a in terms:
        for k, b in vectors[j].items():
            acc[k] = acc.get(k, 0) + a * b
    return {k: x for k, x in acc.items() if x}


def _module(lattice: OrthoLattice, rows: Sequence[tuple[tuple[int, int], ...]],
            action: GroupAction | None) -> MeasureModule:
    """Z^elements modulo the rows; under an action, Z^orbits modulo the
    rows with each orbit's columns summed.

    The latter is the coinvariant group: e_x -> e_[x] maps Z^elements onto
    Z^orbits, and its kernel is spanned by the rows e_gx - e_x that the
    coinvariants add to the relations.

    The group is reduced by the triangular passes of
    :meth:`FPAbelianGroup._presented`, with a column's height the size of
    its element's down-set, which automorphisms keep.  A row R(x, y) with
    x, y != 0 has its +1 at x v y, strictly above both parts (x v y = x
    would put y below x and x', so y = 0); the rows with a part 0 are
    -e_0.  On an OML every z other than 0 and the atoms covers some x != 0
    and so tops a row: the first pass takes one pivot per such z, or per
    orbit of them, -e_0 takes the bottom, and only the atoms, or the atom
    orbits, are left to the later passes and the Smith normal form.
    """
    columns = _orbit_columns(lattice, action)
    width = max(columns) + 1
    heights = [0] * width
    for c, down in zip(columns, lattice.down_masks):
        heights[c] = down.bit_count()
    if action is not None:
        rows = _merged_rows(rows, columns)
    return MeasureModule(lattice, FPAbelianGroup._presented(width, rows, heights), action, columns)


def _merged_rows(rows: Sequence[tuple[tuple[int, int], ...]],
                 columns: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
    """The rows with each orbit's columns summed; zero and repeated rows
    dropped, the rest in order of first appearance."""
    merged = {}
    for row in rows:
        acc = {}
        for j, a in row:
            acc[columns[j]] = acc.get(columns[j], 0) + a
        merged[tuple(sorted((c, a) for c, a in acc.items() if a))] = None
    merged.pop((), None)
    return list(merged)


def _boolean_module(lattice: OrthoLattice, action: GroupAction | None) -> MeasureModule:
    """The measure group of a Boolean lattice in closed form: Z^atoms, or
    under an action Z^(atom orbits), each element at the number of its
    atoms in each coordinate.

    Every element x is the orthogonal join of the atoms below it, so a
    measure is the sum of its atom values, and any atom values give one:
    the group is free on the atoms, with e_x -> the sum of e_a over the
    atoms a <= x.  The coinvariants of a permutation module are free on the
    orbits, so under an action each atom orbit is one coordinate.  The row
    route of :func:`_module` reaches the same images and invariants, taking
    a pivot at every column but the atoms' (or atom orbits').
    """
    columns = _orbit_columns(lattice, action)
    atom_mask = sum(1 << a for a in lattice.atom_indices())
    coordinate = {c: t for t, c in enumerate(sorted({columns[a] for a in _bits(atom_mask)}))}
    images: dict[int, tuple[tuple[int, int], ...]] = {}
    for x, down in enumerate(lattice.down_masks):
        c = columns[x]
        if c not in images:
            counts: dict[int, int] = {}
            for a in _bits(down & atom_mask):
                t = coordinate[columns[a]]
                counts[t] = counts.get(t, 0) + 1
            images[c] = tuple(sorted(counts.items()))
    width = len(images)
    group = FPAbelianGroup(width, (1,) * (width - len(coordinate)),
                           tuple(images[c] for c in range(width)))
    return MeasureModule(lattice, group, action, columns)


def hom_count(module: MeasureModule | FPAbelianGroup, m: int) -> int:
    """Number of homomorphisms into Z/m: m^rank times gcd(d, m) per torsion d."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    group = module.group if isinstance(module, MeasureModule) else module
    count = m ** group.rank
    for d in group.torsion:
        count *= gcd(d, m)
    return count


# --- measure bases ----------------------------------------------------------------


def basis_from_module(module: MeasureModule, domain: Domain) -> list[Measure]:
    """Measures spanning (Z, Q) or generating (Z/m) the homomorphism group.

    Over Z and Q the free coordinates of the projection give a basis
    (torsion contributes nothing); each basis measure is sign-normalized so
    its first nonzero value in canonical element order is positive.  Over
    Z/m the generators split into one of order gcd(d, m) per torsion
    invariant d plus one of order m per free coordinate.

    Coordinate t's values at every element, its column, are filled from
    the sparse projections in one pass over the elements.
    """
    elements = module.lattice.elements
    k = len(module.torsion)
    columns = [[0] * len(elements) for _ in range(k + module.rank)]
    for i in range(len(elements)):
        for t, x in module.projection_terms(i):
            columns[t][i] = x
    out = []
    if domain.kind in ("Z", "Q"):
        for values in columns[k:]:
            first = next((v for v in values if v), 0)
            if first < 0:
                values = [-v for v in values]
            if domain.kind == "Q":
                values = [Fraction(v) for v in values]
            out.append(Measure(domain, dict(zip(elements, values))))
        return out
    m = domain.modulus
    for d, values in zip(module.torsion, columns):
        g = gcd(d, m)
        if g == 1:
            continue
        scale = m // g
        out.append(Measure(domain, {e: scale * v % m for e, v in zip(elements, values)}))
    for values in columns[k:]:
        out.append(Measure(domain, {e: v % m for e, v in zip(elements, values)}))
    return out


def measure_basis(lattice: OrthoLattice, domain: Domain,
                  action: GroupAction | None = None) -> list[Measure]:
    """Basis (Z, Q) or generators (Z/m) of the measure space, optionally of
    the invariant one."""
    return basis_from_module(measure_module(lattice, action), domain)


# --- brute-force oracle -------------------------------------------------------------


def brute_force_measures(lattice: OrthoLattice, value_range: Iterable,
                         domain: Domain) -> list[Measure]:
    """All functions from the elements into the value range passing is_measure.

    Independent enumeration used to cross-check the algebraic machinery.  The
    search assigns values in canonical element order and rejects a partial
    assignment as soon as an orthogonal-pair constraint among assigned
    elements fails, which never changes the result set.  Raises
    OracleTooLargeError when there are more than DEFAULT_MAX_ORACLE
    candidate functions.
    """
    values = [domain.validate(v) for v in value_range]
    if len(set(values)) != len(values):
        raise ValueError("value range contains duplicates")
    n = len(lattice)
    if len(values) ** n > DEFAULT_MAX_ORACLE:
        raise OracleTooLargeError(
            f"{len(values)}^{n} candidates exceeds the budget of {DEFAULT_MAX_ORACLE}"
        )
    # constraint triples (i, j, join), grouped by the last element assigned
    by_last: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for i, j in lattice.orthogonal_index_pairs():
        k = lattice.join_index(i, j)
        by_last[max(i, j, k)].append((i, j, k))
    assignment = [None] * n
    found: list[Measure] = []
    # Domain.add, with the record's fields read once per call, not per test
    modulus = domain.modulus if domain.kind == "Zmod" else None

    def extend(t: int):
        if t == n:
            found.append(
                Measure(domain, dict(zip(lattice.elements, assignment)))
            )
            return
        for v in values:
            assignment[t] = v
            for i, j, k in by_last[t]:
                total = assignment[i] + assignment[j]
                if modulus is not None:
                    total %= modulus
                if total != assignment[k]:
                    break
            else:
                extend(t + 1)
        assignment[t] = None

    extend(0)
    return found
