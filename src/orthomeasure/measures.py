"""The universal measure group of a lattice and its coinvariants.

The free abelian group on the elements, modulo one relation per unordered
orthogonal pair (the join minus the two parts), parameterizes measures:
group homomorphisms out of the quotient are exactly the additive measures,
and homomorphisms out of the coinvariants under a group action are exactly
the invariant ones.  Smith normal form of the relation matrix yields the
rank, the torsion, and explicit coordinates for the projection of every
lattice element, from which measure bases over Z, Q, and Z/m are read off.
Coinvariants need only the orbits: they are the free group on the orbits
modulo the relation rows with each orbit's columns summed.

Coefficient domains are fixed to Z, Q, and Z/m: the finitely computable
cases.  On a finite lattice every orthogonal family is finite, so additive
and sigma-additive collapse to the single Measure notion used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import DomainMismatchError, OracleTooLargeError
from .intlinalg import smith_normal_form, snf_diagonal
from .lattice import CheckResult, OrthoLattice, same_lattice
from .symmetry import GroupAction

DEFAULT_MAX_ORACLE = 10_000_000


# --- coefficient domains -------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """Coefficient domain: the integers, the rationals, or integers mod m."""

    kind: str  # "Z" | "Q" | "Zmod"
    modulus: int | None = None

    @property
    def label(self) -> str:
        return f"Z/{self.modulus}" if self.kind == "Zmod" else self.kind

    def validate(self, value):
        """Return the canonical representative, or raise DomainMismatchError."""
        if self.kind == "Z":
            if isinstance(value, int) and not isinstance(value, bool):
                return value
            if isinstance(value, Fraction) and value.denominator == 1:
                return int(value)
            raise DomainMismatchError(f"{value!r} is not an integer")
        if self.kind == "Q":
            if isinstance(value, int) and not isinstance(value, bool):
                return Fraction(value)
            if isinstance(value, Fraction):
                return value
            raise DomainMismatchError(f"{value!r} is not a rational")
        if isinstance(value, int) and not isinstance(value, bool):
            return value % self.modulus
        raise DomainMismatchError(f"{value!r} is not a residue mod {self.modulus}")

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


@dataclass(frozen=True)
class FormalSum:
    """An integer combination of lattice elements (the free abelian group)."""

    coefficients: Mapping[str, int]

    def vector(self, lattice: OrthoLattice) -> list[int]:
        vec = [0] * len(lattice)
        for name, c in self.coefficients.items():
            vec[lattice.index(name)] += int(c)
        return vec


@dataclass(frozen=True)
class Measure:
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
    """Additivity on every orthogonal pair; witness is the first failure.

    The pair ("0", "0") is orthogonal, so a nonzero value at bottom is
    itself a violation.
    """
    vals = _validated_values(lattice, values, domain)
    n = len(lattice)
    for i in range(n):
        oi = lattice.orth_map[i]
        for j in range(i, n):
            if lattice.leq_index(j, oi):
                k = lattice.join_table[i][j]
                if domain.add(vals[i], vals[j]) != vals[k]:
                    return CheckResult(
                        False, (lattice.elements[i], lattice.elements[j])
                    )
    return CheckResult(True)


def _validated_values(lattice, values, domain):
    out = []
    for e in lattice.elements:
        if e not in values:
            raise DomainMismatchError(f"no value given for element {e!r}")
        out.append(domain.validate(values[e]))
    return out


# --- the relation matrix and its Smith form --------------------------------------


def relation_matrix(lattice: OrthoLattice) -> list[list[int]]:
    """One row per unordered orthogonal pair: join minus the two parts.

    Columns follow the canonical element order.  The ("0", "0") pair
    contributes the row forcing the bottom element to zero.
    """
    n = len(lattice)
    rows = []
    for i in range(n):
        oi = lattice.orth_map[i]
        for j in range(i, n):
            if lattice.leq_index(j, oi):
                row = [0] * n
                row[lattice.join_table[i][j]] += 1
                row[i] -= 1
                row[j] -= 1
                rows.append(row)
    return rows


@dataclass(frozen=True)
class FPAbelianGroup:
    """Z^n modulo the subgroup generated by the relation rows, in Smith
    normal form coordinates."""

    generator_count: int
    relation_rows: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]      # V with U * A * V = D
    invariants: tuple[int, ...]             # nonzero diagonal entries of D

    @classmethod
    def from_relations(cls, generator_count: int, rows: Sequence[Sequence[int]]) -> "FPAbelianGroup":
        rows = [list(r) for r in rows if any(r)]
        if not rows:
            rows = [[0] * generator_count]
        _, d, v = smith_normal_form(rows)
        return cls(
            generator_count,
            tuple(tuple(r) for r in rows),
            tuple(tuple(r) for r in v),
            tuple(snf_diagonal(d)),
        )

    @property
    def rank(self) -> int:
        return self.generator_count - len(self.invariants)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariants if d > 1)

    def coordinates(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a formal sum in the Smith basis (full length n)."""
        n = self.generator_count
        v = self.right
        return tuple(
            sum(vector[j] * v[j][i] for j in range(n)) for i in range(n)
        )

    def reduced(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Torsion coordinates (mod their invariant) followed by free ones."""
        return self._split(self.coordinates(vector))

    def _split(self, full: Sequence[int]) -> tuple[int, ...]:
        s = len(self.invariants)
        torsion = tuple(
            full[i] % d for i, d in enumerate(self.invariants) if d > 1
        )
        return torsion + tuple(full[s:])


class MeasureModule:
    """The universal measure group of a lattice, or its coinvariants,
    together with the projection of every element into it.

    The generators are the elements, or under an action the orbits, in
    order of their least element index; ``columns[i]`` is the generator
    that element i maps to.
    """

    __slots__ = ("lattice", "group", "action", "columns", "moduli", "rank", "_proj")

    def __init__(self, lattice: OrthoLattice, group: FPAbelianGroup,
                 action: GroupAction | None = None):
        self.lattice = lattice
        self.group = group
        self.action = action
        self.columns = _orbit_columns(lattice, action)
        self.moduli = group.torsion
        self.rank = group.rank
        # the Smith coordinates of generator c are row c of V
        images = [group._split(row) for row in group.right]
        self._proj = tuple(images[c] for c in self.columns)

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.moduli

    @property
    def variant(self) -> str:
        return "plain" if self.action is None else "coinvariant"

    def projection(self, name: str) -> tuple[int, ...]:
        return self._proj[self.lattice.index(name)]

    def evaluate(self, formal_sum: "FormalSum") -> tuple[int, ...]:
        """Image of a formal sum under the quotient map (linear in it)."""
        vector = [0] * self.group.generator_count
        for c, x in zip(self.columns, formal_sum.vector(self.lattice)):
            vector[c] += x
        return self.group.reduced(vector)

    def projection_index(self, i: int) -> tuple[int, ...]:
        return self._proj[i]

    def free_coordinates(self, name: str) -> tuple[int, ...]:
        return self._proj[self.lattice.index(name)][len(self.moduli):]

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        k = len(self.moduli)
        torsion = tuple((x + y) % d for x, y, d in zip(a[:k], b[:k], self.moduli))
        free = tuple(x + y for x, y in zip(a[k:], b[k:]))
        return torsion + free

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * (len(self.moduli) + self.rank)

    def report_dict(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.moduli)}


def _orbit_columns(lattice: OrthoLattice, action: GroupAction | None) -> list[int]:
    """Generator index per element: the element itself, or its orbit."""
    if action is None:
        return list(range(len(lattice)))
    labels = action.orbit_labels()
    position = {label: k for k, label in enumerate(sorted(set(labels)))}
    return [position[label] for label in labels]


def measure_module(lattice: OrthoLattice,
                   action: GroupAction | None = None) -> MeasureModule:
    """The universal measure group, or with an action its coinvariants,
    with projection coordinates per element."""
    return _module_from_relations(lattice, relation_matrix(lattice), action)


def coinvariants(module: MeasureModule, action: GroupAction) -> MeasureModule:
    """The coinvariants of a plain module under the action."""
    if module.action is not None:
        raise ValueError("coinvariants needs the plain module")
    return _module_from_relations(module.lattice, module.group.relation_rows, action)


def _module_from_relations(lattice: OrthoLattice, rows: Sequence[Sequence[int]],
                           action: GroupAction | None) -> MeasureModule:
    """Z^elements modulo the relation rows; under an action, Z^orbits
    modulo the rows with each orbit's columns summed.

    The latter is the coinvariant group: e_x -> e_[x] maps Z^elements onto
    Z^orbits, and its kernel is spanned by the rows e_gx - e_x that the
    coinvariants add to the relations.
    """
    if action is None:
        return MeasureModule(lattice, FPAbelianGroup.from_relations(len(lattice), rows))
    if not same_lattice(action.lattice, lattice):
        raise ValueError("action is defined on a different lattice")
    columns = _orbit_columns(lattice, action)
    width = max(columns) + 1
    merged = {}
    for row in rows:
        out = [0] * width
        for c, x in zip(columns, row):
            out[c] += x
        merged[tuple(out)] = None
    return MeasureModule(lattice, FPAbelianGroup.from_relations(width, list(merged)), action)


def universal_measure_eval(module: MeasureModule, name: str) -> tuple[int, ...]:
    """Coordinates of the universal measure at one element."""
    return module.projection(name)


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
    """
    lattice = module.lattice
    k = len(module.moduli)
    out = []
    if domain.kind in ("Z", "Q"):
        for j in range(module.rank):
            values = [module.projection_index(i)[k + j] for i in range(len(lattice))]
            first = next((v for v in values if v), 0)
            if first < 0:
                values = [-v for v in values]
            if domain.kind == "Q":
                values = [Fraction(v) for v in values]
            out.append(Measure(domain, dict(zip(lattice.elements, values))))
        return out
    m = domain.modulus
    for t, d in enumerate(module.moduli):
        g = gcd(d, m)
        if g == 1:
            continue
        scale = m // g
        values = {
            e: (scale * module.projection_index(i)[t]) % m
            for i, e in enumerate(lattice.elements)
        }
        out.append(Measure(domain, values))
    for j in range(module.rank):
        values = {
            e: module.projection_index(i)[k + j] % m
            for i, e in enumerate(lattice.elements)
        }
        out.append(Measure(domain, values))
    return out


def measure_basis(lattice: OrthoLattice, domain: Domain,
                  action: GroupAction | None = None) -> list[Measure]:
    """Basis (Z, Q) or generators (Z/m) of the measure space, optionally of
    the invariant one."""
    return basis_from_module(measure_module(lattice, action), domain)


# --- brute-force oracle -------------------------------------------------------------


def brute_force_measures(lattice: OrthoLattice, value_range: Iterable,
                         domain: Domain,
                         max_candidates: int = DEFAULT_MAX_ORACLE) -> list[Measure]:
    """All functions from the elements into the value range passing is_measure.

    Independent enumeration used to cross-check the algebraic machinery.  The
    search assigns values in canonical element order and rejects a partial
    assignment as soon as an orthogonal-pair constraint among assigned
    elements fails, which never changes the result set.
    """
    values = [domain.validate(v) for v in value_range]
    if len(set(values)) != len(values):
        raise ValueError("value range contains duplicates")
    n = len(lattice)
    if len(values) ** n > max_candidates:
        raise OracleTooLargeError(
            f"{len(values)}^{n} candidates exceeds the budget of {max_candidates}"
        )
    # constraint triples (i, j, join), grouped by the last element assigned
    by_last: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        oi = lattice.orth_map[i]
        for j in range(i, n):
            if lattice.leq_index(j, oi):
                k = lattice.join_table[i][j]
                by_last[max(i, j, k)].append((i, j, k))
    assignment = [None] * n
    found: list[Measure] = []

    def extend(t: int):
        if t == n:
            found.append(
                Measure(domain, dict(zip(lattice.elements, assignment)))
            )
            return
        for v in values:
            assignment[t] = v
            if all(
                domain.add(assignment[i], assignment[j]) == assignment[k]
                for i, j, k in by_last[t]
            ):
                extend(t + 1)
        assignment[t] = None

    extend(0)
    return found
