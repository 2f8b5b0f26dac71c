"""Generating sets and measure extension from them.

Both extensions run on one closure over pairwise orthogonal joins
(``_orthogonal_closure``).  Starting from bottom, it joins every element x
reached so far with every member b <= x', found as the set bits of one
mask, so it costs one step per such pair plus one mask operation per
element reached.  By De Morgan, b <= (v S)' holds exactly when b is
orthogonal to every s in S, so the elements reached are exactly the joins
of pairwise orthogonal sets of members, in any ortholattice and with no
bound on the size of those sets.  Orthogonal generation is therefore
decided exactly.

The closure also records, for every element it reaches, the sum of the
member values along the path that first reached it.  Each step adds a
member orthogonal to the join so far, so every measure restricting to the
values takes exactly that sum there: when the members generate, the path
sums are the only candidate.  An extension exists exactly when the
candidate is a measure and agrees with the value of every member;
otherwise none exists, and the first failing check is the witness.  The
argument uses addition alone, so it holds alike over Z, Q and Z/m, and the
extension is unique by construction.

Classical route: a distributive ortholattice is Boolean, and a set
generating it by joins contains every atom (atoms are join-irreducible),
so it also generates by orthogonal joins.  The route checks distributivity,
then runs the invariant route with every member its own class and orbit.

Invariant route: the set must generate for the action (the class map from
normalizer orbits to full orbits is injective, and the orbit set of the
members generates orthogonally).  One ``orbits`` pass of the normalizer
gives each class its value and decides injectivity (no two classes share a
full orbit); one closure over the orbit set decides generation and gives
the path sums.  Each element of the orbit set gets the value of the class
in its full orbit; injectivity makes that well defined, and any invariant
extension takes those values.  A candidate that is a measure is
invariant: each element of the orbit set other than bottom is reached from
bottom directly, so the candidate takes the orbit-constant values there,
and for an automorphism g the measure x -> mu(g x) agrees with mu on the
g-stable orbit set, so by uniqueness it is mu.  No group element is listed.

Conventions: the bottom element is the join of the empty subset, so it need
not belong to a generating set.  Witnesses are the first in canonical
element order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    DomainMismatchError,
    InconsistentExtensionError,
    KernelViolationError,
    MeetClosureError,
    NotDistributiveError,
    NotGeneratingError,
    NotGeneratingForActionError,
    NotInvariantOnGeneratorsError,
    SchemaError,
)
from .lattice import CheckResult, OrthoLattice, is_distributive, read_json
from .measures import Domain, Measure, RATIONALS, _is_measure_of_validated
from .symmetry import GroupAction, Orbit, normalizer, orbits, quotient_map_injective


class GeneratingSet(NamedTuple):
    """A subset closed under pairwise meets, in canonical element order."""

    members: tuple[str, ...]


class PartialMeasure(NamedTuple):
    """Values on (part of) a generating set; consistency is checked by the
    extension operations, not here."""

    domain: Domain
    values: Mapping[str, object]


def make_generating_set(lattice: OrthoLattice, members: Iterable[str]) -> GeneratingSet:
    """Validate meet closure and canonicalize the member order.

    Bottom counts as implicitly present (it is the empty join and carries
    value zero), so pairwise meets may land on it without it being listed.
    Meets are symmetric and x ^ x = x, so each pair is tested once.
    """
    idx = sorted({lattice.index(b) for b in members})
    present = sum(1 << i for i in idx) | 1 << lattice.bottom_index
    meet, names = lattice.meet_index, lattice.elements
    for k, i in enumerate(idx):
        for j in idx[k + 1:]:
            m = meet(i, j)
            if not present >> m & 1:
                raise MeetClosureError(
                    f"meet of {names[i]!r} and {names[j]!r} is {names[m]!r}, not in the set"
                )
    return GeneratingSet(tuple(names[i] for i in idx))


def _orthogonal_closure(lattice: OrthoLattice, members: Iterable[str],
                        values: Mapping[str, object]) -> tuple[str | None, dict[int, object]]:
    """The joins of pairwise orthogonal members, reached from bottom.

    From each element x reached, x v b is reached for every member b <= x',
    the set bits of the down-set of x' among the members, in index order;
    see the module docstring for why this reaches exactly the joins of
    pairwise orthogonal sets of members.  Members come in canonical order
    (ascending index), so that order is theirs.  Returns the first element
    not reached, in canonical order (None when all are), and, by element
    index, the sum of ``values`` along the path that first reached each
    element (bottom: 0), unreduced.
    """
    value = {lattice.index(b): values[b] for b in members}
    member_mask = sum(1 << b for b in value)
    orth, down = lattice.orth_map, lattice.down_masks
    order, down_pos = lattice.order, lattice.down_pos
    sums = {lattice.bottom_index: 0}
    queue = [lattice.bottom_index]
    for x in queue:  # grows while it is read
        rest, complement_x, total = down[orth[x]] & member_mask, down_pos[orth[x]], sums[x]
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            # x v b = (x' ^ b')', the meet at the highest common position
            z = orth[order[(complement_x & down_pos[orth[b]]).bit_length() - 1]]
            if z not in sums:
                sums[z] = total + value[b]
                queue.append(z)
    missing = next((e for i, e in enumerate(lattice.elements) if i not in sums), None)
    return missing, sums


def _generated(missing: str | None) -> CheckResult:
    return CheckResult(True) if missing is None else CheckResult(False, (missing,))


def _orthogonal_generating(lattice: OrthoLattice, members: tuple[str, ...]) -> CheckResult:
    return _generated(_orthogonal_closure(lattice, members, dict.fromkeys(members, 0))[0])


def _checked_extension(lattice: OrthoLattice, sums: dict[int, object],
                       values: Mapping[str, object], domain: Domain, error) -> Measure:
    """The closure's path sums as a measure, if they are one that agrees
    with ``values``; otherwise ``error`` naming the first failing check."""
    # each value is validated once, here, and checked as it stands
    vals = [domain.validate(sums[i]) for i in range(len(lattice))]
    check = _is_measure_of_validated(lattice, vals, domain)
    extension = dict(zip(lattice.elements, vals))
    if not check.ok:
        a, b = check.witness
        raise error(
            f"the forced values violate additivity on pair ({a!r}, {b!r}) "
            f"with join {lattice.join(a, b)!r}"
        )
    for b, v in values.items():
        if extension[b] != v:
            raise error(f"the forced value at {b!r} is {extension[b]!r}, not {v!r}")
    return Measure(domain, extension)


def is_orthogonal_generating_set(lattice: OrthoLattice,
                                 members: Iterable[str]) -> CheckResult:
    """Every element is a join of pairwise orthogonal members.

    Requires meet closure (MeetClosureError otherwise); the witness is the
    first element with no orthogonal decomposition.
    """
    gs = make_generating_set(lattice, members)
    return _orthogonal_generating(lattice, gs.members)


class ActionGeneratingReport(NamedTuple):
    """Which half of the generating-for-the-action condition failed."""

    quotient_injective: bool
    orbit_generating: CheckResult

    @property
    def ok(self) -> bool:
        return self.quotient_injective and self.orbit_generating.ok

    def __bool__(self) -> bool:
        return self.ok


def is_generating_for_action(lattice: OrthoLattice, action: GroupAction,
                             members: Iterable[str]) -> ActionGeneratingReport:
    """Injectivity of the class map plus orbit-set orthogonal generation.

    Meet closure is required of the set itself; its orbit under the group
    need not be meet-closed and is tested for generation directly.
    """
    gs = make_generating_set(lattice, members)
    injective = quotient_map_injective(action, gs.members)
    generating = _orthogonal_generating(lattice, _orbit_set(lattice, action, gs.members))
    return ActionGeneratingReport(injective, generating)


def _orbit_set(lattice: OrthoLattice, action: GroupAction,
               members: tuple[str, ...]) -> tuple[str, ...]:
    """The union of the members' orbits, in canonical order."""
    labels = action.orbit_labels()
    hit = {labels[lattice.index(b)] for b in members}
    return tuple(e for e, k in zip(lattice.elements, labels) if k in hit)


def _class_values(lattice: OrthoLattice, action: GroupAction | None,
                  members: tuple[str, ...],
                  partial: PartialMeasure) -> tuple[list[Orbit], dict[str, object]]:
    """The classes (each member alone with no action, else its normalizer
    orbit) and each member's value, validated once: the one given on its
    class."""
    for b in partial.values:
        if b not in lattice:
            raise SchemaError(f"partial measure names unknown element {b!r}")
        if b not in members:
            raise SchemaError(f"partial measure names non-member {b!r}")
    if action is None:
        classes, what = [Orbit(b, (b,)) for b in members], "member"
    else:
        classes, what = orbits(normalizer(action, members), members), "the class of"
    validate = partial.domain.validate
    values: dict[str, object] = {}
    for orb in classes:
        given = {validate(partial.values[b]) for b in orb.members if b in partial.values}
        if not given:
            raise DomainMismatchError(f"no value given for {what} {orb.representative!r}")
        if len(given) > 1:
            raise NotInvariantOnGeneratorsError(
                f"values differ on the normalizer orbit of {orb.representative!r}"
            )
        v = given.pop()
        for b in orb.members:
            values[b] = v
    return classes, values


def _extend(lattice: OrthoLattice, action: GroupAction | None, members: Iterable[str],
            partial: PartialMeasure) -> tuple[bool, str | None, dict[int, object], dict[str, object]]:
    """Both routes (module docstring): whether the class map is injective,
    the first element the orbit set does not generate (or None), the path
    sums over the orbit set and each member's value."""
    gs = make_generating_set(lattice, members)
    classes, values = _class_values(lattice, action, gs.members, partial)
    labels = range(len(lattice)) if action is None else action.orbit_labels()
    by_orbit = {labels[lattice.index(orb.representative)]: values[orb.representative]
                for orb in classes}
    orbit_values = {
        e: by_orbit[k] for e, k in zip(lattice.elements, labels) if k in by_orbit
    }
    missing, sums = _orthogonal_closure(lattice, orbit_values, orbit_values)
    return len(by_orbit) == len(classes), missing, sums, values


def classical_groemer_extend(lattice: OrthoLattice, members: Iterable[str],
                             partial: PartialMeasure) -> Measure:
    """The unique measure restricting to the values on a generating set of
    a distributive lattice.

    The lattice must be distributive (NotDistributiveError) and the set
    meet-closed (MeetClosureError).  Generation is checked first: an
    element that is no join of pairwise orthogonal members raises
    NotGeneratingError, even when the values are also inconsistent.  The
    extension is the closure's path sums (module docstring); when they do
    not form a measure agreeing with every member value, no extension
    exists and InconsistentExtensionError names the first failure.
    """
    dist = is_distributive(lattice)
    if not dist.ok:
        raise NotDistributiveError(f"witness {dist.witness}")
    _, missing, sums, values = _extend(lattice, None, members, partial)
    if missing is not None:
        raise NotGeneratingError(f"{missing!r} is not a join of pairwise orthogonal members")
    return _checked_extension(lattice, sums, values, partial.domain,
                              InconsistentExtensionError)


def orth_groemer_extend(lattice: OrthoLattice, action: GroupAction,
                        members: Iterable[str], partial: PartialMeasure) -> Measure:
    """The unique invariant measure restricting to the given values.

    Requires a value for each normalizer orbit of the members
    (DomainMismatchError), the same on all of it
    (NotInvariantOnGeneratorsError), and then the set to generate for the
    action (NotGeneratingForActionError), so a missing value is refused as
    on the classical route; a value given for one member of a normalizer
    orbit stands for the whole orbit.  Each element of the orbit
    set takes the value of the class in its full orbit, and the extension
    is the closure's path sums over the orbit set (module docstring); when
    they do not form a measure agreeing with every member value, no
    extension exists and KernelViolationError names the first failure.  A
    measure they form is invariant (module docstring).
    """
    injective, missing, sums, values = _extend(lattice, action, members, partial)
    if not injective or missing is not None:
        raise NotGeneratingForActionError(
            f"quotient_injective={injective}, orbit_generating={_generated(missing)}"
        )
    return _checked_extension(lattice, sums, values, partial.domain, KernelViolationError)


def weak_groemer_check(lattice: OrthoLattice, action: GroupAction,
                       members: Iterable[str], measure: Measure) -> CheckResult:
    """Inclusion direction: an invariant measure restricts to a
    normalizer-invariant function, additive on orthogonal member pairs.

    Preconditions (orbit set generates orthogonally; the measure is
    invariant) are reported as failures with a labeled witness rather than
    raised, so callers can feed candidate inputs directly.  Invariance is
    tried on the generators only, which is invariance under the group.

    Normalizer invariance of the restriction then needs no check: the
    normalizer is a subgroup, so each of its orbits lies inside one orbit
    of the group, on which the measure is constant.  Only additivity is
    scanned.
    """
    gs = make_generating_set(lattice, members)
    generating = _orthogonal_generating(lattice, _orbit_set(lattice, action, gs.members))
    if not generating.ok:
        return CheckResult(False, ("precondition:orbit_not_generating",) + generating.witness)
    for g in action.generators:
        for x in lattice.elements:
            if measure.values[g(x)] != measure.values[x]:
                return CheckResult(False, ("precondition:not_invariant", x))
    member_set = set(gs.members)
    for b1, b2 in combinations(gs.members, 2):
        if lattice.orthogonal(b1, b2):
            join = lattice.join(b1, b2)
            if join in member_set:
                lhs = measure.domain.add(measure.values[b1], measure.values[b2])
                if lhs != measure.values[join]:
                    return CheckResult(False, ("restriction_not_additive", b1, b2))
    return CheckResult(True)


# --- file formats ------------------------------------------------------------------


def load_generating_set(path, lattice: OrthoLattice) -> list[str]:
    """Read {"members": [elem, ...]}; the extension routes check meet closure."""
    data = read_json(path)
    if not isinstance(data, dict) or set(data) != {"members"}:
        raise SchemaError('generating set file must be {"members": [...]}')
    members = data["members"]
    if not isinstance(members, list) or not all(isinstance(b, str) for b in members):
        raise SchemaError("'members' must be a list of element names")
    unknown = [b for b in members if b not in lattice]
    if unknown:
        raise SchemaError(f"unknown element {unknown[0]!r} in generating set")
    return members


def load_partial_measure(path, domain: Domain = RATIONALS) -> PartialMeasure:
    """Read {"values": {elem: "p/q" or int}} for the given domain; the
    extension routes check the keys and validate each value."""
    data = read_json(path)
    if not isinstance(data, dict) or set(data) != {"values"}:
        raise SchemaError('partial measure file must be {"values": {...}}')
    raw = data["values"]
    if not isinstance(raw, dict):
        raise SchemaError("'values' must map element names to values")
    values = {}
    for key, val in raw.items():
        if isinstance(val, str):
            try:
                val = Fraction(val)
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"bad rational {val!r}") from exc
        elif isinstance(val, bool) or not isinstance(val, int):
            raise SchemaError(f"value for {key!r} must be an int or 'p/q' string")
        values[key] = val
    return PartialMeasure(domain, values)


