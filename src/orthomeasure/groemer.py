"""Generating sets and measure extension from them.

Classical route: on a distributive lattice, a partial measure on a
meet-closed generating set satisfying the inclusion-exclusion identities
extends uniquely; the extension is computed by inclusion-exclusion over
subset decompositions and verified independent of the chosen decomposition.

Invariant route: for a group action and a set that generates for the action
(the quotient map on normalizer classes is injective and the orbit of the
set generates orthogonally), normalizer-invariant additive functions on the
set correspond exactly to invariant measures.  The extension is computed
through the coinvariant measure module, which is decomposition-independent
by construction; decomposition sums agree with it and the tests cross-check
both routes.

Conventions: the bottom element is the join of the empty subset, so it need
not belong to a generating set.  Decomposition searches are exhaustive over
subsets up to size 8, smallest first, in canonical order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import gcd
from typing import Iterable, Mapping

from .errors import (
    DomainMismatchError,
    InconsistentExtensionError,
    KernelViolationError,
    MeetClosureError,
    NotDistributiveError,
    NotGeneratingError,
    NotGeneratingForActionError,
    NotInvariantOnGeneratorsError,
    OracleTooLargeError,
    SchemaError,
)
from .intlinalg import rational_rank, rational_solve
from .lattice import CheckResult, OrthoLattice, is_distributive
from .measures import (
    Domain,
    Measure,
    RATIONALS,
    basis_from_module,
    hom_count,
    is_measure,
    measure_module,
)
from .symmetry import GroupAction, normalizer, orbits, quotient_map_injective

MAX_DECOMPOSITION_SIZE = 8
MAX_HOM_ENUMERATION = 10_000


@dataclass(frozen=True)
class GeneratingSet:
    """A subset closed under pairwise meets, in canonical element order."""

    members: tuple[str, ...]
    meet_closed: bool = True


@dataclass(frozen=True)
class PartialMeasure:
    """Values on (part of) a generating set; consistency is checked by the
    extension operations, not here."""

    domain: Domain
    values: Mapping[str, object]


def make_generating_set(lattice: OrthoLattice, members: Iterable[str]) -> GeneratingSet:
    """Validate meet closure and canonicalize the member order.

    Bottom counts as implicitly present (it is the empty join and carries
    value zero), so pairwise meets may land on it without it being listed.
    """
    idx = sorted({lattice.index(b) for b in members})
    names = [lattice.elements[i] for i in idx]
    present = set(names) | {lattice.bottom}
    for b1 in names:
        for b2 in names:
            m = lattice.meet(b1, b2)
            if m not in present:
                raise MeetClosureError(
                    f"meet of {b1!r} and {b2!r} is {m!r}, not in the set"
                )
    return GeneratingSet(tuple(names))


def _subsets_by_join(lattice: OrthoLattice, members: tuple[str, ...],
                     orthogonal: bool,
                     max_size: int = MAX_DECOMPOSITION_SIZE) -> dict[str, list[tuple[str, ...]]]:
    """Subsets of the members grouped by their join, smallest subsets first.

    The empty subset joins to bottom.  In orthogonal mode only pairwise
    orthogonal subsets are kept.
    """
    out: dict[str, list[tuple[str, ...]]] = {lattice.bottom: [()]}
    for k in range(1, min(len(members), max_size) + 1):
        for combo in combinations(members, k):
            if orthogonal and any(
                not lattice.orthogonal(a, b) for a, b in combinations(combo, 2)
            ):
                continue
            out.setdefault(lattice.join_all(combo), []).append(combo)
    return out


def _orthogonal_generating(lattice: OrthoLattice, members: tuple[str, ...]) -> CheckResult:
    table = _subsets_by_join(lattice, members, orthogonal=True)
    for e in lattice.elements:
        if e not in table:
            return CheckResult(False, (e,))
    return CheckResult(True)


def is_orthogonal_generating_set(lattice: OrthoLattice,
                                 members: Iterable[str]) -> CheckResult:
    """Every element is a join of pairwise orthogonal members.

    Requires meet closure (MeetClosureError otherwise); the witness is the
    first element with no orthogonal decomposition.
    """
    gs = make_generating_set(lattice, members)
    return _orthogonal_generating(lattice, gs.members)


@dataclass(frozen=True)
class ActionGeneratingReport:
    """Which half of the generating-for-the-action condition failed."""

    quotient_injective: bool
    orbit_generating: CheckResult

    @property
    def ok(self) -> bool:
        return self.quotient_injective and self.orbit_generating.ok

    def __bool__(self) -> bool:
        return self.ok


def is_generating_for_action(lattice: OrthoLattice, action: GroupAction,
                             members: Iterable[str],
                             norm: GroupAction | None = None) -> ActionGeneratingReport:
    """Injectivity of the class map plus orbit-set orthogonal generation.

    Meet closure is required of the set itself; its orbit under the group
    need not be meet-closed and is tested for generation directly.
    ``norm`` is the normalizer of the members, when the caller has it.
    """
    gs = make_generating_set(lattice, members)
    injective = quotient_map_injective(action, gs.members, norm)
    generating = _orthogonal_generating(lattice, _orbit_set(lattice, action, gs.members))
    return ActionGeneratingReport(injective, generating)


def _orbit_set(lattice: OrthoLattice, action: GroupAction,
               members: tuple[str, ...]) -> tuple[str, ...]:
    """The union of the members' orbits, in canonical order."""
    return tuple(sorted(
        {e for orb in orbits(action, members) for e in orb.members},
        key=lattice.index,
    ))


def _validated_partial(lattice: OrthoLattice, members: tuple[str, ...],
                       partial: PartialMeasure) -> dict[str, object]:
    values = {}
    for b in partial.values:
        if b not in lattice:
            raise SchemaError(f"partial measure names unknown element {b!r}")
        if b not in members:
            raise SchemaError(f"partial measure names non-member {b!r}")
    for b in members:
        if b not in partial.values:
            raise DomainMismatchError(f"no value given for member {b!r}")
        values[b] = partial.domain.validate(partial.values[b])
    return values


def _inclusion_exclusion_value(lattice: OrthoLattice, values, combo, domain: Domain):
    """Alternating sum of values over meets of nonempty subsets.

    A meet landing on bottom outside the value map contributes zero.
    """
    total = 0
    for k in range(1, len(combo) + 1):
        sign = 1 if k % 2 else -1
        for sub in combinations(combo, k):
            m = sub[0]
            for b in sub[1:]:
                m = lattice.meet(m, b)
            if m in values:
                total += sign * values[m]
            elif m != lattice.bottom:
                raise DomainMismatchError(f"no value given for meet {m!r}")
    return total % domain.modulus if domain.kind == "Zmod" else total


def inclusion_exclusion_check(lattice: OrthoLattice, members: Iterable[str],
                              partial: PartialMeasure,
                              k_max: int = MAX_DECOMPOSITION_SIZE) -> CheckResult:
    """Inclusion-exclusion identities for tuples with join inside the set.

    Checks every combination of 2..k_max distinct members whose join is a
    member; the lattice must be distributive.  Meet closure guarantees the
    value is defined on every meet the identity needs.
    """
    dist = is_distributive(lattice)
    if not dist.ok:
        raise NotDistributiveError(f"witness {dist.witness}")
    gs = make_generating_set(lattice, members)
    values = _validated_partial(lattice, gs.members, partial)
    present = set(gs.members)
    for k in range(2, min(len(gs.members), k_max) + 1):
        for combo in combinations(gs.members, k):
            join = lattice.join_all(combo)
            if join not in present:
                continue
            expected = _inclusion_exclusion_value(lattice, values, combo, partial.domain)
            if expected != values[join]:
                return CheckResult(False, combo)
    return CheckResult(True)


def classical_groemer_extend(lattice: OrthoLattice, members: Iterable[str],
                             partial: PartialMeasure) -> Measure:
    """Unique extension of a partial measure from a generating set.

    The value at each element is the inclusion-exclusion sum over a
    decomposition into members; every decomposition (up to the subset-size
    cap) is evaluated and disagreement raises InconsistentExtensionError,
    an element with no decomposition raises NotGeneratingError.  The result
    always passes the additivity check.
    """
    dist = is_distributive(lattice)
    if not dist.ok:
        raise NotDistributiveError(f"witness {dist.witness}")
    gs = make_generating_set(lattice, members)
    values = _validated_partial(lattice, gs.members, partial)
    domain = partial.domain
    table = _subsets_by_join(lattice, gs.members, orthogonal=False)
    extension = {}
    for e in lattice.elements:
        decomps = table.get(e)
        if not decomps:
            raise NotGeneratingError(f"{e!r} is not a join of members")
        first = decomps[0]
        value = _inclusion_exclusion_value(lattice, values, first, domain)
        for other in decomps[1:]:
            got = _inclusion_exclusion_value(lattice, values, other, domain)
            if got != value:
                raise InconsistentExtensionError(
                    f"decompositions {first!r} and {other!r} of {e!r} "
                    f"give {value!r} and {got!r}"
                )
        extension[e] = domain.validate(value)
    check = is_measure(lattice, extension, domain)
    if not check.ok:
        raise InconsistentExtensionError(
            f"values violate additivity on pair {check.witness}"
        )
    return Measure(domain, extension)


def orth_groemer_extend(lattice: OrthoLattice, action: GroupAction,
                        members: Iterable[str], partial: PartialMeasure,
                        max_hom_enumeration: int = MAX_HOM_ENUMERATION) -> Measure:
    """The unique invariant measure restricting to the given values.

    Requires the set to generate for the action and the values to be
    constant on normalizer orbits.  The values must kill the kernel of the
    class map onto the coinvariant module, whose generators are the
    additivity relations among members (KernelViolationError otherwise);
    the extension is then the solution of an exact linear system expressing
    the coinvariant coordinates of every element in the member classes.
    """
    gs = make_generating_set(lattice, members)
    norm = normalizer(action, gs.members)
    report = is_generating_for_action(lattice, action, gs.members, norm)
    if not report.ok:
        raise NotGeneratingForActionError(
            f"quotient_injective={report.quotient_injective}, "
            f"orbit_generating={report.orbit_generating}"
        )
    domain = partial.domain
    class_reps = orbits(norm, gs.members)

    values: dict[str, object] = {}
    for orb in class_reps:
        given = {
            b: domain.validate(partial.values[b])
            for b in orb.members
            if b in partial.values
        }
        if not given:
            raise DomainMismatchError(
                f"no value given for the class of {orb.representative!r}"
            )
        distinct = set(given.values())
        if len(distinct) > 1:
            raise NotInvariantOnGeneratorsError(
                f"values differ on the normalizer orbit of {orb.representative!r}"
            )
        v = distinct.pop()
        for b in orb.members:
            values[b] = v
    for b in partial.values:
        if b not in values:
            raise SchemaError(f"partial measure names non-member {b!r}")

    # kernel generators of the class map: additivity among members
    for b1, b2 in combinations(gs.members, 2):
        if lattice.orthogonal(b1, b2):
            join = lattice.join(b1, b2)
            if join in values and domain.add(values[b1], values[b2]) != values[join]:
                raise KernelViolationError(
                    f"additivity fails on members ({b1!r}, {b2!r})"
                )
    if lattice.bottom in values and values[lattice.bottom] != domain.zero:
        raise KernelViolationError("the bottom member must carry value zero")

    module = measure_module(lattice, action)
    reps = [orb.representative for orb in class_reps]
    if domain.kind in ("Z", "Q"):
        rows = [list(module.free_coordinates(b)) for b in reps]
        rhs = [values[b] for b in reps]
        if rational_rank(rows) != module.rank:
            raise NotGeneratingForActionError(
                "member classes do not span the coinvariant measure space"
            )
        sol = rational_solve(rows, rhs)
        if sol is None:
            raise KernelViolationError(
                "the values are inconsistent with the coinvariant relations"
            )
        extension = {}
        for i, e in enumerate(lattice.elements):
            coords = module.projection_index(i)[len(module.moduli):]
            v = sum((c * f for c, f in zip(coords, sol)), Fraction(0))
            if domain.kind == "Z":
                if v.denominator != 1:
                    raise KernelViolationError(
                        f"no integer extension: value at {e!r} is {v}"
                    )
                v = int(v)
            extension[e] = v
    else:
        total = hom_count(module, domain.modulus)
        if total > max_hom_enumeration:
            raise OracleTooLargeError(
                f"{total} homomorphisms exceed the enumeration budget"
            )
        matches = [
            m for m in _all_zmod_measures(lattice, module, domain)
            if all(m.values[b] == values[b] for b in reps)
        ]
        if not matches:
            raise KernelViolationError(
                "no invariant measure restricts to the given values"
            )
        if len(matches) > 1:
            raise NotGeneratingForActionError(
                "the restriction to the set is not injective"
            )
        extension = dict(matches[0].values)

    result = Measure(domain, extension)
    check = is_measure(lattice, extension, domain)
    if not check.ok:
        raise KernelViolationError(
            f"extension violates additivity on pair {check.witness}"
        )
    return result


def _all_zmod_measures(lattice: OrthoLattice, module, domain: Domain) -> list[Measure]:
    """Every measure mod m factoring through the module, each exactly once.

    The homomorphism group is the direct sum of one cyclic group of order
    gcd(d, m) per torsion invariant d and one of order m per free
    coordinate; combinations of the corresponding generator measures with
    coefficients below those orders enumerate it without repetition.
    """
    gens = basis_from_module(module, domain)
    m = domain.modulus
    orders = [g for d in module.moduli if (g := gcd(d, m)) > 1]
    orders += [m] * module.rank
    assert len(orders) == len(gens)
    out = []
    for counters in iproduct(*(range(o) for o in orders)):
        values = {e: 0 for e in lattice.elements}
        for c, g in zip(counters, gens):
            if c:
                for e in values:
                    values[e] = (values[e] + c * g.values[e]) % m
        out.append(Measure(domain, values))
    return out


def weak_groemer_check(lattice: OrthoLattice, action: GroupAction,
                       members: Iterable[str], measure: Measure) -> CheckResult:
    """Inclusion direction: an invariant measure restricts to a
    normalizer-invariant function, additive on orthogonal member pairs.

    Preconditions (orbit set generates orthogonally; the measure is
    invariant) are reported as failures with a labeled witness rather than
    raised, so callers can feed candidate inputs directly.  Invariance is
    tried on the generators only, which is invariance under the group.
    """
    gs = make_generating_set(lattice, members)
    generating = _orthogonal_generating(lattice, _orbit_set(lattice, action, gs.members))
    if not generating.ok:
        return CheckResult(False, ("precondition:orbit_not_generating",) + generating.witness)
    for g in action.generators:
        for x in lattice.elements:
            if measure.values[g(x)] != measure.values[x]:
                return CheckResult(False, ("precondition:not_invariant", x))
    norm = normalizer(action, gs.members)
    for orb in orbits(norm, gs.members):
        vals = {measure.values[b] for b in orb.members}
        if len(vals) > 1:
            return CheckResult(
                False, ("restriction_not_invariant", orb.representative)
            )
    for b1, b2 in combinations(gs.members, 2):
        if lattice.orthogonal(b1, b2):
            join = lattice.join(b1, b2)
            if join in set(gs.members):
                lhs = measure.domain.add(measure.values[b1], measure.values[b2])
                if lhs != measure.values[join]:
                    return CheckResult(False, ("restriction_not_additive", b1, b2))
    return CheckResult(True)


# --- file formats ------------------------------------------------------------------


def load_generating_set(path, lattice: OrthoLattice) -> GeneratingSet:
    """Read {"members": [elem, ...]} and validate meet closure."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict) or set(data) != {"members"}:
        raise SchemaError('generating set file must be {"members": [...]}')
    members = data["members"]
    if not isinstance(members, list) or not all(isinstance(b, str) for b in members):
        raise SchemaError("'members' must be a list of element names")
    unknown = [b for b in members if b not in lattice]
    if unknown:
        raise SchemaError(f"unknown element {unknown[0]!r} in generating set")
    return make_generating_set(lattice, members)


def load_partial_measure(path, domain: Domain = RATIONALS) -> PartialMeasure:
    """Read {"values": {elem: "p/q" or int}} into the given domain."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
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
        values[key] = domain.validate(val)
    return PartialMeasure(domain, values)


