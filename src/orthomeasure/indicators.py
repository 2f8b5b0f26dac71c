"""Indicator functions on Boolean atomistic lattices and the bijection
between measures and linear functionals on simple functions.

At finite scale the indicators of atoms form a basis of the simple
functions, so a simple function is stored by its atom values and a linear
functional by its atom weights.  Norms and continuity questions collapse to
finite linear algebra and are not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import NotAMeasureError, NotBooleanAtomisticError
from .lattice import CheckResult, OrthoLattice, atoms, is_atomistic, is_boolean
from .measures import Measure, RATIONALS, is_measure
from .symmetry import GroupAction


@dataclass(frozen=True, eq=False)
class SimpleFunction:
    """A rational-valued function on the atom set."""

    values: Mapping[str, Fraction]

    def __add__(self, other):
        return SimpleFunction(
            {z: self.values[z] + other.values[z] for z in self.values}
        )

    def __sub__(self, other):
        return SimpleFunction(
            {z: self.values[z] - other.values[z] for z in self.values}
        )

    def __mul__(self, other):
        if isinstance(other, SimpleFunction):
            return SimpleFunction(
                {z: self.values[z] * other.values[z] for z in self.values}
            )
        return SimpleFunction({z: self.values[z] * other for z in self.values})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, SimpleFunction) and dict(self.values) == dict(other.values)


@dataclass(frozen=True)
class LinearFunctional:
    """Evaluation against atom weights; linearity is structural."""

    weights: Mapping[str, Fraction]

    def __call__(self, f: SimpleFunction) -> Fraction:
        return sum(
            (self.weights[z] * v for z, v in f.values.items()), Fraction(0)
        )


def _require_boolean_atomistic(lattice: OrthoLattice) -> tuple[str, ...]:
    if not is_boolean(lattice):
        raise NotBooleanAtomisticError(f"{lattice!r} is not Boolean")
    atomistic = is_atomistic(lattice)
    if not atomistic.ok:
        raise NotBooleanAtomisticError(
            f"{lattice!r} is not atomistic (witness {atomistic.witness})"
        )
    return atoms(lattice)


def indicator(lattice: OrthoLattice, x: str) -> SimpleFunction:
    """1 on the atoms below x, 0 elsewhere."""
    return _indicator(lattice, _require_boolean_atomistic(lattice), x)


def _indicator(lattice: OrthoLattice, atom_list: tuple[str, ...], x: str) -> SimpleFunction:
    return SimpleFunction(
        {z: Fraction(1) if lattice.leq(z, x) else Fraction(0) for z in atom_list}
    )


def constant_one(lattice: OrthoLattice) -> SimpleFunction:
    atom_list = _require_boolean_atomistic(lattice)
    return SimpleFunction({z: Fraction(1) for z in atom_list})


def check_indicator_identities(lattice: OrthoLattice) -> CheckResult:
    """The three indicator identities, exhaustively.

    Pointwise product realizes the meet, the modular identity relates joins
    and meets, and for every subset the join indicator equals one minus the
    product of the complements.  A failure would indicate a lattice
    construction bug; the witness names the identity and the offending
    tuple.

    Indicators take only the values 0 and 1, so each is held as the bitmask
    of the atoms below its element: the product is AND, and one minus the
    product of the complements is the OR over the subset.  Once the product
    identity holds at (x, y), ind(x v y) + ind(x ^ y) == ind(x) + ind(y)
    says exactly that ind(x v y) is the OR of ind(x) and ind(y).

    So once every pair passes, the third identity holds for every subset:
    folding the subset's join one element at a time, each step ORs one more
    indicator into the indicator of the join so far.  It is therefore not
    scanned.

    Meets and joins are symmetric, so the pairs y >= x (by index) meet the
    first failing pair of a scan over all ordered pairs.
    """
    _require_boolean_atomistic(lattice)
    elements = lattice.elements
    meet, join = lattice.meet_index, lattice.join_index
    atom_mask = sum(1 << a for a in lattice.atom_indices())
    ind = [d & atom_mask for d in lattice.down_masks]
    for x, ix in enumerate(ind):
        for y in range(x, len(ind)):
            iy = ind[y]
            if ix & iy != ind[meet(x, y)]:
                return CheckResult(False, ("product", elements[x], elements[y]))
            if ix | iy != ind[join(x, y)]:
                return CheckResult(False, ("modular", elements[x], elements[y]))
    return CheckResult(True)


def functional_from_measure(lattice: OrthoLattice, measure: Measure) -> LinearFunctional:
    """The functional whose value on each indicator is the measure's value."""
    atom_list = _require_boolean_atomistic(lattice)
    check = is_measure(lattice, measure.values, measure.domain)
    if not check.ok:
        raise NotAMeasureError(f"additivity fails on pair {check.witness}")
    return LinearFunctional(
        {z: Fraction(measure.values[z]) for z in atom_list}
    )


def measure_from_functional(lattice: OrthoLattice,
                            functional: LinearFunctional) -> Measure:
    """Restrict a functional to the lattice via its indicators."""
    atom_list = _require_boolean_atomistic(lattice)
    values = {
        x: functional(_indicator(lattice, atom_list, x)) for x in lattice.elements
    }
    return Measure(RATIONALS, values)


def invariant_functional_check(lattice: OrthoLattice, action: GroupAction,
                               measure: Measure) -> bool:
    """The measure is invariant exactly when its functional is.

    Both sides are computed directly (the action moves an indicator to the
    indicator of the image element); the two verdicts always coincide, and
    the common verdict is returned.  Invariance under the generators is
    invariance under the group, so only the generators are tried.
    """
    functional = functional_from_measure(lattice, measure)
    atom_list = tuple(functional.weights)
    measure_invariant = all(
        measure.values[g(x)] == measure.values[x]
        for g in action.generators
        for x in lattice.elements
    )
    functional_invariant = all(
        functional(_indicator(lattice, atom_list, g(x)))
        == functional(_indicator(lattice, atom_list, x))
        for g in action.generators
        for x in lattice.elements
    )
    if measure_invariant != functional_invariant:
        raise AssertionError("measure and functional invariance disagree")
    return measure_invariant
