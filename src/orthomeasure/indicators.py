"""Indicator functions on Boolean atomistic lattices and the bijection
between measures and linear functionals on simple functions.

At finite scale the indicators of atoms form a basis of the simple
functions, so a simple function is stored by its atom values and a linear
functional by its atom weights.  Norms and continuity questions collapse to
finite linear algebra and are not modelled.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import NotAMeasureError, NotBooleanAtomisticError
from .lattice import CheckResult, OrthoLattice, atoms, is_boolean
from .measures import Measure, RATIONALS, is_measure
from .symmetry import GroupAction


class SimpleFunction(NamedTuple):
    """A rational-valued function on the atom set.

    Its arithmetic and equality are on the values, not the tuple's
    concatenation, repetition or equality, and it is unhashable."""

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

    def __ne__(self, other):
        return not self == other

    __hash__ = None


class LinearFunctional(NamedTuple):
    """Evaluation against atom weights; linearity is structural."""

    weights: Mapping[str, Fraction]

    def __call__(self, f: SimpleFunction) -> Fraction:
        return sum(
            (self.weights[z] * v for z, v in f.values.items()), Fraction(0)
        )


def _require_boolean(lattice: OrthoLattice) -> tuple[str, ...]:
    """The atoms of a Boolean lattice; NotBooleanAtomisticError otherwise.

    A Boolean lattice is atomistic, so nothing more is checked: its
    join-irreducibles are its atoms, and every element is the join of the
    join-irreducibles below it (see :func:`is_boolean`).
    """
    if not is_boolean(lattice):
        raise NotBooleanAtomisticError(f"{lattice!r} is not Boolean")
    return atoms(lattice)


def indicator(lattice: OrthoLattice, x: str) -> SimpleFunction:
    """1 on the atoms below x, 0 elsewhere."""
    return _indicator(lattice, _require_boolean(lattice), x)


def _indicator(lattice: OrthoLattice, atom_list: tuple[str, ...], x: str) -> SimpleFunction:
    return SimpleFunction(
        {z: Fraction(1) if lattice.leq(z, x) else Fraction(0) for z in atom_list}
    )


def check_indicator_identities(lattice: OrthoLattice) -> CheckResult:
    """The three indicator identities, which hold on every Boolean lattice.

    Pointwise product realizes the meet, the modular identity relates joins
    and meets, and for every subset the join indicator equals one minus the
    product of the complements.  Non-Boolean input raises
    NotBooleanAtomisticError; on Boolean input the result is ok, and no
    pair is scanned, because :func:`is_boolean` has already proved every
    identity.

    Indicators take only the values 0 and 1, so each is the set J(x) of
    the atoms below its element, which are its join-irreducibles: the
    product is intersection, and one minus the product of the complements
    is the union over the subset.

    - Product: J(x ^ y) = J(x) & J(y) in any lattice, since an atom is
      below x ^ y exactly when it is below both.
    - Modular: given the product identity, ind(x v y) + ind(x ^ y) ==
      ind(x) + ind(y) says exactly that J(x v y) = J(x) | J(y).  That J
      preserves joins is what :func:`is_boolean` decides, and it holds
      exactly when the lattice is distributive, so Boolean.
    - Join product: folding a subset's join one element at a time, each
      step unites one more J into the J of the join so far.
    """
    _require_boolean(lattice)
    return CheckResult(True)


def functional_from_measure(lattice: OrthoLattice, measure: Measure) -> LinearFunctional:
    """The functional whose value on each indicator is the measure's value."""
    atom_list = _require_boolean(lattice)
    check = is_measure(lattice, measure.values, measure.domain)
    if not check.ok:
        raise NotAMeasureError(f"additivity fails on pair {check.witness}")
    return LinearFunctional(
        {z: Fraction(measure.values[z]) for z in atom_list}
    )


def measure_from_functional(lattice: OrthoLattice,
                            functional: LinearFunctional) -> Measure:
    """Restrict a functional to the lattice via its indicators."""
    atom_list = _require_boolean(lattice)
    values = {
        x: functional(_indicator(lattice, atom_list, x)) for x in lattice.elements
    }
    return Measure(RATIONALS, values)


def invariant_functional_check(lattice: OrthoLattice, action: GroupAction,
                               measure: Measure) -> bool:
    """Whether the measure's functional is invariant, which holds exactly
    when the measure is.

    The action moves an indicator to the indicator of the image element,
    so the functional's value on ind(g(x)) is the measure's at g(x): the
    two invariances are one condition, and the measure's is returned.
    The input is checked as :func:`functional_from_measure` checks it (a
    Boolean lattice, an additive measure).  Invariance under the
    generators is invariance under the group, so only the generators are
    tried.
    """
    functional_from_measure(lattice, measure)
    return all(
        measure.values[g(x)] == measure.values[x]
        for g in action.generators
        for x in lattice.elements
    )
