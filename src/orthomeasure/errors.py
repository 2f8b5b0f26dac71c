"""Exception types shared across the package.

The CLI maps these onto exit codes: input/validation problems exit 2,
mathematical negatives exit 1, resource caps exit 3.
"""


class OrthomeasureError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(OrthomeasureError):
    """An input file does not match its documented JSON schema."""


# --- resource caps ----------------------------------------------------------

class ResourceCapError(OrthomeasureError):
    """A configured size or work limit would be exceeded."""


class SizeCapError(ResourceCapError):
    """Lattice element count beyond the configured cap."""


class GroupTooLargeError(ResourceCapError):
    """Group closure exceeded the configured cap."""


class OracleTooLargeError(ResourceCapError):
    """Brute-force enumeration would exceed the configured budget."""


class DimensionCapError(ResourceCapError):
    """A cone computation past its dimension cap or its ray budget."""


# --- lattice construction ---------------------------------------------------

class LatticeInputError(OrthomeasureError):
    """The description does not define a valid orthocomplemented lattice."""


class NotAPartialOrderError(LatticeInputError):
    """The order pairs contain a cycle between distinct elements."""


class NotALatticeError(LatticeInputError):
    """Some pair of elements lacks a meet or a join."""


class BadOrthocomplementError(LatticeInputError):
    """Involution, complement, or order-reversal fails for the given map."""


class IsotropicFormError(LatticeInputError):
    """The bilinear form has a nonzero self-orthogonal vector."""


# --- other mathematical preconditions / negatives ---------------------------

class NotAnAutomorphismError(OrthomeasureError):
    """A supplied element map is not an orthocomplementation-preserving
    lattice automorphism."""


class NotBooleanAtomisticError(OrthomeasureError):
    """Operation requires a Boolean atomistic lattice."""


class NotDistributiveError(OrthomeasureError):
    """Operation requires a distributive lattice."""


class NotAMeasureError(OrthomeasureError):
    """The supplied values violate additivity on an orthogonal pair."""


class DomainMismatchError(OrthomeasureError):
    """A value is missing or does not belong to the coefficient domain."""


class MeetClosureError(OrthomeasureError):
    """A generating set is not closed under pairwise meets."""


class NotGeneratingError(OrthomeasureError):
    """Some lattice element is not a join of pairwise orthogonal members of
    the generating set."""


class NotGeneratingForActionError(OrthomeasureError):
    """The set is not an orthogonal generating set for the group action."""


class NotInvariantOnGeneratorsError(OrthomeasureError):
    """The partial measure is not constant on normalizer orbits of the
    generating set."""


class KernelViolationError(OrthomeasureError):
    """The partial measure is inconsistent with the additivity relations;
    no extension exists."""


class InconsistentExtensionError(OrthomeasureError):
    """The values forced by the generating set are not a measure, or
    disagree with a given member value; no extension exists."""


class EmptyPolytopeError(OrthomeasureError):
    """The lattice admits no probability measure (with the given symmetry)."""


class UnboundedSliceError(OrthomeasureError):
    """The normalization functional vanishes; the slice is degenerate."""
