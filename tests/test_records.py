"""The library's records are NamedTuples.

Each keeps the field order, defaults, read-only fields, field-wise ``==``
and ``hash`` and the ``repr`` it had as a frozen dataclass, and importing
the CLI loads neither ``dataclasses`` nor ``inspect``.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orthomeasure.cli import _Table
from orthomeasure.cones import PolyCone, StatePolytope, StateVertex
from orthomeasure.groemer import ActionGeneratingReport, GeneratingSet, PartialMeasure
from orthomeasure.indicators import LinearFunctional, SimpleFunction
from orthomeasure.lattice import CheckResult, LatticeDescription, VerificationReport
from orthomeasure.measures import Domain, FPAbelianGroup, FormalSum, Measure
from orthomeasure.symmetry import Orbit

SRC = Path(__file__).resolve().parents[1] / "src"

# (record, its fields in order with a value each, its defaults, the repr)
CASES = [
    (CheckResult, {"ok": False, "witness": ("a", "b")}, {"witness": None},
     "CheckResult(ok=False, witness=('a', 'b'))"),
    (VerificationReport, {"checks": {"bounds": CheckResult(True)}}, {},
     "VerificationReport(checks={'bounds': CheckResult(ok=True, witness=None)})"),
    (LatticeDescription, {"name": "two", "elements": ("0", "1"), "leq_pairs": (("0", "1"),),
                          "orthocomplement": {"0": "1", "1": "0"}},
     {"orthocomplement": {}},
     "LatticeDescription(name='two', elements=('0', '1'), leq_pairs=(('0', '1'),), "
     "orthocomplement={'0': '1', '1': '0'})"),
    (Domain, {"kind": "Zmod", "modulus": 3}, {"modulus": None},
     "Domain(kind='Zmod', modulus=3)"),
    (FormalSum, {"coefficients": {"a": 2, "b": -1}}, {},
     "FormalSum(coefficients={'a': 2, 'b': -1})"),
    (Measure, {"domain": Domain("Q"), "values": {"0": Fraction(0), "1": Fraction(1)}}, {},
     "Measure(domain=Domain(kind='Q', modulus=None), "
     "values={'0': Fraction(0, 1), '1': Fraction(1, 1)})"),
    (FPAbelianGroup, {"generator_count": 2, "invariants": (1,),
                      "sparse_images": (((0, 1),), ((0, 1),))}, {},
     "FPAbelianGroup(generator_count=2, invariants=(1,), sparse_images=(((0, 1),), ((0, 1),)))"),
    (PolyCone, {"dim": 1, "normals": ((1,),), "rays": ((1,),), "lineality": ()}, {},
     "PolyCone(dim=1, normals=((1,),), rays=((1,),), lineality=())"),
    (StateVertex, {"ray": (1, 1), "scale": 2, "numerators": (0, 1, 1, 2),
                   "elements": ("0", "a", "b", "1")}, {},
     "StateVertex(ray=(1, 1), scale=2, numerators=(0, 1, 1, 2), elements=('0', 'a', 'b', '1'))"),
    (StatePolytope, {"elements": ("0", "1"), "values": (Fraction(0), Fraction(1)),
                     "rows": (((1,), (0, 1)),)}, {},
     "StatePolytope(elements=('0', '1'), values=(Fraction(0, 1), Fraction(1, 1)), "
     "rows=(((1,), (0, 1)),))"),
    (GeneratingSet, {"members": ("a", "b")}, {}, "GeneratingSet(members=('a', 'b'))"),
    (PartialMeasure, {"domain": Domain("Z"), "values": {"a": 1}}, {},
     "PartialMeasure(domain=Domain(kind='Z', modulus=None), values={'a': 1})"),
    (ActionGeneratingReport, {"quotient_injective": True,
                              "orbit_generating": CheckResult(False, ("x",))}, {},
     "ActionGeneratingReport(quotient_injective=True, "
     "orbit_generating=CheckResult(ok=False, witness=('x',)))"),
    (SimpleFunction, {"values": {"a": Fraction(1, 2)}}, {},
     "SimpleFunction(values={'a': Fraction(1, 2)})"),
    (LinearFunctional, {"weights": {"a": Fraction(1)}}, {},
     "LinearFunctional(weights={'a': Fraction(1, 1)})"),
    (Orbit, {"representative": "a", "members": ("a", "b")}, {},
     "Orbit(representative='a', members=('a', 'b'))"),
    (_Table, {"elements": ("0", "1"), "texts": ["0", "1"], "rows": [[0, 1]], "domain": "Z",
              "quoted": False}, {},
     "_Table(elements=('0', '1'), texts=['0', '1'], rows=[[0, 1]], domain='Z', quoted=False)"),
]
IDS = [cls.__name__ for cls, *_ in CASES]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields, defaults, text", CASES, ids=IDS)
def test_a_record_is_built_by_position_and_by_keyword_in_field_order(cls, fields, defaults, text):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for record in (by_position, by_keyword):
        assert record._fields == tuple(fields)
        assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("cls, fields, defaults, text", CASES, ids=IDS)
def test_a_record_fills_only_its_defaults(cls, fields, defaults, text):
    required = list(fields.values())[:len(fields) - len(defaults)]
    record = cls(*required)
    assert {name: getattr(record, name) for name in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*required[:-1])


@pytest.mark.parametrize("cls, fields, defaults, text", CASES, ids=IDS)
def test_a_record_field_is_read_only(cls, fields, defaults, text):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is value


@pytest.mark.parametrize("cls, fields, defaults, text", CASES, ids=IDS)
def test_value_equal_records_compare_and_hash_alike(cls, fields, defaults, text):
    a, b = cls(**fields), cls(*fields.values())
    assert a is not b and a == b and not a != b
    assert repr(a) == repr(b) == text
    # as a frozen dataclass, the hash of the fields' tuple, and unhashable
    # when a field is; a SimpleFunction is never hashable
    if cls is not SimpleFunction and _hashable(tuple(fields.values())):
        assert hash(a) == hash(b) == hash(tuple(fields.values()))
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_the_reports_keep_their_own_truth_value():
    failed = CheckResult(False, ("a",))
    assert not failed and CheckResult(True)
    assert VerificationReport({}) and VerificationReport({"bounds": CheckResult(True)})
    assert not VerificationReport({"bounds": CheckResult(True), "complement": failed})
    assert ActionGeneratingReport(True, CheckResult(True))
    assert not ActionGeneratingReport(False, CheckResult(True))
    assert not ActionGeneratingReport(True, failed)


def test_a_simple_function_is_arithmetic_on_its_values_never_a_tuple():
    f = SimpleFunction({"a": Fraction(1, 2), "b": Fraction(1)})
    assert 3 * f == f * 3 == SimpleFunction({"a": Fraction(3, 2), "b": Fraction(3)})
    assert f * f == SimpleFunction({"a": Fraction(1, 4), "b": Fraction(1)})
    assert f + f == 2 * f and f - f == 0 * f
    # equal only to a SimpleFunction, whatever tuple holds the same values
    assert f != (f.values,) and not f == (f.values,)
    assert SimpleFunction.__hash__ is None


def test_descriptions_built_without_orthocomplement_share_no_mutable_dict():
    first, second = LatticeDescription("a", (), ()), LatticeDescription("b", (), ())
    assert first.orthocomplement == second.orthocomplement == {}
    try:
        first.orthocomplement["x"] = "y"
    except TypeError:  # a read-only mapping
        pass
    assert second.orthocomplement == {} and LatticeDescription("c", (), ()).orthocomplement == {}


def test_the_cached_properties_are_computed_once_and_stay_out_of_eq_and_repr():
    fields = ((("0", "a", "1"), (Fraction(0), Fraction(1, 2), Fraction(1)),
               (((1, 1), (0, 1, 2)),)))
    polytope = StatePolytope(*fields)
    assert polytope.vertices is polytope.vertices
    (vertex,) = polytope.vertices
    assert vertex == StateVertex((1, 1), 2, (0, 1, 2), ("0", "a", "1"))
    assert vertex.coords is vertex.coords == (Fraction(1, 2), Fraction(1, 2))
    assert vertex.values is vertex.values
    assert vertex.values == {"0": 0, "a": Fraction(1, 2), "1": 1}
    assert polytope == StatePolytope(*fields) and repr(polytope) == repr(StatePolytope(*fields))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S leaves out the site hooks, which may import either for themselves
    code = ("import sys, orthomeasure.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
    assert out == "[]\n"
