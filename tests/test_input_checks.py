"""Input checks of the file loaders, the extension routes and group
actions, each met with an input it exists to refuse.

Claims:
    - the classical extension names a partial-measure key that is no
      element, a key that is no member, and a member with no value
    - the invariant extension names a normalizer class with no value
    - load_generating_set refuses a file of another shape, members that are
      not a list of names, and a name that is no element
    - load_partial_measure refuses a file of another shape, values that are
      not a map, a bool or float value and a string that is no rational
    - load_group refuses generators that are not a list, a generator that
      is not a map and an image that is no element
    - close_group refuses a generator of another lattice, and
      measure_module an action on another lattice
    - membership in a group given by generators is decided on its listing
"""

import json
import re

import pytest

from orthomeasure import (
    DomainMismatchError,
    LatticeAutomorphism,
    NotAnAutomorphismError,
    PartialMeasure,
    RATIONALS,
    SchemaError,
    automorphism_group,
    boolean,
    classical_groemer_extend,
    close_group,
    load_generating_set,
    load_group,
    load_partial_measure,
    measure_module,
    mo,
    orth_groemer_extend,
)


def _file(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("values,error,message", [
    ({"10": 1, "01": 1, "zz": 2}, SchemaError, "partial measure names unknown element 'zz'"),
    ({"10": 1, "01": 1, "11": 2}, SchemaError, "partial measure names non-member '11'"),
    ({"10": 1}, DomainMismatchError, "no value given for member '01'"),
])
def test_classical_extension_checks_the_partial_measure(values, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        classical_groemer_extend(boolean(2), ["10", "01"], PartialMeasure(RATIONALS, values))


def test_invariant_extension_needs_a_value_per_class():
    lattice = mo(2)
    with pytest.raises(DomainMismatchError, match="^no value given for the class of 'a1'$"):
        orth_groemer_extend(lattice, automorphism_group(lattice), ["a1"],
                            PartialMeasure(RATIONALS, {}))


@pytest.mark.parametrize("data,message", [
    (["a1"], 'generating set file must be {"members": [...]}'),
    ({"members": ["a1"], "extra": 1}, 'generating set file must be {"members": [...]}'),
    ({"members": "a1"}, "'members' must be a list of element names"),
    ({"members": ["a1", 2]}, "'members' must be a list of element names"),
    ({"members": ["a1", "zz"]}, "unknown element 'zz' in generating set"),
])
def test_load_generating_set_checks_its_file(tmp_path, data, message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        load_generating_set(_file(tmp_path, data), mo(2))


@pytest.mark.parametrize("data,message", [
    ([1], 'partial measure file must be {"values": {...}}'),
    ({"values": {}, "extra": 1}, 'partial measure file must be {"values": {...}}'),
    ({"values": [1]}, "'values' must map element names to values"),
    ({"values": {"a1": True}}, "value for 'a1' must be an int or 'p/q' string"),
    ({"values": {"a1": 0.5}}, "value for 'a1' must be an int or 'p/q' string"),
    ({"values": {"a1": "1/0"}}, "bad rational '1/0'"),
    ({"values": {"a1": "one"}}, "bad rational 'one'"),
])
def test_load_partial_measure_checks_its_file(tmp_path, data, message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        load_partial_measure(_file(tmp_path, data))


@pytest.mark.parametrize("data,message", [
    ({"generators": {"a1": "a2"}}, "'generators' must be a list of element maps"),
    ({"generators": [["a1", "a2"]]}, "'generators' must be a list of element maps"),
    ({"generators": [{"a1": "zz"}]}, "generator maps 'a1' to 'zz', which is not an element"),
    ({"generators": [{"a1": 2}]}, "generator maps 'a1' to 2, which is not an element"),
])
def test_load_group_checks_its_file(tmp_path, data, message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        load_group(_file(tmp_path, data), mo(2))


def test_close_group_refuses_a_generator_of_another_lattice():
    with pytest.raises(NotAnAutomorphismError, match="^generator defined on a different lattice$"):
        close_group(mo(2), [LatticeAutomorphism.identity(mo(2))])


@pytest.mark.parametrize("lattice", [mo(3), boolean(3)], ids=["rows", "closed form"])
def test_measure_module_refuses_an_action_on_another_lattice(lattice):
    with pytest.raises(ValueError, match="^action is defined on a different lattice$"):
        measure_module(lattice, automorphism_group(mo(2)))


def test_membership_in_a_group_given_by_generators_reads_its_listing():
    lattice = mo(2)
    swap = LatticeAutomorphism.from_mapping(lattice, {
        "0": "0", "1": "1", "a1": "a2", "a2": "a1", "a1'": "a2'", "a2'": "a1'"})
    flip = LatticeAutomorphism.from_mapping(lattice, {
        "0": "0", "1": "1", "a1": "a1'", "a1'": "a1", "a2": "a2", "a2'": "a2'"})
    group = close_group(lattice, [swap])
    assert group.stabilized is None
    assert swap in group and LatticeAutomorphism.identity(lattice) in group
    assert swap.perm in group
    assert flip not in group
    assert flip in close_group(lattice, [swap, flip])
