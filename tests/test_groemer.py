"""Generating sets and the two measure-extension routes.

Claims:
    - orthogonal-generating-set detection matches hand-worked examples,
      including the bottom-as-empty-join convention
    - generating-for-the-action combines class-map injectivity with orbit
      generation and reports which half failed; the invariant route's
      NotGeneratingForActionError detail is that report's text, when the
      class map is not injective and when the orbit set does not generate
    - the inclusion-exclusion oracle (a subset scan, kept in the test
      oracles) verifies and rejects identities as expected
    - the classical extension reproduces the brute-force measure on power
      sets and rejects inconsistent input; it validates each value once:
      one extension of boolean(7) from its atom values makes 7 + 128
      Domain.validate calls
    - the invariant extension matches the invariant basis, realizes the
      dimension-function example, restricts back to its input, and rejects
      non-invariant or relation-violating values
    - one invariant extension builds one normalizer, checks meet closure
      once, makes one orbits pass and runs one closure
    - over Z/m the extension is a bijection between normalizer-invariant
      additive functions and invariant measures on the acceptance triples
    - the weak inclusion check accepts genuine invariant measures and
      reports precondition violations
    - both extension routes name a partial-measure key that is no element,
      and one that is an element but no member, with the same message,
      also when no member has a value, and before testing generation
    - both routes name a member with no value before testing generation,
      and the invariant route names values that differ on a normalizer
      orbit before it too
"""

import re
from fractions import Fraction
from itertools import product as iproduct

import pytest

from orthomeasure import (
    Domain,
    DomainMismatchError,
    INTEGERS,
    LatticeAutomorphism,
    KernelViolationError,
    InconsistentExtensionError,
    Measure,
    MeetClosureError,
    NotDistributiveError,
    NotGeneratingError,
    NotGeneratingForActionError,
    NotInvariantOnGeneratorsError,
    PartialMeasure,
    RATIONALS,
    SchemaError,
    atoms,
    automorphism_group,
    benzene,
    boolean,
    brute_force_measures,
    classical_groemer_extend,
    close_group,
    integers_mod,
    is_generating_for_action,
    is_measure,
    is_orthogonal_generating_set,
    make_generating_set,
    mo,
    normalizer,
    orbits,
    orth_groemer_extend,
    subspace_lattice,
    trivial_action,
    weak_groemer_check,
)

from oracles import inclusion_exclusion_check, join_all, unique_measure_with_atom_values


def test_meet_closure():
    lat = boolean(3)
    gs = make_generating_set(lat, ["110", "011", "010", "000"])
    assert gs.members == ("000", "010", "110", "011")
    with pytest.raises(MeetClosureError):
        make_generating_set(lat, ["110", "011"])  # meet is the atom 010


def test_meets_may_land_on_bottom():
    # distinct atoms meet at bottom, which counts as implicitly present
    lat = boolean(3)
    assert make_generating_set(lat, atoms(lat)).members == atoms(lat)


def test_orthogonal_generating_examples():
    b3 = boolean(3)
    assert is_orthogonal_generating_set(b3, list(atoms(b3)) + ["000"]).ok
    m2 = mo(2)
    result = is_orthogonal_generating_set(m2, ["a1", "a1'"])
    assert not result.ok
    assert result.witness == ("a2",)
    for lat in (b3, m2, benzene()):
        assert is_orthogonal_generating_set(lat, list(lat.elements)).ok


def test_generating_for_action_examples(family, aut_groups):
    m2 = family["mo(2)"]
    assert is_generating_for_action(m2, aut_groups["mo(2)"], ["a1"]).ok
    report = is_generating_for_action(m2, trivial_action(m2), ["a1"])
    assert not report.ok
    assert report.quotient_injective
    assert not report.orbit_generating.ok
    b3 = family["boolean(3)"]
    assert is_generating_for_action(b3, aut_groups["boolean(3)"], ["100", "000"]).ok


@pytest.mark.parametrize("case", ["not injective", "not generating"])
def test_route_detail_is_the_generating_report(case):
    # under the 3-cycle of the atoms of boolean(3) two atoms are distinct
    # normalizer classes in one full orbit; under the trivial group {a1}
    # does not generate mo(2)
    if case == "not injective":
        lat = boolean(3)
        cycle = LatticeAutomorphism.from_mapping(
            lat, {e: e[2] + e[0] + e[1] for e in lat.elements})
        action, members = close_group(lat, [cycle]), ["100", "010"]
    else:
        lat = mo(2)
        action, members = trivial_action(lat), ["a1"]
    report = is_generating_for_action(lat, action, members)
    assert report.quotient_injective == (case != "not injective")
    detail = (f"quotient_injective={report.quotient_injective}, "
              f"orbit_generating={report.orbit_generating}")
    with pytest.raises(NotGeneratingForActionError, match=f"^{re.escape(detail)}$"):
        orth_groemer_extend(lat, action, members,
                            PartialMeasure(INTEGERS, dict.fromkeys(members, 1)))


def test_inclusion_exclusion_modular_case():
    lat = boolean(2)
    partial = PartialMeasure(INTEGERS, {"00": 1, "10": 2, "01": 3, "11": 4})
    # the pair identity is exactly the modular law, here satisfied
    assert inclusion_exclusion_check(lat, list(lat.elements), partial).ok


def test_inclusion_exclusion_additive_and_perturbed():
    lat = boolean(3)
    additive = {e: sum(int(c) * w for c, w in zip(e, (1, 2, 4))) for e in lat.elements}
    assert inclusion_exclusion_check(
        lat, list(lat.elements), PartialMeasure(INTEGERS, additive)
    ).ok
    perturbed = dict(additive)
    perturbed["111"] += 1
    result = inclusion_exclusion_check(
        lat, list(lat.elements), PartialMeasure(INTEGERS, perturbed)
    )
    assert not result.ok
    assert join_all(lat, result.witness) == "111"


def test_inclusion_exclusion_requires_distributive():
    with pytest.raises(NotDistributiveError):
        inclusion_exclusion_check(
            mo(2), list(mo(2).elements),
            PartialMeasure(INTEGERS, {e: 0 for e in mo(2).elements}),
        )


def test_classical_extend_boolean_3():
    lat = boolean(3)
    partial = PartialMeasure(
        INTEGERS, {"100": 1, "010": 2, "001": 3, "000": 0}
    )
    measure = classical_groemer_extend(lat, list(atoms(lat)) + ["000"], partial)
    assert measure.values["111"] == 6
    assert is_measure(lat, measure.values, INTEGERS).ok
    oracle = unique_measure_with_atom_values(lat, {"100": 1, "010": 2, "001": 3})
    assert dict(measure.values) == oracle


def test_classical_extend_zero():
    lat = boolean(2)
    partial = PartialMeasure(INTEGERS, {"10": 0, "01": 0})
    measure = classical_groemer_extend(lat, list(atoms(lat)), partial)
    assert all(v == 0 for v in measure.values.values())


def test_classical_extend_exhaustive_small():
    for n in (2, 3, 4):
        lat = boolean(n)
        names = atoms(lat)
        for combo in iproduct(range(-2, 3), repeat=n):
            partial = PartialMeasure(INTEGERS, dict(zip(names, combo)))
            measure = classical_groemer_extend(lat, names, partial)
            assert dict(measure.values) == unique_measure_with_atom_values(
                lat, dict(zip(names, combo))
            )


def test_classical_extend_agrees_with_brute_force():
    lat = boolean(2)
    found = {
        m.key() for m in brute_force_measures(lat, range(-2, 3), INTEGERS)
    }
    for combo in iproduct(range(-1, 2), repeat=2):
        partial = PartialMeasure(INTEGERS, dict(zip(atoms(lat), combo)))
        measure = classical_groemer_extend(lat, atoms(lat), partial)
        assert measure.key() in found


def test_classical_extend_inconsistent():
    lat = boolean(2)
    partial = PartialMeasure(INTEGERS, {"00": 0, "10": 1, "01": 1, "11": 5})
    with pytest.raises(InconsistentExtensionError):
        classical_groemer_extend(lat, list(lat.elements), partial)


def test_classical_extend_nonzero_bottom_is_inconsistent():
    lat = boolean(2)
    partial = PartialMeasure(INTEGERS, {"00": 7, "10": 1, "01": 1, "11": 2})
    with pytest.raises(InconsistentExtensionError):
        classical_groemer_extend(lat, list(lat.elements), partial)


def test_classical_extend_not_generating():
    lat = boolean(2)
    with pytest.raises(NotGeneratingError):
        classical_groemer_extend(
            lat, ["10"], PartialMeasure(INTEGERS, {"10": 1})
        )


def test_classical_extend_requires_distributive():
    with pytest.raises(NotDistributiveError):
        classical_groemer_extend(
            mo(2), list(mo(2).elements),
            PartialMeasure(INTEGERS, {e: 0 for e in mo(2).elements}),
        )


def test_orth_extend_mo2(family, aut_groups):
    lat = family["mo(2)"]
    measure = orth_groemer_extend(
        lat, aut_groups["mo(2)"], ["a1"],
        PartialMeasure(RATIONALS, {"a1": Fraction(1)}),
    )
    assert all(measure.values[a] == 1 for a in atoms(lat))
    assert measure.values["1"] == 2
    assert measure.values["0"] == 0


def test_orth_extend_dimension_function(family, aut_groups):
    lat = family["subspaces(F_3^2)"]
    action = aut_groups["subspaces(F_3^2)"]
    line = "<1,0>"
    alpha = Fraction(3, 7)
    measure = orth_groemer_extend(
        lat, action, [line], PartialMeasure(RATIONALS, {line: alpha})
    )
    for e in lat.elements:
        dim = 0 if e == "0" else (2 if e == "1" else 1)
        assert measure.values[e] == dim * alpha


def test_orth_extend_zero(family, aut_groups):
    lat = family["mo(2)"]
    measure = orth_groemer_extend(
        lat, aut_groups["mo(2)"], ["a1"],
        PartialMeasure(RATIONALS, {"a1": Fraction(0)}),
    )
    assert all(v == 0 for v in measure.values.values())


def test_orth_extend_restriction_round_trip(family, aut_groups):
    for name, members in (("mo(2)", ["a1"]), ("mo(3)", ["a1"]),
                          ("boolean(3)", ["100", "000"])):
        lat = family[name]
        action = aut_groups[name]
        partial = {b: Fraction(5, 3) if b != lat.bottom else Fraction(0) for b in members}
        measure = orth_groemer_extend(
            lat, action, members, PartialMeasure(RATIONALS, partial)
        )
        for b, v in partial.items():
            assert measure.values[b] == v
        for g in action:
            assert all(measure.values[g(x)] == measure.values[x] for x in lat.elements)


def test_orth_extend_not_generating(family, aut_groups):
    lat = family["mo(2)"]
    with pytest.raises(NotGeneratingForActionError):
        orth_groemer_extend(
            lat, trivial_action(lat), ["a1"],
            PartialMeasure(RATIONALS, {"a1": Fraction(1)}),
        )


def test_orth_extend_not_invariant_on_members(family, aut_groups):
    lat = family["mo(2)"]
    with pytest.raises(NotInvariantOnGeneratorsError):
        orth_groemer_extend(
            lat, aut_groups["mo(2)"], ["a1", "a1'"],
            PartialMeasure(RATIONALS, {"a1": Fraction(1), "a1'": Fraction(2)}),
        )


@pytest.mark.parametrize("key,message", [
    ("zz", "partial measure names unknown element 'zz'"),
    ("11", "partial measure names non-member '11'"),
])
@pytest.mark.parametrize("given", [{"10": 1, "01": 1}, {}], ids=["members given", "none given"])
def test_both_routes_name_a_bad_partial_key_alike(key, message, given):
    # the keys are checked before any member is found without a value
    lat = boolean(2)
    partial = PartialMeasure(INTEGERS, {**given, key: 2})
    with pytest.raises(SchemaError, match=f"^{message}$"):
        classical_groemer_extend(lat, ["10", "01"], partial)
    with pytest.raises(SchemaError, match=f"^{message}$"):
        orth_groemer_extend(lat, automorphism_group(lat), ["10", "01"], partial)


def test_a_bad_partial_key_is_named_before_generation_is_tested():
    # {"10"} generates neither boolean(2) nor its orbits under the trivial group
    lat = boolean(2)
    partial = PartialMeasure(INTEGERS, {"10": 1, "zz": 2})
    message = "^partial measure names unknown element 'zz'$"
    with pytest.raises(SchemaError, match=message):
        classical_groemer_extend(lat, ["10"], partial)
    with pytest.raises(SchemaError, match=message):
        orth_groemer_extend(lat, trivial_action(lat), ["10"], partial)


def test_class_values_are_checked_before_generation_is_tested():
    # {"10"} generates neither boolean(2) nor its orbits under the trivial
    # group; a member with no value is named first on both routes
    lat = boolean(2)
    partial = PartialMeasure(INTEGERS, {})
    with pytest.raises(DomainMismatchError, match="^no value given for member '10'$"):
        classical_groemer_extend(lat, ["10"], partial)
    with pytest.raises(DomainMismatchError, match="^no value given for the class of '10'$"):
        orth_groemer_extend(lat, trivial_action(lat), ["10"], partial)
    # under the swap of points 0 and 1 of boolean(3) the orbit set
    # {000, 100, 010} misses 001, and 100 and 010 share a normalizer orbit
    lat = boolean(3)
    swap = LatticeAutomorphism.from_mapping(lat, {e: e[1] + e[0] + e[2] for e in lat})
    partial = PartialMeasure(INTEGERS, {"000": 0, "100": 1, "010": 2})
    with pytest.raises(NotInvariantOnGeneratorsError,
                       match="^values differ on the normalizer orbit of '100'$"):
        orth_groemer_extend(lat, close_group(lat, [swap]), ["000", "100", "010"], partial)
    with pytest.raises(NotGeneratingForActionError):
        orth_groemer_extend(lat, close_group(lat, [swap]), ["000", "100", "010"],
                            PartialMeasure(INTEGERS, {"000": 0, "100": 1, "010": 1}))


def test_orth_extend_kernel_violation_through_members():
    lat = boolean(2)
    action = automorphism_group(lat)
    partial = PartialMeasure(
        RATIONALS,
        {"00": Fraction(0), "10": Fraction(1), "01": Fraction(1), "11": Fraction(3)},
    )
    with pytest.raises(KernelViolationError):
        orth_groemer_extend(lat, action, list(lat.elements), partial)


def test_orth_extend_detects_hidden_relations():
    # both chains of the hexagon satisfy every stated hypothesis, yet the
    # additivity relations force equal values on them; unequal values have
    # no extension and must be reported, not silently extended
    lat = benzene()
    action = automorphism_group(lat)
    partial = PartialMeasure(RATIONALS, {"a": Fraction(1), "b": Fraction(0)})
    assert is_generating_for_action(lat, action, ["a", "b"]).ok
    with pytest.raises(KernelViolationError):
        orth_groemer_extend(lat, action, ["a", "b"], partial)
    # the diagonal does extend
    ok = orth_groemer_extend(
        lat, action, ["a", "b"],
        PartialMeasure(RATIONALS, {"a": Fraction(1), "b": Fraction(1)}),
    )
    assert ok.values["1"] == 2


def invariant_partial_functions(lattice, action, members, m):
    """All normalizer-invariant functions on the members, additive on
    orthogonal member pairs whose join is a member (exhaustive)."""
    norm = normalizer(action, members)
    classes = orbits(norm, members)
    member_set = set(members)
    out = []
    for combo in iproduct(range(m), repeat=len(classes)):
        values = {}
        for orb, v in zip(classes, combo):
            for b in orb.members:
                values[b] = v
        ok = True
        for b1 in members:
            for b2 in members:
                if lattice.orthogonal(b1, b2):
                    join = lattice.join(b1, b2)
                    if join in member_set and (values[b1] + values[b2]) % m != values[join]:
                        ok = False
        if ok:
            out.append(values)
    return out


@pytest.mark.parametrize("name,members", [
    ("mo(2)", ["a1"]),
    ("mo(3)", ["a1"]),
    ("boolean(3)", ["100", "000"]),
    ("subspaces(F_3^2)", ["<1,0>"]),
])
@pytest.mark.parametrize("m", [2, 3])
def test_zmod_bijection_cardinality(name, members, m, family, aut_groups):
    lattice = family[name]
    action = aut_groups[name]
    domain = integers_mod(m)
    invariant_measures = {
        mm.key()
        for mm in brute_force_measures(lattice, range(m), domain)
        if all(mm.values[g(x)] == mm.values[x] for g in action for x in lattice.elements)
    }
    functions = invariant_partial_functions(lattice, action, members, m)
    assert len(functions) == len(invariant_measures)
    images = set()
    for values in functions:
        extended = orth_groemer_extend(
            lattice, action, members, PartialMeasure(domain, values)
        )
        assert extended.key() in invariant_measures
        images.add(extended.key())
    assert images == invariant_measures


def test_weak_check_invariant_basis(family, aut_groups):
    from orthomeasure import measure_basis

    lat = family["mo(3)"]
    action = aut_groups["mo(3)"]
    for m in measure_basis(lat, RATIONALS, action):
        assert weak_groemer_check(lat, action, ["a1"], m).ok


def test_weak_check_trivial_group():
    lat = boolean(3)
    measure = Measure(
        INTEGERS,
        unique_measure_with_atom_values(lat, {"100": 3, "010": 1, "001": 2}),
    )
    assert weak_groemer_check(lat, trivial_action(lat), list(atoms(lat)), measure).ok


def test_weak_check_reports_noninvariant_input(family, aut_groups):
    lat = family["mo(2)"]
    dirac = Measure(INTEGERS, {
        "0": 0, "a1": 1, "a1'": 0, "a2": 1, "a2'": 0, "1": 1,
    })
    assert is_measure(lat, dirac.values, INTEGERS).ok
    result = weak_groemer_check(lat, aut_groups["mo(2)"], ["a1"], dirac)
    assert not result.ok
    assert result.witness[0] == "precondition:not_invariant"


def test_orth_extend_builds_the_normalizer_once(monkeypatch):
    import orthomeasure.groemer as groemer_module
    import orthomeasure.symmetry as symmetry_module

    calls = []
    original = symmetry_module.normalizer

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(symmetry_module, "normalizer", counting)
    monkeypatch.setattr(groemer_module, "normalizer", counting)
    # and each other question once: meet closure, the orbits pass, the closure
    counts = {}
    for module, name in ((groemer_module, "make_generating_set"), (symmetry_module, "orbits"),
                         (groemer_module, "orbits"), (groemer_module, "_orthogonal_closure")):
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    lat = mo(2)
    measure = orth_groemer_extend(
        lat, automorphism_group(lat), ["a1"], PartialMeasure(RATIONALS, {"a1": 1})
    )
    assert measure.values["1"] == 2
    assert len(calls) == 1
    assert counts == {"make_generating_set": 1, "orbits": 1, "_orthogonal_closure": 1}


def test_classical_extend_validates_each_value_once(monkeypatch):
    # the seven atom values once as given, then each of the 128 forced
    # values once (263 calls when is_measure validated them again)
    calls = 0
    original = Domain.validate

    def counting(self, value):
        nonlocal calls
        calls += 1
        return original(self, value)

    monkeypatch.setattr(Domain, "validate", counting)
    lat = boolean(7)
    measure = classical_groemer_extend(
        lat, atoms(lat), PartialMeasure(RATIONALS, dict.fromkeys(atoms(lat), 1)))
    assert measure.values["1111111"] == 7
    assert calls == 7 + 128
