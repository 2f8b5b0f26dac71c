"""Indicator algebra on Boolean atomistic lattices.

Claims:
    - indicators take the documented 0/1 values; bottom gives the zero
      function and top the constant one
    - the product, modular, and join-product identities hold on every
      Boolean lattice, as the Fraction-valued simple-function loop finds
      for n = 1..5; boolean(12) is answered without a pair scan, and
      non-Boolean input is refused
    - measures and linear functionals are in exact bijection (round trips
      both ways, basis and random rational measures)
    - the evaluation functional at an atom corresponds to the Dirac measure
      of that atom
    - a measure is invariant exactly when its functional is, as the
      functional computed on every indicator finds on the Boolean family
      members under Aut, the trivial action and a cyclic group, for the
      uniform, Dirac and random measures
    - every measure on a Boolean lattice satisfies the modular identity
"""

import random
import time
from fractions import Fraction

import pytest

from orthomeasure import (
    Measure,
    NotAMeasureError,
    NotBooleanAtomisticError,
    LatticeAutomorphism,
    RATIONALS,
    atoms,
    automorphism_group,
    benzene,
    boolean,
    check_indicator_identities,
    close_group,
    functional_from_measure,
    indicator,
    invariant_functional_check,
    is_measure,
    measure_basis,
    measure_from_functional,
    mo,
    product,
    trivial_action,
)
from orthomeasure.indicators import LinearFunctional

from oracles import functional_invariance_by_indicators, indicator_identities_by_functions


def random_rational_measure(lat, rng):
    values = {z: Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for z in atoms(lat)}
    full = {
        e: sum((values[z] for z in atoms(lat) if lat.leq(z, e)), Fraction(0))
        for e in lat.elements
    }
    return Measure(RATIONALS, full)


def test_indicator_values():
    lat = boolean(3)
    assert all(v == 0 for v in indicator(lat, "000").values.values())
    assert all(v == 1 for v in indicator(lat, "111").values.values())
    two_atom = lat.join("100", "010")
    ind = indicator(lat, two_atom)
    assert ind.values["100"] == 1 and ind.values["010"] == 1 and ind.values["001"] == 0


def test_indicator_requires_boolean_atomistic():
    with pytest.raises(NotBooleanAtomisticError):
        indicator(mo(2), "a1")
    with pytest.raises(NotBooleanAtomisticError):
        indicator(benzene(), "a")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identities(n):
    assert check_indicator_identities(boolean(n)).ok


def test_identities_on_boolean_12_scan_no_pair(monkeypatch):
    import orthomeasure.lattice as lattice_mod

    lat = boolean(12)
    assert lattice_mod.is_boolean(lat)
    # the proof is kept on the lattice; nothing reads a meet or a join
    for name in ("meet_index", "join_index"):
        monkeypatch.setattr(lattice_mod.OrthoLattice, name, None)
    start = time.perf_counter()
    assert check_indicator_identities(lat).ok
    assert time.perf_counter() - start < 1.0
    with pytest.raises(NotBooleanAtomisticError):
        check_indicator_identities(product(boolean(2), mo(2)))


@pytest.mark.parametrize("n", range(1, 6))
def test_identities_match_simple_function_oracle(n):
    lat = boolean(n)
    got = check_indicator_identities(lat)
    for size in (1, 2, 3):
        assert (got.ok, got.witness) == indicator_identities_by_functions(lat, size)


def test_booleanity_is_verified_once_per_call(monkeypatch):
    import orthomeasure.indicators as indicators_mod

    calls = []
    original = indicators_mod.is_boolean
    monkeypatch.setattr(indicators_mod, "is_boolean", lambda lat: calls.append(1) or original(lat))
    lat = boolean(3)
    measure = measure_basis(lat, RATIONALS)[0]
    functional = functional_from_measure(lat, measure)
    action = automorphism_group(lat)
    for run in (
        lambda: check_indicator_identities(lat),
        lambda: measure_from_functional(lat, functional),
        lambda: invariant_functional_check(lat, action, measure),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def test_functional_round_trip_exact():
    lat = boolean(3)
    measure = Measure(RATIONALS, {
        e: sum(
            (Fraction(v) for z, v in zip(atoms(lat), (1, 0, 0)) if lat.leq(z, e)),
            Fraction(0),
        )
        for e in lat.elements
    })
    functional = functional_from_measure(lat, measure)
    # evaluation against the first atom
    assert functional(indicator(lat, "100")) == 1
    assert functional(indicator(lat, "010")) == 0
    back = measure_from_functional(lat, functional)
    assert dict(back.values) == dict(measure.values)


def test_functional_matches_measure_on_all_elements():
    rng = random.Random(7)
    for n in (2, 3, 4):
        lat = boolean(n)
        for _ in range(25):
            m = random_rational_measure(lat, rng)
            f = functional_from_measure(lat, m)
            for x in lat.elements:
                assert f(indicator(lat, x)) == m.values[x]
            back = measure_from_functional(lat, f)
            assert dict(back.values) == dict(m.values)


def test_functional_round_trip_on_basis():
    for n in (1, 2, 3, 4):
        lat = boolean(n)
        for m in measure_basis(lat, RATIONALS):
            f = functional_from_measure(lat, m)
            back = measure_from_functional(lat, f)
            assert dict(back.values) == dict(m.values)


def test_functional_to_measure_round_trip():
    # start from the functional side: weights -> measure -> functional
    lat = boolean(3)
    functional = LinearFunctional(
        {z: Fraction(w) for z, w in zip(atoms(lat), (2, -1, 5))}
    )
    measure = measure_from_functional(lat, functional)
    assert is_measure(lat, measure.values, RATIONALS).ok
    again = functional_from_measure(lat, measure)
    assert dict(again.weights) == dict(functional.weights)


def test_zero_measure_zero_functional():
    lat = boolean(2)
    zero = Measure(RATIONALS, {e: Fraction(0) for e in lat.elements})
    f = functional_from_measure(lat, zero)
    assert all(w == 0 for w in f.weights.values())
    back = measure_from_functional(lat, f)
    assert all(v == 0 for v in back.values.values())


def test_evaluation_functional_is_dirac_measure():
    lat = boolean(3)
    z = "010"
    evaluation = LinearFunctional(
        {a: Fraction(1) if a == z else Fraction(0) for a in atoms(lat)}
    )
    dirac = measure_from_functional(lat, evaluation)
    for x in lat.elements:
        assert dirac.values[x] == (1 if lat.leq(z, x) else 0)
    for x in lat.elements:
        assert evaluation(indicator(lat, x)) == indicator(lat, x).values[z]


def test_rejects_non_measure():
    lat = boolean(2)
    with pytest.raises(NotAMeasureError):
        functional_from_measure(
            lat, Measure(RATIONALS, {"00": Fraction(0), "10": Fraction(1),
                                     "01": Fraction(1), "11": Fraction(5)})
        )


def test_invariance_equivalence():
    lat = boolean(3)
    action = automorphism_group(lat)
    uniform = Measure(RATIONALS, {
        e: Fraction(sum(1 for z in atoms(lat) if lat.leq(z, e)))
        for e in lat.elements
    })
    assert invariant_functional_check(lat, action, uniform)
    dirac = Measure(RATIONALS, {
        e: Fraction(1) if lat.leq("100", e) else Fraction(0) for e in lat.elements
    })
    assert not invariant_functional_check(lat, action, dirac)
    assert invariant_functional_check(lat, trivial_action(lat), dirac)


def _rotation_group(lat):
    """The cyclic group of one rotation of a Boolean lattice's atoms: each
    element's name, a bit string, rotated by one place."""
    perm = [lat.index(e[-1:] + e[:-1]) for e in lat.elements]
    return close_group(lat, [LatticeAutomorphism(lat, perm)])


def test_invariance_matches_the_functional_oracle(family):
    rng = random.Random(5)
    verdicts = set()
    for name, lat in family.items():
        if not name.startswith("boolean"):
            continue
        measures = [Measure(RATIONALS, {
            e: Fraction(sum(1 for z in atoms(lat) if lat.leq(z, e))) for e in lat.elements
        })]
        measures += [Measure(RATIONALS, {
            e: Fraction(int(lat.leq(a, e))) for e in lat.elements
        }) for a in atoms(lat)]
        measures += [random_rational_measure(lat, rng) for _ in range(3)]
        for action in (automorphism_group(lat), trivial_action(lat), _rotation_group(lat)):
            for measure in measures:
                verdict = invariant_functional_check(lat, action, measure)
                assert verdict == functional_invariance_by_indicators(lat, action, measure), name
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_modular_identity_for_all_measures():
    rng = random.Random(11)
    for n in (2, 3):
        lat = boolean(n)
        candidates = list(measure_basis(lat, RATIONALS))
        candidates += [random_rational_measure(lat, rng) for _ in range(10)]
        for m in candidates:
            for x in lat.elements:
                for y in lat.elements:
                    assert (
                        m.values[lat.join(x, y)] + m.values[lat.meet(x, y)]
                        == m.values[x] + m.values[y]
                    )
