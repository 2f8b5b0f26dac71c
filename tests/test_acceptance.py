"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

All comparisons are exact (integer or rational arithmetic); the only
tolerances are the stated wall-clock bounds, asserted with
time.perf_counter around the relevant computation.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
import random
import time
from fractions import Fraction
from itertools import product as iproduct

import pytest

from orthomeasure import (
    INTEGERS,
    InconsistentExtensionError,
    PartialMeasure,
    RATIONALS,
    atoms,
    automorphism_group,
    benzene,
    boolean,
    brute_force_measures,
    check_indicator_identities,
    classical_groemer_extend,
    coinvariants,
    functional_from_measure,
    hom_count,
    integers_mod,
    is_measure,
    is_probability_measure,
    measure_basis,
    measure_from_functional,
    measure_module,
    mo,
    normalizer,
    orbit_of,
    orbits,
    relation_matrix,
    smith_normal_form,
    stabilizer,
    state_polytope,
    subspace_lattice,
    verify_ortho,
)
from orthomeasure.intlinalg import snf_diagonal
from orthomeasure.measures import Measure

from oracles import (
    additivity_nullity,
    det_bareiss,
    hom_count_bruteforce,
    mat_mul,
    rank as oracle_rank,
    solve_exact,
    unique_measure_with_atom_values,
)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")
        return run
    return wrap


@criterion(1, "measure-space ranks against the independent nullspace oracle")
def test_criterion_1_ranks():
    cases = [(boolean(n), n) for n in range(1, 6)]
    cases += [(mo(n), n + 1) for n in range(1, 7)]
    cases.append((benzene(), 2))
    for lattice, expected in cases:
        start = time.perf_counter()
        got = measure_module(lattice).rank
        oracle = additivity_nullity(lattice)
        elapsed = time.perf_counter() - start
        assert got == expected == oracle
        assert elapsed < 1.0


@criterion(2, "brute-force integer measures equal the clipped basis span")
def test_criterion_2_representability():
    lattices = [boolean(1), boolean(2), boolean(3), mo(1), mo(2), mo(3), benzene()]
    lo, hi = -2, 2
    for lattice in lattices:
        assert len(lattice) <= 8
        found = brute_force_measures(lattice, range(lo, hi + 1), INTEGERS)
        found_keys = {m.key() for m in found}
        basis = measure_basis(lattice, INTEGERS)
        rows = [[m.values[e] for m in basis] for e in lattice.elements]
        # forward: every brute-force measure is an integer combination
        for m in found:
            sol = solve_exact(rows, [m.values[e] for e in lattice.elements])
            assert sol is not None and all(c.denominator == 1 for c in sol)
        # reverse: enumerate integer combinations over a box derived from an
        # invertible row submatrix; any combination landing in the range
        # must have been found by brute force
        r = len(basis)
        chosen = []
        chosen_rows = []
        for row in rows:
            if oracle_rank(chosen_rows + [row]) > len(chosen_rows):
                chosen_rows.append(row)
                chosen.append(row)
            if len(chosen) == r:
                break
        inverse_cols = []
        for j in range(r):
            rhs = [Fraction(1) if i == j else Fraction(0) for i in range(r)]
            inverse_cols.append(solve_exact(chosen_rows, rhs))
        bounds = []
        for j in range(r):
            bound = sum(abs(inverse_cols[k][j]) for k in range(r)) * max(abs(lo), abs(hi))
            bounds.append(int(bound) + 1)
        combos = 0
        for coeffs in iproduct(*(range(-b, b + 1) for b in bounds)):
            values = {
                e: sum(c * row[j] for j, c in enumerate(coeffs))
                for e, row in zip(lattice.elements, rows)
            }
            if all(lo <= v <= hi for v in values.values()):
                combos += 1
                assert Measure(INTEGERS, values).key() in found_keys
        assert combos == len(found_keys)


@criterion(3, "invariant measures of the finite subspace lattice are the "
              "dimension functions")
def test_criterion_3_dimension_functions():
    lattice = subspace_lattice(3, 2, (1, 1))
    action = automorphism_group(lattice)
    basis = measure_basis(lattice, RATIONALS, action)
    assert len(basis) == 1
    m = basis[0]
    line_value = m.values["<1,0>"]
    for e in lattice.elements:
        dim = 0 if e == "0" else (2 if e == "1" else 1)
        assert m.values[e] == dim * line_value
    assert line_value != 0


@criterion(4, "invariant mod-2 measure counts match member-function counts "
              "and the hom-count formula")
def test_criterion_4_invariant_counts():
    for n in (2, 3):
        start = time.perf_counter()
        lattice = mo(n)
        action = automorphism_group(lattice)
        domain = integers_mod(2)
        invariant = [
            m for m in brute_force_measures(lattice, range(2), domain)
            if all(m.values[g(x)] == m.values[x]
                   for g in action for x in lattice.elements)
        ]
        norm = normalizer(action, ["a1"])
        classes = orbits(norm, ["a1"])
        member_functions = 2 ** len(classes)  # no orthogonal pairs inside {a1}
        module = coinvariants(measure_module(lattice), action)
        elapsed = time.perf_counter() - start
        assert len(invariant) == member_functions == hom_count(module, 2)
        assert elapsed < 1.0


@criterion(5, "classical extension reproduces brute-force measures and "
              "rejects inconsistent inputs")
def test_criterion_5_classical_extension():
    rng = random.Random(20260811)
    for n in (2, 3, 4):
        lattice = boolean(n)
        names = atoms(lattice)
        for _ in range(100):
            assignment = {a: rng.randint(-5, 5) for a in names}
            extension = classical_groemer_extend(
                lattice, names, PartialMeasure(INTEGERS, assignment)
            )
            assert dict(extension.values) == unique_measure_with_atom_values(
                lattice, assignment
            )
    lattice = boolean(2)
    with pytest.raises(InconsistentExtensionError) as info:
        classical_groemer_extend(
            lattice, lattice.elements,
            PartialMeasure(INTEGERS, {"00": 0, "10": 1, "01": 1, "11": 3}),
        )
    assert "11" in str(info.value)  # the witness element is reported


@criterion(6, "measure/functional bijection round-trips; indicator "
              "identities hold")
def test_criterion_6_indicator_bijection():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        lattice = boolean(n)
        candidates = list(measure_basis(lattice, RATIONALS))
        for _ in range(100):
            weights = {
                z: Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                for z in atoms(lattice)
            }
            values = {
                e: sum(
                    (weights[z] for z in atoms(lattice) if lattice.leq(z, e)),
                    Fraction(0),
                )
                for e in lattice.elements
            }
            candidates.append(Measure(RATIONALS, values))
        for m in candidates:
            functional = functional_from_measure(lattice, m)
            back = measure_from_functional(lattice, functional)
            assert dict(back.values) == dict(m.values)
            again = functional_from_measure(lattice, back)
            assert dict(again.weights) == dict(functional.weights)
        assert check_indicator_identities(lattice).ok


@criterion(7, "state polytopes: simplices, the two-block square, and the "
              "fully symmetric single state")
def test_criterion_7_state_polytopes():
    for n in (1, 2, 3, 4):
        start = time.perf_counter()
        lattice = boolean(n)
        polytope = state_polytope(lattice)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert len(polytope.vertices) == n
        first = polytope.vertices[0].coords
        diffs = [
            [b - a for a, b in zip(first, v.coords)]
            for v in polytope.vertices[1:]
        ]
        assert oracle_rank(diffs) == n - 1  # an (n-1)-simplex
        for v in polytope.vertices:
            assert is_probability_measure(lattice, v.values).ok

    start = time.perf_counter()
    assert len(state_polytope(mo(2)).vertices) == 4
    assert time.perf_counter() - start < 5.0

    for n in (2, 3, 4):
        start = time.perf_counter()
        lattice = mo(n)
        polytope = state_polytope(lattice, automorphism_group(lattice))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert len(polytope.vertices) == 1
        vertex = polytope.vertices[0]
        for a in atoms(lattice):
            assert vertex.values[a] == Fraction(1, 2)
        assert vertex.values[lattice.top] == 1


@criterion(8, "Smith normal form on 200 random matrices, hom counts "
              "against exhaustive enumeration")
def test_criterion_8_smith_normal_form():
    rng = random.Random(1234)
    moduli = (2, 3, 4, 5, 6)
    for index in range(200):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(det_bareiss(u)) == 1
        assert abs(det_bareiss(v)) == 1
        diag = snf_diagonal(d)
        assert all(x > 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        m = moduli[index % len(moduli)]
        rank = len(diag)
        predicted = m ** (cols - rank)
        for entry in diag:
            import math

            predicted *= math.gcd(entry, m)
        if predicted <= 10_000:
            assert predicted == hom_count_bruteforce(a, cols, m)


@criterion(9, "structural suites: axioms, classification, projection "
              "additivity, orbit-stabilizer on the whole family")
def test_criterion_9_structural():
    start = time.perf_counter()
    family = {f"boolean({n})": boolean(n) for n in range(1, 6)}
    family.update({f"mo({n})": mo(n) for n in range(1, 7)})
    family["benzene"] = benzene()
    family["subspaces(F_3^2)"] = subspace_lattice(3, 2, (1, 1))

    from orthomeasure import is_distributive, is_orthomodular

    for name, lattice in family.items():
        assert verify_ortho(lattice).ok
        omod = is_orthomodular(lattice)
        dist = is_distributive(lattice)
        if name.startswith("boolean"):
            assert omod.ok and dist.ok
        elif name == "benzene":
            assert not omod.ok
        else:
            assert omod.ok
            assert dist.ok == (name in ("mo(1)",))
        for a in lattice.elements:
            oa = lattice.orthocomplement(a)
            assert lattice.orthocomplement(oa) == a
            assert lattice.join(a, oa) == lattice.top
            assert lattice.meet(a, oa) == lattice.bottom
            for b in lattice.elements:
                assert lattice.orthocomplement(lattice.join(a, b)) == lattice.meet(
                    lattice.orthocomplement(a), lattice.orthocomplement(b)
                )
                if lattice.leq(a, b):
                    assert lattice.leq(
                        lattice.orthocomplement(b), lattice.orthocomplement(a)
                    )

        module = measure_module(lattice)
        assert module.projection(lattice.bottom) == module.zero
        top = module.projection(lattice.top)
        for x in lattice.elements:
            assert module.add(
                module.projection(x),
                module.projection(lattice.orthocomplement(x)),
            ) == top
            for y in lattice.elements:
                if lattice.orthogonal(x, y):
                    assert module.add(
                        module.projection(x), module.projection(y)
                    ) == module.projection(lattice.join(x, y))

        action = automorphism_group(lattice)
        for x in lattice.elements:
            assert len(orbit_of(action, x)) * stabilizer(action, x).order == action.order

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
