"""Universal measure groups, coinvariants, bases, and the brute-force oracle.

Claims:
    - relation matrices have the documented rows and rational ranks
    - measure-group ranks match the independent row-reduction oracle on the
      whole family (power sets n, atom-pair lattices n+1, hexagon 2)
    - the projection of every element is additive on orthogonal pairs and
      vanishes at bottom; top splits as x plus its complement
    - coinvariants: trivial group changes nothing; known collapsed ranks
    - bases pass the additivity check, reconstruct every brute-force
      measure over Z, and are invariant when computed from an action
    - hom counting matches exhaustive enumeration, including torsion cases;
      on composites into Z/2 and Z/3 it counts the brute-force measures,
      and under the full automorphism group those constant on orbits
    - the brute-force oracle is consistent with hand counts, and lists
      the measures that pass is_measure, in the same order, on the family
      over Z/2, Z/3 and a range of Q, up to 20 000 candidates each
    - is_measure, which on an orthomodular lattice checks only the pairs
      of the cover rows, gives the verdict of the full orthogonal-pair scan
      on composites over Z, Q and Z/m, for true measures and for true
      measures with one value moved; its witness is the first failing pair
      of the presenting pairs listed from names, an orthogonal pair whose
      values are not additive
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from orthomeasure import (
    Domain,
    DomainMismatchError,
    FPAbelianGroup,
    INTEGERS,
    OracleTooLargeError,
    RATIONALS,
    automorphism_group,
    benzene,
    boolean,
    brute_force_measures,
    coinvariants,
    hom_count,
    integers_mod,
    is_measure,
    measure_basis,
    measure_module,
    mo,
    parse_domain,
    relation_matrix,
    trivial_action,
)

from orthomeasure import atoms as atoms_of

from oracles import (
    additivity_nullity,
    first_nonadditive_pair,
    first_nonadditive_relation_pair,
    hom_count_bruteforce,
    join_all,
    rank as oracle_rank,
    solve_exact,
)
from strategies import composite_lattices


def test_relation_matrix_boolean_1():
    lat = boolean(1)
    rows = relation_matrix(lat)
    # {0,0} and {0,1} both reduce to minus the bottom column
    assert rows == [[-1, 0], [-1, 0]]
    assert oracle_rank(rows) == 1


def test_relation_matrix_mo2():
    lat = mo(2)
    rows = relation_matrix(lat)
    assert len(rows[0]) == 6
    idx = {e: i for i, e in enumerate(lat.elements)}
    block = [0] * 6
    block[idx["1"]] = 1
    block[idx["a1"]] = -1
    block[idx["a1'"]] = -1
    assert block in rows
    zero_row = [0] * 6
    zero_row[idx["0"]] = -1
    assert zero_row in rows


def test_every_lattice_has_nontrivial_row(family):
    for lat in family.values():
        if len(lat) < 4:
            continue
        assert any(
            sum(map(abs, row)) == 3 for row in relation_matrix(lat)
        )


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)])
def test_rank_boolean(n, expected):
    assert measure_module(boolean(n)).rank == expected


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
def test_rank_mo(n, expected):
    assert measure_module(mo(n)).rank == expected


def test_rank_benzene():
    assert measure_module(benzene()).rank == 2


def test_rank_matches_independent_nullity(family):
    for lat in family.values():
        assert measure_module(lat).rank == additivity_nullity(lat)


def test_projection_additivity(family):
    for lat in family.values():
        module = measure_module(lat)
        assert module.projection(lat.bottom) == module.zero
        top = module.projection(lat.top)
        for x in lat.elements:
            for y in lat.elements:
                if lat.orthogonal(x, y):
                    assert module.add(
                        module.projection(x), module.projection(y)
                    ) == module.projection(lat.join(x, y))
            assert module.add(
                module.projection(x),
                module.projection(lat.orthocomplement(x)),
            ) == top


def test_formal_sum_evaluation_is_linear():
    from orthomeasure import FormalSum

    lat = mo(2)
    module = measure_module(lat)
    combo = FormalSum({"a1": 2, "1": -1, "0": 5})
    expected = module.zero
    for name, c in combo.coefficients.items():
        step = module.projection(name)
        for _ in range(abs(c)):
            if c > 0:
                expected = module.add(expected, step)
            else:
                expected = module.add(
                    expected, module.group.reduced(
                        [-x for x in FormalSum({name: 1}).vector(lat)]
                    )
                )
    assert module.evaluate(combo) == expected


def test_projection_additive_over_orthogonal_families():
    from itertools import combinations

    lat = boolean(3)
    module = measure_module(lat)
    names = list(atoms_of(lat))
    for k in (2, 3):
        for combo in combinations(names, k):
            total = module.zero
            for x in combo:
                total = module.add(total, module.projection(x))
            assert total == module.projection(join_all(lat, combo))


def test_benzene_relations_identify_chains():
    module = measure_module(benzene())
    assert module.projection("a") == module.projection("b")
    assert module.projection("a'") == module.projection("b'")


def test_coinvariants_trivial_group_is_identity(family):
    for lat in family.values():
        if len(lat) > 10:
            continue
        plain = measure_module(lat)
        fixed = coinvariants(plain, trivial_action(lat))
        assert fixed.rank == plain.rank
        assert fixed.torsion == plain.torsion
        assert fixed.variant == "coinvariant"


def test_coinvariant_ranks(family, aut_groups):
    mod = coinvariants(measure_module(family["mo(2)"]), aut_groups["mo(2)"])
    assert mod.rank == 1
    mod3 = coinvariants(measure_module(family["boolean(3)"]), aut_groups["boolean(3)"])
    assert mod3.rank == 1


def test_measure_basis_boolean_2_rationals():
    basis = measure_basis(boolean(2), RATIONALS)
    assert len(basis) == 2
    for m in basis:
        assert is_measure(boolean(2), m.values, RATIONALS).ok
    # the two Dirac measures on atoms span the same space
    lat = boolean(2)
    for atom in ("10", "01"):
        dirac = {e: Fraction(1) if lat.leq(atom, e) else Fraction(0) for e in lat.elements}
        rows = [[m.values[e] for m in basis] for e in lat.elements]
        rhs = [dirac[e] for e in lat.elements]
        assert solve_exact(rows, rhs) is not None


def test_measure_basis_invariant_mo2(aut_groups, family):
    lat = family["mo(2)"]
    basis = measure_basis(lat, RATIONALS, aut_groups["mo(2)"])
    assert len(basis) == 1
    m = basis[0]
    atom_values = {m.values[a] for a in ("a1", "a1'", "a2", "a2'")}
    assert len(atom_values) == 1
    assert m.values["1"] == 2 * atom_values.pop()


def test_invariant_basis_measures_are_invariant(family, aut_groups):
    for name in ("boolean(3)", "mo(3)", "benzene", "subspaces(F_3^2)"):
        lat = family[name]
        action = aut_groups[name]
        for m in measure_basis(lat, RATIONALS, action):
            for g in action:
                assert all(m.values[g(x)] == m.values[x] for x in lat.elements)


def test_basis_sign_normalization():
    for lat in (boolean(3), mo(2)):
        for m in measure_basis(lat, INTEGERS):
            first = next(v for e in lat.elements if (v := m.values[e]))
            assert first > 0


def test_measure_basis_zmod():
    # two generators of order 3 for the free rank-2 group
    basis = measure_basis(boolean(2), integers_mod(3))
    assert len(basis) == 2
    assert hom_count(measure_module(boolean(2)), 3) == 9
    seen = set()
    for c1 in range(3):
        for c2 in range(3):
            values = tuple(
                (c1 * basis[0].values[e] + c2 * basis[1].values[e]) % 3
                for e in boolean(2).elements
            )
            seen.add(values)
    assert len(seen) == 9


def test_hom_count_formula_cases():
    free = FPAbelianGroup.from_relations(1, [[0]])
    assert free.rank == 1 and hom_count(free, 2) == 2
    z_plus_z2 = FPAbelianGroup.from_relations(2, [[0, 2]])
    assert z_plus_z2.rank == 1 and z_plus_z2.torsion == (2,)
    assert hom_count(z_plus_z2, 2) == 4
    assert hom_count(measure_module(mo(2)), 2) == 8


def test_hom_count_against_bruteforce(family):
    for name in ("boolean(2)", "mo(2)", "benzene"):
        lat = family[name]
        rows = relation_matrix(lat)
        for m in (2, 3, 4):
            expected = hom_count_bruteforce(rows, len(lat), m)
            assert hom_count(measure_module(lat), m) == expected


def test_hom_count_with_torsion_against_bruteforce():
    rows = [[2, 0, 0], [0, 6, 0]]
    group = FPAbelianGroup.from_relations(3, rows)
    assert group.torsion == (2, 6)
    for m in (2, 3, 4, 6):
        assert hom_count(group, m) == hom_count_bruteforce(rows, 3, m)


@settings(max_examples=80, deadline=None)
@given(composite_lattices(), st.sampled_from([2, 3]))
def test_hom_count_matches_brute_force_on_composites(lattice, m):
    assume(m ** len(lattice) <= 3 ** 12)
    found = brute_force_measures(lattice, range(m), integers_mod(m))
    assert hom_count(measure_module(lattice), m) == len(found)
    action = automorphism_group(lattice)
    orbit_of = [lattice.elements[k] for k in action.orbit_labels()]
    invariant = [mu for mu in found
                 if all(mu(e) == mu(o) for e, o in zip(lattice.elements, orbit_of))]
    assert hom_count(measure_module(lattice, action), m) == len(invariant)


def test_is_measure_examples():
    lat = boolean(2)
    zero = {e: 0 for e in lat.elements}
    assert is_measure(lat, zero, INTEGERS).ok
    good = {"00": 0, "10": 1, "01": 2, "11": 3}
    assert is_measure(lat, good, INTEGERS).ok
    bad = {"00": 0, "10": 1, "01": 2, "11": 5}
    result = is_measure(lat, bad, INTEGERS)
    assert not result.ok
    assert set(result.witness) == {"10", "01"}


def test_is_measure_domain_mismatch():
    lat = boolean(2)
    with pytest.raises(DomainMismatchError):
        is_measure(lat, {"00": 0, "10": Fraction(1, 2), "01": 0, "11": 0}, INTEGERS)
    with pytest.raises(DomainMismatchError):
        is_measure(lat, {"00": 0, "10": 1, "01": 2}, INTEGERS)


def test_parse_domain():
    assert parse_domain("z") == INTEGERS
    assert parse_domain("Q") == RATIONALS
    assert parse_domain("z/4") == integers_mod(4)
    with pytest.raises(DomainMismatchError):
        parse_domain("real")


def test_brute_force_counts():
    assert len(brute_force_measures(boolean(2), [0, 1], INTEGERS)) == 3
    assert len(brute_force_measures(mo(2), [0, 1], INTEGERS)) == 5
    measures = brute_force_measures(benzene(), [0, 1], INTEGERS)
    assert len(measures) == 3
    for m in measures:
        assert m.values["a"] == m.values["b"]
        assert m.values["a'"] == m.values["b'"]
        assert m.values["1"] == m.values["a"] + m.values["a'"]


def test_brute_force_matches_filter_enumeration(family):
    # both list the measures in the lexicographic order of their values
    from itertools import product as iproduct

    cases = [(boolean(2), [-1, 0, 1], INTEGERS)]
    for values, domain in ((range(2), integers_mod(2)), (range(3), integers_mod(3)),
                           ([Fraction(k, 2) for k in range(-2, 3)], RATIONALS)):
        cases += [(lat, values, domain) for lat in family.values()
                  if len(values) ** len(lat) <= 20_000]
    assert len(cases) > 20
    for lat, values, domain in cases:
        expected = []
        for combo in iproduct(values, repeat=len(lat)):
            candidate = dict(zip(lat.elements, combo))
            if is_measure(lat, candidate, domain).ok:
                expected.append(candidate)
        got = [dict(m.values) for m in brute_force_measures(lat, values, domain)]
        assert got == expected, (lat, domain)


def test_brute_force_cap():
    with pytest.raises(OracleTooLargeError):
        # 11^8 candidates, past DEFAULT_MAX_ORACLE
        brute_force_measures(boolean(3), range(-5, 6), INTEGERS)


def test_representability_round_trip(family):
    """Every brute-force integer measure is an exact integer combination of
    the basis, and every basis measure passes the additivity check."""
    for name, lat in family.items():
        if len(lat) > 8:
            continue
        basis = measure_basis(lat, INTEGERS)
        for m in basis:
            assert is_measure(lat, m.values, INTEGERS).ok
        rows = [[m.values[e] for m in basis] for e in lat.elements]
        for found in brute_force_measures(lat, range(-2, 3), INTEGERS):
            rhs = [found.values[e] for e in lat.elements]
            sol = solve_exact(rows, rhs)
            assert sol is not None
            assert all(c.denominator == 1 for c in sol)
            for e, b in zip(lat.elements, rows):
                assert sum(c * x for c, x in zip(sol, b)) == found.values[e]


def test_zmod_basis_measures_pass_is_measure():
    for m in measure_basis(mo(2), integers_mod(4)):
        assert is_measure(mo(2), m.values, integers_mod(4)).ok


@settings(max_examples=80, deadline=None)
@given(composite_lattices(), st.sampled_from(["z", "q", "z/2", "z/6"]),
       st.integers(0, 2 ** 32), st.booleans())
def test_is_measure_matches_pair_scan(lattice, domain_name, seed, perturb):
    domain = parse_domain(domain_name)
    rng = random.Random(seed)
    values = dict.fromkeys(lattice.elements, domain.zero)
    for m in measure_basis(lattice, domain):
        c = rng.randint(-3, 3)
        values = {e: domain.validate(v + c * m(e)) for e, v in values.items()}
    if perturb:
        e = rng.choice(lattice.elements)
        values[e] = domain.validate(values[e] + rng.randint(1, 5))
    result = is_measure(lattice, values, domain)
    assert result.ok == first_nonadditive_pair(lattice, values, domain)[0]
    assert result.witness == first_nonadditive_relation_pair(lattice, values, domain)
    if not perturb:
        assert result.ok
    if not result.ok:
        x, y = result.witness
        assert lattice.orthogonal(x, y)
        assert domain.add(values[x], values[y]) != values[lattice.join(x, y)]
