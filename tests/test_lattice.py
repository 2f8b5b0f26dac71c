"""Lattice construction, validation, and classification.

Claims:
    - constructors produce valid orthocomplemented lattices of the right size
    - classification flags (orthomodular, distributive, Boolean, atomistic)
      match the known test family, with correct minimal witnesses
    - is_distributive gives the verdict and first witness of a plain triple
      scan on the family, its products and its horizontal sums
    - orthocomplementation axioms, De Morgan, and the table laws hold
      exhaustively on every family member
    - bad descriptions raise the specific construction errors
    - building blocks compose: products and horizontal sums give the
      expected isomorphism types
    - the JSON file format round-trips every constructor
"""

import json

import pytest

from orthomeasure import (
    BadOrthocomplementError,
    IsotropicFormError,
    LatticeDescription,
    NotALatticeError,
    NotAPartialOrderError,
    NotDistributiveError,
    SchemaError,
    SizeCapError,
    are_isomorphic,
    atom_split_check,
    atoms,
    benzene,
    boolean,
    build_lattice,
    find_isomorphism,
    horizontal_sum,
    is_atomistic,
    is_boolean,
    is_distributive,
    is_orthomodular,
    load_lattice,
    mo,
    orthogonal_pairs,
    product,
    save_lattice,
    subspace_lattice,
    verify_ortho,
)

from oracles import distributivity_witness


def mo2_description():
    return LatticeDescription(
        name="MO2",
        elements=("0", "a1", "a1'", "a2", "a2'", "1"),
        leq_pairs=tuple(
            [("0", x) for x in ("a1", "a1'", "a2", "a2'", "1")]
            + [(x, "1") for x in ("a1", "a1'", "a2", "a2'")]
        ),
        orthocomplement={
            "0": "1", "1": "0",
            "a1": "a1'", "a1'": "a1",
            "a2": "a2'", "a2'": "a2",
        },
    )


def test_build_lattice_mo2_description():
    lat = build_lattice(mo2_description())
    assert len(lat) == 6
    assert verify_ortho(lat).ok
    assert are_isomorphic(lat, mo(2))


def test_build_simple_boolean_like():
    desc = LatticeDescription(
        name="B2",
        elements=("0", "a", "b", "1"),
        leq_pairs=(("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")),
        orthocomplement={"0": "1", "1": "0", "a": "b", "b": "a"},
    )
    lat = build_lattice(desc)
    assert verify_ortho(lat).ok
    assert is_boolean(lat)


def test_cycle_raises_not_a_partial_order():
    desc = LatticeDescription(
        name="cyc",
        elements=("0", "x", "y", "1"),
        leq_pairs=(("0", "x"), ("x", "y"), ("y", "x"), ("y", "1")),
        orthocomplement={"0": "1", "1": "0", "x": "y", "y": "x"},
    )
    with pytest.raises(NotAPartialOrderError):
        build_lattice(desc)


def test_missing_join_raises_not_a_lattice():
    # two maximal elements: no join, no top
    desc = LatticeDescription(
        name="nojoin",
        elements=("0", "x", "y"),
        leq_pairs=(("0", "x"), ("0", "y")),
        orthocomplement={"0": "x", "x": "0", "y": "y"},
    )
    with pytest.raises(NotALatticeError):
        build_lattice(desc)


def test_bad_orthocomplement_variants():
    base = dict(
        name="b",
        elements=("0", "a", "b", "1"),
        leq_pairs=(("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")),
    )
    # not an involution
    with pytest.raises(BadOrthocomplementError):
        build_lattice(LatticeDescription(
            **base, orthocomplement={"0": "1", "1": "0", "a": "b", "b": "1"}
        ))
    # complement law fails (a joined with itself is not top)
    with pytest.raises(BadOrthocomplementError):
        build_lattice(LatticeDescription(
            **base, orthocomplement={"0": "1", "1": "0", "a": "a", "b": "b"}
        ))
    # missing image
    with pytest.raises(BadOrthocomplementError):
        build_lattice(LatticeDescription(
            **base, orthocomplement={"0": "1", "1": "0", "a": "b"}
        ))


def test_duplicate_elements_rejected():
    with pytest.raises(SchemaError):
        build_lattice(LatticeDescription(
            name="dup", elements=("0", "0"), leq_pairs=(), orthocomplement={"0": "0"}
        ))


@pytest.mark.parametrize("n,count,atom_count", [(1, 2, 1), (2, 4, 2), (3, 8, 3)])
def test_boolean_sizes(n, count, atom_count):
    lat = boolean(n)
    assert len(lat) == count
    assert len(atoms(lat)) == atom_count


def test_boolean_1_is_a_chain():
    lat = boolean(1)
    assert lat.elements == ("0", "1")
    assert lat.bottom == "0" and lat.top == "1"


def test_boolean_3_distributive():
    assert is_distributive(boolean(3)).ok
    assert is_boolean(boolean(3))


def test_boolean_size_cap():
    with pytest.raises(SizeCapError):
        boolean(21)
    with pytest.raises(SizeCapError):
        boolean(8, max_elements=100)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mo_shape(n):
    lat = mo(n)
    assert len(lat) == 2 * n + 2
    assert len(atoms(lat)) == 2 * n
    assert is_orthomodular(lat).ok


def test_mo1_is_boolean_2():
    assert are_isomorphic(mo(1), boolean(2))


def test_mo2_not_distributive_with_atom_witness():
    result = is_distributive(mo(2))
    assert not result.ok
    assert set(result.witness) <= set(atoms(mo(2)))


def test_distributivity_matches_triple_scan(family):
    parts = [boolean(1), boolean(2), boolean(3), mo(1), mo(2), mo(3), benzene()]
    cases = list(family.values())
    cases += [product(a, b) for i, a in enumerate(parts) for b in parts[i:]]
    cases += [horizontal_sum(a, b) for i, a in enumerate(parts) for b in parts[i:]]
    verdicts = set()
    for lattice in cases:
        result = is_distributive(lattice)
        witness = distributivity_witness(lattice)
        assert (result.ok, result.witness) == (witness is None, witness), lattice.name
        verdicts.add(result.ok)
    assert verdicts == {True, False}


def test_benzene_classification():
    lat = benzene()
    assert len(lat) == 6
    assert verify_ortho(lat).ok
    omod = is_orthomodular(lat)
    assert not omod.ok
    a, b = omod.witness
    # the witness pair satisfies a < b but a v (a' ^ b) stays a
    assert lat.leq(a, b) and a != b
    assert lat.join(a, lat.meet(lat.orthocomplement(a), b)) == a
    assert omod.witness == ("a", "b")


def test_benzene_atoms_and_atomisticity():
    lat = benzene()
    assert atoms(lat) == ("a", "b'")
    result = is_atomistic(lat)
    assert not result.ok
    assert result.witness == ("b",)


def test_subspace_lattice_f3_identity():
    lat = subspace_lattice(3, 2, (1, 1))
    assert len(lat) == 6
    assert are_isomorphic(lat, mo(2))
    assert lat.orthocomplement("0") == "1"
    assert lat.orthocomplement("1") == "0"


def test_subspace_lattice_isotropic_form():
    with pytest.raises(IsotropicFormError, match=r"\(1, 1\)"):
        subspace_lattice(2, 2, (1, 1))


def test_product_of_chains_is_boolean_2():
    assert are_isomorphic(product(boolean(1), boolean(1)), boolean(2))


def test_horizontal_sums():
    assert are_isomorphic(horizontal_sum(boolean(2), boolean(2)), mo(2))
    assert are_isomorphic(horizontal_sum(mo(1), mo(2)), mo(3))


@pytest.mark.parametrize("name", ["boolean(3)", "mo(2)", "benzene"])
def test_boolean_mo_benzene_flags(name, family):
    lat = family[name]
    if name == "boolean(3)":
        assert is_orthomodular(lat).ok and is_distributive(lat).ok and is_boolean(lat)
    elif name == "mo(2)":
        assert is_orthomodular(lat).ok and not is_distributive(lat).ok
    else:
        assert not is_orthomodular(lat).ok


def test_atom_split_check_on_booleans():
    for n in (1, 2, 3, 4):
        assert atom_split_check(boolean(n)).ok


def test_atom_split_check_requires_distributive():
    with pytest.raises(NotDistributiveError):
        atom_split_check(mo(2))


def test_orthogonal_pairs_boolean_2():
    lat = boolean(2)
    pairs = set(map(frozenset, orthogonal_pairs(lat)))
    assert frozenset(["10", "01"]) in pairs
    for e in lat.elements:
        assert frozenset(["00", e]) in pairs


def test_orthogonal_pairs_mo2_exact():
    lat = mo(2)
    pairs = orthogonal_pairs(lat)
    expected = [("0", "0"), ("0", "a1"), ("0", "a1'"), ("0", "a2"),
                ("0", "a2'"), ("0", "1"), ("a1", "a1'"), ("a2", "a2'")]
    assert sorted(pairs) == sorted(expected)


def test_bottom_is_only_self_orthogonal(family):
    for lat in family.values():
        self_orth = [e for e in lat.elements if lat.orthogonal(e, e)]
        assert self_orth == [lat.bottom]


def test_family_axioms_exhaustive(family):
    for lat in family.values():
        assert verify_ortho(lat).ok
        for a in lat.elements:
            assert lat.orthocomplement(lat.orthocomplement(a)) == a
            assert lat.join(a, lat.orthocomplement(a)) == lat.top
            assert lat.meet(a, lat.orthocomplement(a)) == lat.bottom


def test_family_de_morgan(family):
    for lat in family.values():
        for a in lat.elements:
            for b in lat.elements:
                assert lat.orthocomplement(lat.join(a, b)) == lat.meet(
                    lat.orthocomplement(a), lat.orthocomplement(b)
                )


def test_table_laws(family):
    for lat in family.values():
        if len(lat) > 64:
            continue
        els = lat.elements
        for a in els:
            assert lat.meet(a, a) == a and lat.join(a, a) == a
            for b in els:
                assert lat.meet(a, b) == lat.meet(b, a)
                assert lat.join(a, b) == lat.join(b, a)
                assert lat.join(a, lat.meet(a, b)) == a
                assert lat.meet(a, lat.join(a, b)) == a
                for c in els:
                    assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))
                    assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))


def test_isomorphism_respects_structure():
    iso = find_isomorphism(horizontal_sum(boolean(2), boolean(2)), mo(2))
    assert iso is not None
    src = horizontal_sum(boolean(2), boolean(2))
    dst = mo(2)
    for a in src.elements:
        assert iso[src.orthocomplement(a)] == dst.orthocomplement(iso[a])
        for b in src.elements:
            assert src.leq(a, b) == dst.leq(iso[a], iso[b])


def test_not_isomorphic():
    assert not are_isomorphic(mo(2), boolean(3))
    assert not are_isomorphic(benzene(), mo(2))


def test_file_round_trip(tmp_path, family):
    for name, lat in family.items():
        if len(lat) > 32:
            continue
        path = tmp_path / "lat.json"
        save_lattice(lat, path)
        again = load_lattice(path)
        assert again.elements == lat.elements
        assert again.up_masks == lat.up_masks
        assert again.orth_map == lat.orth_map


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    data = boolean(2).to_description().to_json_dict()
    data["extra"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_lattice(path)


def test_leq_pairs_any_generating_set():
    # reflexive-transitive closure is computed, so covers suffice
    desc = LatticeDescription(
        name="diamond",
        elements=("0", "x", "y", "1"),
        leq_pairs=(("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")),
        orthocomplement={"0": "1", "1": "0", "x": "y", "y": "x"},
    )
    lat = build_lattice(desc)
    assert lat.leq("0", "1")
    assert lat.leq("x", "1") and lat.leq("0", "x")
