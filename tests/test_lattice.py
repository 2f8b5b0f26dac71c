"""Lattice construction, validation, and classification.

Claims:
    - constructors produce valid orthocomplemented lattices of the right size
    - classification flags (orthomodular, distributive, Boolean, atomistic)
      match the known test family, with correct minimal witnesses
    - is_distributive gives the verdict of a plain triple scan, and
      is_orthomodular that of a scan of every comparable pair, on the
      family, its products and its horizontal sums and on composites, where
      is_boolean agrees with the triple scan too; each witness is the one a
      brute-force oracle of its rule finds from names (the first failing
      join test J(x v j) = J(x) | J(j), the first a < b with a' ^ b = 0) and
      breaks its law; is_distributive answers in under 1 s on
      product(mo(2), boolean(9)), 3 072 elements
    - orthocomplementation axioms, De Morgan, and the table laws hold
      exhaustively on every family member; verify_ortho fails every
      single-bit flip of a down_masks or down_pos entry of boolean(2),
      mo(2) and benzene, and scans De Morgan, with the least upper bound
      read off the order, when order reversal fails
    - bad descriptions raise the specific construction errors
    - building blocks compose: products and horizontal sums give the
      expected isomorphism types, and the lattice of the description that
      lists every comparable pair, over the family up to 64 elements
    - the JSON file format round-trips every constructor
    - LatticeDescription.from_json_dict accepts what the generator-based
      validator in ``oracles`` accepts, with an equal description, and
      rejects the rest with the same SchemaError message: on every
      rejection branch, on str subclasses and on random JSON-like values
    - build_lattice gives the masks of the scan-based builder in
      ``oracles``, and every pair's meet and join equal its tables, on
      shuffled, redundant descriptions of boolean, mo, product,
      horizontal-sum and benzene lattices, and the same exception class on
      every kind of defective description, with the same message but for
      the witnesses build_lattice names by the pass that finds them: a
      cycle pair x <= y <= x, a pair without a meet or a join and a given
      pair whose images do not reverse the order each break their law in
      the scan builder's closure, and a missing bottom or top and a failed
      order reversal are named as the name-level oracles of their rules in
      ``oracles`` name them; the lowest element failing the involution or
      the complement laws is named, the involution first on a tie; no
      description, accepted or refused, reaches verify_ortho or any of its
      checks, and four refusals at the 4 096-element cap (a bowtie, two
      cycles and a duplicate name) each take under 1 s
    - the cover scan of build_lattice (one minimal and one maximal element,
      then the meets of the non-atom lower covers of each element) finds a
      failure exactly when the all-pairs meet scan in ``oracles`` or a
      single maximal element fails, on random given orders with repeated
      and transitive pairs, and the pair it names breaks its law; on a top
      without a bottom, a bottom without a top, the full order relation,
      and posets whose only missing meet is between two non-atom covers
      of 1, build_lattice raises or returns what the scan builder does
    - boolean(n), described by its covers, has the masks, meets and joins
      of the all-pairs description for n = 1..10
    - on boolean(10) meets, joins and complements are bitwise AND, OR and
      NOT of the names, and on mo(400) distinct non-complementary atoms meet
      at 0 and join at 1, each built under a 10 s bound
"""

import ast
import functools
import json
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from orthomeasure import (
    BadOrthocomplementError,
    IsotropicFormError,
    LatticeDescription,
    NotALatticeError,
    NotAPartialOrderError,
    OrthomeasureError,
    SchemaError,
    SizeCapError,
    are_isomorphic,
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

import orthomeasure.lattice as lattice_mod
from oracles import (
    build_lattice_by_scan,
    distributivity_failure,
    distributivity_witness,
    every_pair_meets,
    extreme_pair_failure,
    lattice_description_by_generators,
    order_closure,
    order_reversal_failure,
    orthomodularity_failure,
)
from strategies import composite_lattices


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
    # two maximal elements: every meet, but no join and no top
    for orthocomplement in (
        {"0": "x", "x": "0", "y": "y"},  # an involution, not order-reversing
        {"0": "0", "x": "0", "y": "0"},  # order-reversing, not an involution
    ):
        desc = LatticeDescription(
            name="nojoin",
            elements=("0", "x", "y"),
            leq_pairs=(("0", "x"), ("0", "y")),
            orthocomplement=orthocomplement,
        )
        with pytest.raises(NotALatticeError, match="'x' and 'y' have no join"):
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
    # the first element, in file order, that occurs more than once
    with pytest.raises(SchemaError, match="^duplicate element identifier 'b'$"):
        build_lattice(LatticeDescription(
            name="dup", elements=("a", "b", "c", "b", "c"), leq_pairs=(),
            orthocomplement={}
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
        boolean(13)  # 8 192 elements, past DEFAULT_MAX_ELEMENTS


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


def _breaks_distributivity(lattice, witness):
    """i ^ (x v j) != (i ^ x) v (i ^ j) for the witness (i, x, j)."""
    i, x, j = witness
    meet, join = lattice.meet, lattice.join
    return meet(i, join(x, j)) != join(meet(i, x), meet(i, j))


def _breaks_orthomodularity(lattice, witness):
    """a <= b and a v (a' ^ b) != b for the witness (a, b)."""
    a, b = witness
    return lattice.leq(a, b) and lattice.join(a, lattice.meet(lattice.orthocomplement(a), b)) != b


def _assert_witnesses(lattice):
    """Each classification verdict is the scan's, and each witness is its
    rule's oracle and breaks its law."""
    dist = is_distributive(lattice)
    assert dist.ok == (distributivity_witness(lattice) is None), lattice.name
    assert dist.witness == distributivity_failure(lattice), lattice.name
    assert dist.ok or _breaks_distributivity(lattice, dist.witness), lattice.name
    omod = is_orthomodular(lattice)
    assert omod.ok == (_orthomodular_witness(lattice) is None), lattice.name
    assert omod.witness == orthomodularity_failure(lattice), lattice.name
    assert omod.ok or _breaks_orthomodularity(lattice, omod.witness), lattice.name
    return dist.ok, omod.ok


def test_distributivity_matches_triple_scan(family):
    # the verdicts of the triple scan and the law scan; the witnesses of
    # the first failing join test and the first a < b with a' ^ b = 0
    parts = [boolean(1), boolean(2), boolean(3), mo(1), mo(2), mo(3), benzene()]
    cases = list(family.values())
    cases += [product(a, b) for i, a in enumerate(parts) for b in parts[i:]]
    cases += [horizontal_sum(a, b) for i, a in enumerate(parts) for b in parts[i:]]
    verdicts = {_assert_witnesses(lattice) for lattice in cases}
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_witness_examples():
    assert is_distributive(mo(2)).witness == ("a2", "a1", "a1'")
    assert is_orthomodular(product(benzene(), benzene())).witness == ("(0,a)", "(0,b)")


def test_distributivity_at_the_cap_is_bounded():
    # 3 072 elements: the triple scan would take hours, the join test
    # stops at its first failure
    lattice = product(mo(2), boolean(9))
    start = time.perf_counter()
    result = is_distributive(lattice)
    assert time.perf_counter() - start < 1.0
    assert not result.ok and _breaks_distributivity(lattice, result.witness)


def _orthomodular_witness(lattice):
    """The first comparable pair, by index, where a v (a' ^ b) != b."""
    return next(((a, b) for a in lattice.elements for b in lattice.elements
                 if lattice.leq(a, b)
                 and lattice.join(a, lattice.meet(lattice.orthocomplement(a), b)) != b),
                None)


@settings(max_examples=60, deadline=None)
@given(composite_lattices())
def test_classification_shortcuts_match_the_scans(lattice):
    # is_boolean's proof against the triple scan, then both checks'
    # verdicts against the scans and their witnesses against their rules
    assert is_boolean(lattice) == (distributivity_witness(lattice) is None)
    _assert_witnesses(lattice)


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


def _all_pairs_product(a, b):
    """The product described by every componentwise-comparable pair."""
    names = [(f"({x},{y})", i, j)
             for i, x in enumerate(a.elements) for j, y in enumerate(b.elements)]
    pairs = [(n1, n2) for n1, i1, j1 in names for n2, i2, j2 in names
             if a.leq_index(i1, i2) and b.leq_index(j1, j2)]
    name_of = {(i, j): n for n, i, j in names}
    orth = {n: name_of[a.orth_map[i], b.orth_map[j]] for n, i, j in names}
    return LatticeDescription("", tuple(n for n, _, _ in names), tuple(pairs), orth)


def _all_pairs_sum(a, b):
    """The horizontal sum described by every pair comparable in a summand,
    with each summand's bottom and top glued into "0" and "1"."""
    elements, pairs, orth = ["0"], [], {"0": "1", "1": "0"}
    for side, lat in (("a", a), ("b", b)):
        ends = {lat.bottom: "0", lat.top: "1"}
        glued = {e: ends.get(e, f"{side}:{e}") for e in lat.elements}
        elements += [glued[e] for e in lat.elements if e not in ends]
        pairs += [(glued[e], glued[f]) for e in lat.elements for f in lat.elements
                  if lat.leq(e, f)]
        orth.update((glued[e], glued[lat.orthocomplement(e)])
                    for e in lat.elements if e not in ends)
    return LatticeDescription("", (*elements, "1"), tuple(pairs), orth)


def test_products_and_sums_match_the_all_pairs_descriptions(family):
    same, cases = lattice_mod.same_lattice, 0
    for a in family.values():
        for b in family.values():
            if len(a) * len(b) <= 64:
                assert same(product(a, b), build_lattice(_all_pairs_product(a, b)))
                cases += 1
            if len(a) + len(b) - 2 <= 64:
                assert same(horizontal_sum(a, b), build_lattice(_all_pairs_sum(a, b)))
                cases += 1
    assert cases > 200


@pytest.mark.parametrize("name", ["boolean(3)", "mo(2)", "benzene"])
def test_boolean_mo_benzene_flags(name, family):
    lat = family[name]
    if name == "boolean(3)":
        assert is_orthomodular(lat).ok and is_distributive(lat).ok and is_boolean(lat)
    elif name == "mo(2)":
        assert is_orthomodular(lat).ok and not is_distributive(lat).ok
    else:
        assert not is_orthomodular(lat).ok


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


def _with_fields(lat, **fields):
    """The raw constructor on ``lat``'s fields, some replaced; unvalidated."""
    names = ("name", "elements", "down_masks", "orth_map", "order", "down_pos")
    return lattice_mod.OrthoLattice(*(fields.get(k, getattr(lat, k)) for k in names))


def test_verify_ortho_scans_de_morgan_when_order_reversal_fails():
    # benzene with a <-> b' and b <-> a': an involution obeying the
    # complement laws, but a <= b while b' < a'
    base = benzene()
    idx = base.index
    orth = list(base.orth_map)
    for x, y in (("a", "b'"), ("b", "a'")):
        orth[idx(x)], orth[idx(y)] = idx(y), idx(x)
    lat = _with_fields(base, orth_map=orth)
    checks = verify_ortho(lat).checks
    assert checks["involution"].ok and checks["complement"].ok
    assert not checks["order_reversal"].ok

    # the join by definition: lat.join reads it through the broken complement
    def least_upper_bound(a, b):
        bounds = [z for z in lat.elements if lat.leq(a, z) and lat.leq(b, z)]
        return next(z for z in bounds if all(lat.leq(z, w) for w in bounds))

    scan = next((a, b) for a in lat.elements for b in lat.elements
                if lat.orthocomplement(least_upper_bound(a, b))
                != lat.meet(lat.orthocomplement(a), lat.orthocomplement(b)))
    assert checks["de_morgan"] == lattice_mod.CheckResult(False, scan)


@pytest.mark.parametrize("make", [lambda: boolean(2), lambda: mo(2), benzene],
                         ids=["boolean(2)", "mo(2)", "benzene"])
def test_verify_ortho_fails_every_single_bit_flip_of_the_down_sets(make):
    base = make()
    n = len(base)
    assert verify_ortho(base).ok
    for field in ("down_masks", "down_pos"):
        for j in range(n):
            for i in range(n):
                masks = list(getattr(base, field))
                masks[j] ^= 1 << i
                assert not verify_ortho(_with_fields(base, **{field: masks})).ok, (field, j, i)


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
        assert again.down_masks == lat.down_masks
        assert again.orth_map == lat.orth_map


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    data = boolean(2).to_description().to_json_dict()
    data["extra"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_lattice(path)


def _validated(validate, data):
    try:
        return validate(data)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


class _Name(str):
    pass


def _file(**changes):
    data = mo(1).to_description().to_json_dict()
    data.update(changes)
    return data


SCHEMA_CASES = {
    "mo(1)": _file(),
    "boolean(3)": boolean(3).to_description().to_json_dict(),
    "no name": {k: v for k, v in _file().items() if k != "name"},
    "empty": _file(elements=[], leq=[], orthocomplement={}),
    "str subclasses": _file(name=_Name("n"), elements=[_Name("0"), "1"],
                            leq=[[_Name("0"), _Name("1")]],
                            orthocomplement={_Name("0"): _Name("1"), "1": "0"}),
    "not a dict": [1, 2],
    "two unknown keys": _file(z=1, a=2),
    "no elements": {k: v for k, v in _file().items() if k != "elements"},
    "no leq": {k: v for k, v in _file().items() if k != "leq"},
    "no orthocomplement": {k: v for k, v in _file().items() if k != "orthocomplement"},
    "nothing": {},
    "elements not a list": _file(elements=("0", "1")),
    "element not a str": _file(elements=["0", 1]),
    "leq not a list": _file(leq="01"),
    "pair not a list": _file(leq=[("0", "1")]),
    "pair an int": _file(leq=[["0", "1"], 7]),
    "short pair": _file(leq=[["0"]]),
    "long pair": _file(leq=[["0", "1", "1"]]),
    "empty pair": _file(leq=[[]]),
    "pair member not a str": _file(leq=[["0", None]]),
    "bad pair after a good one": _file(leq=[["0", "1"], ["1", 0]]),
    "orthocomplement not a dict": _file(orthocomplement=[["0", "1"]]),
    "orthocomplement key not a str": _file(orthocomplement={0: "1"}),
    "orthocomplement value not a str": _file(orthocomplement={"0": 1}),
    "name not a str": _file(name=3),
    "every field bad": {"elements": 1, "leq": 2, "orthocomplement": 3, "name": 4},
}


@pytest.mark.parametrize("data", SCHEMA_CASES.values(), ids=SCHEMA_CASES)
def test_from_json_dict_validates_like_the_generator_checks(data):
    expected = _validated(lattice_description_by_generators, data)
    assert _validated(LatticeDescription.from_json_dict, data) == expected


def test_schema_cases_reach_every_message():
    outcomes = [_validated(LatticeDescription.from_json_dict, data)
                for data in SCHEMA_CASES.values()]
    assert {m for m in outcomes if isinstance(m, str)} == {
        "SchemaError: lattice file must contain a JSON object",
        "SchemaError: unknown keys in lattice file: ['a', 'z']",
        "SchemaError: lattice file missing key 'elements'",
        "SchemaError: lattice file missing key 'leq'",
        "SchemaError: lattice file missing key 'orthocomplement'",
        "SchemaError: 'elements' must be a list of strings",
        "SchemaError: 'leq' must be a list of [str, str] pairs",
        "SchemaError: 'orthocomplement' must map strings to strings",
        "SchemaError: 'name' must be a string",
    }


_json_scalars = st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from("01ab")
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from("01ab"), inner,
                                                                max_size=3),
    max_leaves=12,
)
_names = st.sampled_from(("0", "1", "a", "b"))
_lattice_files = st.dictionaries(
    st.sampled_from(("name", "elements", "leq", "orthocomplement", "extra")),
    st.one_of(
        _json_values,
        st.lists(_names | _json_scalars, max_size=4),
        st.lists(st.lists(_names | _json_scalars, max_size=3), max_size=4),
        st.dictionaries(_names, _names | _json_scalars, max_size=3),
    ),
) | _json_values


@settings(max_examples=300, deadline=None)
@given(_lattice_files)
def test_from_json_dict_validates_random_values_like_the_generator_checks(data):
    expected = _validated(lattice_description_by_generators, data)
    assert _validated(LatticeDescription.from_json_dict, data) == expected


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


# --- build_lattice against the scan-based builder -------------------------------

TABLES = ("elements", "down_masks", "orth_map", "bottom_index", "top_index")


def _tables(lattice):
    """The fields the scan builder also returns, the up-sets read one
    comparison at a time, and the meet and join of every pair as the scan
    builder's tables."""
    n = len(lattice)
    out = {key: getattr(lattice, key) for key in TABLES}
    out["up_masks"] = tuple(sum(lattice.leq_index(i, j) << j for j in range(n))
                            for i in range(n))
    for key, op in (("meet_table", lattice.meet_index), ("join_table", lattice.join_index)):
        out[key] = tuple(tuple(map(op, [i] * n, range(n))) for i in range(n))
    return out

DIFFERENTIAL_BASES = {
    "boolean(1)": lambda: boolean(1),
    "boolean(3)": lambda: boolean(3),
    "boolean(4)": lambda: boolean(4),
    "mo(1)": lambda: mo(1),
    "mo(3)": lambda: mo(3),
    "benzene": benzene,
    "product(mo(2),boolean(2))": lambda: product(mo(2), boolean(2)),
    "product(benzene,boolean(1))": lambda: product(benzene(), boolean(1)),
    "hsum(benzene,mo(2))": lambda: horizontal_sum(benzene(), mo(2)),
    "hsum(boolean(3),benzene)": lambda: horizontal_sum(boolean(3), benzene()),
}


@functools.cache
def _base(name):
    return DIFFERENTIAL_BASES[name]()


def _outcome(build, desc):
    """The tables a builder returns, or the class and message it raises."""
    try:
        built = build(desc)
    except OrthomeasureError as exc:
        return type(exc), str(exc)
    if isinstance(built, dict):
        return built
    return _tables(built)


# the faults build_lattice names by the pass that finds them, which need
# not be the first pair of the scan builder's scans
_WITNESSED = {
    "cycle": re.compile(r"cycle: (.+) <= (.+) <= (.+)"),
    "bound": re.compile(r"(.+) and (.+) have no (meet|join)"),
    "order_reversal": re.compile(r"order reversal fails on \((.+), (.+)\)"),
}


def _outcome_like_scan(desc):
    """build_lattice's outcome on ``desc``, checked against the scan
    builder's: the same tables on an accepted description, and the same
    error class on a rejected one.  The message is the scan builder's
    exactly, except for a cycle, a missing meet or join and a failed order
    reversal, whose witness must break its law in the scan builder's
    closure; a missing bottom or top and a failed order reversal are named
    exactly as the name-level oracles of their rules name them."""
    got = _outcome(build_lattice, desc)
    want = _outcome(build_lattice_by_scan, desc)
    if isinstance(want, dict) or got[0] is not want[0]:
        assert got == want
        return got
    for kind, pattern in _WITNESSED.items():
        match = pattern.fullmatch(got[1])
        if match:
            break
    else:
        assert got == want
        return got
    names = match.groups()
    x, y = map(ast.literal_eval, names[:2])
    index = {e: i for i, e in enumerate(desc.elements)}
    up = order_closure(desc)
    i, j = index[x], index[y]
    if kind == "cycle":
        assert ast.literal_eval(names[2]) == x
        assert i != j and up[i] >> j & 1 and up[j] >> i & 1
    elif kind == "bound":
        law = names[2]
        # a missing bottom or top is named by its rule; otherwise the cover
        # scan names a pair without a meet
        extreme = extreme_pair_failure(desc)
        assert (law, x, y) == extreme if extreme else law == "meet"
        rows = up if law == "join" else [
            sum(1 << a for a, row in enumerate(up) if row >> b & 1) for b in range(len(up))]
        bounds = rows[i] & rows[j]
        # no bound holds all the others on its own side
        assert not any(bounds >> m & 1 and rows[m] & bounds == bounds
                       for m in range(len(rows)))
    else:
        assert (x, y) == order_reversal_failure(desc)
        orth = desc.orthocomplement
        assert up[i] >> j & 1 and not up[index[orth[y]]] >> index[orth[x]] & 1
    return got


DEFECTS = ("cycle", "no_meet", "no_join", "bowtie", "unknown_element",
           "duplicate_element", "missing_image", "not_involution", "complement_law",
           "order_reversal")


def _with_defect(desc, lattice, kind, k):
    """``desc`` (a description of ``lattice``) with one defect; ``k`` picks
    where.  None when the lattice offers no place for that defect."""
    elements = list(desc.elements)
    pairs = list(desc.leq_pairs)
    orth = dict(desc.orthocomplement)
    n = len(elements)
    comp = lattice.orthocomplement
    if kind == "cycle":
        strict = [(a, b) for a, b in pairs if a != b]
        a, b = strict[k % len(strict)]
        pairs.append((b, a))
    elif kind in ("no_meet", "no_join"):
        gone = lattice.bottom if kind == "no_meet" else lattice.top
        elements.remove(gone)
        pairs = [p for p in pairs if gone not in p]
        del orth[gone]
    elif kind == "bowtie":
        # two new elements below two incomparable ones: the new pair has
        # upper bounds but no join, the old pair lower bounds but no meet
        apart = [(a, b) for a in elements for b in elements
                 if not lattice.leq(a, b) and not lattice.leq(b, a)]
        if not apart:
            return None
        a, b = apart[k % len(apart)]
        for step, new in enumerate(("bow1", "bow2")):
            elements.insert((k >> 4 * step) % (len(elements) + 1), new)
            pairs += [(lattice.bottom, new), (new, a), (new, b)]
            orth[new] = new
    elif kind == "unknown_element":
        pair = (elements[k % n], "missing")
        pairs.insert(k % (len(pairs) + 1), pair if k % 2 else pair[::-1])
    elif kind == "duplicate_element":
        elements.insert(k % (n + 1), elements[k % n])
    elif kind == "missing_image":
        del orth[elements[k % n]]
    elif kind == "not_involution":
        a = elements[k % n]
        others = [c for c in elements if c != orth[a]]
        orth[a] = others[k % len(others)]
    elif kind == "complement_law":
        x = elements[k % n]
        orth[x], orth[comp(x)] = x, comp(x)
    else:  # order_reversal: x < y, complements crossed, so x -> y' and y -> x'
        ends = (lattice.bottom, lattice.top)
        chains = [(x, y) for x in elements for y in elements
                  if x != y and lattice.leq(x, y) and x not in ends
                  and y not in ends and y != comp(x)]
        if not chains:
            return None
        x, y = chains[k % len(chains)]
        orth[x], orth[comp(y)] = comp(y), x
        orth[y], orth[comp(x)] = comp(x), y
    return LatticeDescription(desc.name, tuple(elements), tuple(pairs), orth)


@st.composite
def varied_descriptions(draw):
    """A description of a base lattice with its elements and pairs shuffled
    and extra comparable pairs (transitive ones and self-pairs) added."""
    lattice = _base(draw(st.sampled_from(sorted(DIFFERENTIAL_BASES))))
    desc = lattice.to_description()
    comparable = [(a, b) for a in lattice.elements for b in lattice.elements
                  if lattice.leq(a, b)]
    extra = draw(st.lists(st.sampled_from(comparable), max_size=2 * len(lattice)))
    pairs = draw(st.permutations(list(desc.leq_pairs) + extra))
    elements = draw(st.permutations(desc.elements))
    return lattice, LatticeDescription(
        desc.name, tuple(elements), tuple(pairs), dict(desc.orthocomplement)
    )


@settings(max_examples=300, deadline=None)
@given(varied_descriptions(), st.one_of(st.none(), st.sampled_from(DEFECTS)),
       st.integers(min_value=0, max_value=10 ** 6))
def test_build_matches_scan_builder(case, defect, k):
    lattice, desc = case
    if defect is not None:
        desc = _with_defect(desc, lattice, defect, k)
        if desc is None:
            return
    got = _outcome_like_scan(desc)
    if defect is None:
        assert isinstance(got, dict)
    else:
        assert isinstance(got, tuple)


@pytest.mark.parametrize("defect,error,message", [
    ("cycle", NotAPartialOrderError, "cycle: "),
    ("no_meet", NotALatticeError, "have no meet"),
    ("no_join", NotALatticeError, "have no join"),
    ("bowtie", NotALatticeError, "have no meet"),
    ("unknown_element", SchemaError, "leq pair references unknown element"),
    ("duplicate_element", SchemaError, "duplicate element identifier"),
    ("missing_image", BadOrthocomplementError, "no orthocomplement given"),
    ("not_involution", BadOrthocomplementError, "involution fails"),
    ("complement_law", BadOrthocomplementError, "complement laws fail"),
    ("order_reversal", BadOrthocomplementError, "order reversal fails"),
])
@pytest.mark.parametrize("base", ["benzene", "hsum(benzene,mo(2))"])
def test_each_defect_is_rejected_alike(defect, error, message, base):
    lattice = _base(base)
    for k in range(256):
        desc = _with_defect(lattice.to_description(), lattice, defect, k)
        got = _outcome_like_scan(desc)
        if got[0] is error and message in got[1]:
            return
    pytest.fail(f"no {defect} placement on {base} raised {error.__name__}")


def test_order_reversal_names_the_first_given_pair():
    # on product(benzene, boolean(1)) an element can lie below two given
    # pairs that fail; the one given first in the file is named
    lattice = _base("product(benzene,boolean(1))")
    named = set()
    for k in range(256):
        desc = _with_defect(lattice.to_description(), lattice, "order_reversal", k)
        for pairs in (desc.leq_pairs, desc.leq_pairs[::-1]):
            got = _outcome_like_scan(LatticeDescription(desc.name, desc.elements, pairs,
                                                        desc.orthocomplement))
            if got[1].startswith("order reversal"):
                named.add((k, got[1]))
    # some placement names another pair when the pairs are given reversed
    assert len(named) > len({k for k, _ in named})


@pytest.mark.parametrize("images,message", [
    # a1 is its own image: complement laws fail at a1 (index 1), the
    # involution first at a1' (index 2), whose image a2 maps on to a2'
    ({"a1": "a1", "a1'": "a2", "a2": "a2'", "a2'": "a1'"},
     "complement laws fail at 'a1'"),
    # a1 -> a2 -> a2' breaks the involution at a1; a1' is its own image
    ({"a1": "a2", "a1'": "a1'", "a2": "a2'", "a2'": "a1"},
     "involution fails at 'a1'"),
    # a1 -> 1 -> 0 breaks both at a1, and the involution is named
    ({"a1": "1", "a1'": "a1", "a2": "a2'", "a2'": "a2"},
     "involution fails at 'a1'"),
])
def test_the_lowest_orthocomplement_failure_is_named(images, message):
    base = mo2_description()
    desc = LatticeDescription(base.name, base.elements, base.leq_pairs,
                              {"0": "1", "1": "0", **images})
    got = _outcome(build_lattice, desc)
    assert got == _outcome(build_lattice_by_scan, desc)
    assert got == (BadOrthocomplementError, message)


@st.composite
def given_orders(draw):
    """(above, below) lists over 1..11 elements, i < j for every given pair
    (i, j), so index order is topological: up to three random lower
    neighbours per element, then, each at random, a new bottom below every
    minimal element, a new top above every maximal one, and repeated or
    transitive pairs."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for j in range(1, n)
             for i in draw(st.sets(st.integers(0, j - 1), max_size=3))]
    if draw(st.booleans()):
        pairs = [(0, j + 1) for j in range(n) if all(b != j for _, b in pairs)] + [
            (i + 1, j + 1) for i, j in pairs]
        n += 1
    if draw(st.booleans()):
        pairs += [(i, n) for i in range(n) if all(a != i for a, _ in pairs)]
        n += 1
    up = [1 << i for i in range(n)]
    for i in range(n - 1, -1, -1):
        for a, b in pairs:
            if a == i:
                up[i] |= up[b]
    comparable = [(i, j) for i in range(n) for j in range(i + 1, n) if up[i] >> j & 1]
    if comparable:
        pairs += draw(st.lists(st.sampled_from(comparable), max_size=n))
    above, below = [[] for _ in range(n)], [[] for _ in range(n)]
    for a, b in pairs:
        above[a].append(b)
        below[b].append(a)
    return above, below


@settings(max_examples=1000, deadline=None)
@given(given_orders())
def test_cover_pairs_decide_what_every_pair_decides(case):
    # the lemma at build_lattice: with one minimal and one maximal element,
    # the pairs of non-atom lower covers of a common element have meets
    # exactly when every pair has one
    above, below = case
    n = len(above)
    up = [0] * n
    for i in range(n - 1, -1, -1):
        up[i] = 1 << i
        for j in above[i]:
            up[i] |= up[j]
    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    order = list(range(n))
    one_top = sum(not upper for upper in above) == 1
    failure = lattice_mod._is_lattice(above, below, order, down)
    assert (failure is None) == (one_top and every_pair_meets(down, order))
    if failure is not None:
        # order is the identity, so the masks are over indices: the named
        # pair's lower bounds have no greatest element, or its upper
        # bounds no least one
        kind, i, j = failure
        rows = down if kind == "meet" else up
        bounds = rows[i] & rows[j]
        assert i < j and not any(bounds >> m & 1 and rows[m] & bounds == bounds
                                 for m in range(n))
        # a missing bottom or top is named by the rule of its oracle
        names = tuple(map(str, range(n)))
        extreme = extreme_pair_failure(LatticeDescription(
            "given", names, tuple((names[a], names[b]) for a in range(n) for b in above[a])))
        assert (kind, *(names[i], names[j])) == extreme or (extreme is None and kind == "meet")


def _lattice_edge_case(kind):
    """A description for one edge of the cover scan in build_lattice."""
    atoms = ("a1", "a1'", "a2", "a2'")
    orth = {"0": "1", "1": "0", "a1": "a1'", "a1'": "a1", "a2": "a2'", "a2'": "a2"}
    if kind == "top, no bottom":
        del orth["0"]
        orth["1"] = "1"
        return LatticeDescription(kind, (*atoms, "1"), tuple((a, "1") for a in atoms), orth)
    if kind == "no bottom, no top":
        return LatticeDescription(kind, atoms, (), {a: a for a in atoms})
    if kind == "bottom, no top":
        del orth["1"]
        orth["0"] = "0"
        return LatticeDescription(kind, ("0", *atoms), tuple(("0", a) for a in atoms), orth)
    if kind in ("x, y first", "a, b first"):
        # x and y, the non-atom covers of 1, have the lower bounds 0, a and
        # b but no meet; a and b have no join; every other pair is fine
        pairs = (("0", "a"), ("0", "b"), ("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"),
                 ("x", "1"), ("y", "1"))
        named = ("0", "x", "y", "a", "b", "1") if kind == "x, y first" else (
            "0", "a", "b", "x", "y", "1")
        return LatticeDescription(kind, named, pairs, {"0": "1", "1": "0", "a": "y",
                                                       "y": "a", "b": "x", "x": "b"})
    # the full order relation, every reflexive and transitive pair given
    lattice = boolean(3) if kind == "full order of boolean(3)" else product(mo(2), boolean(1))
    pairs = tuple((a, b) for a in lattice.elements for b in lattice.elements
                  if lattice.leq(a, b))
    return LatticeDescription(kind, lattice.elements, pairs,
                              {e: lattice.orthocomplement(e) for e in lattice.elements})


@pytest.mark.parametrize("kind,expected", [
    ("top, no bottom", (NotALatticeError, "'a1' and \"a1'\" have no meet")),
    ("bottom, no top", (NotALatticeError, "'a1' and \"a1'\" have no join")),
    ("x, y first", (NotALatticeError, "'x' and 'y' have no meet")),
    ("a, b first", (NotALatticeError, "'x' and 'y' have no meet")),
    ("full order of boolean(3)", None),
    ("full order of mo(2) x boolean(1)", None),
    ("no bottom, no top", (NotALatticeError, "'a1' and \"a1'\" have no meet")),
])
def test_cover_scan_edge_cases_match_the_scan_builder(kind, expected):
    desc = _lattice_edge_case(kind)
    got = _outcome_like_scan(desc)
    if expected is None:
        assert isinstance(got, dict)
    else:
        assert got == expected


def test_accepted_input_skips_the_witness_scans(monkeypatch, family):
    # no description, accepted or refused, reaches verify_ortho's scans
    def unreachable(*args):
        raise AssertionError("verify_ortho scan reached from build_lattice")

    for name in ["verify_ortho", *(n for n in dir(lattice_mod) if n.startswith("_check_"))]:
        monkeypatch.setattr(lattice_mod, name, unreachable)
    for lattice in [*family.values(), product(benzene(), mo(2))]:
        assert lattice_mod.same_lattice(build_lattice(lattice.to_description()), lattice)
    for base in ("benzene", "hsum(benzene,mo(2))", "boolean(3)"):
        lattice = _base(base)
        for defect in DEFECTS:
            for k in range(256):
                desc = _with_defect(lattice.to_description(), lattice, defect, k)
                if desc is None:
                    break
                got = _outcome(build_lattice, desc)
                assert isinstance(got, tuple)
                assert got[0] is _outcome(build_lattice_by_scan, desc)[0]


def _refusals_at_the_cap():
    """Four descriptions of 4 094 to 4 096 elements that build_lattice
    refuses, with the error and the message each raises."""
    mo_2046 = mo(2046).to_description()
    a, b = "a2046", "a2046'"
    bowtie = LatticeDescription(
        "bowtie", mo_2046.elements + ("p", "q"),
        mo_2046.leq_pairs + ((a, "p"), (b, "p"), (a, "q"), (b, "q"), ("p", "1"), ("q", "1")),
        {**mo_2046.orthocomplement, "p": "q", "q": "p"})
    b12 = boolean(12).to_description()
    top_below_bottom = LatticeDescription(
        b12.name, b12.elements, b12.leq_pairs + ((b12.elements[-1], b12.elements[0]),),
        b12.orthocomplement)
    bottom, top = b12.elements[0], b12.elements[-1]
    return [
        (bowtie, NotALatticeError, "'p' and 'q' have no meet"),
        (LatticeDescription(mo_2046.name, mo_2046.elements,
                            mo_2046.leq_pairs + (("1", "0"),), mo_2046.orthocomplement),
         NotAPartialOrderError, "cycle: '0' <= '1' <= '0'"),
        (top_below_bottom, NotAPartialOrderError, f"cycle: {bottom!r} <= {top!r} <= {bottom!r}"),
        (LatticeDescription("dup", b12.elements[:-1] + (b12.elements[-2],), (), {}),
         SchemaError, f"duplicate element identifier {b12.elements[-2]!r}"),
    ]


def test_refusal_at_the_cap_is_bounded():
    for desc, error, message in _refusals_at_the_cap():
        start = time.perf_counter()
        with pytest.raises(error) as raised:
            build_lattice(desc)
        assert time.perf_counter() - start < 1.0, desc.name
        assert str(raised.value) == message


# --- closed forms beyond 32 elements ----------------------------------------------


def test_boolean_10_tables_are_bitwise():
    start = time.perf_counter()
    lat = boolean(10)
    assert time.perf_counter() - start < 10.0
    assert len(lat) == 1024
    # names are membership bitstrings; read each as an int (point i -> bit i)
    mask = [int(name[::-1], 2) for name in lat.elements]
    where = {m: i for i, m in enumerate(mask)}
    full = 1023
    for i, m in enumerate(mask):
        assert tuple(map(lat.meet_index, [i] * 1024, range(1024))) == tuple(
            where[m & other] for other in mask)
        assert tuple(map(lat.join_index, [i] * 1024, range(1024))) == tuple(
            where[m | other] for other in mask)
        assert lat.orth_map[i] == where[m ^ full]


@pytest.mark.parametrize("n", range(1, 11))
def test_boolean_covers_give_the_all_pairs_tables(n):
    lat = boolean(n)
    # every comparable pair of distinct subsets, as the order was first described
    bits = {e: int(e[::-1], 2) for e in lat.elements}
    pairs = tuple(
        (a, b) for a in lat.elements for b in lat.elements
        if a != b and bits[a] & bits[b] == bits[a]
    )
    orth = {e: lat.orthocomplement(e) for e in lat.elements}
    full = build_lattice(LatticeDescription(lat.name, lat.elements, pairs, orth))
    assert _tables(lat) == _tables(full)


def test_mo_400_atoms_meet_at_0_and_join_at_1():
    start = time.perf_counter()
    lat = mo(400)
    assert time.perf_counter() - start < 10.0
    assert len(lat) == 802
    zero, one = lat.index("0"), lat.index("1")
    atom_idx = [lat.index(a) for a in atoms(lat)]
    assert len(atom_idx) == 800
    for a in atom_idx:
        comp = lat.orth_map[a]
        meets = [lat.meet_index(a, b) for b in range(len(lat))]
        joins = [lat.join_index(a, b) for b in range(len(lat))]
        for b in atom_idx:
            if b != a and b != comp:
                assert meets[b] == zero and joins[b] == one
        assert meets[comp] == zero and joins[comp] == one
        assert meets[a] == a and joins[a] == a
