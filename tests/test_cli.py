"""Command-line interface.

Claims:
    - every command produces the documented report shape on the documented
      schemas, with the JSON form byte-deterministic across invocations
    - built-in constructors export to the lattice file format and re-ingest
      to an equal lattice (round trip through the CLI check command)
    - exit codes: 0 success, 1 mathematical negative, 2 input error,
      3 resource cap
    - parsing builds only the named command's parser, yet gives the same
      namespace, output and exit code as the parser of every command
    - check reports, for every accepted file, the axiom results that
      verify_ortho gives on the loaded lattice, without calling it, and
      exits 0 exactly when the lattice is orthomodular
    - every command loads its lattice the same way, so a missing, non-JSON,
      cyclic or oversized lattice file gives every command the same error
      line and exit code; every file loader names a file that is not JSON
    - a group file whose maps name no element exits 2
    - a partial measure's integral string ("3") extends over Z, Q and Z/m,
      reduced mod m over Z/m; a non-integral one exits 2 over Z and Z/m,
      its message naming the value as it reads ("1/2"); a key that is no
      element exits 2 with one message, with and without a group; a member
      with no value exits 2 on both routes, also when the set does not
      generate; the file is only parsed, so an extend of boolean(7) from
      its 7 atom values validates each value once: 7 + 128 Domain.validate
      calls
    - the generating set file is only parsed too: extend checks meet
      closure once, in its route, with one meet per unordered pair of
      members, after parsing the partial file and, on the classical route,
      after the distributivity check
    - a group file is never listed for module: S_9 on boolean(9), past the
      listing cap, gives rank 1 in under 1 s; the normalizer extend needs
      lists it, and past the cap exits 3; no command takes --max-group
    - the lattice file is opened once, as bytes, and the report's digest is
      the SHA-256 of those bytes; UTF-16 and UTF-32 files exit 2
    - at the size cap, module and check on mo(2000) and boolean(12) each
      take under 1 s
    - the value tables of states, measures, invariant-measures and oracle
      are written, as JSON and as text, byte for byte as the reports built
      from Fractions (the states sliced from the positive cone's rays) and
      Measure.to_json_dict would be, on the family and on composites, a
      sum with a Greechie loop among them, whose values include 1/2
    - the states CSV parses back under csv.reader to the element names and
      the reported values; a name holding a comma or a double quote is
      quoted, and with plain names the file is the comma-joined rows
    - a table of value ids, of vertices or of measures, quoted or not, with
      names that need escaping, with more distinct values than rows or not,
      or with no rows, is written as JSON, as text and as CSV byte for byte
      as the dicts of its rows are by json.dumps, the text writer and
      csv.writer
    - states on MO(9) peaks under tracemalloc at less than three times the
      size of its report
"""

import contextlib
import csv
import hashlib
import io
import json
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

import orthomeasure
import orthomeasure.groemer as groemer_mod
from orthomeasure import (
    Domain, LatticeDescription, OrthoLattice, atoms, benzene, boolean, brute_force_measures,
    build_lattice, horizontal_sum, is_orthomodular, load_generating_set, load_group,
    load_lattice, load_partial_measure, measure_basis, measure_coordinates, mo, parse_domain,
    positive_cone, product, save_group, save_lattice, verify_ortho,
)
from orthomeasure.cli import (
    _COMMANDS, _ORTHO_AXIOMS, _Table, _check_result_dict, _json_text, _render_text,
    build_parser, parse_args, run,
)
from orthomeasure.symmetry import automorphism_group

from oracles import state_vertices_by_fractions
from strategies import greechie_loop, pairwise_composites


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, lat in (("mo2", mo(2)), ("b2", boolean(2)), ("b3", boolean(3)),
                      ("benzene", benzene())):
        path = tmp_path / f"{name}.json"
        save_lattice(lat, path)
        paths[name] = str(path)
    return paths


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_mo2(files, capsys):
    code, data = run_json(capsys, ["check", files["mo2"]])
    assert code == 0
    report = data["report"]
    assert report["orthomodular"]["ok"] is True
    assert report["distributive"]["ok"] is False
    assert data["command"] == "check"
    assert len(data["inputs"]["lattice"]) == 64


def test_check_benzene_is_negative(files, capsys):
    code, data = run_json(capsys, ["check", files["benzene"]])
    assert code == 1
    assert data["report"]["orthomodular"]["ok"] is False
    assert data["report"]["orthomodular"]["witness"] == ["a", "b"]


def test_module_boolean_3(files, capsys):
    code, data = run_json(capsys, ["module", files["b3"]])
    assert code == 0
    assert data["report"]["rank"] == 3
    assert data["report"]["torsion"] == []


def test_module_invariant(files, capsys):
    code, data = run_json(capsys, ["module", files["mo2"], "--full-aut"])
    assert code == 0
    assert data["report"]["rank"] == 1
    assert data["report"]["variant"] == "coinvariant"


def test_aut(files, capsys):
    code, data = run_json(capsys, ["aut", files["mo2"]])
    assert code == 0
    assert data["report"]["order"] == 8


def test_measures_and_invariant_measures(files, capsys):
    code, data = run_json(capsys, ["measures", files["b3"], "--domain", "q"])
    assert code == 0
    assert data["report"]["count"] == 3
    code, data = run_json(
        capsys, ["invariant-measures", files["mo2"], "--full-aut", "--domain", "q"]
    )
    assert code == 0
    assert data["report"]["count"] == 1


def test_invariant_measures_needs_group(files, capsys):
    code, data = run_json(capsys, ["invariant-measures", files["mo2"]])
    assert code == 2


def test_states_full_aut(files, capsys):
    code, data = run_json(capsys, ["states", files["mo2"], "--full-aut"])
    assert code == 0
    vertices = data["report"]["vertices"]
    assert len(vertices) == 1
    assert vertices[0]["values"]["a1"] == "1/2"


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_states_csv(files, capsys, tmp_path):
    out = tmp_path / "vertices.csv"
    for name in ("mo2", "b3", "benzene"):
        for group in ([], ["--full-aut"]):
            code, data = run_json(capsys, ["states", files[name], *group, "--csv", str(out)])
            assert code == 0
            header, *lines = _read_csv(out)
            assert len(lines) == data["report"]["count"]
            for cells, vertex in zip(lines, data["report"]["vertices"]):
                assert len(cells) == len(header)
                assert dict(zip(header, cells)) == vertex["values"]


def test_states_csv_quotes_names_that_need_it(capsys, tmp_path):
    # mo(2) with an atom named with a comma and one with a double quote:
    # unquoted, the header would have 8 fields under csv.reader
    a, b = "a,1", 'b"2'
    elements = ("0", a, a + "'", b, b + "'", "1")
    pairs = [("0", x) for x in elements[1:5]] + [(x, "1") for x in elements[1:5]]
    orth = {"0": "1", "1": "0", a: a + "'", a + "'": a, b: b + "'", b + "'": b}
    path = tmp_path / "odd.json"
    save_lattice(build_lattice(LatticeDescription("odd", elements, tuple(pairs), orth)), path)
    out = tmp_path / "vertices.csv"
    code, data = run_json(capsys, ["states", str(path), "--csv", str(out)])
    assert code == 0 and data["report"]["count"] == 4
    header, *lines = _read_csv(out)
    assert header == list(elements)
    assert [dict(zip(header, cells)) for cells in lines] == [
        v["values"] for v in data["report"]["vertices"]]
    assert out.read_text(encoding="utf-8").splitlines()[0] == (
        '0,"a,1","a,1\'","b""2","b""2\'",1')


def test_cone(files, capsys):
    code, data = run_json(capsys, ["cone", files["mo2"]])
    assert code == 0
    assert len(data["report"]["rays"]) == 4


def test_extend_classical_and_invariant(files, capsys, tmp_path):
    gs = tmp_path / "gs.json"
    gs.write_text(json.dumps({"members": ["100", "010", "001"]}))
    pm = tmp_path / "pm.json"
    pm.write_text(json.dumps({"values": {"100": "1/2", "010": 1, "001": 0}}))
    code, data = run_json(
        capsys,
        ["extend", files["b3"], "--generating-set", str(gs), "--partial", str(pm)],
    )
    assert code == 0
    assert data["report"]["mode"] == "classical"
    assert data["report"]["measure"]["values"]["111"] == "3/2"

    gs2 = tmp_path / "gs2.json"
    gs2.write_text(json.dumps({"members": ["a1"]}))
    pm2 = tmp_path / "pm2.json"
    pm2.write_text(json.dumps({"values": {"a1": "1/3"}}))
    code, data = run_json(
        capsys,
        ["extend", files["mo2"], "--full-aut",
         "--generating-set", str(gs2), "--partial", str(pm2)],
    )
    assert code == 0
    assert data["report"]["mode"] == "invariant"
    assert data["report"]["measure"]["values"]["1"] == "2/3"


@pytest.mark.parametrize("domain,values,sums", [
    ("z/5", {"10": "3", "01": 4}, {"10": 3, "01": 4, "11": 2}),
    ("z/5", {"10": "8", "01": "-1"}, {"10": 3, "01": 4, "11": 2}),
    ("z", {"10": "3", "01": 4}, {"10": 3, "01": 4, "11": 7}),
    ("q", {"10": "3", "01": "1/2"}, {"10": "3", "01": "1/2", "11": "7/2"}),
])
def test_extend_reads_integral_strings_in_every_domain(domain, values, sums, capsys, tmp_path):
    # a file's "3" reads as Fraction(3): an integer over Z, and reduced mod m
    path = tmp_path / "b2.json"
    save_lattice(boolean(2), path)
    gs = tmp_path / "gs.json"
    gs.write_text(json.dumps({"members": ["10", "01"]}))
    pm = tmp_path / "pm.json"
    pm.write_text(json.dumps({"values": values}))
    code, data = run_json(capsys, ["extend", str(path), "--generating-set", str(gs),
                                   "--partial", str(pm), "--domain", domain])
    assert code == 0
    measure = data["report"]["measure"]["values"]
    assert {e: measure[e] for e in sums} == sums


@pytest.mark.parametrize("domain,message", [
    ("z/5", "1/2 is not a residue mod 5"),
    ("z", "1/2 is not an integer"),
])
def test_extend_rejects_a_non_integral_value_as_it_reads(domain, message, capsys, tmp_path):
    path = tmp_path / "b2.json"
    save_lattice(boolean(2), path)
    gs = tmp_path / "gs.json"
    gs.write_text(json.dumps({"members": ["10", "01"]}))
    pm = tmp_path / "pm.json"
    pm.write_text(json.dumps({"values": {"10": "1/2", "01": 1}}))
    code, data = run_json(capsys, ["extend", str(path), "--generating-set", str(gs),
                                   "--partial", str(pm), "--domain", domain])
    assert code == 2
    assert data["error"] == "DomainMismatchError"
    assert data["detail"] == message


@pytest.mark.parametrize("group", [[], ["--full-aut"]], ids=["classical", "invariant"])
def test_extend_names_an_unknown_partial_key_alike(group, capsys, tmp_path):
    path = tmp_path / "b2.json"
    save_lattice(boolean(2), path)
    gs = tmp_path / "gs.json"
    gs.write_text(json.dumps({"members": ["10", "01"]}))
    pm = tmp_path / "pm.json"
    pm.write_text(json.dumps({"values": {"10": 1, "01": 1, "zz": 2}}))
    code, data = run_json(capsys, ["extend", str(path), *group, "--generating-set", str(gs),
                                   "--partial", str(pm)])
    assert code == 2
    assert data == {"error": "SchemaError",
                    "detail": "partial measure names unknown element 'zz'"}


@pytest.mark.parametrize("group,detail", [
    (False, "no value given for member '10'"),
    (True, "no value given for the class of '10'"),
], ids=["classical", "trivial group"])
def test_extend_names_a_missing_value_before_generation(group, detail, capsys, tmp_path):
    # {"10"} does not generate boolean(2), on either route
    path = tmp_path / "b2.json"
    save_lattice(boolean(2), path)
    gs = tmp_path / "gs.json"
    gs.write_text(json.dumps({"members": ["10"]}))
    pm = tmp_path / "pm.json"
    pm.write_text(json.dumps({"values": {}}))
    argv = ["extend", str(path), "--generating-set", str(gs), "--partial", str(pm)]
    if group:
        trivial = tmp_path / "trivial.json"
        trivial.write_text(json.dumps({"generators": []}))
        argv += ["--group", str(trivial)]
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data == {"error": "DomainMismatchError", "detail": detail}


def test_extend_validates_each_value_once(monkeypatch, capsys, tmp_path):
    # 142 calls when the partial measure file was validated as it was read
    calls = 0
    original = Domain.validate

    def counting(self, value):
        nonlocal calls
        calls += 1
        return original(self, value)

    lattice = boolean(7)
    path = tmp_path / "b7.json"
    save_lattice(lattice, path)
    gs = tmp_path / "gs.json"
    gs.write_text(json.dumps({"members": list(atoms(lattice))}))
    pm = tmp_path / "pm.json"
    pm.write_text(json.dumps({"values": dict.fromkeys(atoms(lattice), 1)}))
    monkeypatch.setattr(Domain, "validate", counting)
    code, data = run_json(capsys, ["extend", str(path), "--generating-set", str(gs),
                                   "--partial", str(pm)])
    assert code == 0
    assert data["report"]["measure"]["values"]["1111111"] == "7"
    assert calls == 7 + 128


def test_extend_checks_meet_closure_once(monkeypatch, capsys, tmp_path):
    # the generating set file is only parsed, so the route's
    # make_generating_set is the one check, and it meets each unordered
    # pair of members once: 256 * 255 / 2 meets (two calls of 256^2 each
    # when the loader checked too)
    meets, per_call = [0], []
    check, meet = groemer_mod.make_generating_set, OrthoLattice.meet_index

    def counted_meet(self, i, j):
        meets[0] += 1
        return meet(self, i, j)

    def counted_check(lattice, members):
        before = meets[0]
        out = check(lattice, members)
        per_call.append(meets[0] - before)
        return out

    lattice = boolean(8)
    path = tmp_path / "b8.json"
    save_lattice(lattice, path)
    gs = tmp_path / "gs.json"
    gs.write_text(json.dumps({"members": list(lattice.elements)}))
    pm = tmp_path / "pm.json"
    pm.write_text(json.dumps({"values": {e: e.count("1") for e in lattice.elements}}))
    monkeypatch.setattr(OrthoLattice, "meet_index", counted_meet)
    monkeypatch.setattr(groemer_mod, "make_generating_set", counted_check)
    code, data = run_json(capsys, ["extend", str(path), "--generating-set", str(gs),
                                   "--partial", str(pm)])
    assert code == 0
    assert data["report"]["measure"]["values"]["11111111"] == "8"
    assert per_call == [256 * 255 // 2]


@pytest.mark.parametrize("lattice,values,expected", [
    (boolean(3), {"110": "one"}, (2, "SchemaError")),
    (product(mo(2), boolean(1)), {}, (1, "NotDistributiveError")),
    (boolean(3), {}, (1, "MeetClosureError")),
], ids=["partial file", "not distributive", "meet closure"])
def test_extend_checks_meet_closure_in_the_route(lattice, values, expected, capsys, tmp_path):
    # the two members meet at an atom, so the set is not meet-closed; the
    # partial file is parsed, and the classical route checks
    # distributivity, before meet closure
    path = tmp_path / "lattice.json"
    save_lattice(lattice, path)
    members = [e for e in lattice.elements if e in ("110", "011", "(a1,1)", "(a2,1)")]
    gs = tmp_path / "gs.json"
    gs.write_text(json.dumps({"members": members}))
    pm = tmp_path / "pm.json"
    pm.write_text(json.dumps({"values": values}))
    code, data = run_json(capsys, ["extend", str(path), "--generating-set", str(gs),
                                   "--partial", str(pm)])
    assert (code, data["error"]) == expected
    if expected[1] == "MeetClosureError":
        assert data["detail"] == "meet of '110' and '011' is '010', not in the set"


def test_extend_full_aut_on_mo9_lists_no_group(capsys, tmp_path):
    # Aut(MO(9)) has 185 794 560 elements, past the listing cap; the
    # normalizer of {a1} comes from a search instead
    path = tmp_path / "mo9.json"
    save_lattice(mo(9), path)
    gs = tmp_path / "gs.json"
    gs.write_text(json.dumps({"members": ["a1"]}))
    pm = tmp_path / "pm.json"
    pm.write_text(json.dumps({"values": {"a1": "1/2"}}))
    start = time.perf_counter()
    code, data = run_json(
        capsys,
        ["extend", str(path), "--full-aut", "--generating-set", str(gs), "--partial", str(pm)],
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    values = data["report"]["measure"]["values"]
    assert all(values[a] == "1/2" for a in atoms(mo(9)))
    assert values["1"] == "1"
    assert elapsed < 5.0


def test_extend_inconsistent_is_negative(files, capsys, tmp_path):
    gs = tmp_path / "gs.json"
    gs.write_text(json.dumps({"members": ["000", "100", "010", "001"]}))
    pm = tmp_path / "pm.json"
    pm.write_text(json.dumps({"values": {"000": 1, "100": 1, "010": 0, "001": 0}}))
    code, data = run_json(
        capsys,
        ["extend", files["b3"], "--generating-set", str(gs), "--partial", str(pm)],
    )
    assert code == 1
    assert "error" in data


def test_boolean_check(files, capsys):
    code, data = run_json(capsys, ["boolean-check", files["b3"]])
    assert code == 0
    assert data["report"]["identities"]["ok"] is True
    code, data = run_json(capsys, ["boolean-check", files["mo2"]])
    assert code == 1


def test_oracle(files, capsys):
    code, data = run_json(
        capsys, ["oracle", files["mo2"], "--domain", "z", "--range", "0:1"]
    )
    assert code == 0
    assert data["report"]["count"] == 5
    code, data = run_json(capsys, ["oracle", files["mo2"], "--domain", "z/2"])
    assert code == 0
    assert data["report"]["count"] == 8


def test_oracle_refuses_a_range_that_repeats_modulo_m(files, capsys):
    # 0..3 is 0, 1, 0, 1 mod 2; 0..1 is every residue once
    code, data = run_json(capsys, ["oracle", files["b3"], "--domain", "z/2", "--range", "0:3"])
    assert code == 2
    assert data == {"error": "SchemaError",
                    "detail": "--range '0:3' repeats values modulo 2"}
    code, data = run_json(capsys, ["oracle", files["b3"], "--domain", "z/2", "--range", "0:1"])
    assert code == 0
    assert data["report"]["count"] == run_json(
        capsys, ["oracle", files["b3"], "--domain", "z/2"])[1]["report"]["count"]


def test_oracle_refuses_a_reversed_range(files, capsys):
    # the zero measure always exists, so an empty range is an input error
    for domain, reversed_range in (("z/2", "3:1"), ("z", "1:0")):
        code, data = run_json(capsys, ["oracle", files["b2"], "--domain", domain,
                                       "--range", reversed_range])
        assert code == 2
        assert data == {"error": "SchemaError",
                        "detail": f"--range {reversed_range!r} ends below its start"}
    code, data = run_json(capsys, ["oracle", files["b2"], "--domain", "z", "--range", "0:0"])
    assert code == 0
    assert data["report"]["count"] == 1


def test_oracle_takes_a_negative_low_end_in_the_attached_form(files, capsys):
    # argparse reads a separate "-1:1" as an option; "--range=-1:1" is one
    # argument. Over {-1, 0, 1} the two atoms of boolean(2) take any values
    # but 1, 1 and -1, -1, whose sum at the top is out of range
    code, data = run_json(capsys, ["oracle", files["b2"], "--domain", "z", "--range=-1:1"])
    assert code == 0
    assert data["report"]["count"] == 7


def test_schema_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"elements": ["0"], "leq": [], "orthocomplement": {"0": "0"}, "x": 1}))
    code, data = run_json(capsys, ["check", str(bad)])
    assert code == 2
    code, data = run_json(capsys, ["check", str(tmp_path / "missing.json")])
    assert code == 2


def test_cycle_is_input_error(tmp_path, capsys):
    desc = {
        "name": "cyc",
        "elements": ["0", "x", "y", "1"],
        "leq": [["0", "x"], ["x", "y"], ["y", "x"], ["y", "1"]],
        "orthocomplement": {"0": "1", "1": "0", "x": "y", "y": "x"},
    }
    bad = tmp_path / "cyc.json"
    bad.write_text(json.dumps(desc))
    code, data = run_json(capsys, ["check", str(bad)])
    assert code == 2
    assert data["error"] == "NotAPartialOrderError"


def test_resource_cap_exit_3(files, capsys):
    code, data = run_json(capsys, ["check", files["b3"], "--max-elements", "4"])
    assert code == 3
    assert data["error"] == "SizeCapError"


def test_byte_determinism(files, capsys):
    run(["states", files["mo2"]])
    first = capsys.readouterr().out
    run(["states", files["mo2"]])
    second = capsys.readouterr().out
    assert first == second


def test_text_format(files, capsys):
    code = run(["check", files["mo2"], "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "orthomodular" in out
    assert not out.lstrip().startswith("{")


def test_group_file_source(files, capsys, tmp_path):
    lat = mo(2)
    path = tmp_path / "group.json"
    save_group(automorphism_group(lat), path)
    code, data = run_json(
        capsys, ["module", files["mo2"], "--group", str(path)]
    )
    assert code == 0
    assert data["report"]["rank"] == 1


def _s9_files(tmp_path):
    """boolean(9) and a group file of the two generators of its S_9."""
    lattice, group = tmp_path / "b9.json", tmp_path / "s9.json"
    save_lattice(boolean(9), lattice)
    save_group(automorphism_group(boolean(9)), group)
    return str(lattice), str(group)


def test_module_under_a_file_group_past_the_cap_lists_nothing(monkeypatch, capsys, tmp_path):
    # S_9 has 362 880 elements, past the listing cap, but the module needs
    # only the orbits of the two generators
    import orthomeasure.symmetry as symmetry_mod

    lattice, group = _s9_files(tmp_path)

    def refuse(*args):
        raise AssertionError("the file group was listed")

    monkeypatch.setattr(symmetry_mod, "_closure", refuse)
    start = time.perf_counter()
    code, data = run_json(capsys, ["module", lattice, "--group", group])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert (data["report"]["rank"], data["report"]["torsion"]) == (1, [])
    assert elapsed < 1.0


def test_normalizer_of_a_file_group_past_the_cap_exits_3(monkeypatch, capsys, tmp_path):
    # the invariant extension needs the normalizer of its members, which
    # lists a file group; under a cap of 1 000 S_9 is past it
    import orthomeasure.symmetry as symmetry_mod

    lattice, group = _s9_files(tmp_path)
    gs = tmp_path / "gs.json"
    gs.write_text(json.dumps({"members": ["100000000"]}))
    pm = tmp_path / "pm.json"
    pm.write_text(json.dumps({"values": {"100000000": "1/9"}}))
    monkeypatch.setattr(symmetry_mod, "DEFAULT_MAX_GROUP", 1000)
    code, data = run_json(capsys, ["extend", lattice, "--group", group,
                                   "--generating-set", str(gs), "--partial", str(pm)])
    assert code == 3
    assert data == {"error": "GroupTooLargeError", "detail": "closure exceeds the cap of 1000"}


@pytest.mark.parametrize("image", ["zzz", ["a1"]], ids=["unknown name", "list"])
def test_group_file_with_an_image_that_is_no_element_exits_2(files, capsys, tmp_path, image):
    mapping = {e: e for e in mo(2).elements}
    mapping["a1"] = image
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"generators": [mapping]}))
    code, data = run_json(capsys, ["module", files["mo2"], "--group", str(path)])
    assert code == 2
    assert data == {"error": "SchemaError",
                    "detail": f"generator maps 'a1' to {image!r}, which is not an element"}


def test_round_trip_constructor_export(tmp_path, capsys):
    # exported constructors re-ingest to lattices passing every check
    for lat in (boolean(4), mo(3), benzene()):
        path = tmp_path / "l.json"
        save_lattice(lat, path)
        code = run(["check", str(path)])
        capsys.readouterr()
        assert code == (0 if lat.name != "benzene" else 1)


def test_aut_mo7_needs_no_listing(tmp_path, capsys):
    path = tmp_path / "mo7.json"
    save_lattice(mo(7), path)
    code, data = run_json(capsys, ["aut", str(path)])
    assert code == 0
    assert data["report"]["order"] == 645120
    assert data["report"]["generators"]


def _digits(n):
    """The decimal digits of n >= 0, converting at most 1000 at a time."""
    chunks = []
    while True:
        n, low = divmod(n, 10 ** 1000)
        chunks.append(low)
        if not n:
            break
    return str(chunks[-1]) + "".join(f"{c:01000d}" for c in reversed(chunks[:-1]))


def test_aut_reports_an_order_past_the_digit_limit(tmp_path, capsys):
    # |Aut(MO(2000))| = 2^2000 2000! has 6 338 digits, past the 4 300 that
    # int-to-str conversion allows by default
    path = str(tmp_path / "mo2000.json")
    save_lattice(mo(2000), path)
    expected = _digits(2 ** 2000 * factorial(2000))
    assert len(expected) == 6338
    assert run(["aut", path]) == 0
    data = json.loads(capsys.readouterr().out, parse_int=str)
    assert data["report"]["order"] == expected
    assert len(data["report"]["generators"]) == 3
    assert run(["aut", path, "--format", "text"]) == 0
    assert f"\n  order: {expected}\n" in capsys.readouterr().out


def test_full_aut_queries_on_mo20(tmp_path, capsys):
    # |Aut(mo(20))| = 2^20 20! is about 2.6e24: these answers prove that no
    # query lists the group
    path = str(tmp_path / "mo20.json")
    save_lattice(mo(20), path)
    code, data = run_json(capsys, ["module", path, "--full-aut"])
    assert code == 0 and data["report"]["rank"] == 1
    assert data["report"]["torsion"] == []
    code, data = run_json(capsys, ["invariant-measures", path, "--full-aut"])
    assert code == 0 and data["report"]["count"] == 1
    code, data = run_json(capsys, ["states", path, "--full-aut"])
    assert code == 0 and data["report"]["count"] == 1
    assert set(data["report"]["vertices"][0]["values"].values()) == {"0", "1/2", "1"}
    code, data = run_json(capsys, ["cone", path, "--full-aut"])
    assert code == 0 and data["report"]["dimension"] == 1
    assert len(data["report"]["rays"]) == 1


def test_states_above_dimension_cap_exit_3(tmp_path, capsys):
    # mo(24) has rank 25: the double description would list 2^24 vertices
    path = str(tmp_path / "mo24.json")
    save_lattice(mo(24), path)
    for command in ("states", "cone"):
        start = time.perf_counter()
        code, data = run_json(capsys, [command, path])
        assert time.perf_counter() - start < 5.0
        assert code == 3
        assert data["error"] == "DimensionCapError"


def test_cone_past_ray_budget_exit_3(tmp_path, capsys):
    # mo(19) passes the dimension cap (rank 20) but has 2^19 extreme rays
    path = str(tmp_path / "mo19.json")
    save_lattice(mo(19), path)
    start = time.perf_counter()
    code, data = run_json(capsys, ["cone", path])
    assert time.perf_counter() - start < 20.0
    assert code == 3
    assert data["error"] == "DimensionCapError"


# --- check against verify_ortho ----------------------------------------------------


def test_check_reports_what_verify_ortho_finds(family, capsys, tmp_path):
    # benzene, which is not orthomodular, is one of the family
    lattices = [*family.values(), *pairwise_composites(family.values())]
    assert len(lattices) > 200
    path = str(tmp_path / "l.json")
    for lattice in lattices:
        save_lattice(lattice, path)
        code, data = run_json(capsys, ["check", path])
        loaded = load_lattice(path)
        expected = {name: _check_result_dict(result)
                    for name, result in verify_ortho(loaded).checks.items()}
        got = data["report"]["orthocomplemented"]
        assert list(got.items()) == list(expected.items()), lattice.name
        assert code == (0 if is_orthomodular(loaded).ok else 1), lattice.name


def test_check_on_an_accepted_file_never_calls_verify_ortho(monkeypatch, files, capsys):
    assert tuple(verify_ortho(mo(2)).checks) == _ORTHO_AXIOMS

    def unreachable(*args):
        raise AssertionError("verify_ortho called on an accepted file")

    bound = [module for name, module in sys.modules.items()
             if name.split(".")[0] == "orthomeasure" and hasattr(module, "verify_ortho")]
    assert orthomeasure in bound
    for module in bound:
        monkeypatch.setattr(module, "verify_ortho", unreachable)
    for name, expected in (("mo2", 0), ("b3", 0), ("benzene", 1)):
        assert run(["check", files[name], "--format", "text"]) == expected
        capsys.readouterr()
        code, data = run_json(capsys, ["check", files[name]])
        assert code == expected
        assert data["report"]["orthocomplemented"] == dict.fromkeys(_ORTHO_AXIOMS, {"ok": True})


# --- the JSON writer ----------------------------------------------------------------

_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
    st.characters(),
))
_REPORT_VALUES = st.recursive(
    st.one_of(_TEXT, st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_REPORT_VALUES)
@example({"": {}, "a": [[], {"b": [{}, []]}], "c": [[[[{}]]]], "d": ({},)})
@example([True, False, None, 0, -1, 2 ** 64, -(2 ** 65), "\"\\\u00ff"])
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_writer_rejects_values_reports_never_hold():
    for value in (1.5, {"x": [Fraction(1, 2)]}, {1: "a"}):
        with pytest.raises(TypeError):
            _json_text(value)


FAMILY_COMMANDS = (
    ["check"], ["aut"], ["module"], ["module", "--full-aut"],
    ["measures"], ["measures", "--domain", "z"], ["measures", "--domain", "z/6"],
    ["invariant-measures", "--full-aut"], ["cone"], ["cone", "--full-aut"],
    ["states"], ["states", "--full-aut"], ["boolean-check"],
    ["oracle", "--domain", "z/2"],
)


def test_json_reports_are_json_dumps_output(family, capsys, tmp_path):
    reported = set()
    for label, lattice in family.items():
        path = tmp_path / f"{len(reported)}-{lattice.name}.json"
        save_lattice(lattice, path)
        atom = atoms(lattice)[0]
        gs = tmp_path / "gs.json"
        gs.write_text(json.dumps({"members": [atom]}))
        pm = tmp_path / "pm.json"
        pm.write_text(json.dumps({"values": {atom: "1/2"}}))
        argvs = [[cmd[0], str(path), *cmd[1:]] for cmd in FAMILY_COMMANDS]
        argvs.append(["extend", str(path), "--full-aut",
                      "--generating-set", str(gs), "--partial", str(pm)])
        for argv in argvs:
            run(argv)
            out = capsys.readouterr().out
            data = json.loads(out)
            if "error" in data:  # error lines are one compact json.dumps each
                continue
            assert out == json.dumps(data, indent=2) + "\n", (label, argv)
            reported.add(argv[0])
    assert reported == {cmd[0] for cmd in FAMILY_COMMANDS} | {"extend"}


# --- the value tables -----------------------------------------------------------------

TABLE_COMMANDS = (
    ["states"], ["measures", "--domain", "q"], ["measures", "--domain", "z"],
    ["measures", "--domain", "z/6"], ["invariant-measures", "--full-aut"],
    ["oracle", "--domain", "z/2"],
)


def _fraction_route_report(argv, lattice):
    """The report of a table command, its values built as Fractions (the
    vertices sliced from the positive cone's rays by
    oracles.state_vertices_by_fractions) or by Measure.to_json_dict."""
    command = argv[0]
    if command == "states":
        coords = measure_coordinates(lattice)
        sliced = state_vertices_by_fractions(lattice, positive_cone(lattice).rays, coords)
        vertices = [{"coords": [str(c) for c in vertex],
                     "values": {e: str(x) for e, x in values.items()}}
                    for vertex, values in sliced]
        return {"count": len(vertices), "vertices": vertices}
    domain = parse_domain(argv[argv.index("--domain") + 1] if "--domain" in argv else "q")
    if command == "oracle":
        measures = brute_force_measures(lattice, range(domain.modulus), domain)
        return {"domain": domain.label, "count": len(measures),
                "measures": [m.to_json_dict() for m in measures]}
    action = automorphism_group(lattice) if "--full-aut" in argv else None
    basis = measure_basis(lattice, domain, action)
    return {"domain": domain.label, "kind": "generators" if domain.kind == "Zmod" else "basis",
            "count": len(basis), "measures": [m.to_json_dict() for m in basis]}


def test_value_tables_are_written_as_the_fraction_route_reports(family, capsys, tmp_path):
    lattices = [*family.values(), horizontal_sum(mo(3), benzene()),
                product(mo(2), boolean(2)), product(benzene(), boolean(1)),
                horizontal_sum(boolean(3), mo(2)), horizontal_sum(greechie_loop(5), mo(1))]
    path = tmp_path / "l.json"
    csv_path = tmp_path / "v.csv"
    for lattice in lattices:
        save_lattice(lattice, path)
        loaded = load_lattice(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        for command in TABLE_COMMANDS:
            if command[0] == "oracle" and len(loaded) > 16:
                continue  # 2^n candidate functions
            argv = [command[0], str(path), *command[1:]]
            report = _fraction_route_report(command, loaded)
            envelope = {"tool": "orthomeasure", "version": orthomeasure.__version__,
                        "command": command[0], "inputs": {"lattice": digest},
                        "report": report}
            assert run(argv) == 0
            assert capsys.readouterr().out == json.dumps(envelope, indent=2) + "\n", argv
            extra = ["--csv", str(csv_path)] if command[0] == "states" else []
            assert run([*argv, "--format", "text", *extra]) == 0
            assert capsys.readouterr().out == "\n".join(_render_text(envelope)) + "\n", argv
            if extra:
                rows = [list(loaded.elements)]
                rows += [list(v["values"].values()) for v in report["vertices"]]
                assert _read_csv(csv_path) == rows, argv
                if not any(c in e for e in loaded.elements for c in ',"'):
                    assert csv_path.read_text(encoding="utf-8") == "".join(
                        ",".join(r) + "\n" for r in rows)


_NAMES = st.lists(_TEXT | st.sampled_from(['a,b', 'say "x"', "two\nlines", "\\", "é"]),
                 min_size=1, max_size=5, unique=True)


@st.composite
def _tables(draw):
    """A table of either lead, its values quoted (the texts of Fractions) or
    not (of integers), with up to six rows and one to six distinct texts,
    so that some tables have more texts than rows and some no more."""
    elements = tuple(draw(_NAMES))
    quoted = draw(st.booleans())
    value = st.fractions(max_denominator=12) if quoted else st.integers(-10 ** 20, 10 ** 20)
    texts = list(dict.fromkeys(map(str, draw(st.lists(value, min_size=1, max_size=6)))))
    ids = st.integers(0, len(texts) - 1)
    values = st.lists(ids, min_size=len(elements), max_size=len(elements))
    domain = draw(st.sampled_from([None, "Q", "Z", "Z/6"]))
    if domain is None:
        row = st.tuples(st.lists(ids, min_size=1, max_size=3), values)
    else:
        row = values
    return _Table(elements, texts, draw(st.lists(row, max_size=6)), domain, quoted)


def _table_dicts(table):
    """The rows of ``table`` as the dicts the report holds."""
    value = str if table.quoted else int
    def values(ids):
        return {e: value(table.texts[i]) for e, i in zip(table.elements, ids)}
    if table.domain is None:
        return [{"coords": [table.texts[i] for i in coords], "values": values(ids)}
                for coords, ids in table.rows]
    return [{"domain": table.domain, "values": values(ids)} for ids in table.rows]


_ONE_TEXT = _Table(("0", 'a"', "1"), ["0", "1/2", "1"], [((1,), (0, 1, 2))], None, True)


@settings(max_examples=300, deadline=None)
@given(_tables())
@example(_ONE_TEXT)  # more texts than rows
@example(_ONE_TEXT._replace(rows=[((1, 2), (0, 1, 2))] * 3))  # no more texts than rows
@example(_ONE_TEXT._replace(rows=[]))
@example(_Table(("0", "1"), ["0", "1"], [[0, 1], [0, 0]], "Z/2", False))
def test_tables_are_written_as_the_dicts_of_their_rows(table):
    dicts = _table_dicts(table)
    for outer in (lambda rows: rows, lambda rows: {"report": {"count": 1, "rows": rows}}):
        assert _json_text(outer(table)) == json.dumps(outer(dicts), indent=2)
        assert _render_text(outer(table)) == _render_text(outer(dicts))
    if table.domain is None:
        written, expected = io.StringIO(), io.StringIO()
        table.write_csv(written)
        csv.writer(expected, lineterminator="\n").writerows(
            [table.elements, *[list(v["values"].values()) for v in dicts]])
        assert written.getvalue() == expected.getvalue()


def test_states_peak_memory_stays_under_three_times_the_report(tmp_path):
    path = tmp_path / "mo9.json"
    save_lattice(mo(9), path)
    argv = ["states", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        run(argv)  # the imports and caches of a first run
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = len(out.getvalue())
    assert size > 300_000  # 512 vertices
    assert peak < 3 * size, (peak, size)


# --- argument parsing ---------------------------------------------------------------


def _every_option(name):
    cmd = _COMMANDS[name]
    argv = [name, "l.json", "--format", "text", "--max-elements", "9"]
    if cmd.group:
        argv += ["--group", "g.json"]
    if cmd.domain:
        argv += ["--domain", "z/3"]
    for flag, _ in cmd.extra:
        argv += [flag, "v"]
    return argv


ARGVS = [
    argv
    for name in _COMMANDS
    for argv in (
        _every_option(name),
        [name, "-h"],
        [name],  # no lattice
        [name, "l.json", "--bogus"],
        [name, "l.json", "--max-elements", "x"],
        [name, "l.json", "--group", "g.json", "--full-aut"],
    )
] + [
    [],
    ["--help"],
    ["bogus", "l.json"],
    ["extend", "l.json", "--generating-set", "gs.json"],  # no --partial
    ["aut", "l.json", "--max-group", "5"],
    ["module", "l.json", "--full-aut"],
    # abbreviated options, one of them ambiguous
    ["module", "l.json", "--full"],
    ["measures", "l.json", "--dom=z"],
    ["extend", "l.json", "--gen", "g.json", "--part", "p.json"],
    ["check", "l.json", "--f"],
    ["module", "l.json", "--f"],
    ["aut", "l.json", "--max", "3"],
    ["oracle", "l.json", "--ra", "0:1"],
    ["states", "l.json", "--format=text"],
    # "--" before the lattice and before an option-like positional
    ["cone", "--", "l.json"],
    ["states", "--format", "text", "--", "l.json"],
    ["states", "l.json", "--", "--x"],
    # a repeated --group, and --full-aut before the lattice
    ["module", "l.json", "--group", "a.json", "--group", "b.json"],
    ["cone", "--full-aut", "l.json"],
    # a lone "-" and a stray positional
    ["check", "-"],
    ["states", "l.json", "extra"],
    # another command's flag
    ["check", "l.json", "--domain", "z"],
    # an option with no value, and a value outside the choices
    ["states", "l.json", "--csv"],
    ["measures", "l.json", "--domain"],
    ["aut", "l.json", "--format", "xml"],
    # an unknown flag together with both exclusive group flags
    ["module", "l.json", "--bogus", "--group", "g.json", "--full-aut"],
    ["states", "l.json", "--full-aut", "--group", "g.json", "--bogus"],
    ["invariant-measures", "--bogus", "l.json", "--full-aut", "--group", "g.json"],
]


def _parsed(parse, argv, capsys):
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_one_command_parser_parses_like_the_full_parser(argv, capsys):
    expected = _parsed(build_parser().parse_args, argv, capsys)
    assert _parsed(parse_args, argv, capsys) == expected


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_command_rejects_max_group(command, capsys):
    # a group is listed only when read, under the one cap every group
    # shares, so no command takes a cap of its own
    result, _, err = _parsed(parse_args, [*_every_option(command), "--max-group", "7"], capsys)
    assert result == 2
    assert "unrecognized arguments: --max-group 7" in err


def test_parse_args_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["orthomeasure", "states", "l.json", "--bogus"])
    expected = _parsed(build_parser().parse_args, None, capsys)
    assert expected[0] == 2
    assert _parsed(parse_args, None, capsys) == expected


# --- the shared load path -------------------------------------------------------------


def _bad_lattice_files(tmp_path):
    """(label, lattice file, extra argv, exit code, error name) of each way a
    lattice file can fail to load."""
    not_json = tmp_path / "not.json"
    not_json.write_text("{not json")
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({
        "name": "cyc",
        "elements": ["0", "x", "y", "1"],
        "leq": [["0", "x"], ["x", "y"], ["y", "x"], ["y", "1"]],
        "orthocomplement": {"0": "1", "1": "0", "x": "y", "y": "x"},
    }))
    mo2 = tmp_path / "mo2.json"
    save_lattice(mo(2), mo2)
    return [
        ("missing", tmp_path / "missing.json", [], 2, "FileNotFoundError"),
        ("not JSON", not_json, [], 2, "SchemaError"),
        ("cycle", cycle, [], 2, "NotAPartialOrderError"),
        ("cap", mo2, ["--max-elements", "4"], 3, "SizeCapError"),
    ]


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_command_rejects_a_bad_lattice_file_alike(command, capsys, tmp_path):
    gs = tmp_path / "gs.json"
    gs.write_text(json.dumps({"members": ["a1"]}))
    pm = tmp_path / "pm.json"
    pm.write_text(json.dumps({"values": {"a1": "1/2"}}))
    needs = ["--generating-set", str(gs), "--partial", str(pm)] if command == "extend" else []
    for label, path, extra, code, error in _bad_lattice_files(tmp_path):
        expected = run_json(capsys, ["check", str(path), *extra])
        got = run_json(capsys, [command, str(path), *needs, *extra])
        assert got == expected, label
        assert got[0] == code and set(got[1]) == {"error", "detail"}, label
        assert got[1]["error"] == error, label
        if label == "not JSON":
            assert got[1]["detail"].startswith(f"invalid JSON in {path}: "), label


@pytest.mark.parametrize("content", [b"[1, 2", b"\xff\xfe{}", b"[" * 100_000],
                         ids=["malformed", "not UTF-8", "nested too deep"])
def test_every_loader_names_a_file_that_is_not_json(tmp_path, content):
    path = tmp_path / "not.json"
    path.write_bytes(content)
    lattice = mo(2)
    for load in (load_lattice, lambda p: load_group(p, lattice),
                 lambda p: load_generating_set(p, lattice), load_partial_measure):
        with pytest.raises(orthomeasure.SchemaError, match=f"^invalid JSON in {re.escape(str(path))}: "):
            load(path)


def test_the_lattice_file_is_read_once_and_hashed_as_parsed(monkeypatch, capsys, tmp_path):
    import builtins

    path = tmp_path / "mo2.json"
    save_lattice(mo(2), path)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    for command in ("check", "module", "states"):
        opened.clear()
        code, data = run_json(capsys, [command, str(path)])
        assert code == 0 and opened == ["rb"], command
        assert data["inputs"]["lattice"] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("codec", ["utf-16", "utf-32", "utf-16-le"])
def test_a_lattice_file_in_another_unicode_encoding_exits_2(codec, capsys, tmp_path):
    # json.loads would decode these bytes; the reader takes UTF-8 only
    path = tmp_path / "wide.json"
    path.write_bytes(json.dumps(mo(2).to_description().to_json_dict()).encode(codec))
    code, data = run_json(capsys, ["check", str(path)])
    assert code == 2 and data["error"] == "SchemaError"
    assert data["detail"].startswith(f"invalid JSON in {path}: ")


@pytest.fixture(scope="module")
def cap_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cap")
    paths = {}
    for name, lattice in (("mo(2000)", mo(2000)), ("boolean(12)", boolean(12))):
        paths[name] = str(directory / f"{name}.json")
        save_lattice(lattice, paths[name])
    return paths


@pytest.mark.parametrize("name,command,expected", [
    ("mo(2000)", "module", {"rank": 2001, "torsion": [], "variant": "plain"}),
    ("boolean(12)", "module", {"rank": 12, "torsion": [], "variant": "plain"}),
    ("mo(2000)", "check", {"elements": 4002, "boolean": False}),
    ("boolean(12)", "check", {"elements": 4096, "boolean": True}),
])
def test_module_and_check_at_the_size_cap(cap_files, capsys, name, command, expected):
    # the load's meet scan checks only pairs of non-atom covers of one
    # element (none on MO(n)), and the module keeps sparse images: each
    # call took 1.2-2.0 s when both were quadratic, now 0.07-0.16 s
    start = time.perf_counter()
    code, data = run_json(capsys, [command, cap_files[name]])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert {k: data["report"][k] for k in expected} == expected


def test_a_crlf_file_names_the_position_a_text_mode_read_names(capsys, tmp_path):
    # the bytes are read once and their line ends translated as text mode does
    path = tmp_path / "crlf.json"
    path.write_bytes(b'{\r\n  "name": "x",\r\n  leq: []\r\n}\r\n')
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(ValueError) as text_mode:
            json.load(fh)
    code, data = run_json(capsys, ["check", str(path)])
    assert (code, data["detail"]) == (2, f"invalid JSON in {path}: {text_mode.value}")
