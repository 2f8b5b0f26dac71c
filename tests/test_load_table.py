"""Lattices kept by load_lattice, and the answers kept on a lattice.

Claims:
    - load_lattice remembers files by the SHA-256 of their bytes and keeps
      a lattice from the second load of its bytes on, not at the first:
      identical bytes at two paths give one lattice object, and a file
      rewritten at the same path between two cli.run calls gives the new
      lattice's report
    - a kept lattice asked with a lower --max-elements exits 3 with the
      detail a cold load gives, and stays kept
    - a file that fails to load (not JSON, not a lattice description, not
      a lattice) fails again with the same error and is never kept
    - the table drops the least recently loaded file first, past
      LOADED_LATTICES files and past DEFAULT_MAX_ELEMENTS elements kept in
      all, and keeps no lattice larger than that; threads loading at once
      keep it within both bounds
    - on a lattice the table holds, automorphism_group(L) is one object;
      measure_module(L) and measure_module(L, automorphism_group(L)) are
      each kept, and a module under any other group is built anew, so
      queries with a group file keep no module for it
    - a lattice the table does not hold (one a constructor built, or one
      the table dropped) keeps none of these three answers, so no answer
      points back at a lattice that points at it, and a dropped lattice is
      freed by reference count
    - every command, in the shapes the benchmark workloads use, on boolean,
      mo, a product, a horizontal sum and benzene, run twice in one process
      in shuffled order, prints what it prints when the table is emptied
      just before it
"""

import contextlib
import gc
import hashlib
import io
import json
import random
import sys
import threading

import pytest

import orthomeasure.lattice as lattice_mod
from orthomeasure import (
    NotALatticeError,
    SchemaError,
    SizeCapError,
    atoms,
    automorphism_group,
    benzene,
    boolean,
    close_group,
    horizontal_sum,
    load_group,
    load_lattice,
    measure_module,
    mo,
    product,
    save_group,
    save_lattice,
    trivial_action,
)
from orthomeasure.cli import run
from orthomeasure.lattice import DEFAULT_MAX_ELEMENTS, LOADED_LATTICES


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([str(a) for a in argv])
    return code, out.getvalue()


def _cold(argv) -> tuple[int, str]:
    """The exit code and output of ``argv`` with the load table emptied."""
    lattice_mod._LOADED.clear()
    return _run(argv)


def _key(path) -> bytes:
    return hashlib.sha256(path.read_bytes()).digest()


def _kept(path) -> bool:
    return lattice_mod._LOADED.get(_key(path)) is not None


def _load_kept(path):
    """The lattice the table keeps for the file at ``path``: the second
    load of its bytes keeps it."""
    load_lattice(path)
    lattice = load_lattice(path)
    assert _kept(path)
    return lattice


def test_a_file_loaded_once_is_remembered_but_its_lattice_is_not_kept(tmp_path):
    path = tmp_path / "mo3.json"
    save_lattice(mo(3), path)
    first = load_lattice(path)
    assert lattice_mod._LOADED == {_key(path): None} and first._kept is None
    second = load_lattice(path)
    assert second is not first and first._kept is None
    assert lattice_mod._LOADED == {_key(path): second} and second._kept == {}
    assert load_lattice(path) is second


def test_identical_bytes_at_two_paths_give_one_lattice(tmp_path):
    first, second, other = (tmp_path / f"{name}.json" for name in ("first", "second", "other"))
    save_lattice(mo(3), first)
    second.write_bytes(first.read_bytes())
    save_lattice(mo(4), other)
    load_lattice(first)
    lattice = load_lattice(second)
    assert load_lattice(first) is lattice and load_lattice(second) is lattice
    assert _load_kept(other) is not lattice


def test_a_file_rewritten_at_the_same_path_gives_the_new_report(tmp_path):
    path = tmp_path / "lattice.json"
    for lattice, rank in ((mo(3), 4), (boolean(3), 3), (mo(3), 4)):
        save_lattice(lattice, path)
        code, out = _run(["module", path])
        assert (code, json.loads(out)["report"]["rank"]) == (0, rank)
        assert _cold(["module", path]) == (code, out)


def test_a_kept_lattice_over_a_lower_cap_exits_3_as_a_cold_load(tmp_path):
    path = tmp_path / "mo3.json"
    save_lattice(mo(3), path)
    lattice = _load_kept(path)
    argv = ["check", path, "--max-elements", "7"]
    code, out = _run(argv)
    assert code == 3
    assert json.loads(out) == {"error": "SizeCapError",
                               "detail": "8 elements exceeds the cap of 7"}
    with pytest.raises(SizeCapError, match="^8 elements exceeds the cap of 7$"):
        load_lattice(path, 7)
    assert load_lattice(path) is lattice
    assert _cold(argv) == (code, out)


def _bowtie() -> dict:
    """0 < a, b < c, d < 1: a and b have two minimal upper bounds."""
    return {"name": "bowtie", "elements": ["0", "a", "b", "c", "d", "1"],
            "leq": [["0", "a"], ["0", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"],
                    ["c", "1"], ["d", "1"]],
            "orthocomplement": {"0": "1", "1": "0", "a": "d", "d": "a", "b": "c", "c": "b"}}


@pytest.mark.parametrize("content, error", [
    (b"{not json", SchemaError),
    (json.dumps({"elements": ["0"], "leq": []}).encode(), SchemaError),
    (json.dumps(_bowtie()).encode(), NotALatticeError),
], ids=["not JSON", "no orthocomplement", "not a lattice"])
def test_a_file_that_fails_to_load_is_not_kept(tmp_path, content, error):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(error) as first:
        load_lattice(path)
    with pytest.raises(error) as again:
        load_lattice(path)
    assert str(again.value) == str(first.value)
    assert not _kept(path) and not lattice_mod._LOADED
    code, out = _run(["check", path])
    assert code == 2 and json.loads(out)["error"] == error.__name__
    assert _run(["check", path]) == (code, out)
    assert not lattice_mod._LOADED


def test_the_table_drops_the_least_recently_loaded_file_first(tmp_path):
    paths = []
    for n in range(1, LOADED_LATTICES + 3):
        paths.append(tmp_path / f"mo{n}.json")
        save_lattice(mo(n), paths[-1])
    first = _load_kept(paths[0])
    for path in paths[1:LOADED_LATTICES - 1]:
        _load_kept(path)
    load_lattice(paths[LOADED_LATTICES - 1])  # remembered, not kept
    assert load_lattice(paths[0]) is first  # now the most recent
    load_lattice(paths[-2])
    assert len(lattice_mod._LOADED) == LOADED_LATTICES
    assert [_kept(p) for p in paths] == \
        [True, False] + [True] * (LOADED_LATTICES - 3) + [False] * 3
    assert _key(paths[LOADED_LATTICES - 1]) in lattice_mod._LOADED
    load_lattice(paths[-1])  # drops paths[2], the least recent, kept or not
    assert not _kept(paths[2]) and _key(paths[2]) not in lattice_mod._LOADED
    assert load_lattice(paths[0]) is first


def test_the_table_holds_at_most_the_element_cap_in_all(tmp_path):
    # 2 048 + 1 024 + 802 elements fit; 402 more drop boolean(11), the oldest
    lattices = {"b11": boolean(11), "b10": boolean(10), "mo400": mo(400), "mo200": mo(200)}
    paths = {}
    for name, lattice in lattices.items():
        paths[name] = tmp_path / f"{name}.json"
        save_lattice(lattice, paths[name])
    for name in ("b11", "b10", "mo400"):
        _load_kept(paths[name])
    assert all(_kept(paths[name]) for name in ("b11", "b10", "mo400"))
    load_lattice(paths["mo200"])  # remembered only, so nothing is dropped
    assert [_kept(paths[name]) for name in lattices] == [True, True, True, False]
    load_lattice(paths["mo200"])
    assert [_kept(paths[name]) for name in lattices] == [False, True, True, True]
    # a lattice past the total, loaded under a raised cap, is not kept and
    # drops nothing
    big = tmp_path / "mo2050.json"
    pairs = [(f"a{i}", f"a{i}'") for i in range(1, 2051)]
    big.write_text(json.dumps({
        "name": "MO2050", "elements": ["0", *(a for pair in pairs for a in pair), "1"],
        "leq": [[x, y] for pair in pairs for a in pair for x, y in (("0", a), (a, "1"))],
        "orthocomplement": {"0": "1", "1": "0", **dict(pairs), **{b: a for a, b in pairs}},
    }))
    for _ in range(2):
        assert len(load_lattice(big, DEFAULT_MAX_ELEMENTS + 6)) == DEFAULT_MAX_ELEMENTS + 6
    assert _key(big) not in lattice_mod._LOADED
    assert [_kept(paths[name]) for name in lattices] == [False, True, True, True]


def test_threads_loading_at_once_keep_the_table_within_its_bounds(tmp_path):
    # more files than the table holds, loaded by more threads than cores,
    # with a thread switch after every few bytecodes: a lost update of the
    # table raises in a thread or leaves it past a bound
    paths = []
    for n in range(1, LOADED_LATTICES + 9):
        paths.append(tmp_path / f"mo{n}.json")
        save_lattice(mo(n), paths[-1])
    errors = []

    def load(seed):
        rng = random.Random(seed)
        try:
            for _ in range(150):
                path = rng.choice(paths)
                assert len(load_lattice(path)) == 2 * int(path.stem[2:]) + 2
        except Exception as exc:  # reported below, with the thread's seed
            errors.append((seed, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(lattice_mod._LOADED) <= LOADED_LATTICES
    kept = {key: lattice for key, lattice in lattice_mod._LOADED.items() if lattice is not None}
    assert kept and sum(map(len, kept.values())) <= DEFAULT_MAX_ELEMENTS
    digests = {_key(p): int(p.stem[2:]) for p in paths}
    assert all(len(lattice) == 2 * digests[key] + 2 for key, lattice in kept.items())


_SHAPES = [mo(3), boolean(3), benzene(), product(boolean(2), mo(2)),
           horizontal_sum(boolean(3), mo(3))]


@pytest.mark.parametrize("shape", _SHAPES, ids=lambda lat: lat.name)
def test_the_automorphism_group_and_two_modules_are_kept(tmp_path, shape):
    path = tmp_path / "lattice.json"
    save_lattice(shape, path)
    lattice = _load_kept(path)
    group = automorphism_group(lattice)
    assert automorphism_group(lattice) is group
    plain = measure_module(lattice)
    assert measure_module(lattice) is plain and plain.action is None
    invariant = measure_module(lattice, group)
    assert measure_module(lattice, group) is invariant and invariant.action is group
    for other in (trivial_action(lattice), close_group(lattice, group.generators)):
        assert measure_module(lattice, other) is not measure_module(lattice, other)
    assert lattice._kept == {"aut": group, "module": plain, "aut_module": invariant}


@pytest.mark.parametrize("lattice", _SHAPES, ids=lambda lat: lat.name)
def test_a_lattice_the_table_does_not_hold_keeps_no_group_or_module(lattice):
    group = automorphism_group(lattice)
    assert automorphism_group(lattice) is not group
    assert measure_module(lattice) is not measure_module(lattice)
    assert measure_module(lattice, group) is not measure_module(lattice, group)
    assert lattice._kept is None


def test_a_dropped_lattice_keeps_nothing_and_is_freed_by_reference_count(tmp_path):
    paths = []
    for n in range(1, LOADED_LATTICES + 2):
        paths.append(tmp_path / f"mo{n}.json")
        save_lattice(mo(n), paths[-1])
    lattice = _load_kept(paths[2])
    answers = [measure_module(lattice), measure_module(lattice, automorphism_group(lattice))]
    assert len(lattice._kept) == 3
    for path in paths:
        if path != paths[2]:
            load_lattice(path)
    assert _key(paths[2]) not in lattice_mod._LOADED and lattice._kept is None
    assert load_lattice(paths[2]) is not lattice
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        del lattice, answers
        assert gc.collect() == 0  # nothing was left in a cycle
    finally:
        if enabled:
            gc.enable()


def test_group_file_queries_keep_no_module_for_the_file_group(tmp_path):
    path, group = tmp_path / "mo4.json", tmp_path / "aut.json"
    save_lattice(mo(4), path)
    save_group(automorphism_group(mo(4)), group)
    lattice = _load_kept(path)
    outputs = [_run([command, path, "--group", group])
               for command in ("module", "states", "module", "states")]
    assert outputs[:2] == outputs[2:]
    assert load_lattice(path) is lattice
    assert set(lattice._kept) <= {"module"}
    assert all(module.action is None for module in lattice._kept.values())
    # a group read from the file is a new object on every load
    assert load_group(group, lattice) is not load_group(group, lattice)


def _workload_commands(tmp_path) -> list[list]:
    """The commands of the classical, invariant and states workloads, and
    one with a group file, on each of the five shapes."""
    commands = []
    for k, lattice in enumerate(_SHAPES):
        path = tmp_path / f"{k}.json"
        save_lattice(lattice, path)
        full = [path, "--full-aut"]
        commands += [["check", path], ["aut", path], ["states", path], ["cone", path],
                     ["module", path], ["module", *full],
                     ["states", *full], ["cone", *full]]
        commands += [["measures", path, "--domain", d] for d in ("z", "z/6")]
        commands += [["invariant-measures", *full, "--domain", d] for d in ("q", "z/2")]
        atom = min(atoms(lattice))
        members, half = tmp_path / f"{k}-members.json", tmp_path / f"{k}-half.json"
        members.write_text(json.dumps({"members": [atom]}))
        half.write_text(json.dumps({"values": {atom: "1/2"}}))
        commands.append(["extend", *full, "--generating-set", members, "--partial", half])
        if lattice.name.startswith("boolean"):
            every, ones = tmp_path / f"{k}-atoms.json", tmp_path / f"{k}-ones.json"
            every.write_text(json.dumps({"members": list(atoms(lattice))}))
            ones.write_text(json.dumps({"values": dict.fromkeys(atoms(lattice), 1)}))
            commands.append(["extend", path, "--generating-set", every, "--partial", ones])
    group = tmp_path / "aut0.json"
    save_group(automorphism_group(_SHAPES[0]), group)
    commands.append(["invariant-measures", tmp_path / "0.json", "--group", group])
    return commands


def test_every_report_is_the_one_a_cold_load_gives(tmp_path):
    commands = _workload_commands(tmp_path)
    cold = {tuple(map(str, argv)): _cold(argv) for argv in commands}
    assert sum(code == 0 for code, _ in cold.values()) > len(cold) // 2
    order = commands * 2
    random.Random(1).shuffle(order)
    lattice_mod._LOADED.clear()
    for argv in order:
        assert _run(argv) == cold[tuple(map(str, argv))], argv
