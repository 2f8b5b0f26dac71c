"""Constructors that write their masks, against the descriptions they replace.

Claims:
    - boolean(1..10), mo(1..64), benzene, subspace_lattice over F_q and
      F_q^2 for q in {2, 3, 5, 7, 11} with every form, and the products
      and horizontal sums of every pair of ``strategies.BASES``, of those
      with each base again (up to 64 elements), and of parts of one and
      two elements loaded from files (one of them listed top first) with
      each base, each give what ``build_lattice`` makes of the description
      the constructor wrote before, in ``oracles``: the same name,
      elements, down masks and orthocomplement, and so the same file.
      Their ``order`` is a linear extension, ``down_pos`` holds the sets
      of ``down_masks`` over its positions, and ``verify_ortho`` passes;
      where the oracle raises, the constructor raises the same error
    - no constructor calls ``build_lattice``
    - at scale, under wall-clock bounds: product(boolean(9), mo(3)),
      product(mo(30), mo(30)) and hsum(boolean(10), mo(1000)) each build
      in under 0.5 s, and the measure group of the first has rank 13
"""

import itertools
import json
import time

import pytest

import orthomeasure.lattice as lattice_mod
from orthomeasure import (
    IsotropicFormError,
    benzene,
    boolean,
    horizontal_sum,
    load_lattice,
    measure_module,
    mo,
    product,
    subspace_lattice,
    verify_ortho,
)

from oracles import (
    benzene_by_description,
    boolean_by_description,
    horizontal_sum_by_description,
    mo_by_description,
    product_by_description,
    subspace_lattice_by_description,
)
from strategies import BASES, base


def _assert_built_alike(lattice, oracle):
    assert lattice.name == oracle.name
    assert lattice.elements == oracle.elements
    assert lattice_mod.same_lattice(lattice, oracle), lattice.name
    # the positions first: the cover walks behind to_description and
    # verify_ortho need not end on masks that break them
    position = {i: p for p, i in enumerate(lattice.order)}
    assert sorted(position) == list(range(len(lattice)))
    for i, down in enumerate(lattice.down_masks):
        below = [j for j in range(len(lattice)) if down >> j & 1]
        assert all(position[j] <= position[i] for j in below), (lattice.name, i)
        assert lattice.down_pos[i] == sum(1 << position[j] for j in below), (lattice.name, i)
    assert lattice.to_description() == oracle.to_description()
    assert verify_ortho(lattice).ok, lattice.name


@pytest.mark.parametrize("n", range(1, 11))
def test_boolean(n):
    _assert_built_alike(boolean(n), boolean_by_description(n))


def test_mo_and_benzene():
    for n in range(1, 65):
        _assert_built_alike(mo(n), mo_by_description(n))
    _assert_built_alike(benzene(), benzene_by_description())


def _outcome(build, *args):
    try:
        return build(*args)
    except IsotropicFormError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_subspace_lattice(q):
    built = 0
    for n in (1, 2):
        for form in itertools.product(range(q), repeat=n):
            got = _outcome(subspace_lattice, q, n, form)
            want = _outcome(subspace_lattice_by_description, q, n, form)
            if isinstance(want, tuple):
                assert got == want
            else:
                _assert_built_alike(got, want)
                built += 1
    assert built > 0


def _composed(pairs):
    """Each product and horizontal sum of the given (part, its oracle)
    pairs with at most 64 elements, beside the oracle's build of it."""
    out = []
    for (a, a_oracle), (b, b_oracle) in pairs:
        if len(a) * len(b) <= 64:
            out.append((product(a, b), product_by_description(a_oracle, b_oracle)))
        if len(a) + len(b) - 2 <= 64:
            out.append((horizontal_sum(a, b),
                        horizontal_sum_by_description(a_oracle, b_oracle)))
    return out


def _bases():
    return [(base(name), base(name)) for name in sorted(BASES)]


def test_products_and_sums_of_the_bases():
    bases = _bases()
    composed = _composed(itertools.product(bases, bases))
    assert len(composed) == 2 * len(bases) ** 2
    nested = _composed([*itertools.product(composed, bases), *itertools.product(bases, composed)])
    assert len(nested) > 1000
    for lattice, oracle in composed + nested:
        _assert_built_alike(lattice, oracle)


def test_parts_loaded_from_files(tmp_path):
    # a point, the chain 0 < 1 listed top first, and mo(2) listed backwards
    files = {
        "point": {"elements": ["p"], "leq": [], "orthocomplement": {"p": "p"}},
        "chain": {"elements": ["t", "b"], "leq": [["b", "t"]],
                  "orthocomplement": {"t": "b", "b": "t"}},
        "mo(2) backwards": {**mo(2).to_description().to_json_dict(),
                            "elements": list(reversed(mo(2).elements))},
    }
    loaded = []
    for name, data in files.items():
        path = tmp_path / f"{len(loaded)}.json"
        path.write_text(json.dumps({**data, "name": name}))
        loaded.append(load_lattice(path))
    assert [len(lattice) for lattice in loaded] == [1, 2, 6]
    assert loaded[1].order == (1, 0)
    parts = [(lattice, lattice) for lattice in loaded]
    bases = _bases()
    composed = _composed([*itertools.product(parts, parts + bases),
                          *itertools.product(bases, parts)])
    assert len(composed) > 100
    for lattice, oracle in composed:
        _assert_built_alike(lattice, oracle)


def test_no_constructor_calls_build_lattice(monkeypatch):
    def unreachable(*args):
        raise AssertionError("build_lattice reached from a constructor")

    monkeypatch.setattr(lattice_mod, "build_lattice", unreachable)
    for lattice in (boolean(4), mo(3), benzene(), subspace_lattice(3, 1, (1,)),
                    subspace_lattice(7, 2, (1, 1)), product(mo(2), benzene()),
                    horizontal_sum(boolean(3), mo(2))):
        assert verify_ortho(lattice).ok


@pytest.mark.parametrize("build,size", [
    (lambda: product(boolean(9), mo(3)), 4096),
    (lambda: product(mo(30), mo(30)), 3844),
    (lambda: horizontal_sum(boolean(10), mo(1000)), 3024),
], ids=["product(boolean(9),mo(3))", "product(mo(30),mo(30))", "hsum(boolean(10),mo(1000))"])
def test_builds_at_scale(build, size):
    start = time.perf_counter()
    lattice = build()
    assert time.perf_counter() - start < 0.5
    assert len(lattice) == size


def test_measure_group_of_the_product_at_the_cap():
    assert measure_module(product(boolean(9), mo(3))).rank == 13
