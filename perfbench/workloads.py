"""The three query workloads, their input files and their reference answers.

Inputs are built with the library's constructors and written as lattice
JSON.  The seed relabels each lattice (a random permutation of its own
element names), shuffles the order pairs and the complement entries in the
file, and shuffles the query order.  The ladder is fixed, and so is the
element order of each copy of it: the element order is the library's
canonical order, which sets pivot, search and insertion orders and so
changes the work of one query up to threefold.  Keeping it apart from the
seed keeps the work of a list the same for every seed.  Every query carries
a check against references from ``oracle``, mapped through the relabelling
because they are computed on the written file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from oracle import (
    BENZENE,
    Family,
    Structure,
    boolean_,
    hsum_,
    mo_,
    modulus_of,
    parse_value,
    product_,
)

WORKLOADS = ("classical", "invariant", "states")

Check = Callable[[int, str], list]


@dataclass(frozen=True)
class Query:
    qid: str
    argv: tuple[str, ...]
    check: Check  # (exit code, stdout) -> mismatches


@dataclass
class Case:
    """One lattice as written: its family, file and order oracle."""

    family: Family
    path: str
    structure: Structure
    rename: dict  # constructor name -> name in the file

    @property
    def label(self) -> str:
        return self.family.label


class Inputs:
    """Writes the seeded input files of one workload into a directory."""

    def __init__(self, om, directory: Path, workload: str, seed: int, copy: int):
        self.om = om
        self.dir = directory
        self.prefix = f"{workload}:{seed}:{copy}"
        self.order_prefix = f"{workload}:copy{copy}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self._count = 0

    def rng(self, key: str) -> random.Random:
        return random.Random(f"{self.prefix}:{key}")

    def _write(self, stem: str, data) -> str:
        self._count += 1
        path = self.dir / f"{self._count:03d}-{stem}.json"
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        return str(path)

    def lattice(self, family: Family) -> Case:
        desc = family.build(self.om).to_description()
        rng = self.rng(family.label)
        names = list(desc.elements)
        order = random.Random(f"{self.order_prefix}:{family.label}").sample(names, len(names))
        rename = dict(zip(names, rng.sample(names, len(names))))
        elements = [rename[e] for e in order]
        covers = [[rename[a], rename[b]] for a, b in desc.leq_pairs]
        rng.shuffle(covers)
        orth = {rename[e]: rename[desc.orthocomplement[e]] for e in names}
        orth = {e: orth[e] for e in elements}
        path = self._write(
            "lattice",
            {"name": desc.name, "elements": elements, "leq": covers,
             "orthocomplement": orth},
        )
        return Case(family, path, Structure(elements, covers, orth), rename)

    def generating_set(self, members) -> str:
        return self._write("members", {"members": list(members)})

    def partial(self, values: dict) -> str:
        return self._write("partial", {"values": {k: str(v) for k, v in values.items()}})

    def group(self, case: Case, generators) -> str:
        maps = [{case.rename[a]: case.rename[b] for a, b in g.items()} for g in generators]
        return self._write("group", {"generators": maps})


# --- checks -------------------------------------------------------------------


def _expect(code: int, check_body: Callable[[dict], list]) -> Check:
    def check(got: int, out: str) -> list:
        if got != code:
            return [f"exit {got}, expected {code}: {out.strip()[:200]}"]
        try:
            data = json.loads(out)
        except json.JSONDecodeError:
            return ["output is not JSON"]
        return check_body(data)
    return check


def _error(name: str) -> Callable[[dict], list]:
    def body(data):
        return [] if data.get("error") == name else [f"error {data.get('error')!r}, expected {name!r}"]
    return body


def _same(what, got, want) -> list:
    return [] if got == want else [f"{what} {got!r}, expected {want!r}"]


def check_report(case: Case) -> Check:
    f, st = case.family, case.structure

    def body(data):
        r = data["report"]
        out = _same("elements", r["elements"], f.size)
        out += _same("bottom", r["bottom"], st.elements[st.bottom])
        out += _same("top", r["top"], st.elements[st.top])
        bad = [k for k, v in r["orthocomplemented"].items() if not v["ok"]]
        out += _same("failed ortho axioms", bad, [])
        out += _same("orthomodular", r["orthomodular"]["ok"], f.orthomodular)
        out += _same("distributive", r["distributive"]["ok"], f.distributive)
        out += _same("boolean", r["boolean"], f.distributive)
        out += _same("atomistic", r["atomistic"]["ok"], f.atomistic)
        out += _same("atoms", sorted(r["atoms"]),
                     sorted(st.elements[a] for a in st.atoms))
        return out
    return _expect(0 if f.orthomodular else 1, body)


def module_report(rank: int, variant: str) -> Check:
    def body(data):
        r = data["report"]
        return (_same("rank", r["rank"], rank) + _same("torsion", r["torsion"], [])
                + _same("variant", r["variant"], variant))
    return _expect(0, body)


def measures_report(case: Case, domain: str, count: int, generators=()) -> Check:
    """Count = rank (no torsion anywhere in the ladder); every measure is
    additive by the oracle's loop, nonzero, and fixed by the given maps."""
    st = case.structure
    label = {"z": "Z", "q": "Q"}.get(domain, domain.upper())
    modulus = modulus_of(label)

    def body(data):
        r = data["report"]
        out = _same("domain", r["domain"], label) + _same("count", r["count"], count)
        for m in r["measures"]:
            values = {e: parse_value(v, label) for e, v in m["values"].items()}
            out += st.additivity(values, modulus)
            if not any(v % modulus if modulus else v for v in values.values()):
                out.append("zero measure in basis")
            for g in generators:
                if any(values[case.rename[a]] != values[case.rename[b]] for a, b in g.items()):
                    out.append("measure not invariant under the group file")
        return out
    return _expect(0, body)


def states_report(case: Case, count: int, generators=()) -> Check:
    st = case.structure

    def body(data):
        r = data["report"]
        out = _same("vertices", r["count"], count)
        seen = set()
        for v in r["vertices"]:
            values = {e: Fraction(x) for e, x in v["values"].items()}
            out += st.additivity(values, None)
            if values[st.elements[st.top]] != 1 or any(not 0 <= x <= 1 for x in values.values()):
                out.append("vertex is not a probability measure")
            for g in generators:
                if any(values[case.rename[a]] != values[case.rename[b]] for a, b in g.items()):
                    out.append("vertex not invariant under the group file")
            seen.add(tuple(sorted(values.items())))
        return out + _same("distinct vertices", len(seen), count)
    return _expect(0, body)


def cone_report(dimension: int, rays: int) -> Check:
    def body(data):
        r = data["report"]
        return (_same("dimension", r["dimension"], dimension)
                + _same("rays", len(r["rays"]), rays)
                + _same("lineality", r["lineality"], []))
    return _expect(0, body)


def aut_report(case: Case) -> Check:
    def body(data):
        r = data["report"]
        out = _same("order", r["order"], case.family.aut_order)
        if not all(case.structure.is_automorphism(g) for g in r["generators"]):
            out.append("a generator is not an automorphism")
        return out
    return _expect(0, body)


def extend_report(case: Case, mode: str, expected: dict) -> Check:
    def body(data):
        r = data["report"]
        got = {e: Fraction(v) for e, v in r["measure"]["values"].items()}
        wrong = sorted(e for e in expected if got.get(e) != expected[e])
        return _same("mode", r["mode"], mode) + _same("wrong values at", wrong[:3], [])
    return _expect(0, body)


def boolean_check_report() -> Check:
    return _expect(0, lambda data: _same("identities", data["report"]["identities"]["ok"], True))


# --- the workloads --------------------------------------------------------------


def _q(queries, case: Case, tag, argv, check):
    queries.append(Query(f"{case.label}/{tag}", tuple(argv), check))


def _classical_extend(inp: Inputs, queries, case: Case) -> None:
    """Extension from the atoms: v(x) is the sum of the atom values below x."""
    st = case.structure
    rng = inp.rng(case.label + ":extend")
    atoms = sorted(st.elements[a] for a in st.atoms)
    values = {a: Fraction(rng.randint(1, 9), rng.randint(1, 3)) for a in atoms}
    expected = {
        e: sum((values[st.elements[a]] for a in st.atoms_below(i)), Fraction(0))
        for i, e in enumerate(st.elements)
    }
    _q(queries, case, "extend", ["extend", case.path, "--generating-set",
                                 inp.generating_set(atoms), "--partial",
                                 inp.partial(values)],
       extend_report(case, "classical", expected))


def classical(inp: Inputs, copy: int) -> list[Query]:
    queries: list[Query] = []
    ladder = ([boolean_(n) for n in range(3, 7)] + [mo_(n) for n in (8, 16, 24, 32, 48)]
              + [product_(boolean_(2), mo_(3)), product_(mo_(2), mo_(3)),
                 hsum_(boolean_(4), mo_(6)), BENZENE])
    for fam in ladder:
        case = inp.lattice(fam)
        _q(queries, case, "check", ["check", case.path], check_report(case))
        _q(queries, case, "module", ["module", case.path], module_report(fam.rank, "plain"))
        for dom in ("z", "z/6"):
            _q(queries, case, f"measures-{dom}", ["measures", case.path, "--domain", dom],
               measures_report(case, dom, fam.rank))
        if fam.kind == "boolean":
            _classical_extend(inp, queries, case)
            if fam.n in (4, 5):
                _q(queries, case, "boolean-check", ["boolean-check", case.path],
                   boolean_check_report())
    b7 = inp.lattice(boolean_(7))
    _q(queries, b7, "check", ["check", b7.path], check_report(b7))
    _classical_extend(inp, queries, b7)
    return queries


def _cyclic(fam: Family) -> dict:
    """One generator of a cyclic group, in constructor names: the rotation
    of the atom pairs of mo(n), or of the points of boolean(n)."""
    n = fam.n
    if fam.kind == "mo":
        g = {"0": "0", "1": "1"}
        for i in range(1, n + 1):
            j = i % n + 1
            g[f"a{i}"], g[f"a{i}'"] = f"a{j}", f"a{j}'"
        return g
    names = (format(m, f"0{n}b")[::-1] for m in range(2 ** n))
    return {s: s[-1] + s[:-1] for s in names}


def invariant(inp: Inputs, copy: int) -> list[Query]:
    queries: list[Query] = []
    ladder = [(mo_(4), 3), (mo_(5), 1), (boolean_(4), 3), (boolean_(5), 1),
              (hsum_(boolean_(3), mo_(3)), 3), (product_(boolean_(2), mo_(3)), 1),
              (Family("subspace", 7), 3)]
    for fam, copies in ladder:
        if copy >= copies:
            continue
        case = inp.lattice(fam)
        full = [case.path, "--full-aut"]
        r = fam.invariant_rank
        _q(queries, case, "aut", ["aut", case.path], aut_report(case))
        _q(queries, case, "module", ["module", *full], module_report(r, "coinvariant"))
        for dom in ("q", "z/2"):
            _q(queries, case, f"invariant-measures-{dom}",
               ["invariant-measures", *full, "--domain", dom], measures_report(case, dom, r))
        _q(queries, case, "states", ["states", *full], states_report(case, fam.invariant_vertices))
        _q(queries, case, "cone", ["cone", *full], cone_report(r, fam.invariant_vertices))
        # one atom, value 1/2: a generating set for the action exactly when
        # the lattice has one orbit of atoms; then v(x) = height(x) / 2
        st = case.structure
        atom = st.elements[min(st.atoms, key=st.elements.__getitem__)]
        argv = ["extend", *full, "--generating-set", inp.generating_set([atom]),
                "--partial", inp.partial({atom: Fraction(1, 2)})]
        if fam.kind in ("hsum", "product"):
            check = _expect(1, _error("NotGeneratingForActionError"))
        else:
            check = extend_report(case, "invariant", {
                e: Fraction(st.height[i], 2) for i, e in enumerate(st.elements)})
        _q(queries, case, "extend", argv, check)
        if fam in (mo_(5), boolean_(5)):
            gen = [_cyclic(fam)]
            group = ["--group", inp.group(case, gen)]
            rank = 2 if fam.kind == "mo" else 1
            _q(queries, case, "module-cyclic", ["module", case.path, *group],
               module_report(rank, "coinvariant"))
            _q(queries, case, "states-cyclic", ["states", case.path, *group],
               states_report(case, rank, gen))
            if fam.kind == "mo":
                _q(queries, case, "invariant-measures-cyclic",
                   ["invariant-measures", case.path, *group], measures_report(case, "q", 2, gen))
    if copy:
        return queries
    mo6 = inp.lattice(mo_(6))
    _q(queries, mo6, "invariant-measures-q", ["invariant-measures", mo6.path, "--full-aut"],
       measures_report(mo6, "q", 1))
    mo2sq = inp.lattice(product_(mo_(2), mo_(2)))
    _q(queries, mo2sq, "module", ["module", mo2sq.path, "--full-aut"],
       module_report(mo2sq.family.invariant_rank, "coinvariant"))
    return queries


def states(inp: Inputs, copy: int) -> list[Query]:
    queries: list[Query] = []
    ladder = ([(mo_(n), 10) for n in range(3, 8)] + [(mo_(8), 2), (mo_(9), 2)]
              + [(hsum_(mo_(3), mo_(3)), 10), (hsum_(mo_(4), mo_(3)), 10), (boolean_(5), 10)])
    for fam, copies in ladder:
        if copy < copies:
            case = inp.lattice(fam)
            _q(queries, case, "states", ["states", case.path], states_report(case, fam.vertices))
    for fam, copies in ((product_(boolean_(3), mo_(2)), 2), (product_(mo_(2), mo_(3)), 2),
                        (BENZENE, 10), (boolean_(4), 10)):
        if copy < copies:
            case = inp.lattice(fam)
            _q(queries, case, "cone", ["cone", case.path], cone_report(fam.rank, fam.vertices))
    return queries


QUERY_LISTS = {"classical": classical, "invariant": invariant, "states": states}


# Copies of the ladder in one list, each in its own element order.  A list
# holds at least 100 distinct queries, so p90 has ten beyond it; where a
# ladder gives each lattice its own copy count, the costly lattices get fewer
# copies, so that a pass stays short enough to be repeated in one run.
COPIES = {"classical": 2, "invariant": 3, "states": 10}


def build(om, workload: str, seed: int, directory: Path) -> tuple[list[Query], list[Query]]:
    """Write the inputs; return the queries in the seed's order, and the
    warm-up: the queries on the first (smallest) lattice of the ladder.

    The list holds COPIES copies of the ladder, each in its own element
    order, so that one list averages over several orders."""
    queries = []
    for copy in range(COPIES[workload]):
        inp = Inputs(om, directory / str(copy), workload, seed, copy)
        batch = QUERY_LISTS[workload](inp, copy)
        queries += [Query(f"{q.qid}#{copy}", q.argv, q.check) for q in batch]
    first = queries[0].qid.split("/", 1)[0]
    warmup = [q for q in queries if q.qid.split("/", 1)[0] == first]
    random.Random(f"{workload}:{seed}:order").shuffle(queries)
    return queries, warmup
