"""Batch command-line front end.

Commands read lattices (and optionally groups, generating sets, partial
measures) from the documented JSON schemas and print a deterministic report:
the JSON form is the contract, the text form is a human summary of the same
data.  The JSON form is byte for byte ``json.dumps(envelope, indent=2)``; a
small recursive writer produces it, because the standard encoder falls back
to pure Python whenever it indents.  The writer appends the pieces of the
envelope, the report and its table to one list and joins it once per
report.  The state vertices and the measures are written through one table
(``_Table``) of value ids: each distinct value is formatted once, a
``states`` table takes the polytope's rows of ids as they stand, and where
a table has no more distinct values than rows, each element's key and value
text are joined once per value, so that a row only picks its cells by id.
Exit codes: 0 success, 1 mathematical negative (the report is still
printed), 2 input or schema error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections.abc import Callable, Iterable, Sequence
from decimal import Decimal
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from operator import add, getitem
from typing import NamedTuple

from . import __version__
from .cones import positive_cone, state_polytope
from .errors import (
    DomainMismatchError,
    LatticeInputError,
    NotAnAutomorphismError,
    OrthomeasureError,
    ResourceCapError,
    SchemaError,
)
from .groemer import (
    classical_groemer_extend,
    load_generating_set,
    load_partial_measure,
    orth_groemer_extend,
)
from .indicators import check_indicator_identities
from .lattice import (
    DEFAULT_MAX_ELEMENTS,
    OrthoLattice,
    atoms,
    is_atomistic,
    is_distributive,
    is_orthomodular,
    load_lattice,
)
from .measures import (
    brute_force_measures,
    measure_basis,
    measure_module,
    parse_domain,
)
from .symmetry import automorphism_group, generating_subset, load_group

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _check_result_dict(result) -> dict:
    out = {"ok": result.ok}
    if result.witness is not None:
        out["witness"] = list(result.witness)
    return out


def _load_action(args, lattice):
    """The group that --full-aut or --group names, or None."""
    if args.full_aut:
        return automorphism_group(lattice)
    if args.group:
        return load_group(args.group, lattice)
    return None


def _scalar_text(value) -> str:
    """``str(value)``, also for an int past the interpreter's digit limit
    for int-to-str conversion (4300 digits by default), which |Aut(MO(n))|
    = 2^n n! passes at n = 1430: Decimal converts without that limit and
    gives the same digits."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


class _Table(NamedTuple):
    """The rows of a report that give a value at every element: the
    vertices of ``states``, each {"coords": [...], "values": {...}}, or the
    measures of ``measures``, ``invariant-measures`` and ``oracle``, each
    {"domain": ..., "values": {...}}.

    ``texts`` holds each distinct value's text once, and a row gives its
    values at ``elements`` (at least one) as ids into ``texts``.  A vertex
    row is a row of ``StatePolytope.rows`` as it stands, the pair of its
    coordinate ids (at least one) and its value ids; a measure row is its
    value ids, led by ``domain``.  The JSON, text and CSV writers read the
    texts by id, and the JSON and text forms are byte for byte what the
    dicts of the rows give (:func:`_json_text`, :func:`_render_text`).
    """

    elements: tuple[str, ...]
    texts: list[str]
    rows: Sequence
    domain: str | None  # the label each measure row leads with; None for vertices
    quoted: bool  # values are JSON strings, else JSON integers

    def _cells(self, keys: list[str]) -> Callable[[Sequence[int]], Iterable[str]]:
        """A row's value ids to their cells, each the element's key and
        the value's text.  With no more texts than rows, every column's
        key + text strings are made once and a row picks its cells by id,
        which costs fewer joins than one per cell."""
        texts = self.texts
        if len(texts) <= len(self.rows):
            return partial(map, getitem, [[k + t for t in texts] for k in keys])
        text = texts.__getitem__
        return lambda ids: map(add, keys, map(text, ids))

    def write_json(self, pad: str, parts: list[str]) -> None:
        """Append the JSON of the list of rows, closed at ``pad``, to
        ``parts``: each row's head, its cells, and the close of the row."""
        if not self.rows:
            parts.append("[]")
            return
        item, field = pad + "  ", pad + "    "
        entry = field + "  "
        q = '"' if self.quoted else ""
        # a value's closing quote goes with the next element's name
        keys = [entry + _quote(e) + ": " + q for e in self.elements]
        keys[1:] = [q + "," + k for k in keys[1:]]
        cells = self._cells(keys)
        close = q + field + "}" + item + "}"
        append, extend = parts.append, parts.extend
        if self.domain is None:
            coord = [entry + '"' + t + '"' for t in self.texts].__getitem__
            head, tail = "{" + field + '"coords": [', field + "]," + field + '"values": {'
            start, after = "[" + item + head, close + "," + item + head
            for coord_ids, ids in self.rows:
                append(start + ",".join(map(coord, coord_ids)) + tail)
                extend(cells(ids))
                start = after
        else:
            head = "{" + field + '"domain": ' + _quote(self.domain) + "," + field + '"values": {'
            start, after = "[" + item + head, close + "," + item + head
            for ids in self.rows:
                append(start)
                extend(cells(ids))
                start = after
        append(close + pad + "]")

    def lines(self, indent: int) -> list[str]:
        """``_render_text`` of the list of rows at ``indent``."""
        pad = "  " * indent
        field, entry = pad + "  ", pad + "    "
        cells = self._cells([f"{entry}{e}: " for e in self.elements])
        out: list[str] = []
        if self.domain is None:
            coord = [entry + "- " + t for t in self.texts].__getitem__
            dash, coords, values = pad + "-", field + "coords:", field + "values:"
            for coord_ids, ids in self.rows:
                out += dash, coords
                out.extend(map(coord, coord_ids))
                out.append(values)
                out.extend(cells(ids))
        else:
            head = (pad + "-", f"{field}domain: {self.domain}", field + "values:")
            for ids in self.rows:
                out += head
                out.extend(cells(ids))
        return out

    def write_csv(self, fh) -> None:
        """A header of the element names, then the values of each vertex,
        one line each, a field quoted only where it holds a comma, a quote
        or a line break.  Only ``states --csv`` writes CSV, so only it
        imports the module."""
        import csv

        text = self.texts.__getitem__
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(self.elements)
        writer.writerows(map(text, ids) for _, ids in self.rows)


def _render_text(value, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list, _Table)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
    elif isinstance(value, _Table):
        lines = value.lines(indent)
    else:
        lines.append(f"{pad}{_scalar_text(value)}")
    return lines


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for report values.

    Reports hold dicts with str keys, lists, tuples, str, int, bool, None
    and tables.  json.dumps runs its pure-Python encoder whenever it
    indents; this writer appends every piece of the report, a table's
    cells included, to one list of parts and joins that list once, so no
    text is copied once per nesting level.
    """
    parts: list[str] = []
    _write_json(value, "\n", parts)
    return "".join(parts)


def _write_json(value, pad: str, parts: list[str]) -> None:
    """Append the JSON of ``value``, its lines indented past ``pad``, to
    ``parts``."""
    kind = type(value)
    if kind is str:
        parts.append(_quote(value))
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = pad + "  "
        sep, comma = "{" + inner, "," + inner
        for k, v in value.items():
            if type(v) is str:
                parts.append(sep + _quote(k) + ": " + _quote(v))
            else:
                parts.append(sep + _quote(k) + ": ")
                _write_json(v, inner, parts)
            sep = comma
        parts.append(pad + "}")
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = pad + "  "
        sep, comma = "[" + inner, "," + inner
        for v in value:
            if type(v) is str:
                parts.append(sep + _quote(v))
            else:
                parts.append(sep)
                _write_json(v, inner, parts)
            sep = comma
        parts.append(pad + "]")
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif kind is int:
        try:
            parts.append(int.__repr__(value))
        except ValueError:  # past the digit limit, see _scalar_text
            parts.append(str(Decimal(value)))
    elif kind is _Table:
        value.write_json(pad, parts)
    else:
        raise TypeError(f"{kind.__name__} is not a report value")


def _emit(args, report, digest: str) -> None:
    """Print the report in its envelope; ``digest`` is the SHA-256 of the
    lattice file's bytes."""
    envelope = {
        "tool": "orthomeasure",
        "version": __version__,
        "command": args.command,
        "inputs": {"lattice": digest},
        "report": report,
    }
    if args.format == "json":
        print(_json_text(envelope))
    else:
        print("\n".join(_render_text(envelope)))


def _value_ids(values, known: dict) -> list[int]:
    """``known[v]`` for each value, after giving the values not in
    ``known`` yet the next ids in order: each distinct value gets one id
    over every call that shares ``known``."""
    try:
        return list(map(known.__getitem__, values))
    except KeyError:
        for v in values:
            if v not in known:
                known[v] = len(known)
        return list(map(known.__getitem__, values))


def _states_table(lattice, polytope) -> _Table:
    """The vertices as the polytope's own rows of value ids, each value
    formatted once."""
    return _Table(lattice.elements, list(map(str, polytope.values)), polytope.rows, None, True)


def _measures_table(lattice, domain, measures) -> _Table:
    """The measures as rows of value ids, in one pass over the measures,
    each distinct value formatted once (Fractions over Q, integers over Z
    and Z/m)."""
    known: dict = {}
    rows = [_value_ids(m.values.values(), known) for m in measures]
    texts = list(map(_scalar_text, known))
    return _Table(lattice.elements, texts, rows, domain.label, domain.kind == "Q")


# The checks of lattice.verify_ortho, in its order.  check reports each as
# holding without running it: load_lattice returns only descriptions that
# build_lattice has proved to be ortholattices, and raises on any other.
_ORTHO_AXIOMS = ("partial_order", "bounds", "meet_join_tables", "involution",
                 "complement", "order_reversal", "de_morgan")


def _cmd_check(args, lattice) -> tuple[dict, int]:
    omod = is_orthomodular(lattice)
    dist = is_distributive(lattice)
    atomistic = is_atomistic(lattice)
    report = {
        "name": lattice.name,
        "elements": len(lattice),
        "bottom": lattice.bottom,
        "top": lattice.top,
        "orthocomplemented": {name: {"ok": True} for name in _ORTHO_AXIOMS},
        "orthomodular": _check_result_dict(omod),
        "distributive": _check_result_dict(dist),
        "boolean": dist.ok,  # complemented by construction, so Boolean = distributive
        "atomistic": _check_result_dict(atomistic),
        "atoms": list(atoms(lattice)),
    }
    return report, EXIT_OK if omod.ok else EXIT_NEGATIVE


def _cmd_aut(args, lattice) -> tuple[dict, int]:
    action = automorphism_group(lattice)
    report = {
        "order": action.order,
        "generators": [g.mapping for g in generating_subset(action)],
    }
    return report, EXIT_OK


def _cmd_module(args, lattice) -> tuple[dict, int]:
    action = _load_action(args, lattice)
    module = measure_module(lattice, action)
    report = module.report_dict()
    report["variant"] = module.variant
    return report, EXIT_OK


def _cmd_measures(args, lattice) -> tuple[dict, int]:
    action = _load_action(args, lattice)
    if args.command == "invariant-measures" and action is None:
        raise SchemaError("invariant-measures needs --group or --full-aut")
    domain = parse_domain(args.domain)
    basis = measure_basis(lattice, domain, action)
    report = {
        "domain": domain.label,
        "kind": "generators" if domain.kind == "Zmod" else "basis",
        "count": len(basis),
        "measures": _measures_table(lattice, domain, basis),
    }
    return report, EXIT_OK


def _cmd_cone(args, lattice) -> tuple[dict, int]:
    action = _load_action(args, lattice)
    cone = positive_cone(lattice, action)
    report = {
        "dimension": cone.dim,
        "rays": [list(r) for r in cone.rays],
        "lineality": [list(l) for l in cone.lineality],
    }
    return report, EXIT_OK


def _cmd_states(args, lattice) -> tuple[dict, int]:
    action = _load_action(args, lattice)
    polytope = state_polytope(lattice, action)
    table = _states_table(lattice, polytope)
    report = {"count": len(table.rows), "vertices": table}
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            table.write_csv(fh)
    return report, EXIT_OK


def _cmd_extend(args, lattice) -> tuple[dict, int]:
    action = _load_action(args, lattice)
    domain = parse_domain(args.domain)
    members = load_generating_set(args.generating_set, lattice)
    partial = load_partial_measure(args.partial, domain)
    if action is None:
        measure = classical_groemer_extend(lattice, members, partial)
        mode = "classical"
    else:
        measure = orth_groemer_extend(lattice, action, members, partial)
        mode = "invariant"
    report = {"mode": mode, "measure": measure.to_json_dict()}
    return report, EXIT_OK


def _cmd_boolean_check(args, lattice) -> tuple[dict, int]:
    result = check_indicator_identities(lattice)
    report = {"identities": _check_result_dict(result)}
    return report, EXIT_OK if result.ok else EXIT_NEGATIVE


def _cmd_oracle(args, lattice) -> tuple[dict, int]:
    domain = parse_domain(args.domain)
    if args.range:
        lo, _, hi = args.range.partition(":")
        try:
            values = range(int(lo), int(hi) + 1)
        except ValueError as exc:
            raise SchemaError(f"bad --range {args.range!r} (use LO:HI)") from exc
        # an empty range would answer "no measure", but the zero measure exists
        if not values:
            raise SchemaError(f"--range {args.range!r} ends below its start")
        # consecutive integers repeat modulo m exactly when there are more than m
        if domain.kind == "Zmod" and len(values) > domain.modulus:
            raise SchemaError(f"--range {args.range!r} repeats values modulo {domain.modulus}")
    elif domain.kind == "Zmod":
        values = range(domain.modulus)
    else:
        raise SchemaError("--range LO:HI is required for domains z and q")
    measures = brute_force_measures(lattice, values, domain)
    report = {
        "domain": domain.label,
        "count": len(measures),
        "measures": _measures_table(lattice, domain, measures),
    }
    return report, EXIT_OK


class _Command(NamedTuple):
    """A command: its help line, its handler (from the arguments and the
    loaded lattice to the report and the exit code) and the arguments it
    takes."""

    help: str
    handler: Callable[[argparse.Namespace, OrthoLattice], tuple[dict, int]]
    group: bool = False  # --group and --full-aut
    domain: bool = False  # --domain
    extra: tuple = ()  # (flag, add_argument keywords) after the common ones


_COMMANDS = {
    "check": _Command("axioms and classification flags", _cmd_check),
    "aut": _Command("automorphism group order and generators", _cmd_aut),
    "module": _Command("rank and torsion of the measure group", _cmd_module, group=True),
    "measures": _Command("measure basis", _cmd_measures, group=True, domain=True),
    "invariant-measures": _Command("invariant measure basis", _cmd_measures,
                                   group=True, domain=True),
    "cone": _Command("extreme rays of the positive cone", _cmd_cone, group=True),
    "states": _Command("vertices of the state polytope", _cmd_states, group=True, extra=(
        ("--csv", {"help": "also write the vertices as CSV"}),
    )),
    "extend": _Command("extend a partial measure from a file", _cmd_extend,
                       group=True, domain=True, extra=(
        ("--generating-set", {"required": True, "help": "generating set JSON file"}),
        ("--partial", {"required": True, "help": "partial measure JSON file"}),
    )),
    "boolean-check": _Command("indicator identity suite", _cmd_boolean_check),
    "oracle": _Command("brute-force measure enumeration", _cmd_oracle, domain=True, extra=(
        ("--range", {"help": "value range LO:HI (defaults to 0..m-1 mod m); "
                             "a negative LO needs the form --range=LO:HI"}),
    )),
}


def _add_arguments(parser: argparse.ArgumentParser, cmd: _Command) -> None:
    """The arguments ``cmd`` takes, added to ``parser``."""
    parser.add_argument("lattice", help="lattice JSON file")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS)
    if cmd.group:
        src = parser.add_mutually_exclusive_group()
        src.add_argument("--group", help="group JSON file")
        src.add_argument("--full-aut", action="store_true",
                         help="use the full automorphism group")
    if cmd.domain:
        parser.add_argument("--domain", default="q", help="z, q, or z/<m>")
    for flag, keywords in cmd.extra:
        parser.add_argument(flag, **keywords)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, one subparser each.

    It takes about 1.5 ms to build (Python 3.11, 2-vCPU host), so
    :func:`parse_args` uses it only when argv names no command, or when the
    command's own parser leaves arguments over.
    """
    parser = argparse.ArgumentParser(
        prog="orthomeasure",
        description="measure spaces and state polytopes of finite "
        "orthocomplemented lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=cmd.help), cmd)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: the same namespace, output and
    exit.  ``argv`` defaults to ``sys.argv[1:]``.

    When ``argv[0]`` names a command, one flat parser with that command's
    arguments and the subparser's ``prog`` parses the rest: 0.13-0.24 ms a
    call against 0.24-0.37 ms for a parent parser holding the one subparser
    (best of 300, Python 3.11, 2-vCPU host), and it leaves 34-58 objects of
    cyclic garbage against 68-90.  A subparser hands the arguments it does
    not take back to its parent, whose error lists every command, so an
    argv with any of those goes to the full parser.
    """
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _COMMANDS:
        return build_parser().parse_args(argv)
    command = argv[0]
    parser = argparse.ArgumentParser(prog="orthomeasure " + command)
    _add_arguments(parser, _COMMANDS[command])
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        return build_parser().parse_args(argv)
    args.command = command
    return args


def run(argv=None) -> int:
    """Parse ``argv``, load its lattice, run its command and print the
    report, or one JSON error line; returns the exit code."""
    args = parse_args(argv)
    try:
        digest = hashlib.sha256()
        lattice = load_lattice(args.lattice, args.max_elements, digest)
        report, code = _COMMANDS[args.command].handler(args, lattice)
        _emit(args, report, digest.hexdigest())
        return code
    except (OrthomeasureError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        if isinstance(exc, ResourceCapError):
            return EXIT_CAP
        if isinstance(exc, (SchemaError, LatticeInputError, DomainMismatchError,
                            NotAnAutomorphismError, OSError)):
            return EXIT_INPUT
        return EXIT_NEGATIVE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
