"""Outside-in tracer: spans around the public functions of each module.

Each traced function is replaced at every module binding that holds it,
including ``from .x import f`` copies such as ``cli.measure_module`` or
``cones.rational_rank``, so calls made inside the library are seen too.  A
span records its function, query id, parent span and start and end times;
spans stay in memory until written.  A function named in ``TRACED`` that
the library no longer defines raises ``LookupError`` at install time, so a
rename cannot silently drop a layer.

A layer is a module.  A span's self time is its duration minus the
durations of its child spans, and each function's self time goes to one
metric; the closures ``generating_subset`` makes count as its own.  Counts are read from arguments and results at the same
boundaries; the time spent reading them is not charged to the caller.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

PACKAGE = "orthomeasure"
# module -> {function: metric its self time goes to}
TRACED = {
    "lattice": {
        "load_lattice": "lattice.load_s",
        "verify_ortho": "lattice.checks_s",
        "is_orthomodular": "lattice.checks_s",
        "is_atomistic": "lattice.checks_s",
        "is_distributive": "lattice.distributive_s",
    },
    "symmetry": {
        "automorphism_group": "symmetry.aut_s",
        "generating_subset": "symmetry.generators_s",
        "load_group": "symmetry.closure_s",
        "close_group": "symmetry.closure_s",
        "orbits": "symmetry.orbits_s",
        "normalizer": "symmetry.orbits_s",
        "quotient_map_injective": "symmetry.orbits_s",
    },
    "measures": {
        "measure_module": "measures.module_s",
        "relation_matrix": "measures.module_s",
        "coinvariants": "measures.coinvariants_s",
        "measure_basis": "measures.basis_s",
    },
    "intlinalg": {
        "smith_normal_form": "intlinalg.snf_s",
        "rational_rank": "intlinalg.rank_s",
        "rational_solve": "intlinalg.solve_s",
    },
    "cones": {
        "double_description": "cones.dd_s",
        "positive_cone": "cones.dd_s",
        "state_polytope": "cones.slice_s",
    },
    "groemer": {
        "classical_groemer_extend": "groemer.classical_s",
        "orth_groemer_extend": "groemer.orth_s",
    },
    "indicators": {
        "check_indicator_identities": "indicators.identities_s",
    },
}
ROOT_METRIC = "cli.self_s"  # the span around one cli.run call

TIME_METRICS = sorted({ROOT_METRIC} | {m for fns in TRACED.values() for m in fns.values()})
COUNT_METRICS = [
    "cli.report_bytes",
    "lattice.elements",
    "symmetry.group_elements",
    "symmetry.cap_hits",
    "measures.relation_rows",
    "measures.coinvariant_rows",
    "intlinalg.snf_calls",
    "intlinalg.snf_cells",
    "intlinalg.snf_max_bits",
    "intlinalg.rank_calls",
    "cones.dd_rays",
    "cones.rank_tests",
]


def _max_bits(*matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m for x in row), default=0)


class Tracer:
    """Spans and counts of one traced pass; install() patches the library."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, query, fn, start, end)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[tuple[int, str]] = []  # open (span id, fn)
        self._next_id = 0
        self._uncharged: dict[int, float] = defaultdict(float)  # counting time per span
        self._query = ""
        self._patches: list[tuple[object, str, object]] = []

    # --- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and name.split(".")[0] == PACKAGE]
        for mod_name, fns in TRACED.items():
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if home is None:
                raise LookupError(f"module {PACKAGE}.{mod_name} is not loaded")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if not callable(original):
                    raise LookupError(f"{PACKAGE}.{mod_name}.{fn_name} is missing")
                wrapper = self._wrap(fn_name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- spans ----------------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _open(self, fn: str) -> tuple[int, int | None, float]:
        span_id = self._new_id()
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, fn))
        return span_id, parent, time.perf_counter()

    def _close(self, span_id, parent, fn, start, end) -> None:
        self._stack.pop()
        self.spans.append((span_id, parent, self._query, fn, start, end))

    def run_query(self, qid: str, call):
        """The root span of one query, around ``call()``."""
        self._query = qid
        span_id, parent, start = self._open("cli.run")
        try:
            return call()
        finally:
            self._close(span_id, parent, "cli.run", start, time.perf_counter())

    def _wrap(self, fn_name, original):
        tracer = self

        def traced(*args, **kwargs):
            caller = tracer._stack[-1][1] if tracer._stack else None
            span_id, parent, start = tracer._open(fn_name)
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                tracer._close(span_id, parent, fn_name, start, end)
                tracer._count(fn_name, caller, args, result, exc)
                if parent is not None:
                    tracer._uncharged[parent] += time.perf_counter() - end

        traced.__wrapped__ = original
        traced.__name__ = original.__name__
        return traced

    def _count(self, fn, caller, args, result, exc) -> None:
        c = self.counts
        if exc is not None:
            if type(exc).__name__ == "GroupTooLargeError" and not getattr(exc, "_counted", False):
                exc._counted = True
                c["symmetry.cap_hits"] += 1
            return
        if fn == "load_lattice":
            c["lattice.elements"] += len(result)
        elif fn in ("automorphism_group", "close_group"):
            c["symmetry.group_elements"] += result.order
        elif fn == "relation_matrix":
            c["measures.relation_rows"] += len(result)
        elif fn == "coinvariants":
            c["measures.coinvariant_rows"] += (len(result.group.relation_rows)
                                               - len(args[0].group.relation_rows))
        elif fn == "smith_normal_form":
            c["intlinalg.snf_calls"] += 1
            c["intlinalg.snf_cells"] += len(args[0]) * len(args[0][0])
            bits = _max_bits(result[0], result[2])
            c["intlinalg.snf_max_bits"] = max(c["intlinalg.snf_max_bits"], bits)
        elif fn == "rational_rank":
            c["intlinalg.rank_calls"] += 1
            if caller == "double_description":
                c["cones.rank_tests"] += 1
        elif fn == "double_description":
            c["cones.dd_rays"] += len(result[0])

    # --- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per metric, summed over every recorded span."""
        children = defaultdict(float)
        fn_of = {}
        for span_id, parent, _, fn, start, end in self.spans:
            fn_of[span_id] = fn
            if parent is not None:
                children[parent] += end - start
        metric_of = {fn: m for fns in TRACED.values() for fn, m in fns.items()}
        metric_of["cli.run"] = ROOT_METRIC
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for span_id, parent, _, fn, start, end in self.spans:
            metric = metric_of[fn]
            # the closures generating_subset makes are the cost of that search
            if fn == "close_group" and parent is not None and fn_of[parent] == "generating_subset":
                metric = "symmetry.generators_s"
            out[metric] += (end - start) - children[span_id] - self._uncharged[span_id]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, query, fn, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "query": query,
                                     "fn": fn, "start": start, "end": end}) + "\n")
