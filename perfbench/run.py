"""orthomeasure benchmark: CLI query workloads, closed loop, one process.

    python3 perfbench/run.py --workload classical --seed 1 --seconds 30 --trace 0

Each query is one ``orthomeasure.cli.run(argv)`` call with stdout captured,
issued in-process from a single thread; the next query starts when the
previous one returns.  Each latency is scaled by the speed of the host at
that moment, read from a fixed computation timed just before and just after
the query (see ``reference_time``).  Every answer is checked against a
reference answer that does not depend on the code under test (see
``oracle.py``).  ``--trace 0`` times the workload with tracing off and
reports the end-to-end metrics; ``--trace 1`` alternates untraced passes
with traced ones and reports the per-layer metrics, after checking that the
traced passes counted the same work.  The last line of stdout is the
result as one JSON object.  See README.md beside this file for the metrics
and workloads.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3  # timed passes per run, so batch_s is a median of three or more
REFERENCE_S = 1e-3  # the nominal time of ``reference()``: times are reported at this speed
# layers that must do no work on a workload (checked in traced runs)
ZERO_LAYERS = {"classical": ("symmetry.", "cones."), "states": ("symmetry.",)}


def import_library():
    """A fresh import of the package from this checkout's src/."""
    for name in [n for n in sys.modules if n.split(".")[0] == "orthomeasure"]:
        del sys.modules[name]
    import orthomeasure
    import orthomeasure.cli

    if Path(orthomeasure.__file__).resolve().parent != SRC / "orthomeasure":
        raise ImportError(f"orthomeasure imported from {orthomeasure.__file__}, not {SRC}")
    return orthomeasure


def reference():
    """A fixed stand-in for the library's kind of work (Fraction and int
    arithmetic, lists, dicts, sets, strings) that calls none of its code,
    so no change to the library changes its time."""
    n = 7
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    d = {}
    for i in range(400):
        d.setdefault(i % 37, set()).add(str(i * i))
    return m, sorted((k, len(v)) for k, v in d.items())


def reference_time():
    """The fastest of three runs of ``reference()``, in seconds, with the
    collector off so the library's heap does not enter it.

    On a shared two-vCPU virtual machine the host's speed was measured to
    change by up to 2x from one minute to the next and 1.3x from one second
    to the next, with the process's CPU time following its wall time, so no
    statistic of raw times within a run removes the swing.  Dividing each latency by this reading,
    taken around it, does: the reference slows with the host but not with
    the library."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scaled(seconds, ref):
    """``seconds`` measured while ``reference()`` took ``ref``, as they would
    read on a host where it takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / ref


class Runner:
    """Sets up, issues queries and checks each distinct answer once."""

    def __init__(self, workload, seed, directory):
        self.workload, self.seed, self.dir = workload, seed, directory
        self.cli = None
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._verified: dict[str, str] = {}

    def set_up(self):
        """Fresh import, inputs rewritten, warm-up; returns the query list.

        The inputs depend only on the workload and seed, so every set-up of
        a run writes the same files, and no library state outlives a pass.
        """
        ref = reference_time()
        start = time.perf_counter()
        om = import_library()
        self.cli = om.cli
        shutil.rmtree(self.dir, ignore_errors=True)
        queries, warmup = workloads.build(om, self.workload, self.seed, self.dir)
        elapsed = time.perf_counter() - start
        latencies, _ = self.run_pass(warmup)
        self.setups.append(scaled(elapsed, (ref + reference_time()) / 2) + sum(latencies))
        return queries

    def ask(self, query, tracer=None):
        """Run one query; returns (seconds, stdout bytes)."""
        buf = io.StringIO()
        call = lambda: self.cli.run(list(query.argv))  # noqa: E731
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = tracer.run_query(query.qid, call) if tracer else call()
        except (Exception, SystemExit) as exc:
            code, error = None, exc
        elapsed = time.perf_counter() - start
        out = buf.getvalue()
        self.attempted += 1
        if error is not None:
            problems = [f"raised {error!r}"]
        elif self._verified.get(query.qid) == out:
            problems = []
        else:
            try:
                problems = query.check(code, out)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                problems = [f"report does not have the expected shape: {exc!r}"]
            if not problems:
                self._verified[query.qid] = out
        if problems:
            self.failed += 1
            print(f"MISMATCH {query.qid}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed, len(out.encode())

    def run_pass(self, queries, tracer=None):
        """One pass over the list; returns (scaled latencies, report bytes).

        Each latency is scaled by the mean of the reference times read just
        before and just after the query."""
        latencies, size = [], 0
        ref = reference_time()
        for q in queries:
            dt, nbytes = self.ask(q, tracer)
            after = reference_time()
            latencies.append(scaled(dt, (ref + after) / 2))
            ref = after
            size += nbytes
        return latencies, size


def percentile(values, q):
    """The Harrell-Davis estimate of the ``q`` quantile: a mean of all the
    order statistics, weighted by a beta density around rank ``q * n``.

    The queries of a list fall into clusters of similar cost, and a
    nearest-rank percentile that sits between two clusters jumps from one to
    the other with the mix of a run; this one moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        if t <= 0 or t >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    # each weight is the beta mass of ((i - 1) / n, i / n], by Simpson's rule
    steps = 4
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        y = [density(i / n + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (y[0] + y[-1] + 4 * sum(y[1:-1:2]) + 2 * sum(y[2:-1:2])))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def passes(seconds, minimum):
    """Pass numbers: at least ``minimum``, and more while one as long as
    the longest so far still ends within ``seconds``."""
    start = now = time.perf_counter()
    longest, n = 0.0, 0
    while n < minimum or now + longest <= start + seconds:
        yield n
        n += 1
        longest = max(longest, time.perf_counter() - now)
        now = time.perf_counter()


def timed(runner, seconds):
    """Each pass sets up afresh; returns each pass's list of latencies."""
    runs = []
    for _ in passes(seconds, MIN_PASSES):
        queries = runner.set_up()
        latencies, _ = runner.run_pass(queries)
        runs.append(latencies)
    return runs


def traced(runner, seconds, spans_path):
    """Traced and untraced passes in turn, at least two traced; per-layer
    metrics from the traced ones, which must count the same work."""
    plain, runs = [], []
    for n in passes(seconds, 3):
        queries = runner.set_up()
        if n % 2:
            latencies, _ = runner.run_pass(queries)
            plain.append(sum(latencies))
            continue
        tr = tracing.Tracer()
        with tr:
            latencies, size = runner.run_pass(queries, tr)
        counts = {m: tr.counts.get(m, 0) for m in tracing.COUNT_METRICS}
        counts["cli.report_bytes"] = size
        runs.append((sum(latencies), tr.self_times(), counts, tr))
    first = runs[0][2]
    for _, _, counts, _ in runs[1:]:
        changed = sorted(m for m in first if counts[m] != first[m])
        if changed:
            raise RuntimeError(f"counts differ between traced passes: {changed}")
    runs[-1][3].write(spans_path)
    metrics = {}
    for m in tracing.TIME_METRICS:
        metrics[m] = (statistics.median(r[1][m] for r in runs), "s")
    for m in tracing.COUNT_METRICS:
        metrics[m] = (first[m], "count")
    tests = first["cones.rank_tests"]
    metrics["cones.rays_per_rank_test"] = (first["cones.dd_rays"] / tests if tests else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(r[0] for r in runs) / statistics.median(plain), "ratio")
    for prefix in ZERO_LAYERS.get(runner.workload, ()):
        busy = sorted(m for m, (v, _) in metrics.items() if m.startswith(prefix) and v)
        if busy:
            raise RuntimeError(f"layers expected idle on {runner.workload} did work: {busy}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orthomeasure").is_dir():
        print(f"no orthomeasure sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, run_dir)
    try:
        runner.set_up()  # a set-up before the first pass's own: at least four
        if args.trace:
            spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics = traced(runner, args.seconds, spans)
            print(f"spans of the last traced pass: {spans}")
        else:
            runs = timed(runner, args.seconds)
            pooled = [t for latencies in runs for t in latencies]
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "batch_s": (statistics.median(map(sum, runs)), "s"),
                "query_p50_ms": (1000 * percentile(pooled, 0.50), "ms"),
                "query_p90_ms": (1000 * percentile(pooled, 0.90), "ms"),
                "peak_rss_mb": (peak_mb, "MB"),
                "setup_s": (statistics.median(runner.setups), "s"),
            }
            print(f"{len(runs[0])} distinct queries, each timed in {len(runs)} passes: "
                  f"{len(pooled)} latencies; {len(runner.setups)} set-ups")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    error_rate = runner.failed / runner.attempted
    print(f"error_rate {error_rate:.6f} ({runner.failed} of {runner.attempted} queries failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
