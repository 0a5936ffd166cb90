"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py [--setup-only] [--trace]

The worker imports the package from ``src`` next to this directory and loads
the builtin fixture table, then notes the moment it is ready (the parent
measures set-up time from the moment it started the process).  It reads the
item list as JSON on stdin and runs every item once through the package's
user entry points, timing each call alone.  Before each item, and once at the
end, it times a fixed piece of standard-library work (``probe_ns``), which
tells how fast this shared machine runs at that moment.  It writes one JSON
line per item as soon as the item is done (time, probe, output), so outputs
do not accumulate in its memory, and a last line with the ready time, the
set-up probes, the peak resident set size and, with ``--trace``, the
aggregated spans.  ``--setup-only`` writes only the last line.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
TRACE = "--trace" in sys.argv

import leakyhurwitz  # noqa: E402
import leakyhurwitz.cli  # noqa: E402

if TRACE:
    sys.path.insert(0, HERE)
    import tracing  # noqa: E402

    TRACER = tracing.Tracer()
    tracing.install(TRACER)
leakyhurwitz.default_fixtures()
READY_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402


def probe_ns() -> int:
    """Time of fixed Fraction arithmetic and dict inserts, with the garbage
    collector paused so that it neither runs nor is scheduled differently."""
    gc.disable()
    try:
        start = time.perf_counter_ns()
        acc, table = Fraction(0), {}
        for i in range(1, 300):
            acc += Fraction(i, i + 1)
            table[i, i % 7] = acc
        return time.perf_counter_ns() - start
    finally:
        gc.enable()


def run_item(item: dict):
    """(elapsed ns, output) of one item; only the package call is timed."""
    clock = time.perf_counter_ns
    op = item["op"]
    if op == "H":
        p = leakyhurwitz.Problem.of(item["g"], item["k"], item["x"], item["e"])
        start = clock()
        value = leakyhurwitz.compute_H(p)
        elapsed = clock() - start
        return elapsed, str(value)
    if op == "cross":
        n, k = len(item["e"]), item["k"]
        p = leakyhurwitz.Problem.of(0, k, (k * (n - 2),) + (0,) * (n - 1), item["e"])
        wall = leakyhurwitz.Wall.of(n, item["subset"])
        start = clock()
        computed = leakyhurwitz.wall_crossing(p, wall)
        closed = leakyhurwitz.wall_crossing_formula(p, wall)
        elapsed = clock() - start
        return elapsed, [str(computed), str(closed), computed == closed]
    out, err = io.StringIO(), io.StringIO()
    main = leakyhurwitz.cli.main
    start = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(item["argv"])
        except SystemExit as exc:
            code = exc.code
    elapsed = clock() - start
    return elapsed, [code, out.getvalue()]


def main() -> None:
    result = {"ready_ns": READY_NS, "setup_probe_ns": [probe_ns() for _ in range(3)]}
    write = sys.stdout.write
    if "--setup-only" not in sys.argv:
        for item in json.load(sys.stdin):
            probe = probe_ns()
            start = time.perf_counter_ns()
            try:
                elapsed, output = run_item(item)
            except Exception as exc:  # a raising item is a failed item
                elapsed = time.perf_counter_ns() - start
                output = {"raised": f"{type(exc).__name__}: {exc}"}
            write(json.dumps({"ns": elapsed, "probe_ns": probe, "output": output})
                  + "\n")
        result.update(end_probe_ns=probe_ns(),
                      rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if TRACE:
            result["trace"] = TRACER.snapshot()
    write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
