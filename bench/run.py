"""Run one benchmark workload, verify every output and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each pass is a fresh single-threaded
interpreter (``worker.py``) that imports the package from ``src`` with cold
caches and runs the whole item list of the workload once.  Without tracing,
passes repeat (at least three) while another fits in ``--seconds``, pass i
taking the seed's items in the order ``workloads.generate(.., seed, i)``
draws.  Pass times are medians over passes, and item percentiles are taken
over the calls of all passes.  Which item pays for filling a cache depends on
the order, so several orders keep the percentiles from following one order's
luck.  With ``--trace 1`` untraced and traced passes of the same items
alternate, at least three of each; the first traced pass gives the per-layer
metrics, and the medians give the tracing overhead.  The spans are written to
``bench/out/``.

Outputs are checked after each pass, outside the timed calls, against the
references recorded in ``references.json`` or against an independent path
(see ``workloads.check``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "leakyhurwitz" / "__init__.py"
MIN_PASSES = 3
# Time of worker.probe_ns on the reference machine (2-vCPU Xeon VM at 2.1 GHz,
# Python 3.11.7).  Every reported time t is t * PROBE_REF_NS / probe, with
# the probe taken next to it: the time the work would have taken on that
# machine at its usual speed.  On a shared machine the speed of the same
# pass drifts by a quarter within a minute; the probe follows the drift.
PROBE_REF_NS = 1_300_000
SETUP_SAMPLES = 11
DEADLINE_S = 175.0

KNOWN_DEFECTS = [
    "cli: 'number -x -7,3,1' exits 2 because argparse reads the leading -7 "
    "as an option; the benchmark passes --profile=, --psi= and --subset=",
]


def spawn(flags: list[str], items, deadline: float) -> dict:
    """Run one worker to completion and return its result."""
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *flags],
        input=json.dumps(items), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        env=dict(os.environ, PYTHONHASHSEED="0"))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    records = [json.loads(line) for line in lines]
    result["times_ns"] = [r["ns"] for r in records]
    result["probes_ns"] = [r["probe_ns"] for r in records]
    result["outputs"] = [r["output"] for r in records]
    result["setup_s"] = (result["ready_ns"] - start) / 1e9
    return result


def failures(items, outputs, refs) -> list[str]:
    reasons = []
    for item, output in zip(items, outputs):
        try:
            reason = workloads.check(item, output, refs)
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"unverifiable output: {type(exc).__name__}: {exc}"
        if reason is not None:
            reasons.append(f"{item.get('argv') or item}: {reason}")
    return reasons


def pass_timings(result: dict) -> dict:
    """Timings of one pass, each item scaled to the reference machine speed
    by the mean of the probes taken just before and just after it."""
    probes = result["probes_ns"] + [result["end_probe_ns"]]
    times = [t * 2 * PROBE_REF_NS / (probes[i] + probes[i + 1])
             for i, t in enumerate(result["times_ns"])]
    return {"solve_s": sum(times) / 1e9,
            "item_ms": [t / 1e6 for t in times],
            "peak_rss_mb": result["rss_kb"] / 1024,
            "raw_solve_s": sum(result["times_ns"]) / 1e9}


def setup_time(result: dict) -> float:
    return result["setup_s"] * PROBE_REF_NS / statistics.median(
        result["setup_probe_ns"])


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    spans, counts = trace["spans"], trace["counts"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0), "s"

    def calls(name):
        return spans.get(name, {}).get("calls", 0), "count"

    def count(name):
        return counts.get(name, 0), "count"

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    vectors = counts.get("enumeration.flow_scan.vectors", 0)
    contributions = spans.get("chambers.contribution", {}).get("calls", 0)
    return {
        "exactarith.poly_new.calls": count("exactarith.poly_new"),
        "exactarith.poly_mul.calls": calls("exactarith.poly_mul"),
        "exactarith.poly_mul.s": self_s("exactarith.poly_mul"),
        "exactarith.poly_add.s": self_s("exactarith.poly_add"),
        "exactarith.normal_form.s": self_s("exactarith.normal_form"),
        "exactarith.linform_eval.calls": count("exactarith.linform_eval"),
        "covers.assemble_multiplicity.calls": calls("covers.assemble_multiplicity"),
        "covers.assemble_multiplicity.s": self_s("covers.assemble_multiplicity"),
        "covers.to_json.s": self_s("covers.to_json"),
        "enumeration.types.s": self_s("enumeration.types"),
        "enumeration.types.count": count("enumeration.types.count"),
        "enumeration.types.cache_hits": count("enumeration.types.cache_hits"),
        "enumeration.flow_scan.s": self_s("enumeration.flow_scan"),
        "enumeration.flow_scan.solves": count("enumeration.flow_scan.solves"),
        "enumeration.flow_scan.vectors": count("enumeration.flow_scan.vectors"),
        "enumeration.flow_scan.useful_ratio": ratio(
            counts.get("enumeration.linear_extensions.nonempty", 0), vectors),
        "enumeration.linear_extensions.s": self_s("enumeration.linear_extensions"),
        "enumeration.linear_extensions.orders": count(
            "enumeration.linear_extensions.orders"),
        "enumeration.enumerate_covers.s": self_s("enumeration.enumerate_covers"),
        "enumeration.compute_H.s": self_s("enumeration.compute_H"),
        "vertexdata.oracle.lookups": calls("vertexdata.oracle"),
        "vertexdata.oracle.misses": count("vertexdata.oracle.misses"),
        "vertexdata.oracle.s": self_s("vertexdata.oracle"),
        "vertexdata.fixtures_load.s": self_s("vertexdata.fixtures_load"),
        "chambers.walls.calls": calls("chambers.walls"),
        "chambers.walls.s": self_s("chambers.walls"),
        "chambers.flanking.calls": calls("chambers.flanking"),
        "chambers.flanking.s": self_s("chambers.flanking"),
        "chambers.chamber_polynomial.calls": calls("chambers.chamber_polynomial"),
        "chambers.chamber_polynomial.s": self_s("chambers.chamber_polynomial"),
        "chambers.contribution.calls": (contributions, "count"),
        "chambers.contribution.hit_ratio": ratio(
            counts.get("chambers.contribution.hits", 0), contributions),
        "chambers.wall_crossing.s": self_s("chambers.wall_crossing"),
        "chambers.crossing_formula.s": self_s("chambers.crossing_formula"),
        "chambers.classify.s": self_s("chambers.classify"),
        "cli.self.s": self_s("cli"),
    }


def another_fits(done: int, start: float, seconds: float) -> bool:
    """Whether to run one more pass (or pair), at least MIN_PASSES."""
    return (done < MIN_PASSES
            or (time.monotonic() - start) * (done + 1) / done <= seconds)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            refs: dict | None = None, items: list | None = None) -> dict:
    """Run the passes of one workload; return metrics, counts and notes.
    Given ``items``, every pass runs them as they are."""
    deadline = time.monotonic() + DEADLINE_S
    fixed = items is not None
    items = items if fixed else workloads.generate(workload, seed)
    refs = workloads.load_references() if refs is None else refs
    notes = [f"workload {workload}, seed {seed}: {len(items)} items per pass; "
             f"share whose (g, n, e) was seen earlier in the pass: "
             f"{workloads.seen_share(items):.3f}"]
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        plain, traced = [], []
        start = time.monotonic()
        while another_fits(len(plain), start, seconds):
            plain.append(spawn([], items, deadline))
            traced.append(spawn(["--trace"], items, deadline))
        runs = [(items, r) for r in plain + traced]
        metrics.update(layer_metrics(traced[0]["trace"]))
        metrics["trace.overhead_ratio"] = (
            statistics.median(pass_timings(r)["solve_s"] for r in traced)
            / statistics.median(pass_timings(r)["solve_s"] for r in plain),
            "ratio")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace_{workload}_seed{seed}.json"
        path.write_text(json.dumps(traced[0]["trace"], indent=1) + "\n")
        notes.append(f"spans written to {path.relative_to(HERE.parent)}")
    else:
        setups = [setup_time(spawn(["--setup-only"], None, deadline))
                  for _ in range(SETUP_SAMPLES - MIN_PASSES)]
        runs = []
        start = time.monotonic()
        while another_fits(len(runs), start, seconds):
            batch = items if fixed else workloads.generate(workload, seed, len(runs))
            runs.append((batch, spawn([], batch, deadline)))
        setups += [setup_time(r) for _, r in runs]
        per_pass = [pass_timings(r) for _, r in runs]
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["solve_s"] = (statistics.median(p["solve_s"] for p in per_pass), "s")
        calls = [t for p in per_pass for t in p["item_ms"]]
        metrics["item_p50_ms"] = (statistics.median(calls), "ms")
        metrics["item_p90_ms"] = (statistics.quantiles(
            calls, n=10, method="inclusive")[8], "ms")
        metrics["peak_rss_mb"] = (statistics.median(
            p["peak_rss_mb"] for p in per_pass), "MB")
        notes.append(f"{len(runs)} passes; pass timings are medians over "
                     f"passes, item percentiles over the {len(calls)} calls "
                     f"of all passes; "
                     f"setup_s is the median of {len(setups)} interpreter starts")
        notes.append("unscaled solve time per pass (s): " + ", ".join(
            f"{p['raw_solve_s']:.3f}" for p in per_pass))
    reasons = [r for batch, run in runs
               for r in failures(batch, run["outputs"], refs)]
    attempted = sum(len(batch) for batch, _ in runs)
    return {"metrics": metrics, "attempted": attempted, "failed": len(reasons),
            "reasons": reasons, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: package source {PACKAGE} not found; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in result["notes"]:
        print(note)
    if args.workload == "cli_session":
        for defect in KNOWN_DEFECTS:
            print(f"known defect: {defect}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    print(f"fail_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} items)")
    for reason in result["reasons"][:20]:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
