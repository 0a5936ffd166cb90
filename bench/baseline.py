"""Measure the benchmark over several seeds and report its spread.

    python3 bench/baseline.py [--seeds 1-10] [--workloads a,b] [--write]

Runs ``run.py`` once per (workload, seed) untraced and once per workload
traced (first seed), from the root of the checkout, with ``run_seconds`` from
``BENCHMARK.json``.  For every end-to-end metric it prints the median, the
quartiles and their distance as a share of the median, next to the metric's
bound.  ``--write`` stores all of it, the reason for each workload and the
per-layer baseline in ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "enumeration.types.*": "solve_s on g0_number; item_p90_ms on cli_session; "
                           "about 0 on g2_scan",
    "enumeration.flow_scan.*": "solve_s on g2_scan; trees have no free weights, "
                               "so one solve per type elsewhere",
    "enumeration.linear_extensions.*, covers.assemble_multiplicity.*, "
    "vertexdata.oracle.*": "solve_s and peak_rss_mb on g0_number; 0 on "
                           "g0_wallcross",
    "chambers.walls.*, chambers.flanking.*, chambers.chamber_polynomial.*, "
    "chambers.contribution.hit_ratio": "solve_s and item_p90_ms on "
                                       "g0_wallcross; 0 on g0_number and g2_scan",
    "exactarith.*": "solve_s on g0_wallcross; 0 on the numeric workloads",
    "cli.self.s, covers.to_json.s, chambers.classify.s": "item_p50_ms on "
                                                         "cli_session",
    "vertexdata.fixtures_load.s": "item_p50_ms on cli_session and setup_s",
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    out = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
           "layer_map": LAYER_MAP, "workloads": {}}
    for workload in args.workloads.split(","):
        started = time.monotonic()
        results = [run(workload, seed, spec["run_seconds"], 0)
                   for seed in args.seeds]
        traced = run(workload, args.seeds[0], spec["run_seconds"], 1)
        items = workloads.generate(workload, args.seeds[0])
        entry = {"why": why[workload], "items_per_pass": len(items),
                 "seen_gne_share": workloads.seen_share(items),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}, "per_layer": traced["metrics"]}
        print(f"{workload}: {len(results)} runs in "
              f"{time.monotonic() - started:.0f} s, "
              f"failed {entry['failed']} of {entry['attempted']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"  {name:14s} median {median:12.6g}  spread {spread:7.4f}  "
                  f"bound {bound}{'  WIDE' if spread > bound / 3 else ''}")
        out["workloads"][workload] = entry
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
