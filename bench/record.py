"""Record the reference values the benchmark checks outputs against.

    python3 bench/record.py

Writes ``references.json`` next to this file, one entry per canonical
problem of the workloads.  No value is taken from one evaluation alone; each
is accepted only when independent paths agree, and the names of the checks
that held are stored with it:

- ``turn-around``: H, the cover count and the multiset of multiplicities of p
  equal those of p turned around (x -> -x, k -> -k);
- ``chamber``: in genus 0 at n <= 6, the chamber polynomial at a generic x
  evaluates to H there;
- ``chamber-points``: a recorded chamber polynomial equals the cover count at
  further integer points of the same chamber;
- ``genus-1 family``: H_1((span + k, k - span)) = span (span^2 - 1) / 12 - k / 24;
- ``golden``: H_1((7, -3, -1), (1, 0, 0)) = 51/4 and the chamber polynomial
  3*x1 - 3 at (6, -1, -1, 1, -2), (1, 0, 0, 0, 0).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from leakyhurwitz import (Problem, chamber_polynomial,  # noqa: E402
                          enumerate_covers)

COVERS_LISTED = {workloads.problem_id(*p) for p in workloads.CLI_POOLS["covers"]}
GOLDEN_H = {workloads.problem_id(1, 1, (7, -3, -1), (1, 0, 0)): "51/4"}
GOLDEN_POLY = {workloads.problem_id(0, 1, (6, -1, -1, 1, -2), (1, 0, 0, 0, 0)):
               "3*x1 - 3"}


def _covers(p: Problem):
    covers = enumerate_covers(p)
    return (sum((wc.multiplicity for wc in covers), Fraction(0)), len(covers),
            sorted(wc.multiplicity for wc in covers if wc.multiplicity != 0))


def _same_chamber_points(x, k, limit=4):
    """Integer points near x on the degree hyperplane with x's wall signs."""
    n = len(x)
    subsets = workloads.wall_subsets(n)

    def signs(y):
        return [sum(y[i - 1] for i in s) > k * (len(s) - 1) for s in subsets]

    want = signs(x)
    found = []
    for i in range(n - 1):
        for step in (1, -1, 2, -2, 3, -3):
            y = list(x)
            y[i] += step
            y[-1] -= step
            if not workloads.on_wall(y, k) and signs(y) == want and y not in found:
                found.append(y)
            if len(found) == limit:
                return found
    return found


def record(g: int, k: int, x, e) -> dict:
    p = Problem.of(g, k, x, e)
    H, count, mults = _covers(p)
    checks = []
    if _covers(p.turned_around()) == (H, count, mults):
        checks.append("turn-around")
    else:
        raise AssertionError(f"turn-around disagrees for {p}")
    entry = {"H": str(H), "covers": count}
    pid = workloads.problem_id(g, k, x, e)
    if pid in COVERS_LISTED:
        entry["mults"] = [str(m) for m in mults]
    if g == 0 and len(x) <= 6 and not workloads.on_wall(x, k):
        poly = chamber_polynomial(p)
        if poly.eval(tuple(x[:-1])) != H:
            raise AssertionError(f"chamber polynomial misses H at {p}")
        checks.append("chamber")
        points = _same_chamber_points(x, k)
        for y in points:
            value = sum((wc.multiplicity for wc in
                         enumerate_covers(Problem.of(0, k, y, e))), Fraction(0))
            if poly.eval(tuple(y[:-1])) != value:
                raise AssertionError(f"chamber polynomial misses H at {y}")
        if points:
            checks.append("chamber-points")
        entry["poly"] = str(poly)
        if pid in GOLDEN_POLY and entry["poly"] != GOLDEN_POLY[pid]:
            raise AssertionError(f"golden polynomial changed: {poly}")
    if g == 1 and len(x) == 2 and e == (0, 0) and k > 0:
        if H != workloads.genus1_family(k, x):
            raise AssertionError(f"genus-1 family formula fails at {p}")
        checks.append("genus-1 family")
    if pid in GOLDEN_H or pid in GOLDEN_POLY:
        if pid in GOLDEN_H and entry["H"] != GOLDEN_H[pid]:
            raise AssertionError(f"golden H changed: {H}")
        checks.append("golden")
    entry["checks"] = checks
    return entry


def canonical_problems():
    yield from ((0, k, x, e) for k, x, e in workloads.G0_NUMBER)
    yield from ((2, k, x, (0,) * len(x)) for k, x in workloads.G2_SCAN)
    for pool in workloads.CLI_POOLS.values():
        yield from pool


def main() -> None:
    refs = {}
    for g, k, x, e in canonical_problems():
        pid = workloads.problem_id(g, k, x, e)
        if pid not in refs:
            refs[pid] = record(g, k, x, e)
            print(pid, refs[pid]["H"], refs[pid]["checks"], flush=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
