"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from leakyhurwitz import Problem, validate_problem  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_gives_the_same_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_keep_the_canonical_items_and_their_sharing(workload):
    def canonical(items):
        return sorted(json.dumps([i.get("ref"), i.get("command"), i["op"]])
                      for i in items)

    a, b = workloads.generate(workload, 7), workloads.generate(workload, 8)
    later_pass = workloads.generate(workload, 7, 1)
    assert later_pass != a
    for other in (b, later_pass):
        assert canonical(a) == canonical(other)
        assert workloads.seen_share(a) == workloads.seen_share(other)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_input_is_a_valid_problem(workload):
    for item in workloads.generate(workload, 7):
        n = len(item["e"])
        x = item.get("x", [item["k"] * (n - 2)] + [0] * (n - 1))
        validate_problem(Problem.of(item.get("g", 0), item["k"], x, item["e"]))


def test_every_reference_is_recorded():
    refs = workloads.load_references()
    for workload in workloads.WORKLOADS:
        for item in workloads.generate(workload, 7):
            if "ref" in item:
                assert item["ref"] in refs, item


def _sample():
    """One item of every kind that has a reference, plus a wall crossing;
    the compute_H item is the cheapest of g2_scan."""
    cheapest = workloads.problem_id(2, 0, (7, -7), (0, 0))
    picked = {item["op"]: item for item in workloads.generate("g2_scan", 7)
              if item["ref"] == cheapest}
    for item in workloads.generate("cli_session", 7):
        kind = item["command"]
        on_wall = kind == "polynomial" and workloads.on_wall(item["x"], item["k"])
        if not on_wall and kind not in picked:
            picked[kind] = item
    assert set(picked) == {"H", "number", "covers", "polynomial", "classify",
                           "wallcross"}
    return picked


def _corrupt(kind, ref):
    if kind in ("H", "classify"):
        ref["H"] = "1" if Fraction(ref["H"]) == 0 else "0"
    elif kind == "number":
        ref["covers"] += 1
    elif kind == "covers":
        ref["mults"][0] = str(Fraction(ref["mults"][0]) + 1)
    elif kind == "polynomial":
        ref["poly"] = ref["poly"] + " + 1"


def test_outputs_pass_and_corrupted_references_fail():
    picked = _sample()
    items = list(picked.values())
    refs = workloads.load_references()
    result = run.spawn([], items, deadline=run.time.monotonic() + 120)
    assert run.failures(items, result["outputs"], refs) == []
    for kind, item in picked.items():
        if kind == "wallcross":
            continue
        bad = copy.deepcopy(refs)
        _corrupt(kind, bad[item["ref"]])
        reasons = run.failures(items, result["outputs"], bad)
        assert len(reasons) == 1, (kind, reasons)


def test_corrupted_reference_gives_nonzero_fail_frac():
    item = _sample()["number"]
    refs = workloads.load_references()
    bad = copy.deepcopy(refs)
    _corrupt("number", bad[item["ref"]])
    good = run.measure("cli_session", 7, 0, False, refs=refs, items=[item])
    worse = run.measure("cli_session", 7, 0, False, refs=bad, items=[item])
    assert good["failed"] == 0
    assert worse["failed"] / worse["attempted"] > 0
    assert set(good["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_per_layer_names_match_the_spec():
    names = set(run.layer_metrics({"spans": {}, "counts": {}}))
    names.add("trace.overhead_ratio")
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_a_wrong_crossing_fails():
    item = {"op": "cross", "k": 1, "e": [0] * 5, "subset": [1, 2]}
    assert workloads.check(item, ["x1", "x1", True], {}) is None
    assert workloads.check(item, ["x1", "x2", False], {}) is not None
