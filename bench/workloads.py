"""Benchmark inputs and their verification.

Every workload is a fixed list of canonical items, and the seed never changes
that list.  The seed and the pass index shuffle the order, and on the numeric
path they also vary the concrete inputs by exact symmetries of H:

- for each item with a profile on the numeric path (``compute_H`` and the
  ``number``, ``covers`` and ``classify`` commands), whether it is turned
  around (x -> -x, k -> -k);
- in ``g0_number`` and ``g2_scan``, one relabelling of the markings per
  marking count n, applied to every item with n markings.

H, the cover multiset and the classification do not change, and items that
share a (g, n, e) type-cache key keep sharing one, so every seed costs the
same and has the same references.  Chamber polynomials and wall crossings are
left as they are: their caches key on k, and their flanking points on the
labels of the wall, so a symmetry would change their cost.

The references in ``references.json`` were recorded from paths independent of
the timed one (see ``record.py``); ``check`` compares an item's output with
them, or with the closed-form wall crossing computed in the same item.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

WORKLOADS = ("g0_number", "g2_scan", "g0_wallcross", "cli_session")

# Genus-0 compute_H at n in {7, 8}, k in {0, 1, 2}, on signed profiles drawn
# once from a fixed stream: several profiles share each (n, e) and so its
# tree types.  Every item takes at most about 0.4 s, so that the speed probes
# around it (see worker.py) still describe it.  n = 8 at e = 0 (10,395 types,
# about 56,700 covers) and at |e| = 1 (1 s and more) are left out for that
# reason.
def _g0_pool():
    rng = random.Random("g0-pool")
    pool = []
    for n, psi, count in ((7, (), 8), (7, (1,), 4), (7, (1, 1), 3), (7, (2,), 3),
                          (8, (1, 1), 6), (8, (2,), 3)):
        e = psi + (0,) * (n - len(psi))
        for _ in range(count):
            k = rng.choice((0, 1, 2))
            while True:
                x = [rng.randint(-6, 6) for _ in range(n - 1)]
                x.append(k * (n - 2) - sum(x))
                if 0 < abs(x[-1]) <= 8:
                    break
            pool.append((k, tuple(x), e))
    return pool


G0_NUMBER = _g0_pool()

# Genus-2 compute_H at e = 0, n in {2, 3}: every cover has cycles, so the
# free-weight flow scan dominates.  The builtin fixtures hold every genus-1
# vertex key these need.  n = 3 at k != 0 is left out: each such item takes
# 1.5 s or more.
G2_SCAN = [
    (0, (7, -7)), (0, (9, -9)), (0, (12, -12)), (0, (15, -15)), (0, (20, -20)),
    (-1, (-3, -1)), (-1, (-2, -2)), (-1, (-7, 3)), (-1, (-10, 6)),
    (1, (5, -1)), (1, (3, 1)), (1, (8, -4)), (1, (10, -6)),
    (2, (6, 2)), (2, (9, -1)), (2, (5, 3)), (2, (4, 4)),
    (0, (2, -1, -1)), (0, (3, -1, -2)), (0, (2, 2, -4)), (0, (6, -3, -3)),
    (0, (4, 4, -8)), (0, (8, -5, -3)), (0, (5, 5, -10)),
]

# Wall-crossing groups (n, k, e) from the grid of the acceptance sweep; each
# crosses every wall.  n = 6 at e = 0 is the costliest chamber case
# (degree-3 polynomials).
WALLCROSS = ([(5, k, e) for e in ((0,) * 5, (1, 0, 0, 0, 0), (2, 0, 0, 0, 0),
                                  (1, 1, 0, 0, 0)) for k in (0, 1, 2)]
             + [(6, k, e) for e in ((1, 1, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0))
                for k in (0, 1, 2)]
             + [(6, 1, (1, 0, 0, 0, 0, 0)), (6, 1, (0,) * 6)])


def problem_id(g: int, k: int, x, e) -> str:
    return f"{g}|{k}|{','.join(map(str, x))}|{','.join(map(str, e))}"


def wall_subsets(n: int) -> list[tuple[int, ...]]:
    """One subset per wall: I and its complement give the same wall."""
    out = []
    for size in range(2, n - 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            comp = tuple(i for i in range(1, n + 1) if i not in subset)
            if subset < comp:
                out.append(subset)
    return out


def on_wall(x, k) -> bool:
    """True when sum_{i in I} x_i = k (|I| - 1) for some 2 <= |I| <= n - 2."""
    return any(sum(x[i - 1] for i in subset) == k * (len(subset) - 1)
               for subset in wall_subsets(len(x)))


def _cli_pools():
    """The CLI session's canonical problems, drawn once from a fixed stream
    (the benchmark seed does not touch them): genus-0 points off every wall
    at n = 4..6 with every admissible psi total, a few on a wall, the zero
    cases of the classifier, the goldens and the genus-1 family."""
    rng = random.Random("cli-pool")

    def problem(n, on_a_wall=False):
        k = rng.choice((0, 1, 2))
        e = [0] * n
        for _ in range(rng.randint(0, n - 3)):
            e[rng.randrange(n)] += 1
        while True:
            x = [rng.randint(-6, 7) for _ in range(n - 1)]
            x.append(k * (n - 2) - sum(x))
            if abs(x[-1]) <= 9 and on_wall(x, k) == on_a_wall:
                return (0, k, tuple(x), tuple(e))

    golden = (1, 1, (7, -3, -1), (1, 0, 0))
    family = [(1, k, (span + k, -(span - k)), (0, 0))
              for k in (1, 2) for span in range(2, 7)]
    number = [golden] + family + [problem(n) for n in (4, 5, 6) * 16]
    covers = [golden, family[-1]] + [problem(n) for n in (4, 5) * 10]
    polynomial = ([(0, 1, (6, -1, -1, 1, -2), (1, 0, 0, 0, 0))]
                  + [problem(n) for n in (4, 5, 6) * 8]
                  + [problem(n, on_a_wall=True) for n in (4, 5, 6, 6)])
    classify = ([(0, 2, (1, 1, 1, 1), (0, 0, 0, 0)),
                 (0, 4, (2, 2, 2, 2), (0, 0, 0, 0)),
                 (0, 2, (1, 1, 1, 1, 2), (0,) * 5),
                 (0, 2, (2, 1, 1, 1, 1), (1, 0, 0, 0, 0)),
                 (0, 0, (0,) * 5, (0,) * 5)]
                + [problem(n) for n in (4, 5, 6) * 6])
    wallcross = []
    for n in (4, 5, 6) * 6:
        _, k, _, e = problem(n)
        wallcross.append((n, k, e, rng.choice(wall_subsets(n))))
    return {"number": number, "covers": covers, "polynomial": polynomial,
            "classify": classify}, wallcross


CLI_POOLS, CLI_WALLCROSS = _cli_pools()


def _canonical(workload: str) -> list[dict]:
    """The workload's items before the seed's symmetries."""
    if workload == "g0_number":
        return [{"op": "H", "g": 0, "k": k, "x": x, "e": e}
                for k, x, e in G0_NUMBER]
    if workload == "g2_scan":
        return [{"op": "H", "g": 2, "k": k, "x": x, "e": (0,) * len(x)}
                for k, x in G2_SCAN]
    if workload == "g0_wallcross":
        return [{"op": "cross", "k": k, "e": e, "subset": s}
                for n, k, e in WALLCROSS for s in wall_subsets(n)]
    if workload == "cli_session":
        items = [{"op": "cli", "command": command, "g": g, "k": k, "x": x,
                  "e": e}
                 for command, pool in CLI_POOLS.items()
                 for g, k, x, e in pool]
        items += [{"op": "cli", "command": "wallcross", "k": k, "e": e,
                   "subset": s} for _, k, e, s in CLI_WALLCROSS]
        return items
    raise ValueError(f"unknown workload {workload!r}")


def _transform(item: dict, perm: list[int], turn: bool) -> dict:
    """Relabel marking perm[j] + 1 as j + 1 and, if ``turn``, turn around."""
    out = dict(item, e=tuple(item["e"][i] for i in perm))
    if "x" in item:
        out["ref"] = problem_id(item["g"], item["k"], item["x"], item["e"])
        sign = -1 if turn else 1
        out["k"] = sign * item["k"]
        out["x"] = tuple(sign * item["x"][i] for i in perm)
    if item["op"] == "cli":
        # "--profile=" keeps a leading negative entry from being read as an
        # option (see KNOWN_DEFECTS in run.py)
        argv = [item["command"], f"--leak={out['k']}",
                "--psi=" + ",".join(map(str, out["e"]))]
        if "x" in item:
            argv += [f"--genus={item['g']}",
                     "--profile=" + ",".join(map(str, out["x"]))]
        else:
            argv += [f"--markings={len(perm)}",
                     "--subset=" + ",".join(map(str, item["subset"]))]
        out["argv"] = argv
    return out


def generate(workload: str, seed: int, pass_index: int = 0) -> list[dict]:
    """The item list of one pass of a workload; equal seeds and pass indices
    give equal lists.  Passes of one seed draw the symmetries and the order
    anew, but run the same canonical items."""
    rng = random.Random(f"{workload}:{seed}" + (f":{pass_index}" if pass_index
                                                else ""))
    relabel = workload in ("g0_number", "g2_scan")
    perms: dict[int, list[int]] = {}
    items = []
    for item in _canonical(workload):
        n = len(item["e"])
        if n not in perms:
            perms[n] = rng.sample(range(n), n) if relabel else list(range(n))
        numeric = item["op"] == "H" or item.get("command") in (
            "number", "covers", "classify")
        turn = numeric and rng.random() < 0.5
        items.append(_transform(item, perms[n], turn))
    rng.shuffle(items)
    return [json.loads(json.dumps(item)) for item in items]


def seen_share(items: list[dict]) -> float:
    """Share of items whose (g, n, e) appeared earlier in the list."""
    seen: set[tuple] = set()
    repeats = 0
    for item in items:
        key = (item.get("g", 0), tuple(item["e"]))
        repeats += key in seen
        seen.add(key)
    return repeats / len(items)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def genus1_family(k: int, x) -> Fraction:
    """Closed form of H_1((span + k, k - span)) = span (span^2 - 1) / 12 - k / 24,
    for k > 0 and for its relabelled and turned-around images."""
    span = abs(x[0] - x[1]) // 2
    return Fraction(span * (span - 1) * (span + 1), 12) - Fraction(abs(k), 24)


def check(item: dict, output, refs: dict) -> str | None:
    """None when the output is right, else a one-line reason."""
    if isinstance(output, dict) and "raised" in output:
        return f"raised {output['raised']}"
    if item["op"] == "H":
        want = refs[item["ref"]]["H"]
        return None if output == want else f"H = {output}, reference {want}"
    if item["op"] == "cross":
        computed, closed, equal = output
        if equal and computed == closed:
            return None
        return f"computed {computed} differs from closed form {closed}"
    code, stdout = output
    command = item["command"]
    if command == "polynomial" and on_wall(item["x"], item["k"]):
        return None if code == 4 else f"exit {code} on a point on a wall"
    if code != 0:
        return f"exit {code}"
    data = json.loads(stdout)
    if command == "wallcross":
        if data["equal"] is True and data["computed"] == data["formula"]:
            return None
        return "computed crossing differs from the closed form"
    ref = refs[item["ref"]]
    if command == "number":
        want = ref["H"]
        if item["g"] == 1 and len(item["x"]) == 2:
            want = str(genus1_family(item["k"], item["x"]))
        ok = data == {"H": want, "covers": ref["covers"]}
        return None if ok else f"number {data}, reference H={want}"
    if command == "covers":
        mults = sorted(Fraction(c["multiplicity"]) for c in data)
        want = sorted(Fraction(m) for m in ref["mults"])
        return None if mults == want else "cover multiplicities differ"
    if command == "classify":
        want = "Zero" if Fraction(ref["H"]) == 0 else "Positive"
        got = data["classification"]
        return None if got == want else f"classified {got}, H says {want}"
    if command == "polynomial":
        got = data["normal_form"]
        want = ref["poly"]
        return None if got == want else f"polynomial {got}, reference {want}"
    raise ValueError(f"unknown command {command!r}")
