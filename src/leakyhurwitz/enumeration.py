"""Enumeration of tropical leaky covers up to isomorphism.

The pipeline runs in three stages:

1. combinatorial types: decorated multigraphs (vertex genera, marking
   partition, edge multiset) satisfying the valence law, connectivity and
   the genus decomposition, deduplicated by a canonical certificate.  Only
   the edge degrees d(v) = val(v) - |ends(v)| >= 1 (>= 0 on a lone vertex)
   are tested: the valence law makes sum_v d(v) = |e| + 3V - 2(g - h1) - n,
   h1 = g - sum_v g(v), that is 2(V - 1 + h1) as V = 2g - 2 + n - |e|; and
   val(v) = 0 would be a lone vertex with n = 0, but then V = 2g - 2 is even.
   ``_types_for`` splits this stage in two: a shape stage enumerates and
   canonicalizes the multigraphs once per shape (genera, number of marked
   vertices, edge degrees), and a labelling stage gives each marking
   partition the canonical multigraphs of its shape;
2. weights: edge flows solving the balance law.  On a tree the flows are
   determined and come out as affine-linear forms in x and k; each cycle
   edge contributes one free integer weight, bounded by the proven
   B = max(P, N) of ``weight_bound`` (P and N the positive and negative
   degree totals): an edge crossing a position cut points right, so its
   weight is at most the cut flow, which is at most P for k >= 0 and N for
   k <= 0.  The free weights are fixed one at a time, each over the
   interval that keeps the edges it settles within [-B, B]
   (``_admissible_flows``), which yields exactly what a scan of the box
   [-B, B]^h would, in the same order;
3. positions: every linear extension of the orientation induced by positive
   flows yields one cover, since vertices occupy distinct ordered positions
   on the target line.  ``compute_H`` counts them rather than lists them.

``_types_for`` compiles each type once (``_compile``), and caches that one
record per type: it feeds counting, listing and the genus-0 chamber
polynomials of ``chambers``.  What a record takes from its edges alone
(``_edge_structure``: spanning tree, unit flows, parallel runs) is built
once per edge tuple and shared.  A tree edge's flow is the cut
expression S[mask] - k c of the markings ``mask`` and the summed mu(v) =
2g(v) - 2 + val(v) on its tail side, S being the subset sums of x; cycle
edges add the unit flows of the free weights.  In genus 0 a vertex factor
is a multinomial that ignores the flows, so the record folds them into one
integer.  Counting a problem is then integer arithmetic, with the fixture
table read (by ``vertexdata.vertex_mult``) for genus >= 1 vertices only.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

from . import vertexdata
from .covers import (CoverGraph, Problem, WeightedCover,
                     assemble_multiplicity, is_connected)
from .vertexdata import VertexKey, genus0_vertex_mult


class CombinatorialType(NamedTuple):
    """A decorated multigraph in canonical form, compiled once for counting,
    listing and chambers, all in small integers.

    ``edges`` lists unordered pairs (u, v) with u < v, repeated with
    multiplicity and sorted; parallel edges are therefore adjacent.

    ``cuts`` holds a pair (mask, c) per edge, flattened.  The edge's flow,
    in its stored (u, v) direction and with every free weight at 0, is the
    cut expression ``S[mask] - k * c``: ``mask`` is the set of markings (bit
    i-1 for marking i) on the tail side of the spanning-tree cut through the
    edge, ``c`` the sum of mu(v) = 2g(v) - 2 + val(v) over that side and
    ``S`` the subset sums of x; the head side has the complementary mask and
    2g-2+n - c.  Free (non-tree) edges hold mask 0 and c 0.

    ``units`` are the flows of one unit on each free edge, ``runs`` the
    (start, stop) index ranges of parallel edges, ``genus0_factor`` the
    product of the genus-0 vertex multinomials, and ``higher`` one (genus,
    marking indices, inbound edges, outbound edges, psi) record per
    genus >= 1 vertex, in vertex order.
    """

    vertex_genus: tuple[int, ...]
    vertex_ends: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    cuts: tuple[int, ...]
    units: tuple[tuple[int, ...], ...]
    runs: tuple[tuple[int, int], ...]
    genus0_factor: int
    higher: tuple[tuple, ...]

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_genus)


def _end_partitions(n: int, blocks: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Set partitions of 1..n into at most ``blocks`` parts, padded with
    empty parts; parts ordered by smallest element, empty parts last."""
    if n == 0:
        yield ((),) * blocks
        return
    labels = [0] * n

    def rec(i: int, top: int):
        if i == n:
            parts: list[list[int]] = [[] for _ in range(blocks)]
            for j, lab in enumerate(labels):
                parts[lab].append(j + 1)
            yield tuple(tuple(part) for part in parts)
            return
        for lab in range(min(top + 1, blocks - 1) + 1):
            labels[i] = lab
            yield from rec(i + 1, max(top, lab))

    yield from rec(1, 0) if blocks > 0 else iter(())


def _genus_vectors(blocks: int, g: int) -> Iterator[tuple[int, ...]]:
    if g == 0:
        yield (0,) * blocks
        return
    for combo in itertools.product(range(g + 1), repeat=blocks):
        if sum(combo) <= g:
            yield combo


def _edge_multisets(degrees: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Loopless multigraphs on range(V) with the given edge degrees."""
    V = len(degrees)
    pairs = [(u, v) for u in range(V) for v in range(u + 1, V)]
    rem = list(degrees)
    acc: list[tuple[int, int]] = []

    def rec(idx: int):
        if idx == len(pairs):
            if all(r == 0 for r in rem):
                yield tuple(acc)
            return
        u, v = pairs[idx]
        cap = min(rem[u], rem[v])
        for m in range(cap + 1):
            rem[u] -= m
            rem[v] -= m
            # (u, V-1) is the last pair touching u
            if v != V - 1 or rem[u] == 0:
                acc.extend([(u, v)] * m)
                yield from rec(idx + 1)
                del acc[len(acc) - m:]
            rem[u] += m
            rem[v] += m

    yield from rec(0)


def _canonical_type(genera: Sequence[int], ends: Sequence[tuple[int, ...]],
                    edges: Sequence[tuple[int, int]]) -> tuple:
    """Relabel vertices canonically: the (genera, ends, edges) triple.

    Marked vertices are pinned by their smallest marking; runs of unmarked
    vertices of equal genus are interchangeable, and the smallest edge tuple
    over their permutations wins.  A run has one genus and no ends, so the
    genera and ends in position order do not depend on the permutation.
    """
    V = len(genera)
    base = sorted(range(V),
                  key=lambda v: (0, ends[v][0]) if ends[v] else (1, genera[v]))
    position = {v: pos for pos, v in enumerate(base)}
    placed = [(position[a], position[b]) for a, b in edges]
    unmarked = [pos for pos, v in enumerate(base) if not ends[v]]
    runs = [run for run in (tuple(group) for _, group in itertools.groupby(
                unmarked, key=lambda pos: genera[base[pos]]))
            if len(run) > 1]
    best: tuple[tuple[int, int], ...] | None = None
    label = list(range(V))
    for assignment in itertools.product(
            *(itertools.permutations(run) for run in runs)):
        for run, perm in zip(runs, assignment):
            for pos, new_pos in zip(run, perm):
                label[pos] = new_pos
        relabeled = tuple(sorted(
            (label[a], label[b]) if label[a] < label[b] else (label[b], label[a])
            for a, b in placed))
        if best is None or relabeled < best:
            best = relabeled
    return (tuple(genera[v] for v in base),
            tuple(tuple(ends[v]) for v in base), best)


@functools.lru_cache(maxsize=128)
def _types_for(g: int, n: int, e: tuple[int, ...]) -> tuple[CombinatorialType, ...]:
    """Every combinatorial type of (g, n, e), compiled, in sorted order.

    The multigraphs are enumerated once per shape (genera, m, degs), m the
    number of non-empty blocks of a marking partition, and then labelled
    with each partition of that shape.  ``_end_partitions`` puts the m
    non-empty blocks first, by smallest element, so ``_canonical_type``'s
    base order keeps them in place and only sorts the unmarked vertices
    m..V-1 by genus; the runs it permutes are then fixed by genera and m as
    well.  Its canonical genera and edges thus depend only on (genera, m,
    edges), its canonical ends are the blocks themselves, and the edges
    depend on the blocks only through degs.  Edge structures (spanning
    tree, unit flows, parallel runs) depend only on the canonical edges and
    are built once per edge tuple.
    """
    V = 2 * g - 2 + n - sum(e)
    least = 1 if V > 1 else 0  # a connected graph's vertices have edges
    shapes: dict[tuple, set[tuple]] = {}
    found: set[tuple] = set()
    for blocks in _end_partitions(n, V):
        m = sum(1 for part in blocks if part)
        psi_sums = [sum(e[i - 1] for i in part) for part in blocks]
        for genera in _genus_vectors(V, g):
            degs = tuple(psi_sums[v] + 3 - 2 * genera[v] - len(blocks[v])
                         for v in range(V))
            if any(d < least for d in degs):
                continue
            shape = shapes.get((genera, m, degs))
            if shape is None:
                shape = shapes[genera, m, degs] = {
                    _canonical_type(genera, blocks, edges)[::2]
                    for edges in _edge_multisets(degs) if is_connected(V, edges)}
            found.update((genera_c, blocks, edges_c)
                         for genera_c, edges_c in shape)
    structures: dict = {}

    def structure(edges):
        if edges not in structures:
            structures[edges] = _edge_structure(V, edges)
        return structures[edges]

    return tuple(_compile(genera, ends, e, structure(edges))
                 for genera, ends, edges in sorted(found))


def _edge_structure(V: int, edges: tuple[tuple[int, int], ...]) -> tuple:
    """What a type's record takes from its edges alone: the edges, the
    spanning-tree walk as (vertex, parent edge) pairs leaves first, the
    incidence, the unit flows of the free edges and the parallel runs."""
    order, parent_edge, inc = _spanning_structure(V, edges)
    tree_idx = set(parent_edge.values())
    free_idx = [i for i in range(len(edges)) if i not in tree_idx]
    units = tuple(tuple(_solve_flows(edges, {i: int(i == j) for i in free_idx},
                                     order, parent_edge, inc))
                  for j in free_idx)
    runs, i = [], 0
    for _, group in itertools.groupby(edges):
        j = i + len(list(group))
        if j - i > 1:
            runs.append((i, j))
        i = j
    walk = tuple((v, parent_edge[v]) for v in reversed(order[1:]))
    return edges, walk, tuple(map(tuple, inc)), units, tuple(runs)


def _compile(genera: tuple[int, ...], ends: tuple[tuple[int, ...], ...],
             e: tuple[int, ...], structure: tuple) -> CombinatorialType:
    edges, walk, inc, units, runs = structure
    V = len(genera)
    side_mask = [sum(1 << (i - 1) for i in marks) for marks in ends]
    side_mu = [2 * genera[v] - 2 + len(inc[v]) + len(ends[v]) for v in range(V)]
    full, total = (1 << len(e)) - 1, sum(side_mu)
    cuts = [0] * (2 * len(edges))
    for v, idx in walk:  # leaves first: side_* of v is its subtree
        a, b = edges[idx]
        if a == v:
            cuts[2 * idx:2 * idx + 2] = side_mask[v], side_mu[v]
            parent = b
        else:
            cuts[2 * idx:2 * idx + 2] = full ^ side_mask[v], total - side_mu[v]
            parent = a
        side_mask[parent] |= side_mask[v]
        side_mu[parent] += side_mu[v]
    genus0_factor = 1
    higher = []
    for v, (genus, marks) in enumerate(zip(genera, ends)):
        psi = tuple(e[i - 1] for i in marks)
        if genus == 0:
            genus0_factor *= genus0_vertex_mult(len(inc[v]) + len(marks), psi)
        else:
            higher.append((genus, tuple(i - 1 for i in marks),
                           tuple(i for i in inc[v] if edges[i][1] == v),
                           tuple(i for i in inc[v] if edges[i][0] == v),
                           psi + (0,) * len(inc[v])))
    return CombinatorialType(genera, ends, edges, tuple(cuts), units, runs,
                             genus0_factor, tuple(higher))


def _incidence(V: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    inc: list[list[int]] = [[] for _ in range(V)]
    for idx, (a, b) in enumerate(edges):
        inc[a].append(idx)
        inc[b].append(idx)
    return inc


def _spanning_structure(V: int, edges: Sequence[tuple[int, int]]):
    """BFS tree from vertex 0 of a connected type (``_types_for`` keeps no
    other): discovery order, parent edge index per vertex."""
    inc = _incidence(V, edges)
    parent_edge: dict[int, int] = {}
    order = [0]
    seen = {0}
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for idx in inc[v]:
            a, b = edges[idx]
            u = b if a == v else a
            if u not in seen:
                seen.add(u)
                parent_edge[u] = idx
                order.append(u)
    return order, parent_edge, inc


def _solve_flows(edges: Sequence[tuple[int, int]], fixed: dict[int, int],
                 order, parent_edge, inc) -> list:
    """Solve the balance system for the tree flows, leaf to root.

    Every vertex has net outflow 0; flows are signed relative to the stored
    (u, v) direction.
    """
    flows: dict[int, int] = dict(fixed)
    for v in reversed(order[1:]):
        e = parent_edge[v]
        acc = 0
        for idx in inc[v]:
            if idx == e:
                continue
            f = flows[idx]
            if edges[idx][0] == v:
                acc = acc - f
            else:
                acc = acc + f
        flows[e] = acc if edges[e][0] == v else -acc
    return [flows[i] for i in range(len(edges))]


def weight_bound(p: Problem) -> int:
    """Bound on every edge weight of a cover of p: max(P, N), where P and N
    are the totals of the positive and of the negative degrees.

    An edge crosses the cut between two adjacent positions pointing right,
    so its weight is at most the cut flow sum_{v in L}(sum_{i at v} x_i -
    k mu(v)), where mu(v) = 2g(v) - 2 + val(v) >= 1 by the valence law.
    For k >= 0 that is at most P; for k <= 0 it equals
    sum_{v in R}(k mu(v) - sum_{i at v} x_i) and so is at most N.
    P - N = k(2g-2+n) makes either case max(P, N).
    """
    return max(sum(v for v in p.x if v > 0), -sum(v for v in p.x if v < 0))


def _canonical_parallel(runs: Sequence[tuple[int, int]],
                        flows: Sequence[int]) -> bool:
    """Keep one representative per permutation of parallel edges: the flows
    ascend along each run."""
    return all(flows[a] <= flows[a + 1] for i, j in runs for a in range(i, j - 1))


def count_linear_extensions(num_vertices: int,
                            arcs: Sequence[tuple[int, int]]) -> int:
    """Number of total orders extending the arc relation.

    The count depends only on each vertex's set of predecessors, so it is
    memoized on those sets (``_count_extensions``).
    """
    preds = [0] * num_vertices
    for a, b in arcs:
        preds[b] |= 1 << a
    return _count_extensions(tuple(preds))


@functools.lru_cache(maxsize=1024)
def _count_extensions(preds: tuple[int, ...]) -> int:
    """Dynamic programming over downward-closed vertex subsets, ``preds[v]``
    the bit mask of v's predecessors; a cyclic relation admits no extension
    and counts 0."""
    V = len(preds)
    full = (1 << V) - 1
    counts = [0] * (full + 1)
    counts[0] = 1
    for mask in range(full + 1):
        c = counts[mask]
        if not c:
            continue
        for v in range(V):
            bit = 1 << v
            if not mask & bit and (preds[v] & mask) == preds[v]:
                counts[mask | bit] += c
    return counts[full]


def linear_extensions(num_vertices: int,
                      arcs: Sequence[tuple[int, int]]) -> Iterator[tuple[int, ...]]:
    """Generate the extensions counted by :func:`count_linear_extensions`."""
    preds: list[set[int]] = [set() for _ in range(num_vertices)]
    for a, b in arcs:
        preds[b].add(a)
    placed: list[int] = []
    used: set[int] = set()

    def rec():
        if len(placed) == num_vertices:
            yield tuple(placed)
            return
        for v in range(num_vertices):
            if v not in used and preds[v] <= used:
                used.add(v)
                placed.append(v)
                yield from rec()
                placed.pop()
                used.discard(v)

    yield from rec()


def _admissible_flows(p: Problem, types: Sequence[CombinatorialType]
                      ) -> Iterator[tuple[CombinatorialType, list[int]]]:
    """Each type of p with each of its integer flow vectors that
    has no zero flow and is canonical on parallel edges; with cycles, also
    none above :func:`weight_bound`.

    Every flow is affine in the free weights: base + sum_j w_j * units[j].
    The weights are fixed one at a time, in unit order.  An edge that unit
    j moves and no later unit moves is settled once w_j is fixed, and its
    unit entry is +-1, so |flow| <= B cuts w_j down to an interval; each
    level walks its interval upwards, skipping 0 as the box does.  Every
    skipped prefix settles an edge above B, so no completion of it passes
    the final test, which every complete vector still takes.  The vectors
    yielded are thus those of the box of nonzero weights in [-B, B]^h that
    pass it, in the box's lexicographic order.
    """
    sums = [0]  # sums[mask]: the degrees of the markings in mask
    for v in p.x:
        sums += [s + v for s in sums]
    k = p.k
    bound = weight_bound(p)

    def walk(t, settled, j, flows):
        lo, hi = -bound, bound
        for i, u in settled[j]:  # |flows[i] + w * u| <= bound, u = +-1
            lo = max(lo, -bound - u * flows[i])
            hi = min(hi, bound - u * flows[i])
        unit = t.units[j]
        last = j + 1 == len(t.units)
        for w in range(lo, hi + 1):
            if not w:
                continue
            nxt = [f + w * u for f, u in zip(flows, unit)]
            if not last:
                yield from walk(t, settled, j + 1, nxt)
            elif (all(f and -bound <= f <= bound for f in nxt)
                    and _canonical_parallel(t.runs, nxt)):
                yield t, nxt

    for t in types:
        pairs = iter(t.cuts)
        base = [sums[m] - k * cut for m, cut in zip(pairs, pairs)]
        if not t.units:
            if all(base):
                yield t, base
            continue
        settled: list[list[tuple[int, int]]] = [[] for _ in t.units]
        for i, column in enumerate(zip(*t.units)):
            moving = [j for j, u in enumerate(column) if u]
            if moving:
                settled[moving[-1]].append((i, column[moving[-1]]))
        yield from walk(t, settled, 0, base)


def _weighted_types(p: Problem) -> Iterator[tuple[CombinatorialType, tuple]]:
    """Each weighted type of p: its type and its edges (u, v, weight),
    oriented from u to v along the positive flows."""
    for t, flows in _admissible_flows(p, _types_for(p.genus, p.n, p.e)):
        yield t, tuple((a, b, f) if f > 0 else (b, a, -f)
                       for (a, b), f in zip(t.edges, flows))


def enumerate_covers(p: Problem,
                     fixtures: Mapping[VertexKey, Fraction] | None = None
                     ) -> list[WeightedCover]:
    """All covers for p up to isomorphism, each with its exact multiplicity.

    Every linear extension of a weighted type's orientation is a distinct
    cover (its own placement of vertices over the target line).  Each
    multiplicity is assembled vertex by vertex from ``fixtures`` (``None``:
    the builtin table).
    """
    table = fixtures if fixtures is not None else vertexdata.default_fixtures()
    out = [assemble_multiplicity(
               p, CoverGraph(t.vertex_genus, t.vertex_ends, edges, order),
               table)
           for t, edges in _weighted_types(p)
           for order in linear_extensions(t.num_vertices,
                                          [(a, b) for a, b, _ in edges])]
    out.sort(key=lambda wc: wc.cover.sort_key())
    return out


def count_covers(p: Problem,
                 fixtures: Mapping[VertexKey, Fraction] | None = None
                 ) -> tuple[Fraction, int]:
    """(H, number of covers) for p, the vertex factors above genus 0 read
    from ``fixtures`` (``None``: the builtin table).

    A multiplicity never reads the vertex order, so each weighted type
    counts once per linear extension.  Its multiplicity comes from the
    type's record: the edge-weight product and |Aut| are integers, the
    genus-0 vertex factors are folded into one integer, and the table is
    read for the genus >= 1 vertices only, in vertex order.  A ``Fraction``
    is built only where a fixture value or |Aut| > 1 enters.
    """
    table = fixtures if fixtures is not None else vertexdata.default_fixtures()
    whole, rest, count = 0, Fraction(0), 0
    for t, flows in _admissible_flows(p, _types_for(p.genus, p.n, p.e)):
        orders = count_linear_extensions(
            t.num_vertices,
            [(a, b) if f > 0 else (b, a) for (a, b), f in zip(t.edges, flows)])
        if not orders:  # a cyclic orientation is no cover: look up no vertex
            continue
        count += orders
        term = orders * t.genus0_factor * abs(math.prod(flows))
        aut = 1
        for i, j in t.runs:
            aut *= math.prod(map(math.factorial, Counter(flows[i:j]).values()))
        if aut == 1 and not t.higher:
            whole += term
            continue
        term = Fraction(term, aut)
        for genus, ends, ins, outs, psi in t.higher:
            degrees = ([p.x[i] for i in ends] + [flows[i] for i in ins]
                       + [-flows[i] for i in outs])
            term *= vertexdata.vertex_mult(
                VertexKey(genus, p.k, tuple(degrees), psi), table)
        rest += term
    return whole + rest, count


def compute_H(p: Problem,
              fixtures: Mapping[VertexKey, Fraction] | None = None) -> Fraction:
    """The descendant count: the sum of the multiplicities over all covers,
    as :func:`count_covers` assembles it."""
    return count_covers(p, fixtures)[0]
