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
   partition the canonical multigraphs of its shape.  The partitions are
   pruned as they are built (``_end_partitions``): a block B whose excess
   sum_{i in B} (1 - e_i) is above 2 (above 3 on a lone vertex) leaves its
   vertex too few edges at any genus.  A vertex's mu(v) and genus-0 factor
   depend on its block alone, so they are computed once per block, not
   once per type;
2. weights: edge flows solving the balance law.  On a tree the flows are
   determined and come out as affine-linear forms in x and k; each cycle
   edge contributes one free integer weight, bounded by the proven
   B = max(P, N) of ``weight_bound`` (P and N the positive and negative
   degree totals): an edge crossing a position cut points right, so its
   weight is at most the cut flow, which is at most P for k >= 0 and N for
   k <= 0.  The free weights are fixed one at a time
   (``_admissible_flows``), each over the interval that keeps the edges it
   settles within [-B, B] and the parallel edges it settles in ascending
   order, walked in segments on which those edges keep their signs;
3. positions: the positive flows orient the edges, and every linear
   extension of that orientation yields one cover, since vertices occupy
   distinct ordered positions on the target line.  An orientation with a
   directed cycle has none, so stage 2 skips every segment whose arcs
   close one: it yields exactly the vectors of the box [-B, B]^h that
   have a linear extension, in the box's order.  ``compute_H`` counts the
   extensions rather than lists them.

``_types_for`` compiles each type once (``_compile``), and caches that one
record per type: it feeds counting, listing and the genus-0 chamber
polynomials of ``chambers``.  What a record takes from its edges alone
(``_edge_structure``: spanning tree, unit flows, parallel runs) is built
once per edge tuple and shared.  A tree edge's flow is the cut
expression S[mask] - k c of the markings ``mask`` and the summed mu(v) =
2g(v) - 2 + val(v) on its tail side, S being the subset sums of x; cycle
edges add the unit flows of the free weights, read off the vertex masks
of the tree's subtrees (``_solve_flows``).  In genus 0 a vertex factor
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


def _end_partitions(e: tuple[int, ...], blocks: int
                    ) -> list[tuple[tuple[int, ...], ...]]:
    """Set partitions of the markings 1..n, n = len(e), into at most
    ``blocks`` parts that can each be the markings of a vertex, padded with
    empty parts; parts ordered by smallest element, empty parts last.

    A block B at a vertex of genus g(v) has edge degree sum_{i in B} e_i +
    3 - 2g(v) - |B| >= least, least = 1 on more than one vertex (a
    connected graph gives each vertex an edge) and 0 on one, so its excess
    sum_{i in B} (1 - e_i) is at most 3 - least.  The markings are labelled
    depth-first in order; marking j lowers the excess of the block it joins
    by at most max(0, e_j - 1), so once marking i is placed, the markings
    after it can take at most ``reserve[i]`` off any excess, and a branch
    whose new excess exceeds 3 - least + reserve[i] is cut (e >= 0, as
    ``Problem`` validates).  A complete partition is kept if every block's
    excess is at most 3 - least.  Cutting drops whole subtrees of the
    search, so the partitions kept come in the order of the unpruned
    search.
    """
    n = len(e)
    limit = 2 if blocks > 1 else 3
    reserve = [0] * n
    for i in range(n - 1, 0, -1):
        reserve[i - 1] = reserve[i] + max(0, e[i] - 1)
    parts: list[list[int]] = [[] for _ in range(blocks)]
    excess = [0] * blocks
    out = []

    def rec(i: int, top: int):
        if i == n:
            if max(excess, default=0) <= limit:
                out.append(tuple(map(tuple, parts)))
            return
        step = 1 - e[i]
        for lab in range(min(top + 1, blocks - 1) + 1):
            if excess[lab] + step - reserve[i] <= limit:
                parts[lab].append(i + 1)
                excess[lab] += step
                rec(i + 1, max(top, lab))
                excess[lab] -= step
                parts[lab].pop()

    rec(0, -1)
    return out


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
    non-empty blocks first, by smallest element, and returns only the
    partitions whose every block passes its excess test.
    ``_canonical_type``'s base order then keeps the blocks in place and only
    sorts the unmarked vertices m..V-1 by genus; the runs it permutes are
    then fixed by genera and m as well.  Its canonical genera and edges thus
    depend only on (genera, m, edges), its canonical ends are the blocks
    themselves, and the edges depend on the blocks only through degs.  A
    genus vector whose unmarked part is not sorted is skipped: permuting
    the unmarked vertices maps its multigraphs onto those of the sorted
    vector, with the same canonical types.  So each (genera, blocks) is met
    once, genera already canonical, and sorting those pairs and then each
    shape's edges gives the types in sorted order.

    What a record takes from a vertex's block B alone is computed once per
    block (``block``): by the valence law val(v) = sum_{i in B} e_i + 3 -
    2g(v), so mu(v) = 2g(v) - 2 + val(v) = 1 + sum_{i in B} e_i at any
    genus, and a genus-0 vertex's factor (val(v) - 3)! / prod_{i in B} e_i!
    is the multinomial of B; neither reads the edges.  The genus-0 factor
    of a type is then the product over the genus-0 vertices, once per
    (genera, blocks).  Edge structures (spanning tree, unit flows, parallel
    runs) depend only on the canonical edges and are built once per edge
    tuple.
    """
    V = 2 * g - 2 + n - sum(e)
    least = 1 if V > 1 else 0  # a connected graph's vertices have edges
    block_data: dict[tuple[int, ...], tuple[int, int, int, int]] = {}

    def block(part):
        """(genus-0 edge degree, marking mask, mu, genus-0 factor) of a
        vertex with the markings ``part``."""
        if part not in block_data:
            psi = [e[i - 1] for i in part]
            total = sum(psi)
            block_data[part] = (total + 3 - len(part),
                                sum(1 << (i - 1) for i in part), 1 + total,
                                genus0_vertex_mult(total + 3, psi))
        return block_data[part]

    shapes: dict[tuple, list] = {}
    found: list[tuple] = []
    for blocks in _end_partitions(e, V):
        m = V - blocks.count(())
        degs0, masks, mu, factors = zip(*map(block, blocks))
        for genera in _genus_vectors(V, g):
            if list(genera[m:]) != sorted(genera[m:]):
                continue
            degs = tuple(d - 2 * genus for d, genus in zip(degs0, genera))
            if min(degs) < least:
                continue
            shape = shapes.get((genera, m, degs))
            if shape is None:
                shape = shapes[genera, m, degs] = sorted(
                    {_canonical_type(genera, blocks, edges)[2]
                     for edges in _edge_multisets(degs) if is_connected(V, edges)})
            factor = math.prod(f for f, genus in zip(factors, genera) if not genus)
            found.append((genera, blocks, (masks, mu, factor), shape))
    structures: dict = {}

    def structure(edges):
        if edges not in structures:
            structures[edges] = _edge_structure(V, edges)
        return structures[edges]

    found.sort(key=lambda entry: entry[:2])
    return tuple(_compile(genera, ends, e, vertices, structure(edges))
                 for genera, ends, vertices, shape in found for edges in shape)


def _edge_structure(V: int, edges: tuple[tuple[int, int], ...]) -> tuple:
    """What a type's record takes from its edges alone: the edges, the walk
    of a BFS tree from vertex 0 (``_types_for`` keeps connected types only)
    as (vertex, parent edge) pairs leaves first, the incidence, the unit
    flows of the free edges and the parallel runs."""
    inc: list[list[int]] = [[] for _ in range(V)]
    for idx, (a, b) in enumerate(edges):
        inc[a].append(idx)
        inc[b].append(idx)
    parent_edge: dict[int, int] = {}
    order = [0]
    for v in order:  # grows as the BFS discovers vertices
        for idx in inc[v]:
            a, b = edges[idx]
            u = b if a == v else a
            if u and u not in parent_edge:
                parent_edge[u] = idx
                order.append(u)
    walk = tuple((v, parent_edge[v]) for v in reversed(order[1:]))
    below = [1 << v for v in range(V)]  # below[v]: the vertices of v's subtree
    for v, idx in walk:  # leaves first; a + b - v is v's parent
        below[sum(edges[idx]) - v] |= below[v]
    tree_idx = set(parent_edge.values())
    units = tuple(tuple(_solve_flows(edges, walk, below, j))
                  for j in range(len(edges)) if j not in tree_idx)
    runs, i = [], 0
    for _, group in itertools.groupby(edges):
        j = i + len(list(group))
        if j - i > 1:
            runs.append((i, j))
        i = j
    return edges, walk, tuple(map(tuple, inc)), units, tuple(runs)


def _solve_flows(edges: Sequence[tuple[int, int]], walk, below: Sequence[int],
                 j: int) -> list[int]:
    """The flows of one unit on free edge j = (a, b), every other free edge
    at 0, signed relative to the stored (u, v) direction.

    Only the parent edge of v and the free edges with one end in v's
    subtree cross its boundary, and the subtree's net outflow is 0, so the
    parent edge carries into the subtree what edge j takes out of it:
    ``out`` = [a below v] - [b below v]."""
    a, b = edges[j]
    flows = [0] * len(edges)
    flows[j] = 1
    for v, idx in walk:
        out = (below[v] >> a & 1) - (below[v] >> b & 1)
        flows[idx] = out if edges[idx][1] == v else -out
    return flows


def _compile(genera: tuple[int, ...], ends: tuple[tuple[int, ...], ...],
             e: tuple[int, ...], vertices: tuple, structure: tuple
             ) -> CombinatorialType:
    """A type's record from its vertex data (marking masks, mu values and
    genus-0 factor, as ``_types_for`` builds them per (genera, blocks)) and
    its edge structure: the cuts of the tree walk and the genus >= 1
    vertices' records."""
    edges, walk, inc, units, runs = structure
    masks, mu, genus0_factor = vertices
    side_mask, side_mu = list(masks), list(mu)
    full, total = (1 << len(e)) - 1, sum(mu)
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
    higher = tuple((genus, tuple(i - 1 for i in marks),
                    tuple(i for i in inc[v] if edges[i][1] == v),
                    tuple(i for i in inc[v] if edges[i][0] == v),
                    tuple(e[i - 1] for i in marks) + (0,) * len(inc[v]))
                   for v, (genus, marks) in enumerate(zip(genera, ends)) if genus)
    return CombinatorialType(genera, ends, edges, tuple(cuts), units, runs,
                             genus0_factor, higher)


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


def _close(reach: tuple[int, ...], arcs: Sequence[tuple[int, int]]
           ) -> tuple[int, ...] | None:
    """The reachability masks ``reach`` (reach[v]: the vertices reachable
    from v, v included) with ``arcs`` added, or None once an arc closes a
    directed cycle."""
    out = list(reach)
    for a, b in arcs:
        if out[b] >> a & 1:
            return None
        for v, r in enumerate(out):  # out[b] lacks a, so it stays as it is
            if r >> a & 1:
                out[v] = r | out[b]
    return tuple(out)


def _admissible_flows(p: Problem, types: Sequence[CombinatorialType]
                      ) -> Iterator[tuple[CombinatorialType, list[int]]]:
    """Each type of p with each of its integer flow vectors that has no
    zero flow, none above :func:`weight_bound` B, ascends along each run of
    parallel edges and orients the edges, tail to head of each positive
    flow, without a directed cycle.

    Every flow is affine in the free weights, base + sum_j w_j * units[j],
    and the weights are fixed one at a time, in unit order.  An edge that
    unit j moves and no later unit moves is settled by w_j, with unit
    entry u = +-1.  Level j cuts the interval of w_j to the w that keep
    each settled edge within [-B, B] and each parallel pair (a, a + 1)
    settled by then in order: d w <= gap, d = u_a - u_{a + 1} in unit j.
    d is never 0.  Two parallel free edges settle at different levels,
    where their entries are 0 and 1.  A tree edge parallel to free edge j
    has entry -1 in unit j (their 2-cycle), so it settles at level j, with
    entries -1 and 1, or later, with entries +-1 and 0.  The zeros
    -u flows[i] of the settled edges (w = 0 among them: free edge j has
    flow w_j) split the interval into segments on which each settled edge
    keeps its sign, and so its arc; a segment whose arcs close a directed
    cycle with those of the earlier levels is skipped whole (``_close``).
    An edge no unit moves is a bridge: it lies on no cycle, and a zero
    bridge rules out the type.  Every edge is settled by the last level
    and every cut is exact, so the vectors yielded are those of the box of
    nonzero weights in [-B, B]^h that pass the four tests, in its
    lexicographic order.  The [-B, B] cuts only save work: an orientation
    with a linear extension has no weight above B (``weight_bound``).
    """
    sums = [0]  # sums[mask]: the degrees of the markings in mask
    for v in p.x:
        sums += [s + v for s in sums]
    k = p.k
    bound = weight_bound(p)

    def walk(t, levels, j, flows, reach):
        settled, parallel = levels[j]
        lo, hi = -bound, bound
        for i, u in settled:  # |flows[i] + w * u| <= bound, u = +-1
            lo = max(lo, -bound - u * flows[i])
            hi = min(hi, bound - u * flows[i])
        for a, ua, ub in parallel:  # d * w <= gap, d in {-2, -1, 1, 2}
            d, gap = ua - ub, flows[a + 1] - flows[a]
            if d > 0:
                hi = min(hi, gap // d)
            else:
                lo = max(lo, -(gap // -d))
        zeros = sorted({-u * flows[i] for i, u in settled})
        unit = t.units[j]
        last = j + 1 == len(t.units)
        for start, stop in zip([lo - 1, *zeros], [*zeros, hi + 1]):
            start, stop = max(start + 1, lo), min(stop - 1, hi)
            if start > stop:
                continue
            closed = _close(reach, [t.edges[i] if flows[i] + start * u > 0
                                    else t.edges[i][::-1] for i, u in settled])
            if closed is None:
                continue
            for w in range(start, stop + 1):
                nxt = [f + w * u for f, u in zip(flows, unit)]
                if last:
                    yield t, nxt
                else:
                    yield from walk(t, levels, j + 1, nxt, closed)

    for t in types:
        pairs = iter(t.cuts)
        base = [sums[m] - k * cut for m, cut in zip(pairs, pairs)]
        if not t.units:
            if all(base):
                yield t, base
            continue
        level = [max((j for j, u in enumerate(t.units) if u[i]), default=-1)
                 for i in range(len(base))]  # -1 on a bridge
        if not all(f for f, j in zip(base, level) if j < 0):
            continue  # a zero bridge
        levels = [([(i, unit[i]) for i in range(len(base)) if level[i] == j],
                   []) for j, unit in enumerate(t.units)]
        for i, stop in t.runs:
            for a in range(i, stop - 1):
                j = max(level[a], level[a + 1])  # a cycle holds both edges
                levels[j][1].append((a, t.units[j][a], t.units[j][a + 1]))
        yield from walk(t, levels, 0, base,
                        tuple(1 << v for v in range(t.num_vertices)))


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
    counts once per linear extension.  Every weighted type has one, and so
    a vertex factor is looked up only for a cover: ``_admissible_flows``
    yields acyclic orientations only, and a finite acyclic relation has a
    vertex without predecessors; placing it first and extending the rest,
    again acyclic, by induction gives a total order.  Its multiplicity
    comes from the type's record: the edge-weight product and |Aut| are
    integers, the genus-0 vertex factors are folded into one integer, and
    the table is read for the genus >= 1 vertices only, in vertex order.
    A ``Fraction`` is built only where a fixture value or |Aut| > 1
    enters.
    """
    table = fixtures if fixtures is not None else vertexdata.default_fixtures()
    whole, rest, count = 0, Fraction(0), 0
    for t, flows in _admissible_flows(p, _types_for(p.genus, p.n, p.e)):
        orders = count_linear_extensions(
            t.num_vertices,
            [(a, b) if f > 0 else (b, a) for (a, b), f in zip(t.edges, flows)])
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
