"""Enumeration of tropical leaky covers up to isomorphism.

The pipeline runs in three stages:

1. combinatorial types: decorated multigraphs (vertex genera, marking
   partition, edge multiset) satisfying the valence law, connectivity and
   the genus decomposition, deduplicated by a canonical certificate.  Only
   the edge degrees d(v) = val(v) - |ends(v)| >= 1 (>= 0 on a lone vertex)
   are tested: the valence law makes sum_v d(v) = |e| + 3V - 2(g - h1) - n,
   h1 = g - sum_v g(v), that is 2(V - 1 + h1) as V = 2g - 2 + n - |e|; and
   val(v) = 0 would be a lone vertex with n = 0, but then V = 2g - 2 is even.
   ``_types_for`` splits this stage in two: a shape stage enumerates the
   multigraphs once per shape (genera, number m of marked vertices, edge
   degrees) and sweeps them by orbit under the permutations of its runs of
   unmarked vertices of equal genus, relabelling each orbit once and
   keeping its smallest edge tuple, and a labelling stage gives each
   marking partition the canonical multigraphs of its shape.
   A shape's structures are cached under (genera, m, degs) (``_shape``),
   shared by calls with equal V, and each shape builds its own
   (``_edge_structure``): two shapes with equal edges keep separate memos,
   which count alike.  The partitions are pruned as they are built
   (``_end_partitions``): a block B whose excess sum_{i in B} (1 - e_i) is
   above 2 leaves its vertex too few edges at any genus, and a lone vertex
   takes every marking.  A vertex's mu(v) and genus-0 factor depend on its
   block alone, so they are computed once per block, and one loop over a
   partition's blocks gathers them;
2. weights: edge flows solving the balance law.  On a tree the flows are
   determined and come out as affine-linear forms in x and k; each cycle
   edge contributes one free integer weight, bounded by the proven
   B = max(P, N) of ``weight_bound`` (P and N the positive and negative
   degree totals): an edge crossing a position cut points right, so its
   weight is at most the cut flow, which is at most P for k >= 0 and N for
   k <= 0.  The free weights are fixed one at a time
   (``_admissible_flows``), each over the interval that keeps the edges it
   settles within [-B, B] and the parallel edges it settles in ascending
   order, walked in segments on which those edges keep their signs.  Only
   the zeros of those edges inside the interval split it, since one outside
   would bound only empty segments or one that starts (ends) at the
   interval's end without it, and an empty interval ends the level.  Which
   edges each weight settles, the parallel pairs and the bridges depend on
   the edges alone: they form the type's walk plan (``_WalkPlan``), built
   once per structure, and a problem computes only the numbers, the base
   flows, the cuts and the zeros;
3. positions: the positive flows orient the edges, and every linear
   extension of that orientation yields one cover, since vertices occupy
   distinct ordered positions on the target line.  An orientation with a
   directed cycle has none, so stage 2 skips every segment whose arcs
   close one: it yields exactly the vectors of the box [-B, B]^h that
   have a linear extension, in the box's order.  The closure of a
   segment's arcs depends on the signs of the edges settled so far alone,
   so the plan memoizes it per sign pattern, across problems.  No edge
   changes sign along a segment of the last weight, so stage 2 counts the
   extensions of its one orientation once (``CombinatorialType.extensions``,
   memoized per structure with one count per orientation and its reverse,
   as reversing every arc reverses every extension, and read by chambers
   too) and yields the count with each of its vectors: ``compute_H`` sums the
   counts, and listing generates the extensions instead.  In genus 0
   counting skips stage 2: a genus-0 type is a tree, so each edge's flow
   is a wall value delta(M) = S[M] - k(|M| - 1) of the markings M on its
   tail side (``_count_trees``).  The records of a type list share one
   table of their distinct cuts, and each reads its edges' entries by
   position with a C-level getter, so a problem computes each cut's flow
   once (``_cut_flows``) and a type's flows, sizes and orientation are
   one getter call each.  In genus 0 a cut's c is |M| - 1, so the table
   holds one cut per distinct mask.

``_types_for`` builds each type's record once, where it loops over the
structures of a partition's shape, and caches that one record per type: it
feeds counting, listing and the genus-0 chamber polynomials of
``chambers``.  What a record takes from its edges alone
(``_edge_structure``: spanning tree, unit flows, parallel runs, the
extension memo, the walk plan) is built once per structure of a shape and
shared by every record of the shape with those edges, across calls.
A tree edge's flow is the cut expression S[mask] - k c of the markings
``mask`` and the summed mu(v) = 2g(v) - 2 + val(v) on its tail side, S
being the subset sums of x, each computed when a cut first reads it
(``_SubsetSums``).  The records of a type list share one table of their
distinct cuts (``CombinatorialType.cut_table``), and every stage reads an
edge's cut through it: counting in every genus takes each type's base
flows with one getter call, and ``chambers`` each edge's wall.  Cycle
edges add the unit flows of the free weights, read off the vertex masks
of the tree's subtrees (``_solve_flows``).  In genus 0 a vertex factor is
a multinomial that ignores the flows, so the record folds them into one
integer.  Counting a problem is then integer arithmetic, with the fixture
table read (by ``vertexdata.vertex_mult``) for genus >= 1 vertices only.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

from . import vertexdata
from .covers import (CoverGraph, Problem, WeightedCover,
                     assemble_multiplicity, is_connected)
from .vertexdata import VertexKey, genus0_vertex_mult


class _WalkPlan(NamedTuple):
    """What ``_admissible_flows`` takes from a type's edges alone.

    ``levels`` holds per free weight j the (edge, unit entry) pairs it
    settles and the (a, u_a, u_{a + 1}) triples of the parallel pairs
    (a, a + 1) settled by then; ``bridges`` the edges no unit moves.
    ``closures`` maps the signs of the settled edges of levels 0..j, level
    by level, to the reachability masks of their arcs, or to None when the
    arcs close a directed cycle (``_close``).  Every level settles its own
    free edge, so the length of a sign tuple tells its level."""

    levels: tuple[tuple[tuple, tuple], ...]
    bridges: tuple[int, ...]
    closures: dict[tuple[bool, ...], tuple[int, ...] | None]


class CombinatorialType(NamedTuple):
    """A decorated multigraph in canonical form, built once for counting,
    listing and chambers, all in small integers.

    ``edges`` lists unordered pairs (u, v) with u < v, repeated with
    multiplicity and sorted; parallel edges are therefore adjacent.

    ``units`` are the flows of one unit on each free edge, ``runs`` the
    (start, stop) index ranges of parallel edges, ``genus0_factor`` the
    product of the genus-0 vertex multinomials, and ``higher`` one (genus,
    marking indices, inbound edges, outbound edges, psi) record per
    genus >= 1 vertex, in vertex order.

    ``orders`` memoizes :meth:`extensions`, one count per orientation and
    its reverse, stored under both, and ``plan`` holds the cycle weight
    walk's plan and its memo of sign patterns (None on a tree); both come
    from its shape's structure with these edges (``_edge_structure``).

    Each edge has a cut (mask, c).  The edge's flow, in its stored (u, v)
    direction and with every free weight at 0, is the cut expression
    ``S[mask] - k * c``: ``mask`` is the set of markings (bit i-1 for
    marking i) on the tail side of the spanning-tree cut through the edge,
    ``c`` the sum of mu(v) = 2g(v) - 2 + val(v) over that side and ``S``
    the subset sums of x; the head side has the complementary mask and
    2g-2+n - c.  Free (non-tree) edges have the cut (0, 0).  ``cut_table``
    maps each distinct cut of the call's records to its position, in
    position order, one dict shared by them all, and ``cut_of`` picks the
    record's edges' entries, in edge order, out of a tuple laid out by
    those positions; it returns a tuple for any edge count.  Counting in
    every genus and ``chambers`` read an edge's cut only through them
    (``_cut_flows``).  Equality and hashing ignore these four fields.
    """

    vertex_genus: tuple[int, ...]
    vertex_ends: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    units: tuple[tuple[int, ...], ...]
    runs: tuple[tuple[int, int], ...]
    genus0_factor: int
    higher: tuple[tuple, ...]
    orders: dict[tuple[bool, ...], int]
    plan: _WalkPlan | None
    cut_table: dict[tuple[int, int], int] | None = None
    cut_of: operator.itemgetter | None = None

    def __eq__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        return self[:7] == other[:7]

    def __ne__(self, other):  # tuple's own __ne__ would compare the memos
        if not isinstance(other, tuple):
            return NotImplemented
        return self[:7] != other[:7]

    def __hash__(self):
        return hash(self[:7])

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_genus)

    def extensions(self, up: tuple[bool, ...]) -> int:
        """The number of linear extensions of the orientation that points
        edge i along its stored (u, v) exactly when up[i].  Reversing every
        arc reverses every extension, so the count is stored for ``up`` and
        its complement alike."""
        orders = self.orders.get(up)
        if orders is None:
            orders = count_linear_extensions(
                self.num_vertices,
                [ab if u else ab[::-1] for ab, u in zip(self.edges, up)])
            self.orders[up] = self.orders[tuple(map(operator.not_, up))] = orders
        return orders


def _end_partitions(e: tuple[int, ...], blocks: int
                    ) -> list[tuple[tuple[int, ...], ...]]:
    """Set partitions of the markings 1..n, n = len(e), into at most
    ``blocks`` parts that can each be the markings of a vertex, padded with
    empty parts; parts ordered by smallest element, empty parts last.

    A block B at a vertex of genus g(v) has edge degree sum_{i in B} e_i +
    3 - 2g(v) - |B| >= least, least = 1 on more than one vertex (a
    connected graph gives each vertex an edge) and 0 on one, so its excess
    sum_{i in B} (1 - e_i) is at most 3 - least.  One block takes every
    marking, with no search, so a lone vertex of many markings recurses
    nowhere.  On more blocks the markings are labelled depth-first in
    order; marking j lowers the excess of the block it joins by at most
    max(0, e_j - 1), so once marking i is placed, the markings after it can
    take at most ``reserve[i]`` off any excess, and a branch whose new
    excess exceeds 2 + reserve[i] is cut (e >= 0, as ``Problem``
    validates).  A complete partition is kept if every block's excess is at
    most 2.  Cutting drops whole subtrees of the search, so the partitions
    kept come in the order of the unpruned search.
    """
    n = len(e)
    if blocks == 1:  # the one block holds every marking
        return [(tuple(range(1, n + 1)),)] if n - sum(e) <= 3 else []
    if not n:
        return [((),) * blocks]
    reserve = [0] * n
    for i in range(n - 1, 0, -1):
        reserve[i - 1] = reserve[i] + max(0, e[i] - 1)
    parts: list[list[int]] = [[] for _ in range(blocks)]
    excess = [0] * blocks
    out = []

    def rec(i: int, top: int):
        step = 1 - e[i]
        for lab in range(min(top + 1, blocks - 1) + 1):
            if excess[lab] + step - reserve[i] <= 2:
                parts[lab].append(i + 1)
                excess[lab] += step
                if i + 1 < n:
                    rec(i + 1, max(top, lab))
                elif max(excess) <= 2:
                    out.append(tuple(map(tuple, parts)))
                excess[lab] -= step
                parts[lab].pop()

    rec(0, -1)
    return out


def _genus_vectors(blocks: int, g: int) -> Iterator[tuple[int, ...]]:
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


@functools.lru_cache(maxsize=1024)
def _shape(genera: tuple[int, ...], m: int, degs: tuple[int, ...]) -> tuple:
    """The canonical edge structures of the shape (genera, m, degs), sorted
    by edges, each built by ``_edge_structure`` and owned by the shape.

    A run is consecutive unmarked vertices of one genus, and so of one edge
    degree: permuting it changes neither the genera, the ends nor the
    degrees, and so maps the multigraphs ``_edge_multisets`` yields (sorted
    edge tuples) onto each other.  Each connected multigraph not yet seen
    starts an orbit: its sorted edge tuples under every relabelling of the
    runs, generated one at a time (a run can hold dozens of vertices, whose
    permutations no list could hold).  The whole orbit is marked seen and
    its smallest tuple kept, so each type's relabellings are walked once,
    not once per multigraph of its orbit.  A call meets a few dozen shapes
    (46 at (0, 9, 0^9)); the bound holds those of many."""
    V = len(degs)
    runs = [tuple(run) for _, run in
            itertools.groupby(range(m, V), genera.__getitem__)]
    label = list(range(V))
    seen, found = set(), []
    for edges in _edge_multisets(degs):
        if edges in seen or not is_connected(V, edges):
            continue
        orbit = set()
        for assignment in itertools.product(*map(itertools.permutations, runs)):
            for run, perm in zip(runs, assignment):
                label[run[0]:run[-1] + 1] = perm
            orbit.add(tuple(sorted(
                (label[a], label[b]) if label[a] < label[b] else (label[b], label[a])
                for a, b in edges)))
        seen |= orbit
        found.append(min(orbit))
    return tuple(_edge_structure(V, edges) for edges in sorted(found))


@functools.lru_cache(maxsize=128)
def _types_for(g: int, e: tuple[int, ...]) -> tuple[CombinatorialType, ...]:
    """Every combinatorial type of genus g with the psi vector e on its
    len(e) markings, as one record each, in sorted order.

    The vertices are laid out canonically: the m marked blocks by smallest
    marking (as ``_end_partitions`` orders them), then the unmarked vertices
    with sorted genera; a genus vector whose unmarked part is not sorted is
    skipped, as permuting the unmarked vertices maps its multigraphs onto
    those of the sorted vector.  So the multigraphs are enumerated and
    canonicalized once per shape (genera, m, degs), all they read of a
    partition (``_shape``), and each (genera, blocks) is met once.  The
    genus vectors come sorted and are taken in turn, each over the sorted
    partitions, and a shape's structures come sorted by edges, so the
    records come in sorted order as they are built.

    What a record takes from a vertex's block B alone is computed once per
    block (``block``): by the valence law val(v) = sum_{i in B} e_i + 3 -
    2g(v), so mu(v) = 2g(v) - 2 + val(v) = 1 + sum_{i in B} e_i at any
    genus, and a genus-0 vertex's factor (val(v) - 3)! / prod_{i in B} e_i!
    is the multinomial of B; neither reads the edges.  One loop over a
    partition's blocks gathers them, and a type's genus-0 factor is their
    product over its genus-0 vertices.  A record is built where the loop
    meets its structure: the cuts of the tree walk, mask and mu summed
    subtree by subtree, the genus >= 1 vertices' records (none in genus
    0), and the getter of its cuts' positions in the call's one table
    (``_Positions``, see ``CombinatorialType``).  A one-edge getter slices,
    as ``itemgetter(i)`` would return a bare item, and so does a no-edge
    one, as ``itemgetter()`` takes no items.  The table lives on the
    records, so it goes when the cache drops them; the shapes and their
    structures stay in ``_shape``'s cache.
    """
    V = 2 * g - 2 + len(e) - sum(e)
    least = 1 if V > 1 else 0  # a connected graph's vertices have edges
    block_data: dict[tuple[int, ...], tuple[int, int, int, int]] = {}

    def block(part):
        """(genus-0 edge degree, marking mask, mu, genus-0 factor) of a
        vertex with the markings ``part``."""
        psi = [e[i - 1] for i in part]
        total = sum(psi)
        data = block_data[part] = (total + 3 - len(part),
                                   sum(1 << (i - 1) for i in part), 1 + total,
                                   genus0_vertex_mult(total + 3, psi))
        return data

    labelled = []
    for blocks in sorted(_end_partitions(e, V)):
        degs0, masks, mu, factors = [], [], [], []
        for part in blocks:
            deg, mask, total, factor = block_data.get(part) or block(part)
            degs0.append(deg)
            masks.append(mask)
            mu.append(total)
            factors.append(factor)
        labelled.append((blocks, V - blocks.count(()), degs0, masks, mu,
                         factors))
    positions = _Positions()
    full = (1 << len(e)) - 1
    records = []
    for genera in _genus_vectors(V, g):  # in sorted order
        has_higher = any(genera)
        for ends, m, degs0, masks, mu, factors in labelled:
            if has_higher:
                if list(genera[m:]) != sorted(genera[m:]):
                    continue
                degs = tuple(d - 2 * genus for d, genus in zip(degs0, genera))
                factor = math.prod(f for f, genus in zip(factors, genera)
                                   if not genus)
            else:  # every vertex has genus 0: degs0 and every factor stand
                degs, factor = tuple(degs0), math.prod(factors)
            if min(degs) < least:
                continue
            total = sum(mu)
            for edges, walk, inc, units, runs, orders, plan in _shape(
                    genera, m, degs):
                side_mask, side_mu = masks[:], mu[:]
                cuts = [(0, 0)] * len(edges)
                for v, idx in walk:  # leaves first: side_* of v is its subtree
                    a, b = edges[idx]
                    if a == v:
                        cuts[idx] = side_mask[v], side_mu[v]
                        parent = b
                    else:
                        cuts[idx] = full ^ side_mask[v], total - side_mu[v]
                        parent = a
                    side_mask[parent] |= side_mask[v]
                    side_mu[parent] += side_mu[v]
                higher = () if not has_higher else tuple(
                    (genus, tuple(i - 1 for i in marks),
                     tuple(i for i in inc[v] if edges[i][1] == v),
                     tuple(i for i in inc[v] if edges[i][0] == v),
                     tuple(e[i - 1] for i in marks) + (0,) * len(inc[v]))
                    for v, (genus, marks) in enumerate(zip(genera, ends))
                    if genus)
                if len(edges) > 1:
                    cut_of = operator.itemgetter(
                        *map(positions.__getitem__, cuts))
                else:
                    at = positions[cuts[0]] if edges else 0
                    cut_of = operator.itemgetter(slice(at, at + len(edges)))
                records.append(CombinatorialType._make((
                    genera, ends, edges, units, runs, factor, higher, orders,
                    plan, positions, cut_of)))
    return tuple(records)


def _edge_structure(V: int, edges: tuple[tuple[int, int], ...]) -> tuple:
    """What a type's record takes from its edges alone: the edges, the walk
    of a BFS tree from vertex 0 (``_types_for`` keeps connected types only)
    as (vertex, parent edge) pairs leaves first, the incidence, the unit
    flows of the free edges, the parallel runs, an empty extension memo and
    the walk's plan (None on a tree, which has no free weight to walk).
    It depends on V and the edges alone, but each shape builds its own
    (``_shape``): two shapes with equal edges keep separate memos, which
    count alike."""
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
    return (edges, walk, tuple(map(tuple, inc)), units, tuple(runs), {},
            _walk_plan(edges, units, runs) if units else None)


def _walk_plan(edges, units, runs) -> _WalkPlan:
    """The walk's plan of a type with free weights, its memo empty.  Edge i
    is settled at the last level whose unit moves it, and a parallel pair
    at the later of its edges' levels (a cycle holds both edges, so neither
    is a bridge)."""
    level = [max((j for j, u in enumerate(units) if u[i]), default=-1)
             for i in range(len(edges))]  # -1 on a bridge
    levels = [([(i, unit[i]) for i in range(len(edges)) if level[i] == j], [])
              for j, unit in enumerate(units)]
    for i, stop in runs:
        for a in range(i, stop - 1):
            j = max(level[a], level[a + 1])
            levels[j][1].append((a, units[j][a], units[j][a + 1]))
    return _WalkPlan(tuple((tuple(settled), tuple(parallel))
                           for settled, parallel in levels),
                     tuple(i for i, j in enumerate(level) if j < 0), {})


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
    """Number of total orders extending the arc relation, by dynamic
    programming over downward-closed vertex subsets, ``preds[v]`` the bit
    mask of v's predecessors; a cyclic relation admits no extension and
    counts 0."""
    V = num_vertices
    preds = [0] * V
    for a, b in arcs:
        preds[b] |= 1 << a
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


class _Positions(dict):
    """The cuts (mask, c) of a type list, each mapped to its position: a
    cut read for the first time takes the next one."""

    def __missing__(self, cut: tuple[int, int]) -> int:
        at = self[cut] = len(self)
        return at


class _SubsetSums(dict):
    """The sum of ``values[i]`` over the bits i of a mask, for the masks
    read only: S[M] = S[M ^ low] + values[low bit], filled on the first
    read of M, with S[0] = 0.  So a problem fills only the masks of its
    type list's cut table and the masks they leave as their lowest bits
    are cleared one by one, never all 2^n: a lone vertex fills none."""

    def __init__(self, values: Sequence[int]):
        super().__init__({0: 0})
        self.values = values

    def __missing__(self, mask: int) -> int:
        low = mask & -mask
        value = self[mask ^ low] + self.values[low.bit_length() - 1]
        self[mask] = value
        return value


def _cut_flows(p: Problem, types: Sequence[CombinatorialType]
               ) -> tuple[int, ...]:
    """The flow S[mask] - k c of each cut (mask, c) of the types' shared
    table (``CombinatorialType.cut_table``), in position order, S the
    subset sums of x; an empty type list has no table and no flows."""
    sums = _SubsetSums(p.x)
    k = p.k
    return tuple([sums[mask] - k * c
                  for mask, c in (types[0].cut_table if types else ())])


def _admissible_flows(p: Problem, types: Sequence[CombinatorialType]
                      ) -> Iterator[tuple[CombinatorialType, list[int], int]]:
    """Each type of p with each of its integer flow vectors that has no
    zero flow, none above :func:`weight_bound` B, ascends along each run of
    parallel edges and orients the edges, tail to head of each positive
    flow, without a directed cycle; and with the number of linear
    extensions of that orientation.

    Every flow is affine in the free weights, base + sum_j w_j * units[j]
    (base read with one getter call from the cut flows, ``_cut_flows``),
    and the weights are fixed one at a time, in unit order, as the type's
    ``plan`` lays out.  An edge that unit j moves and no later unit moves
    is settled by w_j, with unit entry u = +-1.  Level j cuts the interval
    of w_j to the w that keep each settled edge within [-B, B] and each
    parallel pair (a, a + 1) settled by then in order: d w <= gap, d = u_a
    - u_{a + 1} in unit j.  d is never 0.  Two parallel free edges settle
    at different levels, where their entries are 0 and 1.  A tree edge
    parallel to free edge j has entry -1 in unit j (their 2-cycle), so it
    settles at level j, with entries -1 and 1, or later, with entries +-1
    and 0.  An empty interval [lo, hi] ends the level.  Otherwise the
    zeros -u flows[i] of the settled edges that lie in [lo, hi] (w = 0
    among them when it lies there: free edge j has flow w_j) split it into
    segments on which each settled edge keeps its sign, and so its arc.
    A zero below lo (above hi) would bound only empty segments, or one that
    starts at lo (ends at hi) without it, so leaving it out changes no
    segment.  A segment whose arcs close a directed cycle with those of the
    earlier levels is skipped whole.  Those arcs are fixed by the signs of
    the edges settled so far, so their closure is read from the plan's
    memo, and ``_close`` runs once per new sign pattern of an edge tuple.
    An edge no unit moves is a bridge: it lies on no cycle, and a zero
    bridge rules out the type.
    Every edge is settled by the last level and every cut is exact, so the
    vectors yielded are those of the box of nonzero weights in [-B, B]^h
    that pass the four tests, in its lexicographic order.  Along a segment
    of the last level no edge changes sign, so its vectors share one
    orientation, whose extensions are counted once per segment
    (``CombinatorialType.extensions``).  The [-B, B] cuts only save work:
    an orientation with a linear extension has no weight above B
    (``weight_bound``).
    """
    cut_flows = _cut_flows(p, types)
    bound = weight_bound(p)

    def walk(t, levels, closures, j, flows, signs, reach):
        settled, parallel = levels[j]
        # |flows[i] + w u| = |w + u flows[i]| <= bound, u = +-1; one shift
        # is free edge j's 0, so lo >= -bound and hi <= bound
        shifts = [u * flows[i] for i, u in settled]
        lo, hi = -bound - min(shifts), bound - max(shifts)
        for a, ua, ub in parallel:  # d * w <= gap, d in {-2, -1, 1, 2}
            d, gap = ua - ub, flows[a + 1] - flows[a]
            if d > 0:
                hi = min(hi, gap // d)
            else:
                lo = max(lo, -(gap // -d))
        if lo > hi:
            return
        zeros = sorted({z for shift in shifts if lo <= (z := -shift) <= hi})
        unit = t.units[j]
        last = j + 1 == len(levels)
        for start, stop in zip([lo - 1, *zeros], [*zeros, hi + 1]):
            start, stop = start + 1, stop - 1
            if start > stop:
                continue
            key = signs + tuple(flows[i] + start * u > 0 for i, u in settled)
            try:
                closed = closures[key]
            except KeyError:
                closed = closures[key] = _close(
                    reach, [t.edges[i] if up else t.edges[i][::-1]
                            for (i, _), up in zip(settled, key[len(signs):])])
            if closed is None:
                continue
            if not last:
                for w in range(start, stop + 1):
                    yield from walk(t, levels, closures, j + 1,
                                    [f + w * u for f, u in zip(flows, unit)],
                                    key, closed)
                continue
            orders = t.extensions(tuple(
                f + start * u > 0 for f, u in zip(flows, unit)))
            for w in range(start, stop + 1):
                yield t, [f + w * u for f, u in zip(flows, unit)], orders

    for t in types:
        base = t.cut_of(cut_flows)
        if t.plan is None:
            if all(base):
                yield t, list(base), t.extensions(tuple(f > 0 for f in base))
            continue
        levels, bridges, closures = t.plan
        if not all(base[i] for i in bridges):
            continue  # a zero bridge
        yield from walk(t, levels, closures, 0, base, (),
                        tuple(1 << v for v in range(t.num_vertices)))


def _weighted_types(p: Problem) -> Iterator[tuple[CombinatorialType, tuple]]:
    """Each weighted type of p: its type and its edges (u, v, weight),
    oriented from u to v along the positive flows."""
    for t, flows, _ in _admissible_flows(p, _types_for(p.genus, p.e)):
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
    out.sort(key=lambda wc: wc.cover)
    return out


def _count_trees(p: Problem) -> tuple[Fraction, int]:
    """``count_covers`` in genus 0, where every flow is a wall value (the
    proof is in ``count_covers``)."""
    types = _types_for(0, p.e)
    flows = _cut_flows(p, types)  # each S[M] - k(|M| - 1)
    sizes = tuple(map(abs, flows))
    ups = tuple(map((0).__lt__, flows))
    skip = 0 in sizes
    whole = count = 0
    for t in types:
        w = t.cut_of(sizes)
        if skip and 0 in w:
            continue
        up = t.cut_of(ups)
        orders = t.orders.get(up) or t.extensions(up)  # a tree's count is >= 1
        count += orders
        whole += orders * t.genus0_factor * math.prod(w)
    return Fraction(whole), count


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
    |Aut| is the product over the parallel runs of prod m! over the
    multiplicities m of equal flows, so it is built only for a run with a
    tie, which most vectors lack.  A ``Fraction`` is built only where a
    fixture value or |Aut| > 1 enters.  Above genus 0 the types are read
    in order, so that ``MissingVertexData`` names the first missing key in
    type order, and ``orders`` comes with each vector from the walk, which
    counts it once per segment of its last weight.

    Genus 0 takes a shorter path (``_count_trees``).  Every vertex has
    genus 0, so h1 = 0 and each type is a tree: it has no free weight, and
    no parallel edges, which would close a cycle, so |Aut| = 1.  The tail
    side of an edge is a subtree of s vertices that holds the markings M
    and meets the edge once, so its summed mu(v) = val(v) - 2 is
    c = |M| + 2(s - 1) + 1 - 2s = |M| - 1, and the flow is the wall value
    delta(M) = S[M] - k(|M| - 1), which a problem computes once per
    distinct cut of the type list's shared table (``_cut_flows``, the
    helper that gives every genus its base flows), along with its size
    |delta(M)| and its sign.  Each type reads its sizes and its
    orientation from those by position (``CombinatorialType.cut_of``).  No
    fixture is read, so each type adds the integer orders * genus0_factor *
    prod |flows|.  A type with a zero flow is skipped, as stage 2 skips it,
    and only a table that holds a zero is searched for one; any other
    orientation of a tree is acyclic.  In every genus ``orders`` is read
    from the record (``CombinatorialType.extensions``), which keeps one
    count per orientation of its edges and its reverse, so a turned-around
    problem, whose flows are all negated, counts no extension again;
    ``chambers`` reads the same counts.
    """
    if not p.genus:
        return _count_trees(p)
    table = fixtures if fixtures is not None else vertexdata.default_fixtures()
    whole, rest, count = 0, Fraction(0), 0
    for t, flows, orders in _admissible_flows(p, _types_for(p.genus, p.e)):
        count += orders
        term = orders * t.genus0_factor * abs(math.prod(flows))
        aut = 1
        for i, j in t.runs:
            if len(set(flows[i:j])) < j - i:
                aut *= math.prod(map(math.factorial,
                                     Counter(flows[i:j]).values()))
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
