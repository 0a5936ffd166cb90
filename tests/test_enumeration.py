import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import leakyhurwitz.enumeration as enumeration
from leakyhurwitz.covers import (CoverGraph, Problem, _balance_residual,
                                 check_cover, is_connected, validate_problem)
from leakyhurwitz.enumeration import (_types_for, compute_H, count_covers,
                                      count_linear_extensions,
                                      enumerate_covers, linear_extensions,
                                      weight_bound)
from leakyhurwitz.intersections import psi_integral
from leakyhurwitz.vertexdata import (MissingVertexData, VertexKey,
                                     default_fixtures, genus0_vertex_mult)

GOLDEN = Problem.of(1, 1, (7, -3, -1), (1, 0, 0))


def test_enumerate_types_single_vertex():
    p = Problem.of(0, 1, (3, -1, -1))
    types = _types_for(p.genus, p.n, p.e)
    assert len(types) == 1
    assert types[0].num_vertices == 1
    assert types[0].edges == ()


def test_enumerate_types_six_trees():
    p = Problem.of(0, 1, (6, -1, -1, 1, -2), (1, 0, 0, 0, 0))
    types = _types_for(p.genus, p.n, p.e)
    assert len(types) == 6
    for t in types:
        assert t.num_vertices == 2
        assert len(t.edges) == 1
        valence = [len(ends) + sum(v in edge for edge in t.edges)
                   for v, ends in enumerate(t.vertex_ends)]
        wide = valence.index(4)
        assert 1 in t.vertex_ends[wide]
        assert len(t.vertex_ends[wide]) == 3


def test_enumerate_types_golden():
    types = _types_for(GOLDEN.genus, GOLDEN.n, GOLDEN.e)
    assert len(types) == 4
    double_edge = [t for t in types if len(t.edges) == 2]
    genus_vertex = [t for t in types if any(g == 1 for g in t.vertex_genus)]
    assert len(double_edge) == 2
    assert len(genus_vertex) == 2


def test_type_cache_is_bounded():
    types_for = enumeration._types_for
    assert types_for.cache_info().maxsize == 128
    assert types_for(1, 3, (1, 0, 0)) is types_for(1, 3, (1, 0, 0))


def test_compiled_type_cache_is_bounded():
    # the one type cache holds the compiled records: no second cache
    types_for = enumeration._types_for
    assert types_for.cache_info().maxsize == 128
    assert not hasattr(enumeration, "_compiled_for")
    types = types_for(1, 3, (1, 0, 0))
    assert types is types_for(1, 3, (1, 0, 0))
    assert all(len(t.cuts) == 2 * len(t.edges) for t in types)


def _set_partitions(n, blocks):
    """Every set partition of 1..n into at most ``blocks`` parts, padded
    with empty parts, ordered by smallest element: the unpruned search that
    ``_end_partitions`` prunes, an independent oracle for it."""
    if n == 0:
        yield ((),) * blocks
        return
    labels = [0] * n

    def rec(i, top):
        if i == n:
            parts = [[] for _ in range(blocks)]
            for j, lab in enumerate(labels):
                parts[lab].append(j + 1)
            yield tuple(tuple(part) for part in parts)
            return
        for lab in range(min(top + 1, blocks - 1) + 1):
            labels[i] = lab
            yield from rec(i + 1, max(top, lab))

    yield from rec(1, 0) if blocks > 0 else iter(())


def _canonical_type_with_perm(genera, ends, edges):
    """The canonical relabelling as it was computed while it tracked the
    winning permutation: an independent oracle for ``_canonical_type``."""
    V = len(genera)
    base = sorted(range(V), key=lambda v: (0, ends[v][0], 0) if ends[v]
                  else (1, genera[v], 0))
    groups = []
    for pos, v in enumerate(base):
        if (pos > 0 and not ends[v] and not ends[base[pos - 1]]
                and genera[v] == genera[base[pos - 1]]):
            groups[-1].append(pos)
        else:
            groups.append([pos])
    best_edges = best_perm = None
    swappable = [g for g in groups if len(g) > 1]
    for assignment in itertools.product(
            *(itertools.permutations(g) for g in swappable)):
        position = {v: pos for pos, v in enumerate(base)}
        for group, perm in zip(swappable, assignment):
            for pos, new_pos in zip(group, perm):
                position[base[pos]] = new_pos
        relabeled = tuple(sorted(
            (min(position[a], position[b]), max(position[a], position[b]))
            for a, b in edges))
        if best_edges is None or relabeled < best_edges:
            best_edges = relabeled
            best_perm = [0] * V
            for v, pos in position.items():
                best_perm[pos] = v
    return (tuple(genera[v] for v in best_perm),
            tuple(tuple(ends[v]) for v in best_perm), best_edges)


def test_canonical_type_matches_permutation_tracking_oracle():
    # every labelled multigraph of every vertex layout, including layouts
    # with one and with two runs of swappable unmarked vertices; each layout
    # also meets the degree sum that _types_for no longer tests
    layouts = runs_seen = 0
    for g, e in [(0, (0,) * 6), (0, (0,) * 7), (0, (1,) + (0,) * 6),
                 (2, (0,)), (2, (0, 0)), (2, (0, 0, 0)),
                 (3, ()), (3, (0,)), (3, (1, 0))]:
        n = len(e)
        V = 2 * g - 2 + n - sum(e)
        for blocks in _set_partitions(n, V):
            for genera in enumeration._genus_vectors(V, g):
                degs = tuple(sum(e[i - 1] for i in blocks[v]) + 3
                             - 2 * genera[v] - len(blocks[v]) for v in range(V))
                if min(degs) < 1:
                    continue
                assert sum(degs) == 2 * (V - 1 + g - sum(genera))
                layouts += 1
                unmarked = Counter(gv for gv, b in zip(genera, blocks) if not b)
                runs_seen |= 1 << sum(m > 1 for m in unmarked.values())
                for edges in enumeration._edge_multisets(degs):
                    assert (enumeration._canonical_type(genera, blocks, edges)
                            == _canonical_type_with_perm(genera, blocks, edges))
    assert layouts == 610 and runs_seen == 0b111


def _stirling2(n, j):
    if n == 0 or j == 0:
        return int(n == j)
    return j * _stirling2(n - 1, j) + _stirling2(n - 1, j - 1)


def test_end_partitions_put_marked_blocks_first():
    # the shape stage of _types_for relies on this order: the non-empty
    # blocks by increasing smallest element, then the empty blocks.  The
    # partitions are those of the unpruned search, in its order, whose
    # every block has excess sum(1 - e_i) <= 3 - least; psi entries of 2
    # and 3 late in e keep the reserve positive while blocks are cut
    for n in range(9):
        psis = {(0,) * n}
        for tail in ((2,), (2, 3), (3, 0, 2)):
            if len(tail) <= n:
                psis.add((0,) * (n - len(tail)) + tail)
        for blocks in range(n + 2):
            unpruned = list(_set_partitions(n, blocks))
            assert len(unpruned) == len(set(unpruned)) == sum(
                _stirling2(n, j) for j in range(blocks + 1))
            limit = 2 if blocks > 1 else 3
            for e in psis:
                parts = enumeration._end_partitions(e, blocks)
                assert parts == [
                    part for part in unpruned
                    if all(sum(1 - e[i - 1] for i in b) <= limit for b in part)]
                for part in parts:
                    assert len(part) == blocks
                    m = sum(1 for b in part if b)
                    assert not any(part[m:])
                    assert [b[0] for b in part[:m]] == sorted(b[0] for b in part[:m])
                    assert sorted(i for b in part for i in b) == list(range(1, n + 1))
                    assert all(list(b) == sorted(b) for b in part)


def _random_blocks(rng, n, m, V):
    """A partition of 1..n into m non-empty blocks, ordered by smallest
    element as ``_end_partitions`` orders them, padded to V blocks."""
    order = rng.sample(range(1, n + 1), n)
    parts = [[i] for i in order[:m]]
    for i in order[m:]:
        rng.choice(parts).append(i)
    return tuple(sorted(tuple(sorted(p)) for p in parts)) + ((),) * (V - m)


def test_canonical_type_ignores_which_markings_the_blocks_hold():
    # _canonical_type's genera and edges depend on the blocks only through
    # their number m, and its ends are the blocks: the shape stage of
    # _types_for canonicalizes once per (genera, m, degs)
    rng = random.Random(15)
    runs_seen = Counter()
    for _ in range(600):
        V = rng.randint(1, 6)
        m = rng.randint(0, V)
        genera = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(V))
        pairs = [(u, v) for u in range(V) for v in range(u + 1, V)]
        edges = [rng.choice(pairs) for _ in range(rng.randint(0, 9))] if pairs else []
        unmarked = Counter(genera[m:])
        for genus, size in unmarked.items():
            if size > 1:
                runs_seen[genus >= 2] += 1
        results = set()
        for _ in range(4):
            blocks = _random_blocks(rng, rng.randint(m, m + 4) if m else 0, m, V)
            canonical = enumeration._canonical_type(genera, blocks, edges)
            assert canonical[1] == blocks
            results.add(canonical[::2])
        assert len(results) == 1, (genera, m, edges)
    assert runs_seen[False] > 50 and runs_seen[True] > 50


def _spanning_structure(V, edges):
    """BFS tree from vertex 0: discovery order, parent edge index per vertex
    and incidence lists."""
    inc = [[] for _ in range(V)]
    for idx, (a, b) in enumerate(edges):
        inc[a].append(idx)
        inc[b].append(idx)
    parent_edge = {}
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


def _solve_flows(edges, fixed, order, parent_edge, inc):
    """Solve the balance system for the tree flows, leaf to root, the free
    edges' flows ``fixed``: every vertex has net outflow 0, flows signed
    relative to the stored (u, v) direction."""
    flows = dict(fixed)
    for v in reversed(order[1:]):
        e = parent_edge[v]
        acc = 0
        for idx in inc[v]:
            if idx != e:
                acc += flows[idx] if edges[idx][1] == v else -flows[idx]
        flows[e] = acc if edges[e][0] == v else -acc
    return [flows[i] for i in range(len(edges))]


def _compile_alone(genera, ends, edges, e):
    """A type's record as it was compiled before edge structures were shared,
    its unit flows solved vertex by vertex rather than read off subtrees."""
    V = len(genera)
    order, parent_edge, inc = _spanning_structure(V, edges)
    side_mask = [sum(1 << (i - 1) for i in marks) for marks in ends]
    side_mu = [2 * genera[v] - 2 + len(inc[v]) + len(ends[v]) for v in range(V)]
    full, total = (1 << len(e)) - 1, sum(side_mu)
    cuts = [0] * (2 * len(edges))
    for v in reversed(order[1:]):
        idx = parent_edge[v]
        a, b = edges[idx]
        if a == v:
            cuts[2 * idx:2 * idx + 2] = side_mask[v], side_mu[v]
            parent = b
        else:
            cuts[2 * idx:2 * idx + 2] = full ^ side_mask[v], total - side_mu[v]
            parent = a
        side_mask[parent] |= side_mask[v]
        side_mu[parent] += side_mu[v]
    tree_idx = set(parent_edge.values())
    free_idx = [i for i in range(len(edges)) if i not in tree_idx]
    units = tuple(tuple(_solve_flows(
        edges, {i: int(i == j) for i in free_idx}, order, parent_edge, inc))
        for j in free_idx)
    runs, i = [], 0
    for _, group in itertools.groupby(edges):
        j = i + len(list(group))
        if j - i > 1:
            runs.append((i, j))
        i = j
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
    return enumeration.CombinatorialType(
        genera, ends, edges, tuple(cuts), units, tuple(runs), genus0_factor,
        tuple(higher))


def _types_one_partition_at_a_time(g, n, e):
    """The types as they were enumerated before shapes: every multigraph of
    every marking partition canonicalized on its own, each type compiled
    alone; an independent oracle for ``_types_for``."""
    V = 2 * g - 2 + n - sum(e)
    least = 1 if V > 1 else 0
    found = set()
    for blocks in _set_partitions(n, V):
        psi_sums = [sum(e[i - 1] for i in part) for part in blocks]
        for genera in enumeration._genus_vectors(V, g):
            degs = tuple(psi_sums[v] + 3 - 2 * genera[v] - len(blocks[v])
                         for v in range(V))
            if any(d < least for d in degs):
                continue
            for edges in enumeration._edge_multisets(degs):
                if is_connected(V, edges):
                    found.add(enumeration._canonical_type(genera, blocks, edges))
    return tuple(_compile_alone(*t, e) for t in sorted(found))


@pytest.mark.parametrize("g, e", [
    (0, (0,) * 6), (0, (1, 0, 0, 0, 0, 0)), (0, (0, 1, 0, 0, 0, 1, 0)),
    (0, (0, 0, 2, 0, 0, 0)), (1, (0, 0, 0, 0)), (1, (1, 0, 0, 1)),
    (1, (0, 2, 0)), (2, (0, 0)), (2, (0, 1, 0)), (3, (0,)), (3, (1, 0)),
    # cells where pruning cuts partitions and the reserve is positive
    (0, (0,) * 7), (0, (0, 0, 0, 0, 2, 0, 0)), (0, (0, 0, 0, 3, 0, 0, 0, 0)),
    (1, (0, 0, 2, 0, 0)), (2, (0, 2, 0))],
    ids=str)
def test_types_match_one_partition_at_a_time(g, e):
    n = len(e)
    assert (enumeration._types_for.__wrapped__(g, n, e)
            == _types_one_partition_at_a_time(g, n, e))


def _assert_balanced(p):
    for t, edges in enumeration._weighted_types(p):
        order = next(linear_extensions(t.num_vertices,
                                       [(a, b) for a, b, _ in edges]),
                     tuple(range(t.num_vertices)))
        cover = CoverGraph(t.vertex_genus, t.vertex_ends, edges, order)
        assert all(_balance_residual(p, cover, v) == 0
                   for v in range(cover.num_vertices))


@pytest.mark.parametrize("n", range(3, 8))
def test_compiled_flows_balance_genus0(n):
    # every psi vector with |e| <= 2, so every genus-0 type of these n
    rng = random.Random(n)
    for e in itertools.product(range(3), repeat=n):
        if sum(e) > min(2, n - 3):
            continue
        for k in range(-2, 3):
            x = [rng.randint(-6, 6) for _ in range(n - 1)]
            x.append(k * (n - 2) - sum(x))
            _assert_balanced(Problem.of(0, k, x, e))


@given(st.sampled_from((1, 2)), st.integers(-2, 2),
       st.lists(st.integers(-4, 4), min_size=1, max_size=2), st.data())
@settings(max_examples=15, deadline=None)
def test_compiled_flows_balance_higher_genus(g, k, head, data):
    n = len(head) + 1
    x = [*head, k * (2 * g - 2 + n) - sum(head)]
    e = [0] * n
    for i in data.draw(st.lists(st.integers(0, n - 1),
                                max_size=min(2, 2 * g - 3 + n))):
        e[i] += 1
    _assert_balanced(Problem.of(g, k, x, e))


def _first_missing_key(p, table):
    with pytest.raises(MissingVertexData) as exc:
        count_covers(p, table)
    key = exc.value.key
    return key.genus, key.k, key.degrees, key.psi


def test_count_covers_first_missing_key():
    # the keys that a vertex-by-vertex assembly meets first, in its order
    empty = {}
    assert _first_missing_key(GOLDEN, empty) == (1, 1, (1,), (0,))
    assert _first_missing_key(GOLDEN.turned_around(), empty) == (
        1, -1, (-1,), (0,))
    first = VertexKey(1, 1, (1,), (0,))
    partial = {first: default_fixtures()[first]}
    assert _first_missing_key(GOLDEN, partial) == (1, 1, (-5, 7), (0, 1))
    # two genus-1 vertices on one type: the lower-numbered one is read first
    assert _first_missing_key(Problem.of(2, 0, (-1, 1, 0), (1, 1, 0)),
                              empty) == (1, 0, (-1, 1), (1, 0))
    assert _first_missing_key(Problem.of(2, 0, (1, -1, 0), (1, 1, 0)),
                              empty) == (1, 0, (-1, 1), (0, 1))
    # no genus >= 1 vertex of these carries a nonzero flow: nothing is read
    for p in (Problem.of(2, 0, (20, -20)), Problem.of(2, 0, (-20, 20))):
        assert count_covers(p, empty) == (Fraction(20385062), 532)


def test_enumerate_types_idempotent():
    # two enumerations, not two reads of the cache
    first = _types_for(GOLDEN.genus, GOLDEN.n, GOLDEN.e)
    _types_for.cache_clear()
    second = _types_for(GOLDEN.genus, GOLDEN.n, GOLDEN.e)
    assert first is not second
    assert first == second
    assert len(set(first)) == len(first)


def test_count_linear_extensions_basics():
    assert count_linear_extensions(2, [(0, 1)]) == 1
    assert count_linear_extensions(2, [(0, 1), (1, 0)]) == 0
    for m in range(1, 6):
        assert count_linear_extensions(m, []) == _factorial(m)


def _factorial(m):
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


def _brute_extensions(n, arcs):
    count = 0
    for perm in itertools.permutations(range(n)):
        pos = {v: i for i, v in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in arcs):
            count += 1
    return count


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_count_linear_extensions_vs_brute_force(n, data):
    arcs = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda ab: ab[0] != ab[1]), max_size=8))
    arcs = sorted(arcs)
    assert count_linear_extensions(n, arcs) == _brute_extensions(n, arcs)
    listed = list(linear_extensions(n, arcs))
    assert len(listed) == len(set(listed)) == _brute_extensions(n, arcs)


def test_count_linear_extensions_memo():
    # random relations, cyclic ones included; the memo keys on predecessor
    # sets, so arc order and repeated arcs give the same count
    assert enumeration._count_extensions.cache_info().maxsize == 1024
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        arcs = [(a, b) for a, b in ((rng.randrange(n), rng.randrange(n))
                                    for _ in range(rng.randint(0, 8)))
                if a != b]
        count = count_linear_extensions(n, arcs)
        assert count == _brute_extensions(n, arcs)
        assert count == len(list(linear_extensions(n, arcs)))
        shuffled = arcs + arcs[:rng.randint(0, len(arcs))]
        rng.shuffle(shuffled)
        assert count_linear_extensions(n, shuffled) == count


def test_enumerate_covers_golden_multiset():
    covers = enumerate_covers(GOLDEN)
    assert len(covers) == 5
    mults = sorted(wc.multiplicity for wc in covers)
    assert mults == sorted([Fraction(2), Fraction(3), Fraction(175, 24),
                            Fraction(1, 2), Fraction(-1, 24)])
    assert sum(mults) == Fraction(51, 4)


def test_enumerate_covers_missing_fixture():
    with pytest.raises(MissingVertexData):
        enumerate_covers(GOLDEN, {})


def test_enumerate_covers_chamber_point():
    p = Problem.of(0, 1, (6, -1, -1, 1, -2), (1, 0, 0, 0, 0))
    covers = enumerate_covers(p)
    assert len(covers) == 6
    assert sorted(wc.multiplicity for wc in covers) == [1, 1, 2, 3, 4, 4]


def test_enumerate_covers_trivial():
    covers = enumerate_covers(Problem.of(0, 1, (3, -1, -1)))
    assert len(covers) == 1
    assert covers[0].multiplicity == 1


def test_outputs_revalidate_and_recompute():
    problems = [GOLDEN,
                Problem.of(0, 1, (6, -1, -1, 1, -2), (1, 0, 0, 0, 0)),
                Problem.of(1, 2, (8, -4)),
                Problem.of(0, 0, (3, 2, -1, -4))]
    for p in problems:
        for wc in enumerate_covers(p):
            check_cover(p, wc.cover)
            cover = wc.cover
            h1 = len(cover.edges) - cover.num_vertices + 1
            assert cover.num_vertices == p.branch_codim + 1
            assert len(cover.edges) == p.branch_codim + h1
            scalar = Fraction(1, wc.aut)
            for m in wc.vertex_mults:
                scalar *= m
            assert wc.multiplicity == wc.edge_product * scalar


def test_compute_H_goldens():
    assert compute_H(GOLDEN) == Fraction(51, 4)
    assert compute_H(Problem.of(1, 1, (5, -3))) == Fraction(119, 24)
    assert compute_H(Problem.of(0, 2, (1, 1, 1, 1))) == 0
    assert compute_H(Problem.of(0, 1, (3, -1, -1))) == 1


def test_compute_H_genus1_family():
    for k in (1, 2):
        for span in range(2, 7):
            d = span + k
            value = compute_H(Problem.of(1, k, (d, -(d - 2 * k))))
            expected = (Fraction(1, 12) * span * (span - 1) * (span + 1)
                        - Fraction(k, 24))
            assert value == expected


def test_genus0_multiplicities_nonnegative():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 6)
        k = rng.randint(-2, 2)
        total_e = rng.randint(0, n - 3)
        e = [0] * n
        for _ in range(total_e):
            e[rng.randrange(n)] += 1
        x = [rng.randint(-5, 5) for _ in range(n - 1)]
        x.append(k * (n - 2) - sum(x))
        p = Problem.of(0, k, x, e)
        for wc in enumerate_covers(p):
            assert wc.multiplicity >= 0


def test_turnaround_symmetry():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(3, 5)
        k = rng.randint(-2, 2)
        total_e = rng.randint(0, n - 3)
        e = [0] * n
        for _ in range(total_e):
            e[rng.randrange(n)] += 1
        x = [rng.randint(-4, 4) for _ in range(n - 1)]
        x.append(k * (n - 2) - sum(x))
        p = Problem.of(0, k, x, e)
        assert compute_H(p) == compute_H(p.turned_around())


def test_top_psi_count_is_multinomial():
    # |e| = n - 3 forces the single-vertex cover
    for n in (3, 4, 5, 6):
        for e in itertools.combinations_with_replacement(range(n - 2), n):
            if sum(e) != n - 3:
                continue
            x = [1] * (n - 1)
            x.append(2 * (n - 2) - (n - 1))
            p = Problem.of(0, 2, x, e)
            assert compute_H(p) == psi_integral(n, e)


def test_zero_weight_marking_any_leak():
    # x2 = 0 is admissible whenever the degree constraint holds
    p = validate_problem(Problem.of(1, 2, (4, 0)))
    assert compute_H(p) == Fraction(5, 12)


def _orderable_weights(p):
    return [w for t, edges in enumeration._weighted_types(p)
            if count_linear_extensions(t.num_vertices,
                                       [(a, b) for a, b, _ in edges])
            for _, _, w in edges]


@given(st.sampled_from((1, 2)), st.integers(-2, 2),
       st.lists(st.integers(-3, 3), min_size=1, max_size=2))
@example(2, 0, [2])  # a cover of weight 2 = B
@settings(max_examples=10, deadline=None)
def test_weight_bound_holds_under_wider_scan(g, k, head):
    n = len(head) + 1
    x = [*head, k * (2 * g - 2 + n) - sum(head)]
    for p in (Problem.of(g, k, x), Problem.of(g, k, x).turned_around()):
        bound = weight_bound(p)
        assert bound == weight_bound(p.turned_around())
        expected = count_covers(p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "weight_bound", lambda q: 2 * bound + 2)
            assert count_covers(p) == expected
            assert all(w <= bound for w in _orderable_weights(p))


def test_weight_bound_is_reached():
    p = Problem.of(2, 0, (20, -20))
    assert max(_orderable_weights(p)) == weight_bound(p) == 20


@pytest.mark.parametrize("g, n", [(1, 2), (1, 3), (1, 4), (2, 1), (2, 2),
                                  (2, 3), (3, 1), (3, 2)])
def test_units_are_fundamental_cycles(g, n):
    # the walk's intervals need unit entries in {-1, 0, 1}, and unit j
    # to be 1 on its own free edge and 0 on the other free edges
    for e in ((0,) * n, (1,) + (0,) * (n - 1)):
        if (g, e) == (3, (0, 0)):
            continue  # 0.6 s of type enumeration; (1, 0) has three cycles
        for t in enumeration._types_for(g, n, e):
            _, walk, _, _, _ = enumeration._edge_structure(
                t.num_vertices, t.edges)
            free = sorted(set(range(len(t.edges))) - {idx for _, idx in walk})
            assert len(free) == len(t.units)
            for j, unit in enumerate(t.units):
                assert set(unit) <= {-1, 0, 1}
                assert [unit[i] for i in free] == [int(i == free[j])
                                                   for i in free]


def _listed(p):
    covers = enumerate_covers(p)
    return sum((wc.multiplicity for wc in covers), Fraction(0)), len(covers)


@given(st.integers(3, 6), st.integers(-3, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_count_covers_matches_listing_genus0(n, k, data):
    x = data.draw(st.lists(st.integers(-6, 6), min_size=n - 1, max_size=n - 1))
    x.append(k * (n - 2) - sum(x))
    e = [0] * n
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=n - 3)):
        e[i] += 1
    p = Problem.of(0, k, x, e)
    assert count_covers(p) == _listed(p)


GENUS1_FAMILY = [Problem.of(1, k, (span + k, -(span - k)))
                 for k in (1, 2) for span in range(2, 7)]


@pytest.mark.parametrize("p", [
    GOLDEN, GOLDEN.turned_around(), Problem.of(1, 2, (8, -4)),
    Problem.of(1, 2, (4, 0)), *GENUS1_FAMILY,
    *(q.turned_around() for q in GENUS1_FAMILY),
    Problem.of(2, 0, (5, 5, -10)), Problem.of(2, 0, (20, -20)),
    Problem.of(2, 1, (3, 3, -1)), Problem.of(2, -1, (2, -3, -4))], ids=str)
def test_count_covers_matches_listing_higher_genus(p):
    assert count_covers(p) == _listed(p)


def _box_scan(p, types):
    # the scan of the whole box [-B, B]^h that the interval walk replaced,
    # keeping the vectors that ascend along parallel runs and whose
    # orientation the extension DP gives at least one order
    sums = [0]
    for v in p.x:
        sums += [s + v for s in sums]
    bound = enumeration.weight_bound(p)
    values = [v for v in range(-bound, bound + 1) if v != 0]
    for t in types:
        pairs = iter(t.cuts)
        base = [sums[m] - p.k * c for m, c in zip(pairs, pairs)]
        if not t.units:
            if all(base):
                yield t, base
            continue
        for combo in itertools.product(values, repeat=len(t.units)):
            flows = base
            for w, unit in zip(combo, t.units):
                flows = [f + w * u for f, u in zip(flows, unit)]
            if (all(f and -bound <= f <= bound for f in flows)
                    and all(flows[a] <= flows[a + 1]
                            for i, j in t.runs for a in range(i, j - 1))
                    and _orders(t, flows)):
                yield t, flows


def _orders(t, flows):
    return count_linear_extensions(
        t.num_vertices,
        [(a, b) if f > 0 else (b, a) for (a, b), f in zip(t.edges, flows)])


def _walk_is_box_scan(p, widen):
    # the same (type, flows) sequence, in the same order; widened as in
    # test_weight_bound_holds_under_wider_scan
    with pytest.MonkeyPatch.context() as mp:
        if widen:
            bound = weight_bound(p)
            mp.setattr(enumeration, "weight_bound", lambda q: 2 * bound + 2)
        types = enumeration._types_for(p.genus, p.n, p.e)
        assert (list(enumeration._admissible_flows(p, types))
                == list(_box_scan(p, types)))


GENUS2_N2 = [Problem.of(2, -1, (-3, -1)), Problem.of(2, 0, (7, -7)),
             Problem.of(2, 1, (8, -4)), Problem.of(2, 2, (6, 2))]
WALKED = [*GENUS1_FAMILY, *GENUS2_N2,
          Problem.of(2, -1, (2, -3, -4)), Problem.of(2, 0, (3, -1, -2)),
          Problem.of(2, 1, (3, 3, -1)), Problem.of(2, 2, (6, 5, -1)),
          Problem.of(3, 0, (3, -3), (1, 0))]  # three free weights


@pytest.mark.parametrize("p, widen", [
    *((p, False) for p in WALKED),
    *((p, True) for p in (*GENUS1_FAMILY, *GENUS2_N2))], ids=str)
def test_admissible_flows_walk_is_box_scan(p, widen):
    _walk_is_box_scan(p, widen)


@given(st.integers(1, 3), st.integers(-2, 2), st.booleans(), st.booleans(),
       st.lists(st.integers(-3, 3), max_size=2))
# the parallel order cuts w from above at (2,1,(6,-1,0),(1,0,0)) and at
# (3,-2,(-10,),(1,))
@example(2, 1, True, False, [6, -1])
@example(3, -2, True, False, [])
@settings(max_examples=25, deadline=None)
def test_admissible_flows_walk_is_box_scan_signed(g, k, psi, widen, head):
    # genus 3 at n = 1 only: at n = 2 and k != 0 the oracle's box of three
    # free weights takes seconds to scan
    if g == 3:
        head = []
    n = len(head) + 1
    e = [0] * n
    if psi and (g, n) != (1, 1):  # (1, 1) has no psi budget
        e[0] = 1
    x = [*head, k * (2 * g - 2 + n) - sum(head)]
    _walk_is_box_scan(Problem.of(g, k, x, e), widen)


@pytest.mark.parametrize("p", WALKED, ids=str)
def test_walked_vectors_have_an_order(p):
    # stands in for the guard count_covers no longer has: every orientation
    # the walk yields is acyclic, so it has a linear extension
    types = enumeration._types_for(p.genus, p.n, p.e)
    assert all(_orders(t, flows) >= 1
               for t, flows in enumeration._admissible_flows(p, types))


GENUS2_LEAKY = [(Problem.of(2, 1, (3, 3, -1)), Fraction(18671, 192), 157),
                (Problem.of(2, 1, (6, -2, 1)), Fraction(189399, 64), 199),
                (Problem.of(2, 1, (4, 2, -1)), Fraction(18397, 192), 41),
                (Problem.of(2, 2, (6, 5, -1)), Fraction(97633, 12), 284)]


@pytest.mark.parametrize("p, H, covers", [
    *GENUS2_LEAKY, *((p.turned_around(), H, c) for p, H, c in GENUS2_LEAKY)],
    ids=str)
def test_genus2_leaky_regressions(p, H, covers):
    assert count_covers(p) == (H, covers)
