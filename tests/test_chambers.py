import itertools
import random
import re
from collections import Counter

import pytest

import leakyhurwitz.chambers as chambers
import leakyhurwitz.enumeration as enumeration
from leakyhurwitz.chambers import (POSITIVE, ZERO, Wall, WallError, _TreeSystem,
                                   _tree_system, chamber_polynomial, classify,
                                   wall_crossing, wall_crossing_formula, walls)
from leakyhurwitz.covers import Problem, ProblemError
from leakyhurwitz.enumeration import compute_H
from leakyhurwitz.exactarith import LinForm, Poly

EXPP = Problem.of(0, 1, (6, -1, -1, 1, -2), (1, 0, 0, 0, 0))


def test_walls_n4():
    found = walls(4)
    assert [w.subset for w in found] == [(1, 2), (1, 3), (1, 4)]
    for w in found:
        assert w.form == LinForm.of({i: 1 for i in w.subset}, k=-1)


def test_walls_counts():
    assert len(walls(5)) == 10
    assert walls(3) == []
    assert len(walls(6)) == 25


@pytest.mark.parametrize("n", [5.0, "5", True])
def test_walls_reject_a_marking_count_that_is_no_int(n):
    with pytest.raises(ProblemError, match=f"marking count {re.escape(repr(n))} "
                                           "is not an integer"):
        walls(n)


def test_walls_match_both_sides_generation():
    # the walls as once generated: every subset of size 2..n-2 and its
    # complement, kept once as the side Wall.of stores
    for n in range(3, 10):
        seen = {}
        for size in range(2, n - 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                w = Wall.of(n, subset)
                seen.setdefault(w.subset, w)
        assert walls(n) == [seen[key] for key in sorted(seen)], n


@pytest.mark.parametrize("n", range(4, 9))
def test_hyperplane_wall_polys_are_normal_forms(n):
    for k in range(-3, 4):
        system = _TreeSystem((n - 3,) + (0,) * (n - 1), k)
        assert system.wall_polys == tuple(
            w.form.as_poly(n, k).substitute_degree(k * (n - 2))
            for w in walls(n)), (n, k)


def test_walls_canonical_subset():
    w = Wall.of(5, (3, 4, 5))
    assert w.subset == (1, 2)


def test_wall_subset_bounds():
    with pytest.raises(WallError):
        Wall.of(4, (1,))
    with pytest.raises(WallError):
        Wall.of(4, (1, 2, 3))
    with pytest.raises(WallError, match=re.escape("(1, 1, 2) repeats a marking")):
        Wall.of(4, (1, 1, 2))
    with pytest.raises(WallError, match="entry '1' is not an integer"):
        Wall.of(4, "12")
    with pytest.raises(WallError, match="entry 1.0 is not an integer"):
        Wall.of(4, (1.0, 2))
    for n in (5.0, "5", True):
        with pytest.raises(WallError, match=f"marking count {re.escape(repr(n))} "
                                            "is not an integer"):
            Wall.of(n, (1, 2))
    # the subset is read once, so an iterator or a generator is a subset too
    assert Wall.of(5, iter((1, 2))) == Wall.of(5, (1, 2))
    assert Wall.of(5, (i for i in (4, 2, 5))) == Wall.of(5, (1, 3))
    with pytest.raises(WallError, match=re.escape("(2, 1, 2) repeats a marking")):
        Wall.of(5, iter((2, 1, 2)))


def test_chamber_polynomial_example():
    poly = chamber_polynomial(EXPP)
    assert str(poly) == "3*x1 - 3"
    assert poly.total_degree() == 1


def test_chamber_polynomial_trivial():
    assert chamber_polynomial(Problem.of(0, 1, (3, -1, -1))) == Poly.const(2, 1)


def test_chamber_polynomial_three_caterpillars():
    # three split types, each contributing x1 + xj - k
    poly = chamber_polynomial(Problem.of(0, 1, (5, -1, -1, -1)))
    expected = Poly.zero(4)
    for j in (2, 3, 4):
        expected = expected + LinForm.of({1: 1, j: 1}, k=-1).as_poly(4, 1)
    assert poly == expected.substitute_degree(2)
    assert str(poly) == "2*x1 - 1"


def test_chamber_polynomial_matches_counts_on_chamber():
    # x = (t, -1, -1, 1, 4-t) stays in the reference chamber for t >= 5
    poly = chamber_polynomial(EXPP)
    signs = _wall_signs(EXPP, EXPP.x)
    hits = 0
    for t in range(5, 15):
        x = (t, -1, -1, 1, 4 - t)
        if _wall_signs(EXPP, x) != signs:
            continue
        hits += 1
        p = Problem.of(0, 1, x, EXPP.e)
        assert compute_H(p) == poly.eval(x[:-1])
    assert hits == 10


def _wall_signs(p, x):
    return tuple(1 if w.form.evaluate(x, p.k) > 0 else -1 for w in walls(p.n))


def test_chamber_polynomial_on_wall_rejected():
    p = Problem.of(0, 1, (1, 0, -1, 1, 2))
    with pytest.raises(WallError, match="wall"):
        chamber_polynomial(p)


def test_chamber_certificates():
    inside = _wall_signs(EXPP, EXPP.x)
    assert _wall_signs(EXPP, (8, -1, -1, 1, -4)) == inside
    assert _wall_signs(EXPP, (1, 4, -1, 1, -2)) != inside
    p_other = Problem.of(0, 1, (1, 4, -1, 1, -2), EXPP.e)
    assert chamber_polynomial(p_other) != chamber_polynomial(EXPP)


def test_chamber_polynomial_needs_genus0():
    with pytest.raises(ProblemError):
        chamber_polynomial(Problem.of(1, 1, (7, -3, -1), (1, 0, 0)))


def test_tree_system_cache_is_bounded():
    assert _tree_system.cache_info().maxsize == 128
    assert _tree_system(EXPP.e, EXPP.k) is \
        _tree_system(EXPP.e, EXPP.k)


def _tail_sides(t):
    """Each edge's tail side (marking mask, summed mu) of a genus-0 record,
    derived from its markings and edges alone, never from its cut table:
    the tree minus the edge splits in two, and the side holding the edge's
    stored tail u holds the markings M and sums mu(v) = val(v) - 2."""
    val = [len(ends) for ends in t.vertex_ends]
    for a, b in t.edges:
        val[a] += 1
        val[b] += 1
    sides = []
    for idx, (u, _) in enumerate(t.edges):
        side, todo = {u}, [u]
        while todo:
            v = todo.pop()
            for j, (a, b) in enumerate(t.edges):
                if j != idx and v in (a, b) and a + b - v not in side:
                    side.add(a + b - v)
                    todo.append(a + b - v)
        sides.append((sum(1 << (i - 1) for v in side for i in t.vertex_ends[v]),
                      sum(val[v] - 2 for v in side)))
    return tuple(sides)


def test_tree_system_holds_the_type_records():
    _tree_system.cache_clear()
    entries = _tree_system(EXPP.e, EXPP.k).entries
    types = enumeration._types_for(0, EXPP.e)
    assert len(entries) == len(types)
    assert all(entries[i][0] is types[i] for i in range(len(types)))
    # each edge names the wall of its tail-side markings, side +1, or of
    # their complement, side -1
    wall_list = walls(EXPP.n)
    for t, edge_walls in entries:
        assert len(edge_walls) == len(t.edges)
        for (mask, _), (i, side) in zip(_tail_sides(t), edge_walls):
            tail = tuple(j for j in range(1, EXPP.n + 1) if mask >> (j - 1) & 1)
            assert Wall.of(EXPP.n, tail) == wall_list[i]
            assert (wall_list[i].subset == tail) == (side == 1)


def test_genus0_cuts_are_walls():
    # the cut (mask, c) of a tree edge, read from the type list's table, is
    # its tail side, and the wall of mask: c = |mask| - 1, and both sides
    # hold at least two markings
    for n in range(4, 8):
        for e in itertools.product(range(n - 2), repeat=n):
            if sum(e) > n - 3:
                continue
            types = enumeration._types_for(0, e)
            table = tuple(types[0].cut_table)
            for t in types:
                assert t.cut_of(table) == _tail_sides(t)
                for mask, c in t.cut_of(table):
                    size = bin(mask).count("1")
                    assert c == size - 1 and 2 <= size <= n - 2, (n, e, t)


def test_tree_system_memos_hold_one_leak():
    # one system per (e, k): querying many leaks on one e opens new
    # systems in the bounded cache instead of growing the memos of one
    _tree_system.cache_clear()
    e = (0,) * 4
    leaks = range(1, 301)
    for k in leaks:  # x1 + x_j is 2k or 2k + 2, off every wall x1 + x_j = k
        chamber_polynomial(Problem.of(0, k, (2 * k + 1, -1, 1, -1), e))
    info = _tree_system.cache_info()
    assert info.currsize == info.maxsize == 128
    for k in leaks[-128:]:
        hits = _tree_system.cache_info().hits
        system = _tree_system(e, k)
        assert _tree_system.cache_info().hits == hits + 1
        assert not hasattr(system, "k")
        # the walls x1 + x_j at n = 4, on the hyperplane in x1..x3:
        # x1 + x2 - k, x1 + x3 - k, and -(x2 + x3 - k) for x1 + x4
        x1, x2, x3 = (Poly.variable(3, i) for i in (1, 2, 3))
        assert system.wall_polys == (x1 + x2 - k, x1 + x3 - k, -(x2 + x3 - k))
        assert all(p.nvars == 3 for p in system.wall_polys)
        assert len(system._chambers) == 1
        assert len(system.entries) == 3


def test_counts_and_chambers_compile_each_type_once(monkeypatch):
    # every record is built by CombinatorialType._make; count the builds by
    # the value fields (the rest are memos and the shared table)
    calls = Counter()
    record_type = enumeration.CombinatorialType
    make = record_type._make

    def counted(cls, fields):
        fields = tuple(fields)
        calls[fields[:7]] += 1
        return make(fields)

    monkeypatch.setattr(record_type, "_make", classmethod(counted))
    p = Problem.of(0, 1, (7, -1, -1, 1, -1, -1), (1, 0, 0, 0, 0, 0))
    for cached in (*vars(enumeration).values(), _tree_system):
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    compute_H(p)
    chamber_polynomial(p)
    types = enumeration._types_for(0, p.e)
    assert len(calls) == len(types) > 1
    assert set(calls.values()) == {1}
    assert set(calls) == {tuple(t[:7]) for t in types}


def _tree_entry(n, e, ends):
    """The (wall subset, side) of each edge, in the stored (u, v) directions,
    and the vertex multiplier of the tree type with these marking blocks."""
    wall_list = walls(n)
    return next((tuple((wall_list[i].subset, side) for i, side in edge_walls),
                 t.genus0_factor)
                for t, edge_walls in _tree_system(e, 0).entries
                if t.vertex_ends == ends)


def test_tree_system_forms():
    # the tail side {1, 2, 3} is the wall's subset
    assert _tree_entry(5, EXPP.e, ((1, 2, 3), (4, 5))) == ((((1, 2, 3), 1),), 1)
    # a valence-5 vertex with psi (1, 1, 0, 0): 2! / (1! 1!)
    assert _tree_entry(6, (1, 1, 0, 0, 0, 0), ((1, 2, 3, 4), (5, 6))) == (
        (((1, 2, 3, 4), 1),), 2)


def test_tree_system_caterpillar():
    assert _tree_entry(4, (0,) * 4, ((1, 2), (3, 4))) == ((((1, 2), 1),), 1)
    # edges (0, 2) and (1, 2): the tail of each is its leaf, so the second
    # edge's tail {3, 4} is the complement of the wall {1, 2, 5}
    assert _tree_entry(5, (0,) * 5, ((1, 2), (3, 4), (5,))) == (
        (((1, 2), 1), ((1, 2, 5), -1)), 1)
    # edges (0, 1) and (0, 2): the tail side of each holds the other leaf,
    # {1, 4, 5} and {1, 2, 3}
    assert _tree_entry(5, (0,) * 5, ((1,), (2, 3), (4, 5))) == (
        (((1, 4, 5), 1), ((1, 2, 3), 1)), 1)


def test_chamber_memo_one_polynomial_per_chamber():
    a, b = (8, -1, -1, 1, -4), (11, -1, -1, 1, -7)
    assert a != b and _wall_signs(EXPP, a) == _wall_signs(EXPP, b)
    pa, pb = Problem.of(0, 1, a, EXPP.e), Problem.of(0, 1, b, EXPP.e)
    first = chamber_polynomial(pa)
    assert chamber_polynomial(pb) is first
    assert _TreeSystem(EXPP.e, 1).polynomial(_wall_signs(EXPP, b)) == first
    for p in (pa, pb):
        assert first.eval(p.x[:-1]) == compute_H(p)
    # equal wall signs at another leak are another chamber polynomial
    x0, x2 = (-4, -4, -4, 12), (-4, -4, -4, 16)
    assert _wall_signs(Problem.of(0, 0, x0), x0) == \
        _wall_signs(Problem.of(0, 2, x2), x2)
    for p in (Problem.of(0, 0, x0), Problem.of(0, 2, x2)):
        assert chamber_polynomial(p).eval(p.x[:-1]) == compute_H(p)
    assert chamber_polynomial(Problem.of(0, 0, x0)) != \
        chamber_polynomial(Problem.of(0, 2, x2))


def test_wall_crossing_example():
    wall = Wall.of(5, (1, 2, 3))
    diff = wall_crossing(EXPP, wall)
    expected = (LinForm.of({1: 1, 2: 1, 3: 1}, k=-2)
                .as_poly(5, 1) * 2).substitute_degree(3)
    assert diff == expected
    assert str(diff) == "2*x1 + 2*x2 + 2*x3 - 4"
    assert wall_crossing_formula(EXPP, wall) == diff


def test_flanking_points_straddle_their_wall_alone():
    # wall_crossing trusts these points unchecked: x+- = z +- (e_a - e_b)
    # with z on the wall gives delta = +-1, and _find_flanking keeps no candidate
    # that is on, or changes sign across, any other wall
    for n in range(4, 8):
        for k in range(-2, 3):
            p = Problem.of(0, k, (k * (n - 2),) + (0,) * (n - 1))
            for wall in walls(n):
                x_plus, x_minus = chambers._find_flanking(p.n, p.k, wall)[:2]
                assert sum(x_plus) == sum(x_minus) == k * (n - 2)
                assert wall.form.evaluate(x_plus, k) == 1
                assert wall.form.evaluate(x_minus, k) == -1
                for other in walls(n):
                    if other != wall:
                        assert (other.form.evaluate(x_plus, k)
                                * other.form.evaluate(x_minus, k)) > 0


def _two_point_flanking(n, k, wall):
    """The first candidate whose two points have the same nonzero sign on
    every other wall, each point evaluated on its own."""
    I = wall.subset
    a = I[0]
    b = min(set(range(1, n + 1)) - set(I))
    for attempt in range(400):
        # the seeded draw: one randint per marking other than a and b, in
        # ascending order, then z_a on the wall and z_b on sum z = k(n - 2)
        rng = random.Random(f"flank:{n}:{k}:{I}:{attempt}")
        spread = 6 + 2 * attempt
        z = {}
        for i in range(1, n + 1):
            if i not in (a, b):
                z[i] = rng.randint(-spread, spread)
        z[a] = k * (len(I) - 1) - sum(z[i] for i in I if i != a)
        z[b] = k * (n - 2) - sum(z.values())
        z = [z[i] for i in range(1, n + 1)]
        step = [(i == a) - (i == b) for i in range(1, n + 1)]
        x_plus = tuple(c + d for c, d in zip(z, step))
        x_minus = tuple(c - d for c, d in zip(z, step))
        if all(w.form.evaluate(x_plus, k) * w.form.evaluate(x_minus, k) > 0
               for w in walls(n) if w.subset != wall.subset):
            return x_plus, x_minus
    raise AssertionError(f"no flanking points for {wall.subset}")


def test_find_flanking_matches_the_two_point_definition():
    # _find_flanking evaluates each wall once, at the wall point z, and keeps
    # the same candidates as the definition evaluating both points
    cases = 0
    for n in range(4, 9):
        for k in range(-4, 5):
            for wall in walls(n):
                assert chambers._find_flanking(n, k, wall)[:2] == \
                    _two_point_flanking(n, k, wall), (n, k, wall.subset)
                cases += 1
    assert cases == 1917


def test_flanking_points_past_the_seeded_search():
    # none of the 400 seeded candidates is generic for this wall, so the
    # points are the constructed ones; they meet the two-point definition
    # against each of the other 8,176 walls of n = 14
    n, k = 14, 1
    wall = Wall.of(n, (1, 3, 4, 5, 6, 10, 11, 14))
    x_plus, x_minus = chambers._find_flanking(n, k, wall)[:2]
    assert sum(x_plus) == sum(x_minus) == k * (n - 2)
    assert (wall.form.evaluate(x_plus, k), wall.form.evaluate(x_minus, k)) == (1, -1)
    others = [w for w in walls(n) if w != wall]
    assert len(others) == 8176
    assert all(w.form.evaluate(x_plus, k) * w.form.evaluate(x_minus, k) > 0
               for w in others)


def test_flank_chamber_is_the_chamber_of_x_plus():
    for n in range(4, 8):
        for k in range(-2, 3):
            for wall in walls(n):
                x_plus, _, chamber = chambers._find_flanking(n, k, wall)
                assert chamber == chambers._signs(k, x_plus)


def test_crossings_of_one_wall_share_one_flanking_search():
    # both crossings of a wall, for each psi vector, read x+ and its chamber
    # from one _find_flanking entry: wall_crossing on every call, the closed
    # form once, when it builds the wall's frame, which every psi vector shares
    wall = Wall.of(6, (1, 2, 3))
    chambers._find_flanking.cache_clear()
    chambers._formula_frame.cache_clear()
    for e in ((0,) * 6, (1,) + (0,) * 5):
        p = Problem.of(0, 1, (4,) + (0,) * 5, e)
        wall_crossing(p, wall)
        wall_crossing_formula(p, wall)
    info = chambers._find_flanking.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    info = chambers._formula_frame.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _recorded_systems(monkeypatch):
    """Patch ``_tree_system`` to record each chamber polynomial read from a
    system, as ((e, k), polynomial), in the returned list."""
    system_of, read = _tree_system, []

    class Recorded:
        def __init__(self, *key):
            self.key = key

        def polynomial(self, chamber):
            poly = system_of(*self.key).polynomial(chamber)
            read.append((self.key, poly))
            return poly

    monkeypatch.setattr(chambers, "_tree_system", Recorded)
    return read


def test_formula_reads_each_factor_once_per_psi_restriction(monkeypatch):
    # e = 0 reads both sides' factors; e = e1 restricts to (1, 0, 0, 0) on
    # the I side, a new factor, and to (0, 0, 0, 0) on the complement, whose
    # factor the frame already holds
    wall = Wall.of(6, (1, 2, 3))
    chambers._formula_frame.cache_clear()
    read = _recorded_systems(monkeypatch)
    for e in ((0,) * 6, (1,) + (0,) * 5):
        wall_crossing_formula(Problem.of(0, 1, (4,) + (0,) * 5, e), wall)
    assert [key for key, _ in read] == [
        ((0, 0, 0, 0), 1), ((0, 0, 0, 0), 1), ((1, 0, 0, 0), 1)]


@pytest.mark.parametrize("n", range(4, 9))
def test_wall_polys_are_shared_per_leak(n):
    # each wall form, a subset holding n entering as minus its complement's
    # form, in x1..x_{n-1}; one tuple serves every system of the (n, k)
    for k in range(-3, 4):
        assert chambers._wall_polys(n, k) == tuple(
            (w.form if n not in w.subset else LinForm.of(
                {j: -1 for j in range(1, n) if j not in w.subset},
                k=n - len(w.subset) - 1)).as_poly(n - 1, k)
            for w in walls(n)), (n, k)
        first = _TreeSystem((n - 3,) + (0,) * (n - 1), k)
        second = _TreeSystem((0,) * (n - 1) + (n - 3,), k)
        assert first.wall_polys is second.wall_polys is chambers._wall_polys(n, k)


def _crossing_cases(ns):
    for n in ns:
        for k in (-1, 0, 2):
            for e in _psi_vectors(n)[:3]:
                p = Problem.of(0, k, (k * (n - 2),) + (0,) * (n - 1), e)
                for wall in walls(n):
                    yield p, wall


def test_formula_reads_no_system_of_the_crossed_problem(monkeypatch):
    # the closed form checks the enumerated crossing only while it reads
    # neither the crossed problem's tree system nor its wall polynomials
    system_of, wall_polys_of = _tree_system, getattr(chambers, "_wall_polys", None)
    crossed = {}

    def tree_system(e, k):
        assert (e, k) != crossed["system"], "read the crossed system"
        return system_of(e, k)

    def wall_polys(n, k):
        assert (n, k) != crossed["walls"], "read the crossed wall polynomials"
        return wall_polys_of(n, k)

    monkeypatch.setattr(chambers, "_tree_system", tree_system)
    monkeypatch.setattr(chambers, "_wall_polys", wall_polys, raising=False)
    crossings = 0
    for p, wall in _crossing_cases((5, 6)):
        crossed.update(system=(p.e, p.k), walls=(p.n, p.k))
        wall_crossing_formula(p, wall)
        crossings += 1
    assert crossings == 315


def test_formula_builds_without_the_crossed_system(monkeypatch):
    # a frame built afresh reads neither a wall polynomial nor the crossed
    # problem's tree system, and gives the closed form of an unguarded build
    # (which leaves both subproblem systems in the tree-system cache)
    system_of = _tree_system

    def no_wall_polys(n, k):
        raise AssertionError(f"read the wall polynomials of {(n, k)}")

    crossings = 0
    for p, wall in _crossing_cases((4, 5, 6)):
        chambers._formula_frame.cache_clear()
        expected = wall_crossing_formula(p, wall)

        def tree_system(e, k):
            assert (e, k) != (p.e, p.k), "read the crossed system"
            return system_of(e, k)

        chambers._formula_frame.cache_clear()
        with monkeypatch.context() as patched:
            patched.setattr(chambers, "_wall_polys", no_wall_polys)
            patched.setattr(chambers, "_tree_system", tree_system)
            assert wall_crossing_formula(p, wall) == expected, (p, wall)
        crossings += 1
    assert crossings == 342


def test_formula_factors_are_the_subproblem_chamber_polynomials(monkeypatch):
    # each factor the formula reads equals the chamber polynomial of its
    # cut-off subproblem, built and checked as a Problem
    expected, cases = [], list(_crossing_cases((5, 6, 7)))
    for p, wall in cases:
        comp = tuple(i for i in range(1, p.n + 1) if i not in wall.subset)
        parts = ((wall.subset, -1), (comp, 1))
        if any(len(part) - 1 - sum(p.e[i - 1] for i in part) < 1
               for part, _ in parts):
            continue
        x_plus, _ = chambers._find_flanking(p.n, p.k, wall)[:2]
        for part, cut in parts:
            sub = Problem.of(0, p.k, tuple(x_plus[i - 1] for i in part) + (cut,),
                             tuple(p.e[i - 1] for i in part) + (0,))
            expected.append(((sub.e, sub.k), chamber_polynomial(sub)))
    read = _recorded_systems(monkeypatch)
    for p, wall in cases:
        # a fresh frame, so that every crossing reads both factors
        chambers._formula_frame.cache_clear()
        wall_crossing_formula(p, wall)
    assert len(read) == len(expected) > 300
    assert read == expected


def test_subproblem_references_are_generic():
    # wall_crossing_formula reads each cut-off subproblem's reference off x+
    # unchecked: the part's markings and the severed edge's -1 (I side) or
    # +1 (other side).  It lies off every subproblem wall, with the signs of
    # the wall point z = (x+ + x-) / 2 restricted to the part (edge at 0)
    walls_met = 0
    for n in range(4, 8):
        for k in range(-2, 3):
            p = Problem.of(0, k, (k * (n - 2),) + (0,) * (n - 1))
            for wall in walls(n):
                x_plus, x_minus = chambers._find_flanking(p.n, p.k, wall)[:2]
                comp = tuple(i for i in range(1, n + 1) if i not in wall.subset)
                for part, cut in ((wall.subset, -1), (comp, 1)):
                    ref = tuple(x_plus[i - 1] for i in part) + (cut,)
                    limit = tuple((x_plus[i - 1] + x_minus[i - 1]) // 2
                                  for i in part) + (0,)
                    m = len(ref)
                    assert sum(ref) == sum(limit) == k * (m - 2)
                    for sub_wall in walls(m):
                        walls_met += 1
                        assert (sub_wall.form.evaluate(ref, k)
                                * sub_wall.form.evaluate(limit, k)) > 0
    assert walls_met == 6100


@pytest.mark.parametrize("wall", [Wall.of(6, (2, 5)), Wall.of(6, (1, 2, 3, 4)),
                                  Wall.of(5, (1, 2, 3)), Wall.of(6, (1, 6))])
def test_wall_of_another_marking_count_is_a_wall_error(wall):
    p = Problem.of(0, 1, (2, 0, 0, 0))
    for call in (wall_crossing, wall_crossing_formula):
        with pytest.raises(WallError,
                           match=re.escape(f"{wall.subset} is no wall for n = 4")):
            call(p, wall)


@pytest.mark.parametrize("crossing", [wall_crossing, wall_crossing_formula])
def test_wall_crossing_needs_genus0(crossing):
    # the closed formula would build genus-0 subproblems and answer for g = 0
    p, wall = Problem.of(1, 1, (4, 0, 0, 0)), Wall.of(4, (1, 2))
    with pytest.raises(ProblemError, match="genus 0 only"):
        crossing(p, wall)


def test_wall_crossing_k0_two_chambers():
    # independent two-chamber check: each side's polynomial reproduces the
    # count at its reference point, and the difference is 2 (x1 + x2)
    p = Problem.of(0, 0, (1, 1, -1, -1))
    wall = Wall.of(4, (1, 2))
    x_plus, x_minus = chambers._find_flanking(p.n, p.k, wall)[:2]
    plus_poly = chamber_polynomial(p._replace(x=x_plus))
    minus_poly = chamber_polynomial(p._replace(x=x_minus))
    assert plus_poly.eval(x_plus[:-1]) == compute_H(Problem.of(0, 0, x_plus))
    assert minus_poly.eval(x_minus[:-1]) == compute_H(Problem.of(0, 0, x_minus))
    diff = wall_crossing(p, wall)
    assert diff == plus_poly - minus_poly
    assert diff == (LinForm.of({1: 1, 2: 1}).as_poly(4, 0) * 2).substitute_degree(0)
    assert wall_crossing_formula(p, wall) == diff


def _psi_vectors(n):
    return [(0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (n - 3,),
            (0, 1) + (0,) * (n - 2) if n < 5 else (0, 1, 1) + (0,) * (n - 3)]


def test_wall_crossing_is_the_difference_of_flanking_chambers():
    # the wall-local sum against the full chamber polynomials on both sides:
    # signed leaks, psi vectors on either side of each wall (n = 7 without
    # e = 0, whose chamber polynomials take 6 s)
    cases = [(n, k, e) for n in (4, 5, 6) for k in range(-2, 4)
             for e in _psi_vectors(n)]
    cases += [(7, k, e) for k in (0, 1) for e in _psi_vectors(7)[1:]]
    crossings = 0
    for n, k, e in cases:
        p = Problem.of(0, k, (k * (n - 2),) + (0,) * (n - 1), e)
        for wall in walls(n):
            x_plus, x_minus = chambers._find_flanking(p.n, p.k, wall)[:2]
            assert wall_crossing(p, wall) == (
                chamber_polynomial(p._replace(x=x_plus))
                - chamber_polynomial(p._replace(x=x_minus))), \
                (p, wall.subset)
            crossings += 1
    assert crossings == 1248


def test_wall_crossing_reads_only_the_types_on_its_wall(monkeypatch):
    # a crossing builds no chamber polynomial, and reads the contribution of
    # a type only when one of its edges lies on the crossed wall, once on
    # each side
    p = Problem.of(0, 1, (7, -1, -1, 1, -1, -1), (1, 0, 0, 0, 0, 0))
    wall_list = walls(p.n)
    read = Counter()
    contribution = _TreeSystem.contribution

    def counted(self, idx, signs):
        read[idx] += 1
        return contribution(self, idx, signs)

    monkeypatch.setattr(_TreeSystem, "contribution", counted)
    for wall in (Wall.of(6, (1, 2, 3)), Wall.of(6, (1, 3, 5)), Wall.of(6, (2, 6))):
        _tree_system.cache_clear()
        read.clear()
        wall_crossing(p, wall)
        system = _tree_system(p.e, p.k)
        assert system._chambers == {}
        on_wall = {idx for idx, (_, edge_walls) in enumerate(system.entries)
                   if any(wall_list[i] == wall for i, _ in edge_walls)}
        assert 0 < len(on_wall) < len(system.entries)
        assert read == {idx: 2 for idx in on_wall}, wall.subset


def test_wall_crossing_empty_chambers():
    # psi weight concentrated on one side empties the cut piece
    p = Problem.of(0, 1, (5, -1, -1, -1), (0, 1, 0, 0))
    wall = Wall.of(4, (2, 3))
    assert wall_crossing_formula(p, wall) == wall_crossing(p, wall)


def test_wall_crossing_matches_formula_random():
    rng = random.Random(23)
    for n in (4, 5):
        wall_list = walls(n)
        for k in (0, 1, 2):
            for _ in range(6):
                total_e = rng.randint(0, n - 3)
                e = [0] * n
                for _ in range(total_e):
                    e[rng.randrange(n)] += 1
                p = Problem.of(0, k, (k * (n - 2),) + (0,) * (n - 1), tuple(e))
                w = rng.choice(wall_list)
                assert wall_crossing(p, w) == wall_crossing_formula(p, w)


def test_degree_bound():
    assert chamber_polynomial(EXPP).total_degree() <= 5 - 3 - 1
    p = Problem.of(0, 1, (7, -2, -2, 1, -1))
    assert chamber_polynomial(p).total_degree() <= 2


def test_polynomiality_grid_n4():
    # every generic integer point's count matches its chamber polynomial
    k = 1
    for x in itertools.product(range(-6, 7), repeat=3):
        profile = x + (k * 2 - sum(x),)
        if abs(profile[-1]) > 8:
            continue
        p = Problem.of(0, k, profile)
        if any(w.form.evaluate(profile, k) == 0 for w in walls(4)):
            continue
        assert compute_H(p) == chamber_polynomial(p).eval(profile[:-1])


def test_polynomiality_random_larger():
    # the enumerator and the symbolic tree system are independent paths
    rng = random.Random(31)
    hits = 0
    while hits < 30:
        n = rng.randint(5, 6)
        k = rng.randint(-2, 2)
        total_e = rng.randint(0, n - 3)
        e = [0] * n
        for _ in range(total_e):
            e[rng.randrange(n)] += 1
        x = [rng.randint(-7, 7) for _ in range(n - 1)]
        x.append(k * (n - 2) - sum(x))
        if any(w.form.evaluate(x, k) == 0 for w in walls(n)):
            continue
        p = Problem.of(0, k, x, e)
        assert compute_H(p) == chamber_polynomial(p).eval(x[:-1])
        hits += 1


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_chamber_polynomials_match_counts_off_the_walls(n):
    # chamber polynomials against the enumerator, an independent path, at
    # seeded signed points off every wall: every leak -2..2, at e = 0 and
    # with one psi
    rng = random.Random(f"chambers-vs-counts:{n}")
    for k in range(-2, 3):
        for psi in (False, True):
            e = [0] * n
            if psi:
                e[rng.randrange(n)] = 1
            hits = 0
            while hits < (3 if n < 7 else 2):
                x = [rng.randint(-6, 6) for _ in range(n - 1)]
                x.append(k * (n - 2) - sum(x))
                if any(w.form.evaluate(x, k) == 0 for w in walls(n)):
                    continue
                p = Problem.of(0, k, x, e)
                assert chamber_polynomial(p).eval(x[:-1]) == compute_H(p), p
                hits += 1


def test_classify_examples():
    assert classify(Problem.of(0, 2, (1, 1, 1, 1))) == ZERO
    assert classify(Problem.of(0, 2, (1, 1, 1, 1), (1, 0, 0, 0))) == POSITIVE
    assert classify(Problem.of(0, 0, (0, 0, 0, 0))) == ZERO
    assert classify(Problem.of(0, 0, (0, 0, 0, 0), (1, 0, 0, 0))) == POSITIVE
    assert classify(Problem.of(0, 3, (1, 1, 1))) == POSITIVE
    assert classify(Problem.of(0, -2, (-1, -1, -1, -1))) == ZERO


def test_classify_matches_count_at_leak_zero():
    for e in ((0, 0, 0, 0), (1, 0, 0, 0)):
        p = Problem.of(0, 0, (0, 0, 0, 0), e)
        assert (classify(p) == ZERO) == (compute_H(p) == 0)
    scattered = Problem.of(0, 0, (3, -1, -1, -1))
    assert classify(scattered) == POSITIVE
    assert compute_H(scattered) > 0


def test_classify_matches_the_subset_definition():
    # at even k = 2h > 0 and x = h m, classify says Zero exactly when
    # sum_I e_i < sum_I m_i - |I| + 1 for every nonempty subset I; x and k
    # turned around ask the same
    rng = random.Random(29)
    zeros = 0
    for _ in range(300):
        n = rng.randint(4, 7)
        cuts = sorted(rng.sample(range(1, 2 * (n - 2)), n - 1))
        m = [b - a for a, b in zip([0] + cuts, cuts + [2 * (n - 2)])]
        e = [0] * n
        for _ in range(rng.randint(0, n - 3)):
            e[rng.randrange(n)] += 1
        literal = all(sum(e[i] for i in subset) < sum(m[i] for i in subset) - r + 1
                      for r in range(1, n + 1)
                      for subset in itertools.combinations(range(n), r))
        h, sign = rng.randint(1, 3), rng.choice((1, -1))
        p = Problem.of(0, sign * 2 * h, [sign * h * mi for mi in m], e)
        assert (classify(p) == ZERO) == literal, (m, e)
        zeros += literal
    assert 0 < zeros < 300


def test_classify_agrees_with_count_small_grid():
    for k in (2, 3):
        for n in (3, 4):
            total = k * (n - 2)
            for x in itertools.product(range(1, 3 * k + 1), repeat=n):
                if sum(x) != total:
                    continue
                for e in itertools.product(range(n - 2), repeat=n):
                    if sum(e) > n - 3:
                        continue
                    p = Problem.of(0, k, x, e)
                    vanishes = compute_H(p) == 0
                    assert (classify(p) == ZERO) == vanishes


def test_classify_agrees_with_count_signed_grid():
    # signed profiles, leaks of both signs, every admissible psi vector
    cases = 0
    for n in (3, 4):
        vectors = [e for e in itertools.product(range(n - 2), repeat=n)
                   if sum(e) <= n - 3]
        for k in range(-2, 3):
            for head in itertools.product(range(-3, 4), repeat=n - 1):
                x = head + (k * (n - 2) - sum(head),)
                if abs(x[-1]) > 3:
                    continue
                for e in vectors:
                    p = Problem.of(0, k, x, e)
                    assert (classify(p) == ZERO) == (compute_H(p) == 0), p
                    cases += 1
    assert cases == 4880


def test_classify_needs_genus0():
    with pytest.raises(ProblemError):
        classify(Problem.of(1, 1, (7, -3, -1), (1, 0, 0)))
