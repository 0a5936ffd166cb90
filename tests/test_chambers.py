import itertools
import random
import re
from collections import Counter

import pytest

import leakyhurwitz.chambers as chambers
import leakyhurwitz.enumeration as enumeration
from leakyhurwitz.chambers import (POSITIVE, ZERO, Wall, WallError, _TreeSystem,
                                   _tree_system, chamber_polynomial, classify,
                                   flanking_points, wall_crossing,
                                   wall_crossing_formula, walls)
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


def test_walls_canonical_subset():
    w = Wall.of(5, (3, 4, 5))
    assert w.subset == (1, 2)


def test_wall_subset_bounds():
    with pytest.raises(WallError):
        Wall.of(4, (1,))
    with pytest.raises(WallError):
        Wall.of(4, (1, 2, 3))


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
    assert chamber_polynomial(p_other) == chamber_polynomial(EXPP, at=p_other.x)
    assert chamber_polynomial(p_other) != chamber_polynomial(EXPP)


def test_chamber_polynomial_needs_genus0():
    with pytest.raises(ProblemError):
        chamber_polynomial(Problem.of(1, 1, (7, -3, -1), (1, 0, 0)))


@pytest.mark.parametrize("at, match", [
    ((6, -1, -1, 1, -2, 0), "length 6"), ((6, -1, -1, 1, -1), "hyperplane"),
    ((6, -1, -1), "length 3")])
def test_reference_point_faults_are_problem_errors(at, match):
    with pytest.raises(ProblemError, match=match):
        chamber_polynomial(EXPP, at=at)


def test_tree_system_cache_is_bounded():
    assert _tree_system.cache_info().maxsize == 128
    assert _tree_system(EXPP.n, EXPP.e) is _tree_system(EXPP.n, EXPP.e)


def test_tree_system_holds_the_type_records():
    _tree_system.cache_clear()
    entries = _tree_system(EXPP.n, EXPP.e).entries
    types = enumeration._types_for(0, EXPP.n, EXPP.e)
    assert len(entries) == len(types)
    assert all(entries[i][0] is types[i] for i in range(len(types)))


def test_counts_and_chambers_compile_each_type_once(monkeypatch):
    calls = Counter()
    compile_type = enumeration._compile

    def counted(*args):
        calls[args] += 1
        return compile_type(*args)

    for owner in (enumeration, chambers):  # wherever the name is imported
        if hasattr(owner, "_compile"):
            monkeypatch.setattr(owner, "_compile", counted)
    p = Problem.of(0, 1, (7, -1, -1, 1, -1, -1), (1, 0, 0, 0, 0, 0))
    for cached in (*vars(enumeration).values(), _tree_system):
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    compute_H(p)
    chamber_polynomial(p)
    assert len(calls) == len(enumeration._types_for(0, p.n, p.e)) > 1
    assert set(calls.values()) == {1}


def _tree_entry(n, e, ends):
    """The edge forms, as flows in the stored (u, v) directions, and the
    vertex multiplier of the tree type with these marking blocks."""
    return next((forms, t.genus0_factor)
                for t, forms in _tree_system(n, e).entries
                if t.vertex_ends == ends)


def test_tree_system_forms():
    assert _tree_entry(5, EXPP.e, ((1, 2, 3), (4, 5))) == (
        (LinForm.of({1: 1, 2: 1, 3: 1}, k=-2),), 1)
    # a valence-5 vertex with psi (1, 1, 0, 0): 2! / (1! 1!)
    assert _tree_entry(6, (1, 1, 0, 0, 0, 0), ((1, 2, 3, 4), (5, 6))) == (
        (LinForm.of({1: 1, 2: 1, 3: 1, 4: 1}, k=-3),), 2)


def test_tree_system_caterpillar():
    assert _tree_entry(4, (0,) * 4, ((1, 2), (3, 4))) == (
        (LinForm.of({1: 1, 2: 1}, k=-1),), 1)
    # edges (0, 2) and (1, 2): the tail of each is its leaf
    assert _tree_entry(5, (0,) * 5, ((1, 2), (3, 4), (5,))) == (
        (LinForm.of({1: 1, 2: 1}, k=-1), LinForm.of({3: 1, 4: 1}, k=-1)), 1)
    # edges (0, 1) and (0, 2): the tail side of each holds the other leaf
    assert _tree_entry(5, (0,) * 5, ((1,), (2, 3), (4, 5))) == (
        (LinForm.of({1: 1, 4: 1, 5: 1}, k=-2),
         LinForm.of({1: 1, 2: 1, 3: 1}, k=-2)), 1)


def test_chamber_memo_one_polynomial_per_chamber():
    a, b = (8, -1, -1, 1, -4), (11, -1, -1, 1, -7)
    assert a != b and _wall_signs(EXPP, a) == _wall_signs(EXPP, b)
    pa, pb = Problem.of(0, 1, a, EXPP.e), Problem.of(0, 1, b, EXPP.e)
    first = chamber_polynomial(pa)
    assert chamber_polynomial(pb) is first
    chamber = tuple(s > 0 for s in _wall_signs(EXPP, b))
    assert _TreeSystem(5, EXPP.e).polynomial(1, b, chamber) == first
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
    # with z on the wall gives delta = +-1, and _flanking keeps no candidate
    # that is on, or changes sign across, any other wall
    for n in range(4, 8):
        for k in range(-2, 3):
            p = Problem.of(0, k, (k * (n - 2),) + (0,) * (n - 1))
            for wall in walls(n):
                x_plus, x_minus = flanking_points(p, wall)
                assert sum(x_plus) == sum(x_minus) == k * (n - 2)
                assert wall.form.evaluate(x_plus, k) == 1
                assert wall.form.evaluate(x_minus, k) == -1
                for other in walls(n):
                    if other != wall:
                        assert (other.form.evaluate(x_plus, k)
                                * other.form.evaluate(x_minus, k)) > 0


@pytest.mark.parametrize("wall", [Wall.of(6, (2, 5)), Wall.of(6, (1, 2, 3, 4)),
                                  Wall.of(5, (1, 2, 3))])
def test_wall_of_another_marking_count_is_a_wall_error(wall):
    p = Problem.of(0, 1, (2, 0, 0, 0))
    for crossing in (wall_crossing, wall_crossing_formula):
        with pytest.raises(WallError,
                           match=re.escape(f"{wall.subset} is no wall for n = 4")):
            crossing(p, wall)


def test_wall_crossing_k0_two_chambers():
    # independent two-chamber check: each side's polynomial reproduces the
    # count at its reference point, and the difference is 2 (x1 + x2)
    p = Problem.of(0, 0, (1, 1, -1, -1))
    wall = Wall.of(4, (1, 2))
    x_plus, x_minus = flanking_points(p, wall)
    plus_poly = chamber_polynomial(p, at=x_plus)
    minus_poly = chamber_polynomial(p, at=x_minus)
    assert plus_poly.eval(x_plus[:-1]) == compute_H(Problem.of(0, 0, x_plus))
    assert minus_poly.eval(x_minus[:-1]) == compute_H(Problem.of(0, 0, x_minus))
    diff = wall_crossing(p, wall)
    assert diff == plus_poly - minus_poly
    assert diff == (LinForm.of({1: 1, 2: 1}).as_poly(4, 0) * 2).substitute_degree(0)
    assert wall_crossing_formula(p, wall) == diff


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


def test_classify_subset_scan_matches_brute_force():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(3, 6)
        m = [rng.randint(1, 4) for _ in range(n)]
        e = [rng.randint(0, 3) for _ in range(n)]
        fast = all(ei < mi for mi, ei in zip(m, e))
        brute = True
        for r in range(n + 1):
            for subset in itertools.combinations(range(n), r):
                if sum(e[i] for i in subset) >= sum(m[i] for i in subset) - r + 1:
                    brute = False
        assert fast == brute


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
