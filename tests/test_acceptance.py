"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import leakyhurwitz.chambers as chambers
from leakyhurwitz.chambers import (ZERO, chamber_polynomial, classify, walls,
                                   wall_crossing, wall_crossing_formula)
from leakyhurwitz.covers import Problem
from leakyhurwitz.enumeration import compute_H, enumerate_covers
from leakyhurwitz.exactarith import Poly
from leakyhurwitz.intersections import (psi_integral, psi_kappa_integral,
                                        recursion_rhs)


@contextmanager
def verdict(name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name} ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS {name} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded {budget}s budget: {elapsed:.2f}s"


def psi_vectors(n, cap):
    seen = set()
    for total in range(cap + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            e = [0] * n
            for i in combo:
                e[i] += 1
            seen.add(tuple(e))
    return sorted(seen)


def test_criterion_1_golden_number():
    with verdict("criterion 1: golden count 51/4 with cover multiset", budget=1.0):
        p = Problem.of(1, 1, (7, -3, -1), (1, 0, 0))
        covers = enumerate_covers(p)
        mults = sorted(wc.multiplicity for wc in covers)
        assert mults == sorted([Fraction(2), Fraction(3), Fraction(175, 24),
                                Fraction(1, 2), Fraction(-1, 24)])
        assert sum(mults) == Fraction(51, 4)


def test_criterion_2_chamber_polynomial():
    with verdict("criterion 2: chamber polynomial 3*x1 - 3 and 10 grid points",
                 budget=1.0):
        p = Problem.of(0, 1, (6, -1, -1, 1, -2), (1, 0, 0, 0, 0))
        poly = chamber_polynomial(p)
        assert poly == (Poly.variable(4, 1) * 3 - Poly.const(4, 3))
        signs = tuple(1 if w.form.evaluate(p.x, p.k) > 0 else -1
                      for w in walls(5))
        points = []
        for t in range(5, 15):
            x = (t, -1, -1, 1, 4 - t)
            point_signs = tuple(1 if w.form.evaluate(x, p.k) > 0 else -1
                                for w in walls(5))
            if point_signs == signs:
                points.append(x)
        assert len(points) == 10
        for x in points:
            assert compute_H(Problem.of(0, 1, x, p.e)) == poly.eval(x[:-1])


_SWEEP: list | None = None


def crossing_sweep():
    """Dual-path wall-crossing records for n in {4,5,6}, k in {0,1,2}, all e."""
    global _SWEEP
    if _SWEEP is None:
        records = []
        for n in (4, 5, 6):
            wall_list = walls(n)
            vectors = psi_vectors(n, n - 3)
            for k in (0, 1, 2):
                for e in vectors:
                    p = Problem.of(0, k, (k * (n - 2),) + (0,) * (n - 1), e)
                    for w in wall_list:
                        diff = wall_crossing(p, w)
                        closed = wall_crossing_formula(p, w)
                        records.append((n, k, e, w.subset, diff, closed))
        _SWEEP = records
    return _SWEEP


def test_criterion_3_wall_crossing():
    with verdict("criterion 3: wall crossing dual paths agree everywhere",
                 budget=60.0):
        sweep = crossing_sweep()
        p = Problem.of(0, 1, (6, -1, -1, 1, -2), (1, 0, 0, 0, 0))
        golden = next(r for r in sweep
                      if r[:4] == (5, 1, (1, 0, 0, 0, 0), (1, 2, 3)))
        expected = (Poly.variable(5, 1) + Poly.variable(5, 2)
                    + Poly.variable(5, 3) - Poly.const(5, 2)) * 2
        assert golden[4] == expected.substitute_degree(3)
        assert golden[4] == wall_crossing(
            p, next(w for w in walls(5) if w.subset == (1, 2, 3)))
        for n, k, e, subset, diff, closed in sweep:
            assert diff == closed, (n, k, e, subset)
        assert len(sweep) == (3 * 5 + 10 * 21 + 25 * 84) * 3


def test_criterion_4_genus1_family():
    with verdict("criterion 4: genus-1 two-marking family closed form",
                 budget=5.0):
        for k in (1, 2):
            for span in range(2, 7):
                d = span + k
                value = compute_H(Problem.of(1, k, (d, -(d - 2 * k))))
                expected = (Fraction(1, 12) * span * (span - 1) * (span + 1)
                            - Fraction(k, 24))
                assert value == expected, (k, d)


def test_criterion_5_vanishing_classifier():
    with verdict("criterion 5: classifier agrees with exact vanishing on grid",
                 budget=120.0):
        cases = 0
        for k in (1, 2, 3):
            for n in (3, 4, 5):
                total = k * (n - 2)
                vectors = psi_vectors(n, n - 3)
                for x in itertools.product(range(1, 3 * k + 1), repeat=n):
                    if sum(x) != total:
                        continue
                    for e in vectors:
                        p = Problem.of(0, k, x, e)
                        vanishes = compute_H(p) == 0
                        assert (classify(p) == ZERO) == vanishes, (k, x, e)
                        cases += 1
        assert cases > 1500


def test_criterion_6_degree_bound():
    with verdict("criterion 6: chamber polynomial degree bound n-3-|e|"):
        p = Problem.of(0, 1, (6, -1, -1, 1, -2), (1, 0, 0, 0, 0))
        assert chamber_polynomial(p).total_degree() <= 5 - 3 - 1
        for n, k, e, subset, diff, closed in crossing_sweep():
            bound = n - 3 - sum(e)
            assert diff.total_degree() <= bound, (n, k, e, subset)
        # explicit chamber polynomials across the same parameter range
        for n in (4, 5, 6):
            for k in (0, 1, 2):
                for e in psi_vectors(n, n - 3):
                    prob = Problem.of(0, k, (k * (n - 2),) + (0,) * (n - 1), e)
                    wall = walls(n)[0]
                    x_plus, _ = chambers._find_flanking(
                        prob.n, prob.k, wall)[:2]
                    poly = chamber_polynomial(prob._replace(x=x_plus))
                    assert poly.total_degree() <= n - 3 - sum(e), (n, k, e)


def test_criterion_7_recursion_identity():
    with verdict("criterion 7: descendant recursion identity at genus 0"):
        rng = random.Random("acceptance-recursion")
        checked = 0
        for n in (4, 5, 6):
            for e in psi_vectors(n, n - 3):
                if sum(e) == 0:
                    continue
                f = n - 3 - sum(e)
                for s in (i + 1 for i in range(n) if e[i] > 0):
                    for _ in range(20):
                        k = rng.randint(-2, 2)
                        x = [rng.randint(-8, 8) for _ in range(n - 1)]
                        x.append(k * (n - 2) - sum(x))
                        p = Problem.of(0, k, x, e)
                        lhs = x[s - 1] * (n - 2) * psi_kappa_integral(n, e, f)
                        assert recursion_rhs(p, s, f) == lhs, (n, k, x, e, s, f)
                        checked += 1
        assert checked >= 4000


def test_criterion_8_psi_kappa_oracle():
    with verdict("criterion 8: psi-kappa evaluator vs multinomial and "
                 "set-partition oracle"):
        for n in range(3, 9):
            for e in itertools.combinations_with_replacement(range(n - 2), n):
                if sum(e) == n - 3:
                    assert psi_kappa_integral(n, e, 0) == psi_integral(n, e)
                    assert psi_integral(n, e) > 0
        for n in range(3, 7):
            for total_e in range(0, n - 2):
                f = n - 3 - total_e
                if f < 1:
                    continue
                for e in itertools.combinations_with_replacement(
                        range(total_e + 1), n):
                    if sum(e) != total_e:
                        continue
                    assert psi_kappa_integral(n, e, f) == _set_partition_oracle(n, e, f)


def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _set_partition_oracle(n, e, f):
    total = Fraction(0)
    for part in _set_partitions(range(f)):
        coeff = (-1) ** (f - len(part))
        exps = tuple(e) + tuple(len(block) + 1 for block in part)
        total += coeff * psi_integral(n + len(part), exps)
    return total


def test_criterion_9_nonnegativity_and_symmetry():
    with verdict("criterion 9: genus-0 nonnegativity and turn-around symmetry"):
        rng = random.Random("acceptance-symmetry")
        for _ in range(100):
            n = rng.randint(3, 6)
            k = rng.randint(-3, 3)
            total_e = rng.randint(0, n - 3)
            e = [0] * n
            for _ in range(total_e):
                e[rng.randrange(n)] += 1
            x = [rng.randint(-6, 6) for _ in range(n - 1)]
            x.append(k * (n - 2) - sum(x))
            p = Problem.of(0, k, x, e)
            covers = enumerate_covers(p)
            for wc in covers:
                assert wc.multiplicity >= 0, (k, x, e)
            total = sum((wc.multiplicity for wc in covers), Fraction(0))
            assert total == compute_H(p.turned_around()), (k, x, e)
        # the mirrored genus-1 golden input, using the negative-leak fixtures
        p = Problem.of(1, -1, (-7, 3, 1), (1, 0, 0))
        assert compute_H(p) == Fraction(51, 4)
        assert compute_H(p) == compute_H(p.turned_around())
