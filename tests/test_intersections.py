import itertools
import math
import random
from fractions import Fraction

import pytest

from leakyhurwitz.covers import Problem
from leakyhurwitz.intersections import (psi_integral, psi_kappa_integral,
                                        recursion_rhs)


def test_psi_integral_values():
    assert psi_integral(5, (1, 1, 0, 0, 0)) == 2
    assert psi_integral(3, (0, 0, 0)) == 1
    assert psi_integral(6, (3, 0, 0, 0, 0, 0)) == 1
    assert psi_integral(6, (1, 1, 1, 0, 0, 0)) == 6


def test_psi_integral_off_dimension():
    assert psi_integral(6, (2, 2, 0, 0, 0, 0)) == 0
    assert psi_integral(4, (0, 0, 0, 0)) == 0
    assert psi_integral(2, (0, 0)) == 0


def test_psi_kappa_base_cases():
    assert psi_kappa_integral(3, (0, 0, 0), 0) == 1
    assert psi_kappa_integral(4, (0, 0, 0, 0), 1) == 1
    assert psi_kappa_integral(5, (0, 0, 0, 0, 0), 2) == 5
    assert psi_kappa_integral(6, (0, 0, 0, 0, 0, 0), 3) == 61
    assert psi_kappa_integral(7, (0,) * 7, 4) == 1379


def test_psi_kappa_reduces_to_psi():
    for n in range(3, 9):
        for e in itertools.combinations_with_replacement(range(n - 2), n):
            assert psi_kappa_integral(n, e, 0) == psi_integral(n, e)


def test_psi_kappa_off_dimension_zero():
    assert psi_kappa_integral(5, (1, 0, 0, 0, 0), 3) == 0
    assert psi_kappa_integral(5, (0, 0, 0, 0, 0), 1) == 0


def test_psi_kappa_negative_exponents_zero():
    assert psi_kappa_integral(5, (3, -1, 0, 0, 0), 0) == 0
    assert psi_kappa_integral(5, (1, 0, 0, 0, 0), -1) == 0
    assert psi_integral(5, (3, -1, 0, 0, 0)) == 0


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


def _psi_kappa_brute(n, e, f):
    """Expand kappa_1^f into pure psi integrals over set partitions.

    Each partition block of size b contributes one extra marking with psi
    power b+1 and a sign; blocks arise from trading kappa_1 powers through
    forgetful maps, where all boundary corrections die against the extra
    psi squared.
    """
    total = Fraction(0)
    for part in _set_partitions(range(f)):
        coeff = (-1) ** (f - len(part))
        exps = tuple(e) + tuple(len(block) + 1 for block in part)
        total += coeff * psi_integral(n + len(part), exps)
    return total


def test_psi_kappa_vs_set_partition_oracle():
    for n in range(3, 7):
        for total_e in range(0, n - 2):
            f = n - 3 - total_e
            for e in itertools.combinations_with_replacement(range(total_e + 1), n):
                if sum(e) != total_e:
                    continue
                assert psi_kappa_integral(n, e, f) == _psi_kappa_brute(n, e, f)


def _random_problem(rng, n, k, e):
    x = [rng.randint(-6, 6) for _ in range(n - 1)]
    x.append(k * (n - 2) - sum(x))
    return Problem.of(0, k, x, e)


def test_recursion_rhs_n4_identity():
    rng = random.Random(3)
    e = (1, 0, 0, 0)
    for _ in range(20):
        k = rng.randint(-2, 2)
        p = _random_problem(rng, 4, k, e)
        # H(x, e, 0) = 1 here, so the right side must equal 2 x1
        assert recursion_rhs(p, 1, 0) == 2 * p.x[0]


def test_recursion_rhs_n5_identity():
    rng = random.Random(5)
    e = (1, 1, 0, 0, 0)
    for _ in range(20):
        p = _random_problem(rng, 5, 1, e)
        assert recursion_rhs(p, 2, 0) == 3 * p.x[1] * 2


def test_recursion_rhs_degenerate_k0():
    # no two-vertex cover has positive weight when every split is balanced
    p = Problem.of(0, 0, (0, 0, 0, 0), (1, 0, 0, 0))
    assert recursion_rhs(p, 1, 0) == 0


def test_recursion_identity_random():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(4, 6)
        k = rng.randint(-2, 2)
        total_e = rng.randint(1, n - 3)
        e = [0] * n
        for _ in range(total_e):
            e[rng.randrange(n)] += 1
        f = n - 3 - total_e
        p = _random_problem(rng, n, k, tuple(e))
        choices = [i + 1 for i in range(n) if e[i] > 0]
        s = rng.choice(choices)
        lhs = p.x[s - 1] * (n - 2) * psi_kappa_integral(n, tuple(e), f)
        assert recursion_rhs(p, s, f) == lhs


def test_recursion_rhs_precondition_errors():
    p = Problem.of(0, 1, (3, -1, 0, 0), (1, 0, 0, 0))
    with pytest.raises(ValueError):
        recursion_rhs(p, 2, 0)  # e_2 = 0
    with pytest.raises(ValueError):
        recursion_rhs(p, 1, 3)  # off dimension
    with pytest.raises(ValueError):
        recursion_rhs(Problem.of(1, 0, (0, 0), (1, 0)), 1, 1)  # genus 1
    for s in (0, 5):
        with pytest.raises(ValueError, match="out of range 1..4"):
            recursion_rhs(p, s, 0)


def test_recursion_rhs_at_zero_marking_weight():
    # the product form of the identity holds even when x_s = 0
    p = Problem.of(0, 1, (0, 3, -1, 0), (1, 0, 0, 0))
    assert recursion_rhs(p, 1, 0) == 0


def test_psi_kappa_independent_of_caller_order():
    a = psi_kappa_integral(6, (2, 1, 0, 0, 0, 0), 0)
    b = psi_kappa_integral(6, (0, 0, 1, 0, 2, 0), 0)
    assert a == b == math.factorial(3) // 2
