"""Genus-0 psi and kappa_1 intersection numbers and the descendant recursion.

In genus 0 the pure psi integral over the n-marked moduli space is the
multinomial (n-3)!/prod(e_i!) when |e| = n-3, and 0 otherwise.  Mixed
integrals with a power of kappa_1 reduce to pure psi integrals by trading
one kappa_1 for a new marking carrying psi powers:

    int psi^e kappa_1^f
        = sum_{j=0}^{f-1} (-1)^j C(f-1, j) int psi^e psi_new^(j+2) kappa_1^(f-1-j)

on the moduli space with one extra marking.  The trade follows from kappa_1
being the forgetful pushforward of psi^2 together with the comparison of
kappa_1 under pullback; it terminates at f = 0.

The descendant recursion trades one psi power at a marking s for a kappa_1
power plus a sum of two-vertex cover contributions:

    x_s (2g-2+n) H(x, e, f) = k H(x, e - d_s, f+1)
        + sum_pi rho(pi, s) mult(pi) C(f; f0, f1) H(left) H(right)

where pi runs over two-vertex covers, rho is the stability count of the
vertex opposite s (negated when s sits on the right vertex), and f0, f1 are
forced by the dimension of each side.  Only the genus-0 instance is
executed here; its vertex integrals are independent of x and k.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .covers import Problem
from .vertexdata import genus0_vertex_mult


def psi_integral(n: int, e: tuple[int, ...] | list[int]) -> int:
    """(n-3)!/prod(e_i!), the genus-0 vertex multinomial, when |e| = n-3
    and n >= 3, else 0; an int either way."""
    e = tuple(e)
    if any(v < 0 for v in e) or n < 3 or sum(e) != n - 3:
        return 0
    return genus0_vertex_mult(n, e)


@lru_cache(maxsize=1024)
def _psi_kappa(n: int, e_sorted: tuple[int, ...], f: int) -> Fraction:
    if f == 0:
        return Fraction(psi_integral(n, e_sorted))
    total = Fraction(0)
    for j in range(f):
        coeff = (-1) ** j * math.comb(f - 1, j)
        sub = tuple(sorted(e_sorted + (j + 2,)))
        total += coeff * _psi_kappa(n + 1, sub, f - 1 - j)
    return total


def psi_kappa_integral(n: int, e: tuple[int, ...] | list[int], f: int = 0) -> Fraction:
    """Genus-0 integral of psi^e kappa_1^f; exact, 0 off dimension."""
    e = tuple(e)
    if any(v < 0 for v in e) or f < 0:
        return Fraction(0)
    if n < 3 or sum(e) + f != n - 3:
        return Fraction(0)
    return _psi_kappa(n, tuple(sorted(e)), f)


def recursion_rhs(p: Problem, s: int, f: int) -> Fraction:
    """Right side of the psi-trading identity at marking s for a genus-0 p.

    Equals x_s (2g-2+n) psi_kappa_integral(n, e, f) whenever the inputs are
    admissible; the equality itself is exercised by the test suite.
    """
    if p.genus != 0:
        raise ValueError("recursion execution needs genus-0 vertex data")
    n, k, e = p.n, p.k, p.e
    if not 1 <= s <= n:
        raise ValueError(f"marking {s} out of range 1..{n}")
    if e[s - 1] < 1:
        raise ValueError(f"marking {s} carries no psi power to trade")
    if f < 0 or sum(e) + f != n - 3:
        raise ValueError(f"kappa power {f} off dimension for |e| = {sum(e)}")

    es = tuple(v - 1 if i == s - 1 else v for i, v in enumerate(e))
    total = k * psi_kappa_integral(n, es, f + 1)

    markings = range(1, n + 1)
    for size in range(2, n - 1):
        for left in itertools.combinations(markings, size):
            left_set = set(left)
            weight = sum(p.x[i - 1] for i in left) - k * (size - 1)
            if weight <= 0:
                continue
            right = tuple(i for i in markings if i not in left_set)
            e_left = tuple(es[i - 1] for i in left)
            e_right = tuple(es[i - 1] for i in right)
            f_left = size - 2 - sum(e_left)
            f_right = len(right) - 2 - sum(e_right)
            if f_left < 0 or f_right < 0:
                continue
            rho = len(right) - 1 if s in left_set else -(size - 1)
            contribution = (rho * weight * math.comb(f, f_left)
                            * psi_kappa_integral(size + 1, e_left + (0,), f_left)
                            * psi_kappa_integral(len(right) + 1, e_right + (0,), f_right))
            total += contribution
    return Fraction(total)
