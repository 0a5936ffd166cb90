"""Genus-0 chamber polynomials, walls, wall crossings, and the vanishing test.

For genus 0 every cover is a tree.  An edge cutting off the markings I has
weight |delta_I|, delta_I = sum_{i in I} x_i - k (|I| - 1), and both sides of
the cut hold two markings or more, so delta_I is plus or minus a wall form.
The count is polynomial on every chamber the walls cut out, and the chamber's
wall signs fix each edge's orientation and weight.  The chamber polynomial
sums, over all tree types, the number of vertex interlacings times the
product of the edge weights times the vertex multinomials, and is built in
normal form: on the degree hyperplane, with x_n eliminated.

Crossing a wall delta = 0 changes the polynomial by

    binom(r; r1, r2) * delta * P_I * P_Ic

where P_I and P_Ic are chamber polynomials of the two cut-off subproblems
carrying the severed edge as an extra marking of weight -delta (on the I
side) and +delta (on the complement), the unique signs meeting each factor's
degree constraint.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from operator import mul
from typing import Iterator, Sequence

from .covers import Problem, ProblemError
from .enumeration import CombinatorialType, count_linear_extensions, _types_for
from .exactarith import LinForm, Poly

ZERO = "Zero"
POSITIVE = "Positive"


class WallError(ValueError):
    """A reference point on a wall, or a wall foreign to the problem."""


@dataclass(frozen=True)
class Wall:
    """A potential discontinuity locus sum_{i in I} x_i = k (|I| - 1).

    The stored subset is the lexicographically smaller of I and its
    complement; the form keeps k symbolic.
    """

    subset: tuple[int, ...]
    form: LinForm

    @staticmethod
    def of(n: int, subset: Sequence[int]) -> "Wall":
        I = tuple(sorted(subset))
        if n < 4:
            raise WallError(f"n = {n} markings have no walls: walls need n >= 4")
        if len(set(I)) < len(I):
            raise WallError(f"wall subset {tuple(subset)} repeats a marking")
        if not 2 <= len(I) <= n - 2:
            raise WallError(f"wall subset {I} must have size 2..{n - 2}")
        if any(i < 1 or i > n for i in I):
            raise WallError(f"wall subset {I} out of range 1..{n}")
        comp = tuple(i for i in range(1, n + 1) if i not in I)
        if comp < I:
            I = comp
        return Wall(I, LinForm.of({i: 1 for i in I}, k=-(len(I) - 1)))


def walls(n: int) -> list[Wall]:
    """All walls for n markings, with k kept symbolic in their forms."""
    if n < 3:
        raise ProblemError(f"unstable marking count: n = {n} must be at least 3")
    return list(_walls_of(n))


@functools.lru_cache(maxsize=32)
def _walls_of(n: int) -> tuple[Wall, ...]:
    # of I and its complement, Wall.of keeps the smaller: the one holding 1
    subsets = sorted((1,) + rest for size in range(1, n - 2)
                     for rest in itertools.combinations(range(2, n + 1), size))
    return tuple(Wall.of(n, subset) for subset in subsets)


class _TreeSystem:
    """Tree types of a genus-0 problem at one leak k, each edge read as a wall.

    Each entry pairs a record of ``_types_for(0, n, e)`` with one (wall index,
    side) per edge: the edge's cut (mask, c) has c = |mask| - 1, so its form
    sum_{i in mask} x_i - k c is the wall's form (side +1) when mask is the
    wall's subset, and minus it on the degree hyperplane (side -1) when mask
    is the complement.  At wall sign s the edge points along its stored
    (u, v) when s * side > 0 and weighs s * (wall form) = |delta|.  All
    polynomials are built in normal form, in x1..x_{n-1}: a wall subset I
    holding n enters as minus its complement's form, which omits x_n, as
    delta_I + delta_{I^c} = sum x - k(|I| - 1) - k(n - |I| - 1) = 0 on the
    degree hyperplane sum x = k(n - 2).  The product of each type's wall
    polynomials and vertex multinomials is built with the system, not
    memoized: a system is built for a chamber polynomial, which reads every
    product.  A type's signed number of linear extensions is memoized per
    type and edge wall signs, and chamber polynomials per wall signs.
    """

    def __init__(self, n: int, e: tuple[int, ...], k: int):
        self.n = n
        full = (1 << n) - 1
        sides: dict[int, tuple[int, int]] = {}
        for i, w in enumerate(_walls_of(n)):
            mask = sum(1 << (j - 1) for j in w.subset)
            sides[mask], sides[full ^ mask] = (i, 1), (i, -1)
        self.wall_polys = tuple(
            (w.form if n not in w.subset else LinForm.of(
                {j: -1 for j in range(1, n) if j not in w.subset},
                k=n - len(w.subset) - 1)).as_poly(n - 1, k)
            for w in _walls_of(n))
        self.entries: list[tuple[CombinatorialType, tuple[tuple[int, int], ...]]] = [
            (t, tuple(sides[mask] for mask in t.cuts[::2]))
            for t in _types_for(0, n, e)]
        self.products = [
            functools.reduce(mul, (self.wall_polys[i] for i, _ in edge_walls),
                             Poly.const(n - 1, t.genus0_factor))
            for t, edge_walls in self.entries]
        self._cache: dict[tuple, tuple[int, Poly]] = {}
        self._chambers: dict[tuple[int, ...], Poly] = {}

    def contribution(self, idx: int, signs: tuple[int, ...]) -> tuple[int, Poly]:
        """(scale, product): the type's term in the chamber is scale * product,
        with product its multinomials times its edges' wall polynomials."""
        key = (idx, signs)
        cached = self._cache.get(key)
        if cached is None:
            t, edge_walls = self.entries[idx]
            arcs = [(a, b) if s * side > 0 else (b, a)
                    for (a, b), s, (_, side) in zip(t.edges, signs, edge_walls)]
            le = count_linear_extensions(t.num_vertices, arcs)
            # each weight s * (wall form) gives its sign s to the scale
            cached = self._cache[key] = (le * math.prod(signs),
                                         self.products[idx])
        return cached

    def polynomial(self, chamber: tuple[int, ...]) -> Poly:
        """Normal-form polynomial of the chamber with these wall signs."""
        poly = self._chambers.get(chamber)
        if poly is None:
            parts = []
            for idx, (_, edge_walls) in enumerate(self.entries):
                scale, product = self.contribution(
                    idx, tuple(chamber[i] for i, _ in edge_walls))
                parts.append((product, scale))
            poly = self._chambers[chamber] = Poly.weighted_sum(self.n - 1, parts)
        return poly


@functools.lru_cache(maxsize=128)
def _tree_system(n: int, e: tuple[int, ...], k: int) -> _TreeSystem:
    return _TreeSystem(n, e, k)


def chamber_polynomial(p: Problem, at: Sequence | None = None) -> Poly:
    """Chamber polynomial at the reference point (p.x by default), in normal
    form with x_n eliminated.

    The reference may have rational entries; it only selects the chamber,
    and must have length n and lie on the degree hyperplane and on no wall.
    Evaluating the result at any integer point of the chamber equals the
    cover count there.
    """
    if p.genus != 0:
        raise ProblemError("chamber polynomials exist for genus 0 only")
    x0 = tuple(p.x) if at is None else tuple(at)
    if len(x0) != p.n:
        raise ProblemError(f"reference point has length {len(x0)}, expected {p.n}")
    expected = p.k * (p.n - 2)
    if sum(x0) != expected:
        raise ProblemError(
            f"reference point off the degree hyperplane: sum = {sum(x0)}, "
            f"expected {expected}")
    chamber = tuple(_signs(p.n, p.k, x0))
    if 0 in chamber:
        wall = _walls_of(p.n)[chamber.index(0)]
        raise WallError(
            f"reference point {list(x0)} lies on the wall {list(wall.subset)}")
    return _tree_system(p.n, p.e, p.k).polynomial(chamber)


def _signs(n: int, k: int, point: Sequence) -> Iterator[int]:
    """The sign, -1, 0 or +1, of each wall form of n markings at point, lazily."""
    for w in _walls_of(n):
        value = w.form.evaluate(point, k)
        yield (value > 0) - (value < 0)


def _flank_candidate(n: int, k: int, wall: Wall, attempt: int):
    """One deterministic candidate pair of integer points across the wall."""
    rng = random.Random(f"flank:{n}:{k}:{wall.subset}:{attempt}")
    spread = 6 + 2 * attempt
    I = wall.subset
    comp = tuple(i for i in range(1, n + 1) if i not in I)
    a, b = I[0], comp[0]
    z = [0] * n
    for i in range(1, n + 1):
        if i not in (a, b):
            z[i - 1] = rng.randint(-spread, spread)
    z[a - 1] = k * (len(I) - 1) - sum(z[i - 1] for i in I if i != a)
    z[b - 1] = k * (n - 2) - sum(z[i - 1] for i in range(1, n + 1) if i != b)
    step = [(i == a) - (i == b) for i in range(1, n + 1)]
    return (tuple(c + d for c, d in zip(z, step)),
            tuple(c - d for c, d in zip(z, step)))


@functools.lru_cache(maxsize=1024)
def _find_flanking(n: int, k: int, wall: Wall):
    """The flanking points (x+, x-) of the wall; they depend on n, k and the
    wall only, so every psi vector shares them."""
    for attempt in range(400):
        x_plus, x_minus = _flank_candidate(n, k, wall, attempt)
        pairs = zip(_walls_of(n), _signs(n, k, x_plus), _signs(n, k, x_minus))
        if all(a * b > 0 for w, a, b in pairs if w.subset != wall.subset):
            return x_plus, x_minus
    raise WallError(f"no generic flanking points found for wall {wall.subset}")


def flanking_points(p: Problem, wall: Wall) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic generic integer points with delta = +1 and -1 that agree
    in sign on every other wall.  Read off x+, the subproblem references of
    ``wall_crossing_formula`` need no check: a subproblem wall, read on the
    side without the severed edge, is a J with 2 <= |J| < |part|, another
    wall of the full problem with the same form delta_J, nonzero with one
    sign at x+, at x- and so at their mean z, the wall point."""
    return _find_flanking(p.n, p.k, wall)


def _check_crossing(p: Problem, wall: Wall) -> None:
    if p.genus != 0:
        raise ProblemError("wall crossings are computed for genus 0 only")
    if wall not in _walls_of(p.n):
        raise WallError(f"wall subset {wall.subset} is no wall for n = {p.n}")


def wall_crossing(p: Problem, wall: Wall) -> Poly:
    """Difference of the chamber polynomials flanking the wall, normal form.

    The points x+- = z +- (e_a - e_b) of ``_find_flanking``, z on the wall,
    a in its subset and b not, have delta = +-1, and agree in sign on every
    other wall: ``_find_flanking`` keeps no other candidate."""
    _check_crossing(p, wall)
    x_plus, x_minus = flanking_points(p, wall)
    return chamber_polynomial(p, at=x_plus) - chamber_polynomial(p, at=x_minus)


def wall_crossing_formula(p: Problem, wall: Wall) -> Poly:
    """Closed form binom(r; r1, r2) * delta * P_I * P_Ic, in normal form."""
    _check_crossing(p, wall)
    n, k = p.n, p.k
    I = wall.subset
    comp = tuple(i for i in range(1, n + 1) if i not in I)
    e_I = sum(p.e[i - 1] for i in I)
    e_comp = sum(p.e[i - 1] for i in comp)
    r = n - 2 - p.psi_total
    r1 = len(I) - 1 - e_I
    r2 = len(comp) - 1 - e_comp
    # r1 counts the vertices of the cut-off piece on the I side; without a
    # vertex to carry the severed edge that side admits no covers at all.
    if r1 < 1 or r2 < 1:
        return Poly.zero(n - 1)

    x_plus, _ = _find_flanking(n, k, wall)

    factors: list[Poly] = []
    # the severed edge carries -delta(x+) = -1 on the I side, +1 on the other
    for part, cut in ((I, -1), (comp, 1)):
        ref = tuple(x_plus[i - 1] for i in part) + (cut,)
        sub_e = tuple(p.e[i - 1] for i in part) + (0,)
        sub_poly = chamber_polynomial(Problem.of(0, k, ref, sub_e))
        # the normal form dropped the cut variable, so substituting the
        # surviving markings alone reproduces the factor exactly
        factors.append(sub_poly.compose([Poly.variable(n, i) for i in part]))

    delta_poly = wall.form.as_poly(n, k)
    product = delta_poly * factors[0] * factors[1] * math.comb(r, r1)
    return product.substitute_degree(k * (n - 2))


def classify(p: Problem) -> str:
    """Decide whether the genus-0 count is Zero or strictly Positive.

    For k > 0 (else turned around) it is Zero exactly when k is even,
    x = m k/2 in positive integers m and sum_I e_i < sum_I m_i - |I| + 1
    for every subset I: sum_I (e_i - m_i + 1) <= 0, and the singletons need
    e_i < m_i, which makes every term of every sum <= 0.
    """
    if p.genus != 0:
        raise ProblemError("the vanishing classification applies to genus 0 only")
    if p.k == 0:
        if all(v == 0 for v in p.x) and p.n > p.psi_total + 3:
            return ZERO
        return POSITIVE
    q = p if p.k > 0 else p.turned_around()
    if q.k % 2 != 0:
        return POSITIVE
    half = q.k // 2
    if any(v <= 0 or v % half for v in q.x):
        return POSITIVE
    return ZERO if all(ei < v // half for v, ei in zip(q.x, q.e)) else POSITIVE
