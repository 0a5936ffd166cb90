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
degree constraint.  ``wall_crossing_formula`` evaluates this closed form;
``wall_crossing`` enumerates the same change, summing the tree types with an
edge on the wall alone, as the two flanking chambers differ in that wall's
sign only and every other type has the same term in both.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .covers import Problem, ProblemError
from .enumeration import CombinatorialType, _types_for
from .exactarith import LinForm, Poly, hyperplane_coordinates

ZERO = "Zero"
POSITIVE = "Positive"


class WallError(ValueError):
    """A reference point on a wall, or a wall foreign to the problem."""


class Wall(NamedTuple):
    """A potential discontinuity locus sum_{i in I} x_i = k (|I| - 1).

    The stored subset is the lexicographically smaller of I and its
    complement; the form keeps k symbolic.
    """

    subset: tuple[int, ...]
    form: LinForm

    @staticmethod
    def of(n: int, subset: Iterable[int]) -> "Wall":
        if type(n) is not int:
            raise WallError(f"marking count {n!r} is not an integer")
        subset = tuple(subset)
        for i in subset:
            if type(i) is not int:
                raise WallError(f"wall subset entry {i!r} is not an integer")
        I = tuple(sorted(subset))
        if n < 4:
            raise WallError(f"n = {n} markings have no walls: walls need n >= 4")
        if len(set(I)) < len(I):
            raise WallError(f"wall subset {subset} repeats a marking")
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
    if type(n) is not int:
        raise ProblemError(f"marking count {n!r} is not an integer")
    if n < 3:
        raise ProblemError(f"unstable marking count: n = {n} must be at least 3")
    return list(_walls_of(n))


@functools.lru_cache(maxsize=32)
def _walls_of(n: int) -> dict[Wall, int]:
    """The walls for n markings, in order, each mapped to its index."""
    # of I and its complement, Wall.of keeps the smaller: the one holding 1
    subsets = sorted((1,) + rest for size in range(1, n - 2)
                     for rest in itertools.combinations(range(2, n + 1), size))
    return {Wall.of(n, subset): i for i, subset in enumerate(subsets)}


class _TreeSystem:
    """Tree types of a genus-0 problem at one leak k, each edge read as a wall.

    Each entry pairs a record of ``_types_for(0, n, e)`` with one (wall index,
    side) per edge: the edge's cut (mask, c) has c = |mask| - 1, so its form
    sum_{i in mask} x_i - k c is the wall's form (side +1) when mask is the
    wall's subset, and minus it on the degree hyperplane (side -1) when mask
    is the complement.  The pair is looked up once per position of the
    type list's cut table, and each record reads its edges' pairs by
    position (``CombinatorialType.cut_of``).  At wall sign s the edge
    points along its stored (u, v) when s * side > 0 and weighs
    s * (wall form) = |delta|.  All polynomials are built in normal form,
    in x1..x_{n-1}, and ``wall_polys`` is ``_wall_polys(n, k)``, shared by
    every system of that (n, k).  The product of each type's wall
    polynomials and vertex multinomials is built with the system, not
    memoized: a chamber polynomial reads every product, and crossing every
    wall reads the product of every type with an edge.  ``on_wall[i]``
    lists the types with an edge on wall i, the only ones a crossing of
    wall i reads.  Chamber polynomials are memoized per wall signs, and
    extension counts in the records (``CombinatorialType.extensions``).
    """

    def __init__(self, n: int, e: tuple[int, ...], k: int):
        self.n = n
        full = (1 << n) - 1
        # a wall's subset is the side of its cut that holds marking 1
        index = {sum(1 << (j - 1) for j in w.subset): i
                 for w, i in _walls_of(n).items()}
        self.wall_polys = _wall_polys(n, k)
        types = _types_for(0, n, e)
        # types[0] exists: the markings can always be shared out along a path
        at = tuple((index[mask], 1) if mask & 1 else (index[full ^ mask], -1)
                   for mask, _ in types[0].cut_table)
        self.entries: list[tuple[CombinatorialType, tuple[tuple[int, int], ...]]] = [
            (t, t.cut_of(at)) for t in types]
        self.products = [
            functools.reduce(mul, (self.wall_polys[i] for i, _ in edge_walls),
                             Poly.const(n - 1, t.genus0_factor))
            for t, edge_walls in self.entries]
        self.on_wall: list[list[int]] = [[] for _ in self.wall_polys]
        for idx, (_, edge_walls) in enumerate(self.entries):
            for i in {i for i, _ in edge_walls}:
                self.on_wall[i].append(idx)
        self._chambers: dict[tuple[int, ...], Poly] = {}

    def contribution(self, idx: int, signs: tuple[int, ...]) -> tuple[int, Poly]:
        """(scale, product): the type's term in the chamber is scale * product,
        with product its multinomials times its edges' wall polynomials."""
        t, edge_walls = self.entries[idx]
        le = t.extensions(tuple(s * side > 0
                                for s, (_, side) in zip(signs, edge_walls)))
        # each weight s * (wall form) gives its sign s to the scale
        return le * math.prod(signs), self.products[idx]

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

    def crossing(self, i: int, chamber: tuple[int, ...]) -> Poly:
        """P(chamber) - P(chamber with wall i's sign flipped), normal form,
        summed over the types of ``on_wall[i]`` alone (see ``wall_crossing``)."""
        flipped = chamber[:i] + (-chamber[i],) + chamber[i + 1:]
        parts = []
        for idx in self.on_wall[i]:
            edge_walls = self.entries[idx][1]
            plus, product = self.contribution(
                idx, tuple(chamber[j] for j, _ in edge_walls))
            minus, _ = self.contribution(
                idx, tuple(flipped[j] for j, _ in edge_walls))
            parts.append((product, plus - minus))
        return Poly.weighted_sum(self.n - 1, parts)


@functools.lru_cache(maxsize=128)
def _tree_system(n: int, e: tuple[int, ...], k: int) -> _TreeSystem:
    return _TreeSystem(n, e, k)


@functools.lru_cache(maxsize=128)
def _wall_polys(n: int, k: int) -> tuple[Poly, ...]:
    """Each wall form of n markings at leak k on the degree hyperplane, in
    x1..x_{n-1}: a wall subset I holding n enters as minus its complement's
    form, which omits x_n, as delta_I + delta_{I^c} = sum x - k(|I| - 1) -
    k(n - |I| - 1) = 0 on the hyperplane sum x = k(n - 2)."""
    return tuple(
        (w.form if n not in w.subset else LinForm.of(
            {j: -1 for j in range(1, n) if j not in w.subset},
            k=n - len(w.subset) - 1)).as_poly(n - 1, k)
        for w in _walls_of(n))


def chamber_polynomial(p: Problem) -> Poly:
    """Polynomial of the chamber holding p.x (on no wall), in normal form with
    x_n eliminated; at each integer point of the chamber it is the cover count."""
    if p.genus != 0:
        raise ProblemError("chamber polynomials exist for genus 0 only")
    chamber = _signs(p.n, p.k, p.x)
    if 0 in chamber:
        wall = list(_walls_of(p.n))[chamber.index(0)]
        raise WallError(
            f"reference point {list(p.x)} lies on the wall {list(wall.subset)}")
    return _tree_system(p.n, p.e, p.k).polynomial(chamber)


def _signs(n: int, k: int, point: Sequence) -> tuple[int, ...]:
    """The sign, -1, 0 or +1, of each wall form of n markings at point."""
    signs = []
    for w in _walls_of(n):
        value = w.form.evaluate(point, k)
        signs.append((value > 0) - (value < 0))
    return tuple(signs)


def _flank_candidate(n: int, k: int, wall: Wall, attempt: int):
    """One deterministic candidate (z, a, b) for x+- = z +- (e_a - e_b): z an
    integer point on the wall and the degree hyperplane, a in its subset, b not."""
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
    return z, a, b


@functools.lru_cache(maxsize=1024)
def _find_flanking(n: int, k: int, wall: Wall):
    """The flanking points of the wall and the chamber of x+, (x+, x-, wall
    signs at x+): generic integer points with delta = +1 and -1 that agree
    in sign on every other wall.  They depend on n, k and the wall only, so
    every crossing of the wall shares them, whatever its psi vector.

    A candidate x+- = z +- (e_a - e_b) is kept when x+ and x- have the same
    nonzero sign on every other wall J, read off one evaluation at z: with
    s_J = [a in J] - [b in J], delta_J(x+-) = delta_J(z) +- s_J, and two
    numbers d + s and d - s have the same nonzero sign exactly when their
    product d^2 - s^2 is positive, that is when |delta_J(z)| > |s_J|.

    When none of the 400 seeded candidates is kept (from n = 14 on) z is
    constructed: z_i = M 2^i for i not in {a, b}, M = 2|k|n + 3, and z_a,
    z_b solve delta_I(z) = 0 and sum z = k(n - 2).  Then delta_J(z) =
    M sum_i c_i 2^i + r, with c_i = [i in J] - [a in J] on I - {a} and
    [i in J] - [b in J] on I^c - {b}, and r = k([a in J](|I| - 1) +
    [b in J](n - |I| - 1) - (|J| - 1)), so |r| <= 2|k|n.  The c_i are all
    0 only when J meets each of I and I^c in nothing or all of it, that is
    when J is I or I^c; for every other wall the c_i in {-1, 0, 1} give
    |sum c_i 2^i| >= 1, and |delta_J(z)| >= M - 2|k|n = 3 > |s_J|.

    Read off x+, the subproblem references of ``wall_crossing_formula``
    need no check: a subproblem wall, read on the side without the severed
    edge, is a J with 2 <= |J| < |part|, another wall of the full problem
    with the same form delta_J, nonzero with one sign at x+, at x- and so
    at their mean z, the wall point.
    """
    for attempt in range(400):
        z, a, b = _flank_candidate(n, k, wall, attempt)
        if all(abs(w.form.evaluate(z, k)) > ((a in w.subset) != (b in w.subset))
               for w in _walls_of(n) if w.subset != wall.subset):
            break
    else:
        big = 2 * abs(k) * n + 3
        z = [big << i for i in range(1, n + 1)]
        z[a - 1] = k * (len(wall.subset) - 1) - sum(
            z[i - 1] for i in wall.subset if i != a)
        z[b - 1] += k * (n - 2) - sum(z)
    step = [(i == a) - (i == b) for i in range(1, n + 1)]
    x_plus = tuple(c + d for c, d in zip(z, step))
    return x_plus, tuple(c - d for c, d in zip(z, step)), _signs(n, k, x_plus)


def _check_crossing(p: Problem, wall: Wall) -> int:
    """The wall's index in ``walls(p.n)``, after checking the crossing; a
    ``WallError`` if the wall is none of p.n markings."""
    if p.genus != 0:
        raise ProblemError("wall crossings are computed for genus 0 only")
    i = _walls_of(p.n).get(wall)
    if i is None:
        raise WallError(f"wall subset {wall.subset} is no wall for n = {p.n}")
    return i


def wall_crossing(p: Problem, wall: Wall) -> Poly:
    """Difference of the chamber polynomials flanking the wall, P(x+) - P(x-),
    in normal form.

    The points x+- = z +- (e_a - e_b) of ``_find_flanking``, z on the wall,
    a in its subset and b not, have delta = +-1, and agree in sign on every
    other wall: ``_find_flanking`` keeps no other candidate.  So the chamber
    of x- is that of x+ with the wall's sign flipped, and the difference is
    summed over the tree types with an edge on the wall alone: every edge of
    any other type lies on another wall, where x+ and x- have one sign, so
    that type's term (edge orientations, weights and scale) is the same in
    both chambers and cancels exactly.  No chamber polynomial is built, and
    the chamber of x+ is read from ``_find_flanking``, which computes it
    with the points, once per (n, k, wall) for every psi vector."""
    i = _check_crossing(p, wall)
    return _tree_system(p.n, p.e, p.k).crossing(i, _find_flanking(p.n, p.k, wall)[2])


def wall_crossing_formula(p: Problem, wall: Wall) -> Poly:
    """Closed form binom(r; r1, r2) * delta * P_I * P_Ic, in normal form.

    delta is composed from ``wall.form``, and each factor is the chamber
    polynomial of a cut-off subproblem of m < n markings, read from its tree
    system at the wall signs of its reference point: nothing here reads the
    tree system or the wall polynomials of the crossed problem, so the
    formula stays an independent check on ``wall_crossing``.  No ``Problem``
    is built for a subproblem, as every check of ``validate_problem`` holds
    by construction: the reference sums to delta_I(x+) + k(|I| - 1) - 1 =
    k(m - 2) on the I side and to k(n - 2) - sum_I x+ + 1 = k(m - 2) on the
    other; the psi budget |e_part| <= m - 2 is r1 >= 1 (r2 >= 1), tested
    before any factor is read; and the reference lies on no subproblem wall
    (see ``_find_flanking``)."""
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

    x_plus = _find_flanking(n, k, wall)[0]
    # each factor is composed onto x1..x_{n-1} and k(n - 2) - x1 - ... -
    # x_{n-1}, so the product is built in normal form
    coords = hyperplane_coordinates(n - 1, k * (n - 2))
    product = wall.form.as_poly(n, k).compose(coords) * math.comb(r, r1)
    # the severed edge carries -delta(x+) = -1 on the I side, +1 on the other
    for part, cut in ((I, -1), (comp, 1)):
        ref = tuple(x_plus[i - 1] for i in part) + (cut,)
        sub_e = tuple(p.e[i - 1] for i in part) + (0,)
        m = len(ref)
        sub_poly = _tree_system(m, sub_e, k).polynomial(_signs(m, k, ref))
        # the normal form dropped the cut variable, so substituting the
        # surviving markings alone reproduces the factor exactly
        product = product * sub_poly.compose([coords[i - 1] for i in part])
    return product


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
