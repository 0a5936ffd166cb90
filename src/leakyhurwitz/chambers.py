"""Genus-0 chamber polynomials, walls, wall crossings, and the vanishing test.

For genus 0 every cover is a tree, each tree edge weight is the affine form
delta_I = sum_{i in I} x_i - k (|I| - 1) of the marking split I it induces,
and the count is polynomial on every chamber cut out by those forms.  The
chamber polynomial sums, over all tree types, the number of vertex
interlacings times the product of the (sign-corrected) weight forms times
the vertex multinomials, and is normalized by eliminating x_n against the
degree constraint.

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
from typing import Sequence

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
        I = tuple(sorted(set(subset)))
        if n < 4:
            raise WallError(f"n = {n} markings have no walls: walls need n >= 4")
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
    seen: dict[tuple[int, ...], Wall] = {}
    for size in range(2, n - 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            w = Wall.of(n, subset)
            seen.setdefault(w.subset, w)
    return tuple(seen[key] for key in sorted(seen))


class _TreeSystem:
    """Tree types of a genus-0 problem, each with its edge weight forms.

    Each entry pairs a record of ``_types_for(0, n, e)`` with its forms: the
    cut (mask, c) of an edge becomes the form sum_{i in mask} x_i - k c, and
    the multiplier is the record's ``genus0_factor``.  The per-(k,
    orientation) linear-extension counts and form products are memoized;
    they are reused across every evaluation point.  So is each chamber's
    normal-form polynomial, keyed by k and the chamber's wall signs.
    """

    def __init__(self, n: int, e: tuple[int, ...]):
        self.n = n
        self.entries: list[tuple[CombinatorialType, tuple[LinForm, ...]]] = []
        for t in _types_for(0, n, e):
            pairs = iter(t.cuts)
            forms = tuple(
                LinForm.of({i + 1: 1 for i in range(n) if mask >> i & 1}, k=-cut)
                for mask, cut in zip(pairs, pairs))
            self.entries.append((t, forms))
        self._cache: dict[tuple, tuple[int, Poly]] = {}
        self._chambers: dict[tuple[int, tuple[bool, ...]], Poly] = {}

    def contribution(self, idx: int, signs: tuple[int, ...], k: int) -> tuple[int, Poly]:
        key = (idx, signs, k)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        t, forms = self.entries[idx]
        arcs = [(a, b) if s > 0 else (b, a)
                for (a, b), s in zip(t.edges, signs)]
        le = count_linear_extensions(t.num_vertices, arcs)
        product = Poly.const(self.n, t.genus0_factor)
        if le:
            for form, s in zip(forms, signs):
                signed = form if s > 0 else -form
                product = product * signed.as_poly(self.n, k)
        result = (le, product)
        self._cache[key] = result
        return result

    def polynomial(self, k: int, x0: Sequence, chamber: tuple[bool, ...]) -> Poly:
        """Normal-form polynomial of the chamber that contains x0.

        ``chamber`` holds the wall signs at x0.  Every tree edge form is plus
        or minus a wall form on the degree hyperplane, so they fix the sign
        of every edge form and hence the polynomial.
        """
        key = (k, chamber)
        poly = self._chambers.get(key)
        if poly is None:
            parts = []
            for idx, (_, forms) in enumerate(self.entries):
                signs = tuple(1 if f.evaluate(x0, k) > 0 else -1 for f in forms)
                le, product = self.contribution(idx, signs, k)
                if le:
                    parts.append((product, le))
            poly = Poly.weighted_sum(self.n, parts).substitute_degree(
                k * (self.n - 2))
            self._chambers[key] = poly
        return poly


@functools.lru_cache(maxsize=128)
def _tree_system(n: int, e: tuple[int, ...]) -> _TreeSystem:
    return _TreeSystem(n, e)


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
    chamber = []  # the sign of every wall form at x0, True when positive
    for w in walls(p.n):
        value = w.form.evaluate(x0, p.k)
        if value == 0:
            raise WallError(
                f"reference point {list(x0)} lies on the wall {list(w.subset)}")
        chamber.append(value > 0)
    return _tree_system(p.n, p.e).polynomial(p.k, x0, tuple(chamber))


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
    x_plus = list(z)
    x_minus = list(z)
    x_plus[a - 1] += 1
    x_plus[b - 1] -= 1
    x_minus[a - 1] -= 1
    x_minus[b - 1] += 1
    return z, tuple(x_plus), tuple(x_minus)


def _subproblem_refs(n: int, k: int, wall: Wall, z, x_plus):
    """Reference points for the two cut-off subproblems near the wall.

    Returns None when the induced points are non-generic for the
    subproblems or drift across a subproblem wall between the wall point
    and the perturbed point.
    """
    I = wall.subset
    comp = tuple(i for i in range(1, n + 1) if i not in I)
    delta_plus = wall.form.evaluate(x_plus, k)
    refs = []
    for part, cut_sign in ((I, -1), (comp, 1)):
        limit = tuple(z[i - 1] for i in part) + (0,)
        ref = tuple(x_plus[i - 1] for i in part) + (cut_sign * delta_plus,)
        for w in walls(len(part) + 1):
            at_limit = w.form.evaluate(limit, k)
            at_ref = w.form.evaluate(ref, k)
            if at_limit == 0 or at_ref == 0 or (at_limit > 0) != (at_ref > 0):
                return None
        refs.append(ref)
    return tuple(refs)


def _find_flanking(p: Problem, wall: Wall):
    """Flanking points and subproblem references; they depend on n, k and
    the wall only, so every psi vector shares them."""
    return _flanking(p.n, p.k, wall)


@functools.lru_cache(maxsize=1024)
def _flanking(n: int, k: int, wall: Wall):
    all_walls = walls(n)
    for attempt in range(400):
        z, x_plus, x_minus = _flank_candidate(n, k, wall, attempt)
        ok = True
        for w in all_walls:
            if w.subset == wall.subset:
                continue
            vp = w.form.evaluate(x_plus, k)
            vm = w.form.evaluate(x_minus, k)
            if vp == 0 or vm == 0 or (vp > 0) != (vm > 0):
                ok = False
                break
        if not ok:
            continue
        refs = _subproblem_refs(n, k, wall, z, x_plus)
        if refs is None:
            continue
        return x_plus, x_minus, refs
    raise WallError(f"no generic flanking points found for wall {wall.subset}")


def flanking_points(p: Problem, wall: Wall) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic generic integer points with delta = +1 and -1 that agree
    in sign on every other wall and induce generic subproblem references."""
    x_plus, x_minus, _ = _find_flanking(p, wall)
    return x_plus, x_minus


def _check_crossing(p: Problem, wall: Wall) -> None:
    if p.genus != 0:
        raise ProblemError("wall crossings are computed for genus 0 only")
    if wall not in _walls_of(p.n):
        raise WallError(f"wall subset {wall.subset} is no wall for n = {p.n}")


def wall_crossing(p: Problem, wall: Wall) -> Poly:
    """Difference of the chamber polynomials flanking the wall, normal form.

    The points x+- = z +- (e_a - e_b) of ``_flanking``, z on the wall, a in
    its subset and b not, have delta = +-1, and agree in sign on every other
    wall: ``_flanking`` keeps no other candidate."""
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

    _, _, refs = _find_flanking(p, wall)

    factors: list[Poly] = []
    for part, ref in zip((I, comp), refs):
        sub_e = tuple(p.e[i - 1] for i in part) + (0,)
        sub_problem = Problem.of(0, k, ref, sub_e)
        sub_poly = chamber_polynomial(sub_problem)
        # the normal form dropped the cut variable, so substituting the
        # surviving markings alone reproduces the factor exactly
        factors.append(sub_poly.compose([Poly.variable(n, i) for i in part]))

    delta_poly = wall.form.as_poly(n, k)
    product = delta_poly * factors[0] * factors[1] * math.comb(r, r1)
    return product.substitute_degree(k * (n - 2))


def _vanishing_subset_scan(m: Sequence[int], e: Sequence[int]) -> bool:
    """True when sum_I e_i < sum_I m_i - |I| + 1 for every subset I.

    The worst subset collects the indices with positive excess
    e_i - m_i + 1, so the scan reduces to a single pass.
    """
    excess = 0
    for mi, ei in zip(m, e):
        excess += max(0, ei - mi + 1)
    return excess == 0


def classify(p: Problem) -> str:
    """Decide whether the genus-0 count is Zero or strictly Positive."""
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
    m = []
    for v in q.x:
        if v <= 0 or v % half != 0:
            return POSITIVE
        m.append(v // half)
    return ZERO if _vanishing_subset_scan(m, q.e) else POSITIVE
