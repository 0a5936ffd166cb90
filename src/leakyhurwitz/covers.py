"""Problems and tropical leaky covers: validation, automorphisms, multiplicity.

A problem fixes the genus g, leak k, signed degree profile x (positive
entries are left ends, negative right ends, zero-weight markings are
contracted) and psi exponents e.  A cover is a connected decorated
multigraph over c+1 = 2g-2+n-|e| ordered positions: every vertex carries a
genus and a set of markings, every edge a positive weight and an orientation
running left to right.

Two balance laws govern admissibility at each vertex v with valence val(v):

    valence law   val(v) = sum of e_i over markings at v + 3 - 2 g(v)
    flow law      inflow(v) - outflow(v) = k (2 g(v) - 2 + val(v))

where inflow counts inbound edge weights plus positive markings at v and
outflow counts outbound edge weights plus the absolute values of negative
markings.  Zero-weight markings count toward the valence but carry no flow.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactarith import rat_str
from .vertexdata import VertexKey, VertexOracle


class ProblemError(ValueError):
    """An input record violating one of the problem invariants."""


class CoverError(ValueError):
    """A cover violating one of its structural invariants."""


@dataclass(frozen=True)
class Problem:
    """Input record (g, k, x, e), validated as it is built; n = len(x)."""

    genus: int
    k: int
    x: tuple[int, ...]
    e: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "e", tuple(self.e))
        validate_problem(self)

    @staticmethod
    def of(genus: int, k: int, x: Sequence[int],
           e: Sequence[int] | None = None) -> "Problem":
        x = tuple(x)
        e = tuple(e) if e is not None else (0,) * len(x)
        return Problem(genus, k, x, e)

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def psi_total(self) -> int:
        return sum(self.e)

    @property
    def branch_codim(self) -> int:
        """c = 2g - 3 + n - |e|; valid covers have c + 1 vertices."""
        return 2 * self.genus - 3 + self.n - self.psi_total

    def turned_around(self) -> "Problem":
        return Problem(self.genus, -self.k, tuple(-v for v in self.x), self.e)


def validate_problem(p: Problem) -> Problem:
    """Check the problem invariants, raising a distinct diagnostic for each."""
    if p.genus < 0:
        raise ProblemError(f"genus {p.genus} must be nonnegative")
    if len(p.e) != p.n:
        raise ProblemError(
            f"psi vector has length {len(p.e)}, expected n = {p.n}")
    if 2 * p.genus - 2 + p.n <= 0:
        raise ProblemError(
            f"unstable input: 2g-2+n = {2 * p.genus - 2 + p.n} must be positive")
    expected = p.k * (2 * p.genus - 2 + p.n)
    if sum(p.x) != expected:
        raise ProblemError(
            f"degree constraint violated: sum(x) = {sum(p.x)} "
            f"but k(2g-2+n) = {expected}")
    if any(v < 0 for v in p.e):
        raise ProblemError(f"psi exponents must be nonnegative, got {p.e}")
    if p.psi_total > 2 * p.genus - 3 + p.n:
        raise ProblemError(
            f"psi budget exceeded: |e| = {p.psi_total} "
            f"> 2g-3+n = {2 * p.genus - 3 + p.n}")
    return p


@dataclass(frozen=True)
class CoverGraph:
    """One tropical leaky cover.

    ``vertex_ends`` partitions 1..n over the vertices; ``edges`` stores
    (u, v, weight) oriented from u to v with a positive integer weight;
    ``order`` lists the vertices left to right.
    """

    vertex_genus: tuple[int, ...]
    vertex_ends: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, int], ...]
    order: tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_genus)

    def valence(self, v: int) -> int:
        deg = sum(1 for a, b, _ in self.edges if a == v or b == v)
        return deg + len(self.vertex_ends[v])

    def sort_key(self):
        return self.vertex_genus, self.vertex_ends, self.edges, self.order


def _balance_residual(p: Problem, c: CoverGraph, v: int) -> int:
    """Flow law residual at v; zero iff balanced."""
    residual = (sum(p.x[i - 1] for i in c.vertex_ends[v])
                - p.k * (2 * c.vertex_genus[v] - 2 + c.valence(v)))
    for a, b, w in c.edges:
        if b == v:
            residual += w
        if a == v:
            residual -= w
    return residual


def is_connected(V: int, edges: Sequence[tuple[int, int]]) -> bool:
    """Whether the edges (u, v) join all of the vertices 0..V-1."""
    adj: dict[int, set[int]] = {v: set() for v in range(V)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    reached = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u not in reached:
                reached.add(u)
                frontier.append(u)
    return len(reached) == V


def check_cover(p: Problem, c: CoverGraph) -> CoverGraph:
    """Verify every cover invariant against p, naming the first violation."""
    V = c.num_vertices
    if V != len(c.vertex_ends):
        raise CoverError("vertex genus and end lists disagree in length")
    if V == 0:
        raise CoverError("cover has no vertices")
    seen: set[int] = set()
    for ends in c.vertex_ends:
        for i in ends:
            if i in seen:
                raise CoverError(f"marking {i} attached to two vertices")
            seen.add(i)
    if seen != set(range(1, p.n + 1)):
        raise CoverError(
            f"markings {sorted(seen)} do not partition 1..{p.n}")
    for a, b, w in c.edges:
        if a == b:
            raise CoverError(f"edge at vertex {a} is a loop")
        if not (0 <= a < V and 0 <= b < V):
            raise CoverError(f"edge ({a}, {b}) references a missing vertex")
        if w <= 0:
            raise CoverError(f"edge ({a}, {b}) has nonpositive weight {w}")
    if not is_connected(V, [(a, b) for a, b, _ in c.edges]):
        raise CoverError("cover graph is not connected")
    h1 = len(c.edges) - V + 1
    if h1 + sum(c.vertex_genus) != p.genus:
        raise CoverError(
            f"genus mismatch: h1 = {h1} plus vertex genera "
            f"{sum(c.vertex_genus)} differs from g = {p.genus}")
    if V != p.branch_codim + 1:
        raise CoverError(
            f"vertex count {V} differs from c+1 = {p.branch_codim + 1}")
    for v in range(V):
        val = c.valence(v)
        target = sum(p.e[i - 1] for i in c.vertex_ends[v]) + 3 - 2 * c.vertex_genus[v]
        if val != target:
            raise CoverError(
                f"valence law fails at vertex {v}: val = {val}, "
                f"psi target = {target}")
    for v in range(V):
        residual = _balance_residual(p, c, v)
        if residual != 0:
            raise CoverError(
                f"flow balance fails at vertex {v}: residual {residual}")
    if sorted(c.order) != list(range(V)):
        raise CoverError(f"order {c.order} is not a permutation of the vertices")
    pos = {v: i for i, v in enumerate(c.order)}
    for a, b, _ in c.edges:
        if pos[a] >= pos[b]:
            raise CoverError(
                f"edge ({a}, {b}) runs right to left in the vertex order")
    return c


def automorphism_order(c: CoverGraph) -> int:
    """Order of the automorphism group: permutations of equal parallel edges.

    Distinct positions and labeled markings pin every vertex, so the only
    symmetries left permute parallel edges with equal weight.
    """
    return math.prod(map(math.factorial, Counter(c.edges).values()))


def vertex_key_of(p: Problem, c: CoverGraph, v: int) -> VertexKey:
    """Local signature of vertex v for the multiplicity oracle."""
    degrees: list[int] = []
    psi: list[int] = []
    for i in c.vertex_ends[v]:
        degrees.append(p.x[i - 1])
        psi.append(p.e[i - 1])
    for a, b, w in c.edges:
        if b == v:
            degrees.append(w)
            psi.append(0)
        if a == v:
            degrees.append(-w)
            psi.append(0)
    return VertexKey(genus=c.vertex_genus[v], k=p.k,
                     degrees=tuple(degrees), psi=tuple(psi))


@dataclass(frozen=True)
class WeightedCover:
    """A cover with its assembled exact multiplicity and the factors behind
    it."""

    cover: CoverGraph
    aut: int
    edge_product: Fraction
    vertex_mults: tuple[int | Fraction, ...]
    multiplicity: Fraction


def assemble_multiplicity(p: Problem, c: CoverGraph,
                          oracle: VertexOracle) -> WeightedCover:
    """multiplicity = (1 / aut) * prod(edge weights) * prod(vertex mults)."""
    aut = automorphism_order(c)
    edge_product = Fraction(1)
    for _, _, w in c.edges:
        edge_product *= w
    mults = tuple(oracle(vertex_key_of(p, c, v)) for v in range(c.num_vertices))
    scalar = Fraction(1, aut)
    for m in mults:
        scalar *= m
    return WeightedCover(cover=c, aut=aut, edge_product=edge_product,
                         vertex_mults=mults,
                         multiplicity=edge_product * scalar)


def cover_to_json(c: CoverGraph) -> dict:
    return {
        "vertices": [{"genus": g, "ends": list(ends)}
                     for g, ends in zip(c.vertex_genus, c.vertex_ends)],
        "edges": [{"from": a, "to": b, "weight": w} for a, b, w in c.edges],
        "order": list(c.order),
    }


def weighted_cover_to_json(wc: WeightedCover) -> dict:
    out = cover_to_json(wc.cover)
    out["aut"] = wc.aut
    out["edge_product"] = rat_str(wc.edge_product)
    out["vertex_mults"] = [rat_str(m) for m in wc.vertex_mults]
    out["multiplicity"] = rat_str(wc.multiplicity)
    return out
