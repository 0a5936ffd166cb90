"""Vertex multiplicities: closed form in genus 0, fixture table above.

A genus-0 vertex contributes a multinomial coefficient depending only on its
valence and local psi exponents.  Higher-genus vertex values are data, not
code: they come from a fixture table keyed by the full local signature
(genus, leak, signed local degrees, psi exponents), and a missing key is a
hard error rather than a silently wrong number.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

from .exactarith import parse_rat, rat_str

VertexOracle = Callable[["VertexKey"], Fraction]


class FixtureError(ValueError):
    """Raised for unparsable or internally inconsistent fixture files."""


class MissingVertexData(LookupError):
    """Raised when a genus >= 1 vertex signature has no fixture entry."""

    def __init__(self, key: "VertexKey"):
        self.key = key
        super().__init__(f"no vertex multiplicity on record for {key}")


@dataclass(frozen=True)
class VertexKey:
    """Local signature of a cover vertex.

    ``degrees`` lists the signed expansion factors of all incident slots
    (markings and edges; inbound positive, outbound negative, weight-0
    markings as 0) and ``psi`` the aligned psi exponents (0 on edge slots).
    Keys are compared after jointly sorting the (degree, psi) pairs, so slot
    order never matters.
    """

    genus: int
    k: int
    degrees: tuple[int, ...]
    psi: tuple[int, ...]

    def __post_init__(self):
        if len(self.degrees) != len(self.psi):
            raise ValueError("degrees and psi must have equal length")
        pairs = sorted(zip(self.degrees, self.psi))
        object.__setattr__(self, "degrees", tuple(d for d, _ in pairs))
        object.__setattr__(self, "psi", tuple(p for _, p in pairs))

    @property
    def valence(self) -> int:
        return len(self.degrees)

    def __str__(self) -> str:
        return (f"VertexKey(genus={self.genus}, k={self.k}, "
                f"degrees={list(self.degrees)}, psi={list(self.psi)})")


def genus0_vertex_mult(valence: int, psi: Iterable[int]) -> Fraction:
    """(valence - 3)! / prod(psi_i!) for a genus-0 vertex."""
    psi = tuple(psi)
    if valence < 3 or sum(psi) != valence - 3:
        raise ValueError(f"bad genus-0 vertex: valence {valence}, psi {psi}")
    denom = 1
    for p in psi:
        denom *= math.factorial(p)
    return Fraction(math.factorial(valence - 3), denom)


class FixtureTable:
    """Immutable lookup table VertexKey -> Fraction."""

    def __init__(self, entries: dict[VertexKey, Fraction] | None = None):
        self._entries = dict(entries or {})

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: VertexKey) -> Fraction | None:
        return self._entries.get(key)

    def merged(self, other: "FixtureTable") -> "FixtureTable":
        """New table where ``other`` wins on shared keys."""
        out = dict(self._entries)
        out.update(other._entries)
        return FixtureTable(out)


def _table_from_rows(rows) -> FixtureTable:
    if not isinstance(rows, list):
        raise FixtureError("fixture file must contain a JSON list")
    entries: dict[VertexKey, Fraction] = {}
    for row in rows:
        try:
            key = VertexKey(genus=int(row["genus"]), k=int(row["k"]),
                            degrees=tuple(int(d) for d in row["degrees"]),
                            psi=tuple(int(p) for p in row["psi"]))
            value = parse_rat(str(row["value"]))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise FixtureError(f"bad fixture row {row!r}: {exc}") from exc
        # turning a vertex around (k -> -k, degrees -> -degrees) keeps its value
        mirror = VertexKey(key.genus, -key.k, tuple(-d for d in key.degrees),
                           key.psi)
        for known in (key, mirror):
            if known in entries and entries[known] != value:
                raise FixtureError(
                    f"conflicting fixture values for {known}: "
                    f"{rat_str(entries[known])} vs {rat_str(value)}"
                    + ("" if known == key else f" for its turned-around {key}"))
        entries[key] = value
    return FixtureTable(entries)


def load_fixtures(path: str | Path) -> FixtureTable:
    """Load a fixture table, rejecting duplicate keys with differing values."""
    try:
        rows = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FixtureError(f"cannot read fixture file {path}: {exc}") from exc
    return _table_from_rows(rows)


@functools.lru_cache(maxsize=1)
def default_fixtures() -> FixtureTable:
    """The table shipped with the package (covers the worked examples)."""
    text = resources.files("leakyhurwitz").joinpath(
        "data/default_fixtures.json").read_text()
    return _table_from_rows(json.loads(text))


def vertex_mult(key: VertexKey, fixtures: FixtureTable | None = None) -> Fraction:
    """Multiplicity for one vertex signature.

    Genus 0 is computed directly and never consults the table (nor k or the
    degrees).  Genus >= 1 is a table lookup and raises
    :class:`MissingVertexData` when absent.
    """
    if key.genus == 0:
        return genus0_vertex_mult(key.valence, key.psi)
    table = fixtures if fixtures is not None else default_fixtures()
    value = table.get(key)
    if value is None:
        raise MissingVertexData(key)
    return value


def oracle_from(fixtures: FixtureTable | None = None) -> VertexOracle:
    """Bind :func:`vertex_mult` to one fixture table.

    The counting path (``count_covers``, ``compute_H``) consults an oracle
    for genus >= 1 keys only and takes genus-0 factors from
    :func:`genus0_vertex_mult` itself; the listing path consults it for
    every vertex.
    """
    table = fixtures if fixtures is not None else default_fixtures()
    return lambda key: vertex_mult(key, table)
