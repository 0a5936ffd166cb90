"""Vertex multiplicities: closed form in genus 0, fixture table above.

A genus-0 vertex contributes a multinomial coefficient depending only on its
valence and local psi exponents.  Higher-genus vertex values are data, not
code: they come from a fixture table, a read-only mapping keyed by the full
local signature (genus, leak, signed local degrees, psi exponents), and a
missing key is a hard error rather than a silently wrong number.
:func:`vertex_mult` is the one reader of that table.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from .exactarith import parse_rat, rat_str


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


def genus0_vertex_mult(valence: int, psi: Iterable[int]) -> int:
    """(valence - 3)! / prod(psi_i!) for a genus-0 vertex; a multinomial."""
    psi = tuple(psi)
    if valence < 3 or sum(psi) != valence - 3:
        raise ValueError(f"bad genus-0 vertex: valence {valence}, psi {psi}")
    denom = 1
    for p in psi:
        denom *= math.factorial(p)
    return math.factorial(valence - 3) // denom


def _turned_around(key: VertexKey) -> VertexKey:
    """The key of the vertex turned around (k -> -k, degrees -> -degrees),
    which has the same value."""
    return VertexKey(key.genus, -key.k, tuple(-d for d in key.degrees), key.psi)


def _table_from_rows(rows) -> dict[VertexKey, Fraction]:
    """The table of the rows, each under its key and its turned-around key,
    so a table merged over it replaces both; a row no vertex reads (genus
    below 1, a negative psi) is rejected."""
    if not isinstance(rows, list):
        raise FixtureError("fixture file must contain a JSON list")
    entries: dict[VertexKey, Fraction] = {}
    for row in rows:
        try:
            genus, k, degrees, psi, value = (
                row[field] for field in ("genus", "k", "degrees", "psi", "value"))
            if not (type(degrees) is list and type(psi) is list
                    and all(type(v) is int for v in (genus, k, *degrees, *psi))
                    and type(value) in (int, str)):
                raise TypeError('genus, k, degrees, psi need ints, value int or "p/q"')
            if genus < 1 or any(e < 0 for e in psi):
                raise ValueError("genus must be >= 1 and psi nonnegative")
            key = VertexKey(genus, k, tuple(degrees), tuple(psi))
            value = parse_rat(str(value))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise FixtureError(f"bad fixture row {row!r}: {exc}") from exc
        for known in (key, _turned_around(key)):
            if known in entries and entries[known] != value:
                raise FixtureError(
                    f"conflicting fixture values for {known}: "
                    f"{rat_str(entries[known])} vs {rat_str(value)}"
                    + ("" if known == key else f" for its turned-around {key}"))
        entries[key] = value
    for key, value in list(entries.items()):
        entries.setdefault(_turned_around(key), value)
    return entries


def load_fixtures(path: str | Path) -> dict[VertexKey, Fraction]:
    """Load a fixture table, rejecting duplicate keys with differing values."""
    try:
        rows = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise FixtureError(f"cannot read fixture file {path}: {exc}") from exc
    return _table_from_rows(rows)


@functools.lru_cache(maxsize=1)
def default_fixtures() -> Mapping[VertexKey, Fraction]:
    """The table shipped with the package (covers the worked examples),
    read-only, since every caller shares the one cached copy."""
    text = resources.files("leakyhurwitz").joinpath(
        "data/default_fixtures.json").read_text()
    return MappingProxyType(_table_from_rows(json.loads(text)))


def vertex_mult(key: VertexKey, fixtures: Mapping[VertexKey, Fraction] | None = None
                ) -> int | Fraction:
    """Multiplicity for one vertex signature.

    Genus 0 is the int :func:`genus0_vertex_mult` and never consults the
    table (nor k or the degrees).  Genus >= 1 is a lookup in ``fixtures``
    (``None`` means the builtin table), a ``Fraction``, of the key or else
    of its turned-around key (a loaded table holds both; any other mapping
    may hold one), and raises :class:`MissingVertexData`, naming the key
    asked for, when both are absent.
    """
    if key.genus == 0:
        return genus0_vertex_mult(key.valence, key.psi)
    table = fixtures if fixtures is not None else default_fixtures()
    value = table.get(key)
    if value is None:
        value = table.get(_turned_around(key))
    if value is None:
        raise MissingVertexData(key)
    return value
