import itertools
import json
import math
from fractions import Fraction

import pytest

from leakyhurwitz.vertexdata import (FixtureError, FixtureTable, MissingVertexData,
                                     VertexKey, default_fixtures,
                                     genus0_vertex_mult, load_fixtures,
                                     oracle_from, vertex_mult)


def test_genus0_multinomial():
    key = VertexKey(genus=0, k=1, degrees=(7, -5, 3, 1), psi=(1, 0, 0, 0))
    assert vertex_mult(key) == 1
    key = VertexKey(genus=0, k=0, degrees=(1, 1, 1, 1, 1, -5), psi=(1, 1, 1, 0, 0, 0))
    assert vertex_mult(key) == 6  # 3!/1
    key = VertexKey(genus=0, k=2, degrees=(0,) * 5, psi=(2, 0, 0, 0, 0))
    assert vertex_mult(key) == 1  # 2!/2!


def test_genus0_multinomial_is_an_int():
    # sum(psi) = valence - 3 makes (valence-3)!/prod(psi_i!) a multinomial;
    # every psi vector is a composition of valence - 3, read off its bars
    for valence in range(3, 11):
        slots = 2 * valence - 4
        for bars in itertools.combinations(range(slots), valence - 1):
            ends = (-1,) + bars + (slots,)
            psi = tuple(b - a - 1 for a, b in zip(ends, ends[1:]))
            assert sum(psi) == valence - 3
            value = genus0_vertex_mult(valence, psi)
            assert type(value) is int
            assert value == Fraction(math.factorial(valence - 3),
                                     math.prod(map(math.factorial, psi)))


def test_genus0_ignores_k_and_degrees():
    a = VertexKey(genus=0, k=5, degrees=(9, -2, -1), psi=(0, 0, 0))
    b = VertexKey(genus=0, k=-3, degrees=(1, 1, 1), psi=(0, 0, 0))
    empty = FixtureTable()
    assert vertex_mult(a, empty) == vertex_mult(b, empty) == 1


def test_default_fixture_entries():
    table = default_fixtures()
    assert table.get(VertexKey(1, 1, (7, -5), (1, 0))) == Fraction(35, 24)
    assert table.get(VertexKey(1, 1, (1,), (0,))) == Fraction(-1, 24)
    assert table.get(VertexKey(1, 2, (2,), (0,))) == Fraction(-1, 24)


def test_key_canonicalization():
    a = VertexKey(1, 1, (7, -5), (1, 0))
    b = VertexKey(1, 1, (-5, 7), (0, 1))
    assert a == b
    assert vertex_mult(a) == vertex_mult(b) == Fraction(35, 24)


def test_missing_key_error_carries_key():
    key = VertexKey(1, 9, (4, -2), (1, 0))
    with pytest.raises(MissingVertexData) as err:
        vertex_mult(key, FixtureTable())
    assert err.value.key == key
    assert "genus=1" in str(err.value)


def test_load_fixtures_empty_and_conflict(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    table = load_fixtures(empty)
    assert len(table) == 0
    assert vertex_mult(VertexKey(0, 1, (2, -1, -1), (0, 0, 0)), table) == 1

    conflict = tmp_path / "conflict.json"
    conflict.write_text(json.dumps([
        {"genus": 1, "k": 1, "degrees": [1], "psi": [0], "value": "-1/24"},
        {"genus": 1, "k": 1, "degrees": [1], "psi": [0], "value": "1/24"},
    ]))
    with pytest.raises(FixtureError):
        load_fixtures(conflict)


def test_load_fixtures_mirrored_conflict(tmp_path):
    path = tmp_path / "mirrored.json"
    rows = [{"genus": 1, "k": 1, "degrees": [-5, 7], "psi": [0, 1],
             "value": "5/2"},
            {"genus": 1, "k": -1, "degrees": [5, -7], "psi": [0, 1],
             "value": "5/2"}]
    path.write_text(json.dumps(rows))
    assert len(load_fixtures(path)) == 2
    rows[1]["value"] = "-5/2"
    path.write_text(json.dumps(rows))
    with pytest.raises(FixtureError, match="turned-around"):
        load_fixtures(path)


def test_load_fixtures_duplicate_consistent_ok(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps([
        {"genus": 1, "k": 1, "degrees": [1], "psi": [0], "value": "-1/24"},
        {"genus": 1, "k": 1, "degrees": [1], "psi": [0], "value": "-1/24"},
    ]))
    assert len(load_fixtures(path)) == 1


def test_load_fixtures_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FixtureError):
        load_fixtures(path)


GOOD_ROW = {"genus": 1, "k": 1, "degrees": [7, -5], "psi": [1, 0],
            "value": "35/24"}


@pytest.mark.parametrize("field, bad", [
    ("degrees", [7.9, -5]), ("genus", 1.5), ("k", True), ("degrees", "12"),
    ("psi", [1, None]), ("psi", 1), ("value", 1.5), ("value", None)])
def test_load_fixtures_rejects_coerced_fields(tmp_path, field, bad):
    # int() would read 7.9 as 7, 1.5 as 1, true as 1 and "12" as (1, 2)
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps([GOOD_ROW]))
    assert load_fixtures(path).get(VertexKey(1, 1, (7, -5), (1, 0))) == \
        Fraction(35, 24)
    path.write_text(json.dumps([dict(GOOD_ROW, **{field: bad})]))
    with pytest.raises(FixtureError, match="bad fixture row"):
        load_fixtures(path)


def test_load_fixtures_zero_denominator(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps([
        {"genus": 1, "k": 3, "degrees": [3], "psi": [0], "value": "1/0"}]))
    with pytest.raises(FixtureError, match="bad fixture row"):
        load_fixtures(path)


def test_merged_tables_override():
    base = default_fixtures()
    override = FixtureTable({VertexKey(1, 1, (1,), (0,)): Fraction(7)})
    merged = base.merged(override)
    assert merged.get(VertexKey(1, 1, (1,), (0,))) == Fraction(7)
    assert merged.get(VertexKey(1, 1, (7, -5), (1, 0))) == Fraction(35, 24)
    # the original is untouched
    assert base.get(VertexKey(1, 1, (1,), (0,))) == Fraction(-1, 24)


def test_oracle_from_binds_table():
    oracle = oracle_from(FixtureTable())
    with pytest.raises(MissingVertexData):
        oracle(VertexKey(1, 1, (1,), (0,)))
