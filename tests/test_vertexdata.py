import itertools
import json
import math
from fractions import Fraction
from importlib import resources

import pytest

from leakyhurwitz.vertexdata import (FixtureError, MissingVertexData, VertexKey,
                                     default_fixtures, genus0_vertex_mult,
                                     load_fixtures, vertex_mult)


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
    for valence, psi in ((2, ()), (4, (0, 0))):
        with pytest.raises(ValueError, match="bad genus-0 vertex"):
            genus0_vertex_mult(valence, psi)


def test_genus0_ignores_k_and_degrees():
    a = VertexKey(genus=0, k=5, degrees=(9, -2, -1), psi=(0, 0, 0))
    b = VertexKey(genus=0, k=-3, degrees=(1, 1, 1), psi=(0, 0, 0))
    assert vertex_mult(a, {}) == vertex_mult(b, {}) == 1


def test_default_fixture_entries():
    table = default_fixtures()
    assert table.get(VertexKey(1, 1, (7, -5), (1, 0))) == Fraction(35, 24)
    assert table.get(VertexKey(1, 1, (1,), (0,))) == Fraction(-1, 24)
    assert table.get(VertexKey(1, 2, (2,), (0,))) == Fraction(-1, 24)


def test_builtin_rows_repeat_no_mirror():
    # the loader stores every row under its key and its turned-around key,
    # so a builtin row mirroring another would only repeat it
    text = resources.files("leakyhurwitz").joinpath(
        "data/default_fixtures.json").read_text()
    keys = [VertexKey(r["genus"], r["k"], tuple(r["degrees"]), tuple(r["psi"]))
            for r in json.loads(text)]
    mirrors = {VertexKey(g, -k, tuple(-d for d in degrees), psi)
               for g, k, degrees, psi in keys}
    assert not mirrors & set(keys)
    assert dict(default_fixtures()) == {
        VertexKey(1, 1, (7, -5), (1, 0)): Fraction(35, 24),
        VertexKey(1, 1, (1,), (0,)): Fraction(-1, 24),
        VertexKey(1, 2, (2,), (0,)): Fraction(-1, 24),
        VertexKey(1, -1, (-7, 5), (1, 0)): Fraction(35, 24),
        VertexKey(1, -1, (-1,), (0,)): Fraction(-1, 24),
        VertexKey(1, -2, (-2,), (0,)): Fraction(-1, 24)}


def test_default_fixtures_are_read_only():
    # one cached table serves every caller, so no caller may change it
    key = VertexKey(1, 1, (1,), (0,))
    with pytest.raises(TypeError):
        default_fixtures()[key] = 1
    assert default_fixtures()[key] == Fraction(-1, 24)


def test_key_canonicalization():
    a = VertexKey(1, 1, (7, -5), (1, 0))
    b = VertexKey(1, 1, (-5, 7), (0, 1))
    assert a == b
    assert vertex_mult(a) == vertex_mult(b) == Fraction(35, 24)
    with pytest.raises(ValueError, match="equal length"):
        VertexKey(1, 1, (7, -5), (1,))


def test_missing_key_error_carries_key():
    key = VertexKey(1, 9, (4, -2), (1, 0))
    with pytest.raises(MissingVertexData) as err:
        vertex_mult(key, {})
    assert err.value.key == key
    assert "genus=1" in str(err.value)
    # a table holding only the turned-around key serves this one
    assert vertex_mult(key, {VertexKey(1, -9, (-4, 2), (1, 0)): 5}) == 5


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
    # one key, stored with its turned-around key
    assert load_fixtures(path) == {VertexKey(1, 1, (1,), (0,)): Fraction(-1, 24),
                                   VertexKey(1, -1, (-1,), (0,)): Fraction(-1, 24)}


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


def test_load_fixtures_reads_exact_decimal_strings(tmp_path):
    # the JSON number 1.5 is rejected above; the string "1.5" is read
    # exactly, as fractions.Fraction reads it
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps([dict(GOOD_ROW, value="1.5")]))
    assert load_fixtures(path)[VertexKey(1, 1, (7, -5), (1, 0))] == Fraction(3, 2)


def test_load_fixtures_zero_denominator(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps([
        {"genus": 1, "k": 3, "degrees": [3], "psi": [0], "value": "1/0"}]))
    with pytest.raises(FixtureError, match="bad fixture row"):
        load_fixtures(path)


@pytest.mark.parametrize("field, bad", [("genus", 0), ("genus", -1),
                                        ("psi", [1, -1])])
def test_load_fixtures_rejects_rows_no_vertex_reads(tmp_path, field, bad):
    # genus 0 never consults the table and psi is nonnegative, so such a row
    # could never be read
    path = tmp_path / "unread.json"
    path.write_text(json.dumps([dict(GOOD_ROW, **{field: bad})]))
    with pytest.raises(FixtureError, match="bad fixture row"):
        load_fixtures(path)

