import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from leakyhurwitz import chambers
from leakyhurwitz.cli import build_parser, main
from leakyhurwitz.covers import Problem
from leakyhurwitz.enumeration import count_covers
from leakyhurwitz.vertexdata import VertexKey, default_fixtures

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_number_golden(capsys):
    code, out, _ = run_cli(capsys, "number", "-g", "1", "-k", "1",
                           "-x", "7,-3,-1", "-e", "1,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"H": "51/4", "covers": 5}


def test_number_trivial_and_vanishing(capsys):
    code, out, _ = run_cli(capsys, "number", "-k", "1", "-x", "3,-1,-1")
    assert code == 0
    assert json.loads(out)["H"] == "1"
    code, out, _ = run_cli(capsys, "number", "-k", "2", "-x", "1,1,1,1")
    assert code == 0
    assert json.loads(out)["H"] == "0"


def test_number_invalid_problem_exit2(capsys):
    code, _, err = run_cli(capsys, "number", "-k", "1", "-x", "7,-3,-1")
    assert code == 2
    assert "degree" in err


def test_number_markings_flag(capsys):
    code, out, _ = run_cli(capsys, "number", "-g", "1", "-k", "1",
                           "-x", "7,-3,-1", "-e", "1,0,0", "-n", "3")
    assert code == 0
    assert json.loads(out)["H"] == "51/4"
    code, _, err = run_cli(capsys, "number", "-g", "1", "-k", "1",
                           "-x", "7,-3,-1", "-e", "1,0,0", "-n", "4")
    assert code == 2
    assert "disagrees" in err


def test_number_missing_fixture_exit3(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code, _, err = run_cli(capsys, "number", "-g", "1", "-k", "3",
                           "-x", "9,-3", "--fixtures", str(empty))
    assert code == 3
    assert "genus=1" in err and "k=3" in err


def test_fixtures_env_fallback(capsys, tmp_path, monkeypatch):
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps([
        {"genus": 1, "k": 3, "degrees": [3], "psi": [0], "value": "-1/24"}]))
    monkeypatch.setenv("LEAKY_FIXTURES", str(extra))
    code, out, _ = run_cli(capsys, "number", "-g", "1", "-k", "3", "-x", "9,-3")
    assert code == 0
    assert json.loads(out)["covers"] >= 1


def test_fixture_row_serves_its_turned_around_vertex(capsys, tmp_path):
    # the row's key (genus 1, k 0, degrees (-3, 3), psi (0, 1)) and its
    # turn-around (psi (1, 0)) are one value, whichever one a cover asks for
    only = tmp_path / "only.json"
    only.write_text(json.dumps([
        {"genus": 1, "k": 0, "degrees": [-3, 3], "psi": [0, 1], "value": "1/3"}]))
    for x in ("3,-3", "-3,3"):
        assert run_cli(capsys, "number", "-g", "1", "-k", "0", "-x", x,
                       "-e", "1,0", "--fixtures", str(only)) == (
            0, json.dumps({"H": "1/3", "covers": 1}, indent=2) + "\n", "")


def test_fixtures_file_overrides_builtin_row(capsys, tmp_path):
    # the user's row replaces the builtin -1/24 of this key for this run only
    key = VertexKey(1, 1, (1,), (0,))
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps([
        {"genus": 1, "k": 1, "degrees": [1], "psi": [0], "value": 7}]))
    golden = ("number", "-g", "1", "-k", "1", "-x", "7,-3,-1", "-e", "1,0,0")
    code, out, _ = run_cli(capsys, *golden, "--fixtures", str(extra))
    assert (code, json.loads(out)["H"]) == (0, "475/24")
    assert default_fixtures()[key] == Fraction(-1, 24)
    code, out, _ = run_cli(capsys, *golden)
    assert (code, json.loads(out)["H"]) == (0, "51/4")


def test_fixtures_file_overrides_both_orientations(capsys, tmp_path):
    # the user's row replaces the builtin row of its key and of its
    # turned-around key, so the turned-around problem gets the same count
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps([
        {"genus": 1, "k": 1, "degrees": [1], "psi": [0], "value": 7}]))
    for k, x in (("1", "7,-3,-1"), ("-1", "-7,3,1")):
        code, out, _ = run_cli(capsys, "number", "-g", "1", "-k", k, "-x", x,
                               "-e", "1,0,0", "--fixtures", str(extra))
        assert (code, json.loads(out)["H"]) == (0, "475/24")


def test_genus0_fixture_row_exit2(capsys, tmp_path):
    # no genus-0 vertex reads the table, so the row would be silently unused
    genus0 = tmp_path / "genus0.json"
    genus0.write_text(json.dumps([
        {"genus": 0, "k": 1, "degrees": [2, -1, -1], "psi": [0, 0, 0],
         "value": 99}]))
    code, out, err = run_cli(capsys, "number", "-k", "1", "-x", "2,-1,0",
                             "--fixtures", str(genus0))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad fixture row")


def test_covers_golden_records(capsys):
    code, out, _ = run_cli(capsys, "covers", "-g", "1", "-k", "1",
                           "-x", "7,-3,-1", "-e", "1,0,0")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 5
    mults = sorted(r["multiplicity"] for r in records)
    assert mults == sorted(["2", "3", "175/24", "1/2", "-1/24"])
    for r in records:
        assert set(r) == {"vertices", "edges", "order", "aut",
                          "edge_product", "vertex_mults", "multiplicity"}


def test_covers_trivial(capsys):
    code, out, _ = run_cli(capsys, "covers", "-k", "1", "-x", "3,-1,-1")
    assert code == 0
    assert len(json.loads(out)) == 1


def test_covers_vanishing_input_empty(capsys):
    code, out, _ = run_cli(capsys, "covers", "-k", "2", "-x", "1,1,1,1")
    assert code == 0
    assert json.loads(out) == []


def test_covers_keep_zero_flag(capsys, tmp_path):
    # a fixture value of 0 yields a zero-multiplicity cover; the flag keeps it
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps([
        {"genus": 1, "k": 1, "degrees": [1], "psi": [0], "value": "0"},
        {"genus": 1, "k": 1, "degrees": [7, -5], "psi": [1, 0], "value": "35/24"}]))
    base = ("covers", "-g", "1", "-k", "1", "-x", "7,-3,-1", "-e", "1,0,0",
            "--fixtures", str(zero))
    _, out, _ = run_cli(capsys, *base)
    assert len(json.loads(out)) == 4
    _, out, _ = run_cli(capsys, *base, "--keep-zero")
    assert len(json.loads(out)) == 5


def test_polynomial_command(capsys):
    code, out, _ = run_cli(capsys, "polynomial", "-k", "1",
                           "-x", "6,-1,-1,1,-2", "-e", "1,0,0,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["normal_form"] == "3*x1 - 3"
    assert payload["total_degree"] == 1


def test_polynomial_on_wall_exit4(capsys):
    code, _, err = run_cli(capsys, "polynomial", "-k", "1", "-x", "1,0,-1,1,2")
    assert code == 4
    assert "wall" in err


def test_walls_command(capsys):
    code, out, _ = run_cli(capsys, "walls", "-n", "4", "-k", "1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 3
    assert payload[0] == {"subset": [1, 2], "form": "x1 + x2 - 1"}


def _term_str(coeff, symbol, first):
    sign = "-" if coeff < 0 else ("" if first else "+")
    lead = sign if first else f" {sign} "
    mag = abs(coeff)
    if not symbol:
        return f"{lead}{mag}"
    if mag == 1:
        return f"{lead}{symbol}"
    return f"{lead}{mag}*{symbol}"


def _affine_str(coeffs, const):
    """The affine form sum c * x_i + const, coefficients nonzero, as the
    ``walls`` command has always printed it: "x1 + 2*x3 - 4"."""
    parts = [_term_str(c, f"x{i}", not index)
             for index, (i, c) in enumerate(coeffs)]
    if const or not parts:
        parts.append(_term_str(const, "", not parts))
    return "".join(parts)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("k", range(-3, 4))
def test_walls_bytes(capsys, n, k):
    # every subset I with 2 <= |I| <= n - 2, stored as whichever of I and its
    # complement holds 1, in lexicographic order
    subsets = sorted(I for size in range(2, n - 1)
                     for I in itertools.combinations(range(1, n + 1), size)
                     if I[0] == 1)
    found = [{"subset": list(I),
              "form": _affine_str([(i, 1) for i in I], -k * (len(I) - 1))}
             for I in subsets]
    table = "".join(f"{w['subset']}: {w['form']} = 0\n" for w in found)
    argv = ("walls", "-n", str(n), "-k", str(k))
    assert run_cli(capsys, *argv) == (
        0, json.dumps(found, indent=2, sort_keys=True) + "\n", "")
    assert run_cli(capsys, *argv, "--format", "table") == (0, table, "")


def test_wallcross_command(capsys):
    code, out, _ = run_cli(capsys, "wallcross", "-n", "5", "-k", "1",
                           "-e", "1,0,0,0,0", "--subset", "1,2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["computed"] == payload["formula"] == "2*x1 + 2*x2 + 2*x3 - 4"


def _wallcross_argv():
    """wallcross on every wall of n = 4..6, k in {-1, 0, 2}, psi 0 and e1,
    in both formats: 456 command lines."""
    for n in (4, 5, 6):
        subsets = sorted(I for size in range(2, n - 1)
                         for I in itertools.combinations(range(1, n + 1), size)
                         if I[0] == 1)
        for I, k, psi, fmt in itertools.product(
                subsets, (-1, 0, 2), (0, 1), ("json", "table")):
            yield ["wallcross", "-k", str(k), "-e", _csv((psi,) + (0,) * (n - 1)),
                   "--subset", _csv(I), "--format", fmt]


def test_wallcross_bytes(capsys):
    # the chamber layer's output pinned as one digest of (argv, exit code,
    # stdout, stderr) over every command line, recorded before the crossing
    # inputs were cached
    digest, lines = hashlib.sha256(), 0
    for argv in _wallcross_argv():
        digest.update(json.dumps([argv, *run_cli(capsys, *argv)]).encode())
        lines += 1
    assert lines == 456
    assert digest.hexdigest() == (
        "4e288ba689d118dbefe38e70f2b332c2e87a0622417a3e33325420235774d7ea")


def _polynomial_argv():
    """polynomial at n = 4..7, k in {-1, 0, 2}, three psi vectors (four from
    n = 6) and four seeded points each, some on a wall, in both formats,
    then walls at n = 4..8 for the same k: 366 command lines."""
    for n in (4, 5, 6, 7):
        psis = [(0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)]
        if n >= 6:
            psis.append((0, 1, 1) + (0,) * (n - 3))
        for k, psi in itertools.product((-1, 0, 2), psis):
            rng = random.Random(f"polynomial:{n}:{k}:{psi}")
            for _ in range(4):
                x = [rng.randint(-20, 20) for _ in range(n - 1)]
                x.append(k * (n - 2) - sum(x))
                for fmt in ("json", "table"):
                    yield ["polynomial", "-k", str(k), "-x", _csv(x),
                           "-e", _csv(psi), "--format", fmt]
    for n, k, fmt in itertools.product(range(4, 9), (-1, 0, 2),
                                       ("json", "table")):
        yield ["walls", "-n", str(n), "-k", str(k), "--format", fmt]


def test_polynomial_bytes(capsys):
    # the polynomial printer pinned as one digest of (argv, exit code,
    # stdout, stderr), recorded before Poly packed its monomials into ints
    digest, codes = hashlib.sha256(), []
    for argv in _polynomial_argv():
        result = run_cli(capsys, *argv)
        digest.update(json.dumps([argv, *result]).encode())
        codes.append(result[0])
    assert len(codes) == 366
    assert set(codes) == {0, 4}  # chamber points and on-wall points
    assert digest.hexdigest() == (
        "5eb3ffe75b88fb076de246e794b443e39fc7f9c5e6559efe3309a93b4df73c56")


def test_classify_command(capsys):
    code, out, _ = run_cli(capsys, "classify", "-k", "2", "-x", "1,1,1,1",
                           "-e", "0,0,0,0")
    assert code == 0
    assert json.loads(out)["classification"] == "Zero"


def test_deterministic_output(capsys):
    args = ("covers", "-g", "1", "-k", "1", "-x", "7,-3,-1", "-e", "1,0,0")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_negative_leading_list_values(capsys):
    # "-7,3,1" after -x is the value, not an option
    code, out, _ = run_cli(capsys, "number", "-g", "1", "-k", "-1",
                           "-x", "-7,3,1", "-e", "1,0,0")
    assert code == 0
    assert json.loads(out) == {"H": "51/4", "covers": 5}
    code, _, err = run_cli(capsys, "number", "-k", "1", "-x", "3,-1,-1",
                           "-e", "-1,1,0")
    assert code == 2
    assert "nonnegative" in err
    code, _, err = run_cli(capsys, "wallcross", "-n", "5", "-k", "1",
                           "--subset", "-1,2")
    assert code == 4
    assert "out of range" in err


@pytest.mark.parametrize("argv, code, err", [
    (("number", "-k", "1", "-x", "7,-3,-1"), 2,
     "error: degree constraint violated: sum(x) = 3 but k(2g-2+n) = 1\n"),
    (("polynomial", "-g", "1", "-k", "1", "-x", "7,-3,-1", "-e", "1,0,0"), 2,
     "error: chamber polynomials exist for genus 0 only\n"),
    (("classify", "-g", "1", "-k", "1", "-x", "7,-3,-1", "-e", "1,0,0"), 2,
     "error: the vanishing classification applies to genus 0 only\n"),
    (("polynomial", "-k", "1", "-x", "1,0,-1,1,2"), 4,
     "error: reference point [1, 0, -1, 1, 2] lies on the wall [1, 2]\n"),
    (("wallcross", "-n", "3", "--subset", "1,2"), 4,
     "error: n = 3 markings have no walls: walls need n >= 4\n"),
    (("wallcross", "-n", "4", "--subset", "1,1,2"), 4,
     "error: wall subset (1, 1, 2) repeats a marking\n"),
    (("walls", "-n", "-3"), 2,
     "error: unstable marking count: n = -3 must be at least 3\n"),
    (("walls", "-n", "0"), 2,
     "error: unstable marking count: n = 0 must be at least 3\n"),
    (("wallcross", "-n", "0", "--subset", "1"), 2,
     "error: unstable marking count: n = 0 must be at least 3\n"),
    (("wallcross", "-n", "-5", "--subset", "1"), 2,
     "error: unstable marking count: n = -5 must be at least 3\n"),
    (("wallcross", "-e", "", "--subset", "1,2"), 2,
     "error: unstable marking count: n = 0 must be at least 3\n"),
    (("wallcross", "--subset", "1,2"), 2,
     "error: wallcross needs -n or -e to fix the marking count\n"),
])
def test_input_errors_exit_codes(capsys, argv, code, err):
    assert run_cli(capsys, *argv) == (code, "", err)


@pytest.mark.parametrize("argv, code, last", [
    ("number -g 1 -k 3 -x 5,1", 3, "error: no vertex multiplicity on record "
     "for VertexKey(genus=1, k=3, degrees=[3], psi=[0])"),
    ("wallcross -n 3 --subset 1,2", 4,
     "error: n = 3 markings have no walls: walls need n >= 4"),
    ("number -x 1,2", 2, "error: unstable input: 2g-2+n = 0 must be positive"),
    ("bogus", 2, "leakyhurwitz: error: argument command: invalid choice: 'bogus'"),
])
def test_module_entry_point_exit_status(argv, code, last):
    # the process status is main's return value; the package's errors are
    # one stderr line, argparse's come after its usage lines
    done = subprocess.run([sys.executable, "-m", "leakyhurwitz.cli", *argv.split()],
                          capture_output=True, text=True, env=_module_env(),
                          timeout=60)
    assert done.returncode == code
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert lines[-1].startswith(last)
    assert len(lines) == 1 or argv == "bogus"


def _module_env():
    env = {key: value for key, value in os.environ.items()
           if key != "LEAKY_FIXTURES"}
    env["PYTHONPATH"] = str(SRC)
    return env


@pytest.mark.parametrize("argv", [
    ["-g", "30", "-x", "5,-5"],  # _shape recurses over 1,770 pairs
    ["-x", "1,-1" + ",0" * 1100],  # _end_partitions recurses over 1,102 markings
], ids=["genus-30", "1102-markings"])
def test_too_deep_recursion_exits_5(argv):
    done = subprocess.run(
        [sys.executable, "-m", "leakyhurwitz.cli", "number", *argv],
        capture_output=True, text=True, env=_module_env(), timeout=60)
    assert done.returncode == 5
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: problem too large: maximum recursion")


def test_one_vertex_of_many_markings(capsys):
    # a lone vertex takes every marking, with no search over the markings
    n = 1000
    code, out, err = run_cli(capsys, "number", "-x", "1,-1" + ",0" * (n - 2),
                             "-e", str(n - 3) + ",0" * (n - 1))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"H": "1", "covers": 1}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-str digit limit before Python 3.11")
def test_count_past_the_int_str_digit_limit(capsys):
    # a count of more than 4,300 digits prints in full, and the interpreter's
    # digit limit is restored when main returns
    nines = "9" * 1500
    x = ",".join([nines, "-" + nines] * 2 + ["1", "-1"])
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "number", "-x", x)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    payload = json.loads(out)
    assert len(payload["H"]) > limit
    code, covers, err = run_cli(capsys, "covers", "-x", x)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    p = Problem.of(0, 0, tuple(map(int, x.split(","))))
    expected = count_covers(p)
    sys.set_int_max_str_digits(0)
    try:
        assert (Fraction(payload["H"]), payload["covers"]) == expected
        mults = [Fraction(line["multiplicity"]) for line in json.loads(covers)]
    finally:
        sys.set_int_max_str_digits(limit)
    assert (sum(mults), len(mults)) == expected


@pytest.mark.parametrize("argv", ["covers -g 1 -k 1 -x 7,-3,-1 -e 1,0,0",
                                  "walls -n 9 --format table"])
def test_closed_stdout_pipe_exits_quietly(argv):
    # the reader is gone before the first write, as after `| head -1`; no
    # traceback follows, not even from the flush at interpreter exit
    proc = subprocess.Popen(
        [sys.executable, "-m", "leakyhurwitz.cli", *argv.split()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_internal_value_error_is_not_an_input_error(capsys, monkeypatch):
    def broken(p):
        raise ValueError("internal fault")

    monkeypatch.setattr("leakyhurwitz.cli.classify", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["classify", "-k", "2", "-x", "1,1,1,1"])


def test_out_of_memory_exits_5(capsys, monkeypatch):
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr("leakyhurwitz.cli.walls", exhausted)
    code, out, err = run_cli(capsys, "walls", "-n", "28")
    assert code == 5
    assert out == ""
    assert err == "error: problem too large: out of memory\n"


@pytest.mark.parametrize("argv, n", [
    ("walls -n 40", 40),
    ("wallcross -n 40 --subset 1,2", 40),
    ("polynomial -x 20" + ",-1" * 20, 21),
], ids=["walls", "wallcross", "polynomial"])
def test_wall_table_past_the_cap_exits_5(capsys, argv, n):
    # refused before any wall is built: fast, one line naming the wall
    # count, and nothing left in the wall cache
    cached = chambers._walls_of.cache_info().currsize
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (5, "")
    assert err == (f"error: problem too large: n = {n} markings have "
                   f"{2 ** (n - 1) - n - 1:,} walls; wall tables stop at "
                   f"n = {chambers._MAX_WALL_MARKINGS}\n")
    assert chambers._walls_of.cache_info().currsize == cached


@pytest.mark.parametrize("argv, zeros", [
    ("number -k 1 -x 6,-1,-1,1,-2", 5),
    ("covers -k 1 -x 6,-1,-1,1,-2", 5),
    ("polynomial -k 1 -x 6,-1,-1,1,-2", 5),
    ("classify -k 2 -x 1,1,1,1", 4),
    ("wallcross -n 5 -k 1 --subset 1,2,3", 5),
])
def test_psi_defaults_to_zeros(capsys, argv, zeros):
    code, implicit, _ = run_cli(capsys, *argv.split())
    assert code == 0
    explicit = run_cli(capsys, *argv.split(), "-e", ",".join("0" * zeros))
    assert explicit == (0, implicit, "")


def test_readme_names_every_option():
    # every option string of every command, help aside, as its own word
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = next(action for action in build_parser()._actions
                    if action.choices).choices
    missing = [(name, option)
               for name, command in commands.items()
               for action in command._actions
               for option in action.option_strings
               if option not in ("-h", "--help")
               and not re.search(rf"(?<![\w-]){option}(?![\w-])", readme)]
    assert missing == []


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "number", "-g", "1", "-k", "1",
                           "-x", "7,-3,-1", "-e", "1,0,0", "--format", "table")
    assert code == 0
    assert out.strip() == "H = 51/4 (5 covers)"


def _edges(*weights):
    return [{"from": 0, "to": 1, "weight": w} for w in weights]


def _vertices(genera, ends):
    return [{"ends": e, "genus": g} for g, e in zip(genera, ends)]


# every field of the five golden covers, in output order
GOLDEN_COVER_RECORDS = [
    {"aut": 2, "edge_product": "1", "edges": _edges(1, 1), "multiplicity": "1/2",
     "order": [0, 1], "vertex_mults": ["1", "1"],
     "vertices": _vertices((0, 0), ([1, 2], [3]))},
    {"aut": 1, "edge_product": "3", "edges": _edges(1, 3), "multiplicity": "3",
     "order": [0, 1], "vertex_mults": ["1", "1"],
     "vertices": _vertices((0, 0), ([1, 3], [2]))},
    {"aut": 2, "edge_product": "4", "edges": _edges(2, 2), "multiplicity": "2",
     "order": [0, 1], "vertex_mults": ["1", "1"],
     "vertices": _vertices((0, 0), ([1, 3], [2]))},
    {"aut": 1, "edge_product": "1", "edges": _edges(1), "multiplicity": "-1/24",
     "order": [0, 1], "vertex_mults": ["1", "-1/24"],
     "vertices": _vertices((0, 1), ([1, 2, 3], []))},
    {"aut": 1, "edge_product": "5", "edges": _edges(5), "multiplicity": "175/24",
     "order": [0, 1], "vertex_mults": ["35/24", "1"],
     "vertices": _vertices((1, 0), ([1], [2, 3]))},
]

GOLDEN_COVER_TABLE = """\
cover 0: aut=2 edges=[(0, 1, 1), (0, 1, 1)] mult=1/2
cover 1: aut=1 edges=[(0, 1, 1), (0, 1, 3)] mult=3
cover 2: aut=2 edges=[(0, 1, 2), (0, 1, 2)] mult=2
cover 3: aut=1 edges=[(0, 1, 1)] mult=-1/24
cover 4: aut=1 edges=[(0, 1, 5)] mult=175/24
"""


def test_covers_golden_output_bytes(capsys):
    argv = ("covers", "-g", "1", "-k", "1", "-x", "7,-3,-1", "-e", "1,0,0")
    expected = json.dumps(GOLDEN_COVER_RECORDS, indent=2, sort_keys=True) + "\n"
    assert run_cli(capsys, *argv, "--format", "json") == (0, expected, "")
    assert run_cli(capsys, *argv, "--format", "table") == (0, GOLDEN_COVER_TABLE, "")


def test_fixture_zero_denominator_exit2(capsys, tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps([
        {"genus": 1, "k": 3, "degrees": [3], "psi": [0], "value": "1/0"}]))
    code, out, err = run_cli(capsys, "number", "-g", "1", "-k", "3",
                             "-x", "9,-3", "--fixtures", str(zero))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad fixture row")


def test_fixture_float_degree_exit2(capsys, tmp_path):
    # read as 7, the row would silently replace the builtin 35/24
    bad = tmp_path / "float.json"
    bad.write_text(json.dumps([
        {"genus": 1, "k": 1, "degrees": [7.9, -5], "psi": [1, 0], "value": "9"}]))
    code, out, err = run_cli(capsys, "number", "-g", "1", "-k", "1",
                             "-x", "7,-3,-1", "-e", "1,0,0", "--fixtures", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad fixture row")


@pytest.mark.parametrize("content, error", [
    (b"[" * 200_000, "cannot read fixture file {}: "),
    (b"\xff\xfe", "cannot read fixture file {}: "),
    (b'{"genus": 1}', "fixture file must contain a JSON list\n"),
    (b"5", "fixture file must contain a JSON list\n")],
    ids=["nested-too-deep", "not-utf8", "object", "number"])
def test_unreadable_fixture_file_exit2(capsys, tmp_path, content, error):
    # json.loads raises RecursionError on deep nesting, and reading raises
    # UnicodeDecodeError on bytes that are not text; a readable file must
    # hold a JSON list of rows
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run_cli(capsys, "number", "-g", "1", "-k", "1",
                             "-x", "7,-3,-1", "-e", "1,0,0", "--fixtures", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + error.format(bad))
    assert err.count("\n") == 1


def test_selftest_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as err:
        main(["selftest"])
    assert err.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


def test_usage_error_exit2():
    with pytest.raises(SystemExit) as err:
        main(["number"])  # missing required -x
    assert err.value.code == 2


@pytest.mark.parametrize("bad", [["number"], ["selftest"],
                                 ["walls", "-n", "x"],
                                 ["wallcross", "-n", "5", "--subset", "1,2,"],
                                 ["polynomial", "-x", "1,1", "--keep-zero"]])
def test_usage_error_leaves_the_next_command_unchanged(capsys, bad):
    # one process may run many commands: a command line argparse rejects
    # (exit 2) must not change how the next one reads
    good = ["wallcross", "-k", "1", "-e", "1,0,0,0,0", "--subset", "1,2",
            "--format", "table"]
    alone = run_cli(capsys, *good)
    assert alone[0] == 0 and alone[1]
    with pytest.raises(SystemExit) as err:
        main(bad)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("usage: leakyhurwitz")
    assert run_cli(capsys, *good) == alone


@pytest.mark.parametrize("command", ["polynomial", "classify"])
def test_fixtures_only_where_read(capsys, command):
    # chamber commands are genus 0 and never read a fixture
    with pytest.raises(SystemExit) as err:
        main([command, "-k", "2", "-x", "1,1,1,1",
              "--fixtures", "missing.json"])
    assert err.value.code == 2
    assert "unrecognized arguments: --fixtures" in capsys.readouterr().err


def _csv(values) -> str:
    return ",".join(map(str, values))


@st.composite
def _argv(draw):
    """A well-formed command line: any of the six commands, genus <= 1, at
    most five markings, small entries, and -n, -e and --subset lengths that
    may not match the profile; most profiles meet the degree law."""
    command = draw(st.sampled_from(["number", "covers", "polynomial", "walls",
                                    "wallcross", "classify"]))
    k = draw(st.integers(-3, 3))
    argv = [command, "-k", str(k)]
    if command == "walls":
        return argv + ["-n", str(draw(st.integers(0, 6)))]
    n = draw(st.one_of(st.integers(3, 5), st.integers(0, 5)))
    if command == "wallcross":
        argv += ["--subset", _csv(draw(st.one_of(
            st.lists(st.integers(1, max(n, 1)), max_size=n, unique=True),
            st.lists(st.integers(-1, 6), max_size=5))))]
    else:
        g = draw(st.one_of(st.integers(0, 1), st.integers(-1, 1)))
        x = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        if x and draw(st.integers(0, 3)):
            x[-1] = k * (2 * g - 2 + n) - sum(x[:-1])
        argv += ["-g", str(g), "-x", _csv(x)]
    markings = draw(st.sampled_from([None, None, n, n + 1]))
    if markings is not None:
        argv += ["-n", str(markings)]
    psi = draw(st.one_of(st.none(),
                         st.lists(st.sampled_from([0, 0, 1]), min_size=n, max_size=n),
                         st.lists(st.integers(0, 3), max_size=5)))
    if psi is not None:
        argv += ["-e", _csv(psi)]
    if command == "covers" and draw(st.booleans()):
        argv.append("--keep-zero")
    return argv + ["--format", draw(st.sampled_from(["json", "table"]))]


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_every_command_line_ends_in_an_exit_code(argv):
    # whatever the problem, main reports it by an exit code and never raises
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), argv
    assert (code == 0) == (err.getvalue() == ""), argv
