import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = sys.argv[1:]
import tracing
tracing.install(tracing.Tracer())
"""


def test_benchmark_tracer_finds_every_hook():
    # install patches the package for the whole process, so run it apart;
    # a function it wraps that the package lost is named in the error
    done = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


LOOKUPS = INSTALL.replace("tracing.install(tracing.Tracer())", """\
tracer = tracing.Tracer()
tracing.install(tracer)
import contextlib, io, json
import leakyhurwitz
from leakyhurwitz import cli

def calls():
    spans = tracer.snapshot()["spans"]
    return [spans[name]["calls"]
            for name in ("vertexdata.oracle", "vertexdata.fixtures_load")]

seen = []
leakyhurwitz.compute_H(leakyhurwitz.Problem.of(1, 1, (7, -3, -1), (1, 0, 0)))
seen.append(calls())
for command in ("covers", "number"):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main([command, "-g", "1", "-k", "1", "-x", "7,-3,-1", "-e", "1,0,0"])
    seen.append(calls())
print(json.dumps(seen))
""")


def test_fixture_reads_pass_the_traced_names():
    # the tracer wraps vertex_mult and default_fixtures on the vertexdata
    # module: a lookup through another name would go uncounted.  compute_H
    # reads the builtin table once and two genus-1 vertices; the golden
    # covers read ten vertex factors, and each command loads the table once
    done = subprocess.run(
        [sys.executable, "-c", LOOKUPS, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[2, 1], [12, 2], [14, 3]]
