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
