import os
import subprocess
import sys
from pathlib import Path

import memaccel

BENCH = Path(__file__).resolve().parents[1] / "bench"

# bench/tracer.py wraps memaccel's functions by attribute name. It runs
# in a child process, since installing it replaces module attributes.
INSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
import tracer
from memaccel import spectral
t = tracer.Tracer()
tracer.install(t)
t.active = True
spectral.laplacian(spectral.WeightedGraph(2, ((0, 1, 1.0),)))
print(*[s[0] for s in t.spans])
"""


def test_tracer_installs_on_the_package():
    src = str(Path(memaccel.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", INSTALL, str(BENCH)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["spectral.laplacian"]
