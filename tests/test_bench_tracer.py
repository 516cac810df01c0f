import json
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

# The first op of each in-process kind the tracer counts from, run as the
# traced worker runs it: ops built and warmed up first, then the tracer
# installed. Prints each traced name's count keys and every failed check.
TRACED_OPS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer, workloads
first = {}
for name, kinds in (("consensus-graph", ("n560", "drop", "fixture")),
                    ("interval-certify", None), ("structured-search", None)):
    ops = workloads.build(name, 1, sys.argv[2], sys.argv[3])
    workloads.warmup(name)
    for op in [op for op in ops if op.kind in kinds] if kinds else ops[:1]:
        first.setdefault((name, op.kind), op)
t = tracer.Tracer()
tracer.install(t)
failures = {}
for (name, kind), op in first.items():
    t.active = True
    out = op.run()
    t.active = False
    why = op.check(out)[0]
    if why is not None:
        failures[f"{name}/{kind}"] = why
keys = {}
for span in t.spans:
    keys.setdefault(span[0], set()).add(tuple(sorted(span[5])))
print(json.dumps({"ops": sorted("/".join(k) for k in first), "failures": failures,
                  "keys": {name: sorted(ks) for name, ks in keys.items()}}))
"""

# The counts the tracer reads from return values: a trace's T and
# diverged, a witness's scanned and found, a guarantee report's samples
# and nu, and a search's returned gains.
COUNTED = {
    "dynamics.simulate": [["diverged", "node_steps", "steps"]],
    "certify.claim6_witness": [["found", "scanned"]],
    "accel.guarantee": [["nu", "refine_candidates", "samples", "search_eval"]],
    "accel.search_gains": [["returned_seed"]],
}


def _child(script, *args):
    src = str(Path(memaccel.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", script, str(BENCH), *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})


def test_tracer_installs_on_the_package():
    proc = _child(INSTALL)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["spectral.laplacian"]


def test_traced_ops_give_every_count(tmp_path):
    # A record attribute the tracer reads and the package no longer has
    # fails here, not only in a traced benchmark run.
    proc = _child(TRACED_OPS, str(BENCH.parent), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["ops"] == ["consensus-graph/drop", "consensus-graph/fixture",
                          "consensus-graph/n560", "interval-certify/certify",
                          "structured-search/search-M3"]
    assert out["failures"] == {}
    assert {name: out["keys"].get(name) for name in COUNTED} == COUNTED
