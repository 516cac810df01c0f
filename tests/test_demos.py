import os
import subprocess
import sys
from pathlib import Path

import pytest

import memaccel

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run(name, cwd):
    """Run a demo in cwd with every warning an error, as in-process tests run."""
    src = str(Path(memaccel.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-W", "error", str(DEMOS / name)],
                          cwd=cwd, capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})


# Demo 03 is left out: its one search, search_gains on its set at M = 4
# with rng_seed=0, is what test_accel's test_improves_on_structured_set
# runs, and takes 5 s. Demo 04 has its own test below.
@pytest.mark.parametrize("name, written", [
    ("01_optimal_tuning.py", ()),
    ("02_guarantee_curves.py", ("guarantee_curves.csv",)),
    ("05_optimality_certificates.py", ("partition_field.json",)),
], ids=["01", "02", "05"])
def test_demo_runs(tmp_path, name, written):
    proc = _run(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and not proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == list(written)


def test_consensus_demo(tmp_path):
    proc = _run("04_consensus_simulation.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("trace_memoryless.csv", "trace_accelerated.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "t,residual,spread,rms,mean"
        assert len(lines) == 1 + 201
    assert "memoryless:  diverged = False" in proc.stdout
    assert "accelerated: diverged = True" in proc.stdout
