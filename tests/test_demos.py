import os
import subprocess
import sys
from pathlib import Path

import memaccel

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_consensus_demo(tmp_path):
    src = str(Path(memaccel.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(DEMOS / "04_consensus_simulation.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    for name in ("trace_memoryless.csv", "trace_accelerated.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "t,residual,spread,rms,mean"
        assert len(lines) == 1 + 201
    assert "memoryless:  diverged = False" in proc.stdout
    assert "accelerated: diverged = True" in proc.stdout
