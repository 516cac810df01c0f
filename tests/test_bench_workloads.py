import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    """bench/workloads.py as a module, read in place; bench/ is left as it is."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its class's module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

# The two consensus-graph sizes past L2 take most of that workload's time
# and run the same code as the eight smaller graphs.
SKIPPED_KINDS = {"n1500", "n2000"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_first_op_of_each_kind_passes_its_check(name, tmp_path):
    # Each name the harness calls (a library function, a record field, a
    # CLI flag) must still exist and give an answer the check accepts.
    ops = workloads.build(name, 1, str(ROOT), str(tmp_path / name))
    workloads.warmup(name)
    first = {}
    for op in ops:
        if op.kind not in SKIPPED_KINDS:
            first.setdefault(op.kind, op)
    failures = {kind: op.check(op.run())[0] for kind, op in first.items()}
    assert {kind: why for kind, why in failures.items() if why is not None} == {}
