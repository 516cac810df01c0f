"""The package's lazy surface and the CLI's import footprint.

``import memaccel`` binds its exports on first access, and each CLI
subcommand parses its arguments before it imports the modules it runs.
The footprint tests run each command in a fresh interpreter and read
``sys.modules`` afterwards.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memaccel

SRC = str(Path(memaccel.__file__).resolve().parents[1])

# Every name ``from memaccel import ...`` has offered since the package
# had a flat surface.
EXPORTS = {
    "memaccel.accel": {
        "Gains", "GuaranteeReport", "TuningResult", "char_poly", "guarantee",
        "max_root_moduli", "mode_roots", "modal_angle", "search_gains",
        "tune_memoryless", "tune_theorem3",
    },
    "memaccel.certify": {
        "ClaimCoeffs", "PartitionField", "Prop8Result", "WitnessReport",
        "claim6_witness", "gains_to_claim_coeffs", "large_radius_phase_check",
        "p_tilde", "partition_field", "prop8_check",
    },
    "memaccel.dynamics": {
        "DropSchedule", "IterationProblem", "SimTrace", "consensus_metrics",
        "empirical_rate", "find_divergent_drop_schedule",
        "memory_fragility_example", "simulate", "simulate_modal", "trace_to_csv",
    },
    "memaccel.polyroots": {"ComplexRootSet", "RealPolynomial", "roots"},
    "memaccel.spectral": {
        "LaplacianMatrix", "SpectralInterval", "SpectralSet", "WeightedGraph",
        "laplacian", "load_edge_list", "nonzero_spectral_interval",
        "symmetric_eigenvalues",
    },
}
SUBMODULES = ("accel", "certify", "dynamics", "errors", "polyroots", "spectral", "tuning")
# A numpy-free path loads neither dataclasses nor inspect (which
# dataclasses imports); numpy imports inspect itself. numpy.random loads
# only on first use: search draws its restart jitter from it, and
# simulate its default --x0.
WATCHED = ("dataclasses", "inspect", "numpy", "numpy.random", "memaccel.accel",
           "memaccel.certify", "memaccel.dynamics", "memaccel.polyroots", "memaccel.spectral",
           "memaccel.tuning")
# The numpy-free scalar layer, and the modules that re-export its names.
TUNING = {
    "Gains": ("memaccel.accel",), "TuningResult": ("memaccel.accel",),
    "tune_memoryless": ("memaccel.accel",), "tune_theorem3": ("memaccel.accel",),
    "SpectralInterval": ("memaccel.spectral", "memaccel.accel"),
    "SpectralSet": ("memaccel.spectral", "memaccel.accel"),
}


class TestLazySurface:
    def test_all_lists_every_export(self):
        assert set(memaccel.__all__) == set().union(*EXPORTS.values())

    @pytest.mark.parametrize("module, name", sorted(
        (module, name) for module, names in EXPORTS.items() for name in names))
    def test_export_is_the_submodule_object(self, module, name):
        __import__(module)
        assert getattr(memaccel, name) is getattr(sys.modules[module], name)

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodule_attribute(self, name):
        __import__(f"memaccel.{name}")
        assert getattr(memaccel, name) is sys.modules[f"memaccel.{name}"]

    def test_star_import(self):
        namespace = {}
        exec("from memaccel import *", namespace)
        for name in memaccel.__all__:
            assert namespace[name] is getattr(memaccel, name)

    def test_dir(self):
        listed = dir(memaccel)
        assert set(memaccel.__all__) <= set(listed)
        assert set(SUBMODULES) <= set(listed)
        assert "__version__" in listed

    @pytest.mark.parametrize("name", sorted(TUNING))
    def test_scalar_layer_has_one_home(self, name):
        import memaccel.tuning

        obj = getattr(memaccel.tuning, name)
        assert getattr(obj, "__module__", None) == "memaccel.tuning"
        assert getattr(memaccel, name) is obj
        for module in TUNING[name]:
            assert getattr(importlib.import_module(module), name) is obj

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            memaccel.no_such_name
        assert not hasattr(memaccel, "__wrapped__")


def _fresh(code: str, cwd) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_cli(argv, cwd):
    """(exit code, watched modules loaded) of one ``memaccel`` command run
    as ``python -m memaccel.cli`` in a fresh interpreter."""
    code = f"""
import json, runpy, sys
sys.argv = ["memaccel", *{argv!r}]
try:
    runpy.run_module("memaccel.cli", run_name="__main__")
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, [m for m in {WATCHED!r} if m in sys.modules]]))
"""
    return tuple(json.loads(_fresh(code, cwd).splitlines()[-1]))


def test_import_memaccel_loads_no_numpy(tmp_path):
    code = "import sys, memaccel; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'memaccel'))))"
    assert _fresh(code, tmp_path).strip() == "['memaccel']"


@pytest.mark.parametrize("statement", [
    "import memaccel.tuning",
    "from memaccel import Gains, SpectralSet, tune_memoryless, tune_theorem3",
])
def test_scalar_layer_loads_no_numpy(tmp_path, statement):
    watched = ('numpy', 'memaccel', 'dataclasses', 'inspect')
    code = f"import sys; {statement}; print(sorted(m for m in sys.modules if m.startswith({watched!r})))"
    assert _fresh(code, tmp_path).strip() == "['memaccel', 'memaccel.errors', 'memaccel.tuning']"


def test_plain_gains_load_no_numbers(tmp_path):
    # Gains checks a gain that is not a plain float or int against
    # numbers.Real; the plain ones of the numpy-free paths skip that import.
    code = "import sys; from memaccel import Gains; Gains(2, 1.5, (-1,)); print('numbers' in sys.modules)"
    assert _fresh(code, tmp_path).strip() == "False"


def test_submodules_load_no_dataclasses(tmp_path):
    modules = ", ".join(f"memaccel.{name}" for name in SUBMODULES)
    code = f"import sys, {modules}; print('dataclasses' in sys.modules)"
    assert _fresh(code, tmp_path).strip() == "False"


@pytest.fixture
def files(tmp_path):
    (tmp_path / "gains.json").write_text('{"M": 2, "alpha": 3.0, "betas": [-0.5]}')
    (tmp_path / "alpha0.json").write_text('{"M": 2, "alpha": 0.0, "betas": [-0.5]}')
    (tmp_path / "graph.txt").write_text("0 1 1\n1 2 1\n")
    return tmp_path


@pytest.mark.parametrize("argv", [
    ["tune", "--interval", "0.1;2"],
    ["guarantee", "--gains", "gains.json", "--set", "0.1:oops"],
    ["guarantee", "--gains", "gains.json", "--set", "2:1"],
    ["search", "--set", "0.1:1,x", "--M", "2"],
    ["guarantee", "--gains", "gains.json"],
    ["simulate", "--graph", "graph.txt", "--gains", "gains.json", "--steps", "5",
     "--x0", "1,2,x"],
    ["certify", "--gains", "gains.json", "--interval", "0.1,2", "--field", "0.5",
     "--window=-2:2:oops"],
    ["guarantee", "--gains", "gains.json", "--set", "0.1:2,-1"],
    ["guarantee", "--gains", "gains.json", "--set", "1:2,0"],
    ["guarantee", "--gains", "gains.json", "--set", "1:2,inf"],
    ["certify", "--gains", "gains.json", "--interval", "0.1,2", "--field", "nan"],
    ["certify", "--gains", "gains.json", "--interval", "0.1,2", "--field", "0.5",
     "--window=-2:inf:-2:2:32"],
    ["certify", "--gains", "gains.json", "--interval", "0.1,2", "--field", "0.5",
     "--window=-2:2:-2:2:4_8"],
    ["simulate", "--graph", "graph.txt", "--gains", "gains.json", "--steps", "1_2"],
    ["tune", "--interval", "0.1,2_0"],
    ["tune", "--interval", "0.1,\u0662"],
    ["guarantee", "--gains", "gains.json", "--set", "0.1:2", "--refine-tol", "1_0e-3"],
    ["certify", "--gains", "gains.json", "--interval", "0.1,2", "--field", "\u0660.5"],
    ["simulate", "--graph", "graph.txt", "--gains", "gains.json", "--steps", "5",
     "--x0", "1,0_0,-1"],
], ids=["interval", "set-item", "set-order", "search-set", "missing-flag", "x0", "window",
        "set-point-negative", "set-point-zero", "set-point-inf", "field-nan", "window-inf",
        "window-resolution", "steps", "interval-underscore", "interval-arabic",
        "refine-tol-underscore", "field-arabic", "x0-underscore"])
def test_exit2_paths_load_no_numpy(files, argv):
    assert _run_cli(argv, files) == (2, [])


@pytest.mark.parametrize("argv", [
    ["tune", "--interval", "2,0.1"],
    ["tune", "--interval", "0.1,inf"],
    ["tune", "--interval", "0.1,2", "--M", "0"],
    ["tune", "--interval", "1e308,1.7e308", "--M", "1"],
    ["guarantee", "--gains", "alpha0.json", "--set", "0.1:2"],
    ["guarantee", "--gains", "gains.json", "--set", "0.1:2", "--refine-tol", "-1"],
    ["guarantee", "--gains", "gains.json", "--set", ","],
    ["search", "--set", ",", "--M", "2"],
    ["search", "--set", "0.1:2", "--M", "2", "--seed-gains", "alpha0.json"],
], ids=["inverted", "inf", "M0", "overflow", "alpha0", "refine-tol", "empty-set",
        "search-empty-set", "search-seed-gains"])
def test_exit3_argument_errors_load_no_numpy(files, argv):
    assert _run_cli(argv, files) == (3, ["memaccel.tuning"])


@pytest.mark.parametrize("argv, loaded", [
    (["tune", "--interval", "0.1,2"], ["tuning"]),
    (["tune", "--interval", "0.1,2", "--M", "1"], ["tuning"]),
    (["tune", "--interval", "0.1,2", "--M", "4"], ["tuning"]),
    (["guarantee", "--gains", "gains.json", "--set", "0.1:2"],
     ["inspect", "numpy", "accel", "polyroots", "tuning"]),
    (["search", "--set", "0.1:2", "--M", "2", "--budget", "10"],
     ["inspect", "numpy", "random", "accel", "polyroots", "tuning"]),
    (["spectrum", "--graph", "graph.txt"], ["inspect", "numpy", "spectral", "tuning"]),
    (["simulate", "--graph", "graph.txt", "--gains", "gains.json", "--steps", "3"],
     ["inspect", "numpy", "random", "dynamics", "spectral", "tuning"]),
    (["simulate", "--graph", "graph.txt", "--gains", "gains.json", "--steps", "3",
      "--x0", "1,0,-1"], ["inspect", "numpy", "dynamics", "spectral", "tuning"]),
    (["certify", "--gains", "gains.json", "--interval", "0.1,2"],
     ["inspect", "numpy", "certify", "polyroots", "tuning"]),
], ids=["tune", "tune-M1", "tune-M4", "guarantee", "search", "spectrum", "simulate",
        "simulate-x0", "certify"])
def test_subcommand_imports_only_what_it_runs(files, argv, loaded):
    expected = [m for m in WATCHED if m.split(".")[-1] in loaded]
    assert _run_cli(argv, files) == (0, expected)
