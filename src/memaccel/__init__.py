"""memaccel: tuning, certification and simulation of memory-accelerated
symmetric linear iterations.

The names below load on first access (PEP 562), so ``import memaccel``
and the CLI's argument parsing import neither numpy nor any submodule.
The closed-form layer (``tuning``) needs no numpy either, so
``from memaccel import tune_theorem3`` loads none.
"""

import importlib

_EXPORTS = {
    "accel": (
        "GuaranteeReport",
        "char_poly",
        "guarantee",
        "max_root_moduli",
        "mode_roots",
        "modal_angle",
        "search_gains",
    ),
    "certify": (
        "ClaimCoeffs",
        "PartitionField",
        "Prop8Result",
        "WitnessReport",
        "claim6_witness",
        "gains_to_claim_coeffs",
        "large_radius_phase_check",
        "p_tilde",
        "partition_field",
        "prop8_check",
    ),
    "dynamics": (
        "DropSchedule",
        "IterationProblem",
        "SimTrace",
        "consensus_metrics",
        "empirical_rate",
        "find_divergent_drop_schedule",
        "memory_fragility_example",
        "simulate",
        "simulate_modal",
        "trace_to_csv",
    ),
    "polyroots": ("ComplexRootSet", "RealPolynomial", "roots"),
    "spectral": (
        "LaplacianMatrix",
        "WeightedGraph",
        "laplacian",
        "load_edge_list",
        "nonzero_spectral_interval",
        "symmetric_eigenvalues",
    ),
    "tuning": ("Gains", "SpectralInterval", "SpectralSet", "TuningResult",
               "tune_memoryless", "tune_theorem3"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"errors"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        # Importing a submodule also binds it on the package.
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
