"""Distinguishability, Fisher information, error-correction checks, and
rotation-sensor state construction for spin-J systems.

The public names load on first use (PEP 562): ``import spinsense`` imports
no submodule, and ``spinsense.qfi`` imports ``spinsense.metrics`` then.
"""

import importlib

_EXPORTS = {
    "spin": (
        "RotationAxis",
        "SpinJ",
        "SpinOperator",
        "SpinOperatorSet",
        "SpinState",
        "apply",
        "axis_generator",
        "basis_state",
        "build_spin_operators",
        "expectation_and_variance",
        "generator_unitary",
        "overlap",
        "rotation_unitary",
    ),
    "wigner": (
        "ReducedElement",
        "TensorOperator",
        "ThreeJArgs",
        "reduced_matrix_element",
        "tensor_operator",
        "three_j",
        "we_expectation",
    ),
    "metrics": (
        "Distribution",
        "DistinguishabilityReport",
        "ProjectorBasis",
        "classical_fisher",
        "distinguishability",
        "measurement_distribution",
        "qfi",
        "qfi_finite_difference",
        "statistical_distance",
    ),
    "codes": (
        "CodeSpace",
        "ConditionReport",
        "ErrorSet",
        "RecoverySet",
        "ae_codewords",
        "detection_check",
        "dfs_check",
        "error_of_state",
        "error_small_theta",
        "error_with_recovery",
        "kl_check",
        "max_error_over_code",
    ),
    "sensing": (
        "AnticoherenceReport",
        "FeasibilityError",
        "FisherMatrix",
        "SpacingError",
        "SupportSpec",
        "anticoherence_report",
        "construct_anticoherent",
        "fisher_matrix",
        "min_shell_gap",
        "noon_state",
        "rotation_qfi",
    ),
    "estimation": (
        "EstimationConfig",
        "EstimationResult",
        "crb_report",
        "estimate_theta",
        "simulate_trials",
        "survival_probability",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
