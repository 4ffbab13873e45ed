"""Desk-scale lab for purification-assisted quantum state and channel learning.

``import puriscope`` loads no submodule, so the CLI starts without the
code its experiment does not use.  The first read of an exported name
imports every submodule in ``_EXPORTS`` and binds all their exports at
once, so from then on the namespace is a plain module's.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "core": (
        "DensityMatrix",
        "Observable",
        "PureState",
        "SchmidtDecomposition",
        "SpectralDecomposition",
        "eigh",
        "fidelity",
        "matrix_power_trace",
        "partial_trace",
        "schmidt_decompose",
        "trace_distance",
        "trace_norm",
    ),
    "ensembles": (
        "EnsembleFamily",
        "EnsembleSpec",
        "LabeledSample",
        "analytic_mean_purity",
        "child_rng",
        "classical_correlate",
        "haar_state",
        "haar_unitary",
        "purify",
        "sample_ensemble",
        "verification_state",
    ),
    "measurement": (
        "ShotBudget",
        "TomographyResult",
        "measure_in_basis",
        "measure_observable",
        "randomized_measurement_purity",
        "tomography",
    ),
    "estimators": (
        "PurificationIdentity",
        "estimate_moment",
        "estimate_pca",
        "estimate_qfi",
        "estimate_virtual_cooling",
        "oracle_identity_check",
        "qfi_oracle",
    ),
    "baselines": (
        "DistinguishResult",
        "distinguish_experiment",
        "single_copy_purity_attack",
        "swap_test_moment",
        "wilson_interval",
    ),
    "channels": (
        "QuantumChannel",
        "StinespringIsometry",
        "amplitude_damping_channel",
        "canonicalize",
        "channel_pca_estimate",
        "depolarizing_channel",
        "random_channel",
        "unitarity_estimate",
        "unitary_channel",
        "virtual_distillation_estimate",
    ),
    "crypto": (
        "BlindEstimationResult",
        "ServerKind",
        "ServerModel",
        "TranscriptEntry",
        "make_test_observables",
        "run_blind_estimation",
        "run_test_observable_audit",
        "run_verification",
    ),
    "reports": ("EstimatorReport",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    """Load every submodule on the first read of an export or a submodule name."""
    if name not in _EXPORTS and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module_name, names in _EXPORTS.items():
        module = importlib.import_module(f"{__name__}.{module_name}")
        namespace.update((export, getattr(module, export)) for export in names)
    return namespace[name]
