"""repro: reverse engineering of cache replacement policies.

A from-scratch reproduction of Abel & Reineke, *Reverse engineering of
cache replacement policies in Intel microprocessors and their
evaluation* (ISPASS 2014), with the hardware side replaced by a faithful
simulated measurement platform (see DESIGN.md).

Quick start::

    from repro import HardwarePlatform, HardwareSetOracle, get_processor
    from repro import reverse_engineer

    platform = HardwarePlatform(get_processor("nehalem-like"))
    finding = reverse_engineer(HardwareSetOracle(platform, "L1"))
    print(finding.summary())   # -> "plru (permutation)"

Package map:

* :mod:`repro.policies` — replacement policy zoo and registry;
* :mod:`repro.cache` — set-associative caches and hierarchies;
* :mod:`repro.hardware` — simulated processors, counters, the harness;
* :mod:`repro.core` — the inference algorithms (the paper's contribution);
* :mod:`repro.workloads` — trace generators and app models;
* :mod:`repro.eval` — performance and predictability evaluation;
* :mod:`repro.runner` — deterministic parallel experiment runner;
* :mod:`repro.obs` — tracing, metrics and the ExperimentResult protocol.
"""

import importlib

#: Public name -> the module that defines it.  Loaded on first access
#: (PEP 562), so ``import repro`` stays cheap and running a submodule
#: as a script (``python -m repro.obs.ledger``) does not find it
#: already imported.
_EXPORTS = {
    "Cache": "repro.cache",
    "CacheConfig": "repro.cache",
    "CacheHierarchy": "repro.cache",
    "CandidateIdentification": "repro.core",
    "InferenceConfig": "repro.core",
    "PermutationInference": "repro.core",
    "SimulatedSetOracle": "repro.core",
    "VotingOracle": "repro.core",
    "derive_spec_from_policy": "repro.core",
    "equivalent": "repro.core",
    "name_spec": "repro.core",
    "reverse_engineer": "repro.core",
    "ConfigurationError": "repro.errors",
    "InferenceError": "repro.errors",
    "MeasurementError": "repro.errors",
    "ReproError": "repro.errors",
    "SimulationError": "repro.errors",
    "TraceFormatError": "repro.errors",
    "UnknownPolicyError": "repro.errors",
    "ResultSchemaError": "repro.errors",
    "PROCESSORS": "repro.hardware",
    "HardwarePlatform": "repro.hardware",
    "HardwareSetOracle": "repro.hardware",
    "NoiseModel": "repro.hardware",
    "get_processor": "repro.hardware",
    "ExperimentResult": "repro.obs",
    "Metrics": "repro.obs",
    "Tracer": "repro.obs",
    "tracing": "repro.obs",
    "validate_result": "repro.obs",
    "PermutationPolicy": "repro.policies",
    "PermutationSpec": "repro.policies",
    "PolicyFactory": "repro.policies",
    "available": "repro.policies",
    "available_policies": "repro.policies",
    "default_policies": "repro.policies",
    "get": "repro.policies",
    "make_policy": "repro.policies",
    "register": "repro.policies",
    "ExperimentRunner": "repro.runner",
    "SimCell": "repro.runner",
    "run_sim_cells": "repro.runner",
    "APP_MODELS": "repro.workloads",
    "Trace": "repro.workloads",
    "workload_suite": "repro.workloads",
}

__version__ = "1.0.0"

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "PermutationInference",
    "InferenceConfig",
    "CandidateIdentification",
    "SimulatedSetOracle",
    "VotingOracle",
    "derive_spec_from_policy",
    "equivalent",
    "name_spec",
    "reverse_engineer",
    "HardwarePlatform",
    "HardwareSetOracle",
    "NoiseModel",
    "PROCESSORS",
    "get_processor",
    "PermutationPolicy",
    "PermutationSpec",
    "PolicyFactory",
    "available",
    "available_policies",
    "default_policies",
    "get",
    "make_policy",
    "register",
    "ExperimentResult",
    "Metrics",
    "Tracer",
    "tracing",
    "validate_result",
    "Trace",
    "APP_MODELS",
    "workload_suite",
    "ExperimentRunner",
    "SimCell",
    "run_sim_cells",
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "MeasurementError",
    "InferenceError",
    "UnknownPolicyError",
    "TraceFormatError",
    "ResultSchemaError",
    "__version__",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
