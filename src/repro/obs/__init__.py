"""Observability: structured events, metrics and the result protocol.

The paper's method is measurement, and ``repro.obs`` makes the
reproduction's own measurement loops observable the same way nanoBench
and CacheQuery are: every hot layer emits structured events through a
zero-cost-when-disabled :class:`~repro.obs.trace.Tracer`, cheap counters
and timers aggregate into the module-wide :data:`~repro.obs.metrics.DEFAULT`
:class:`~repro.obs.metrics.Metrics` store, and every experiment surfaces
its outcome as a schema-versioned
:class:`~repro.obs.result.ExperimentResult`.

Five layers:

* :mod:`repro.obs.trace` — the event bus.  ``install(Tracer(...))`` (or
  the ``tracing(...)`` context manager) turns on event emission from
  :class:`~repro.cache.set.CacheSet` (hit/miss/evict/fill),
  :class:`~repro.core.oracle.MissCountOracle` (queries),
  :class:`~repro.core.inference.PermutationInference` (phases, verify),
  :class:`~repro.core.identify.CandidateIdentification` (candidates
  accepted/rejected) and :class:`~repro.runner.core.ExperimentRunner`
  (cells scheduled/retried/completed).  With no tracer installed the
  instrumentation is a single global ``is None`` check.
* :mod:`repro.obs.metrics` — counters, timers and histograms,
  snapshot-able to JSON, printable as a summary table, and mergeable
  across processes (the runner folds worker stores back into the
  parent's :data:`~repro.obs.metrics.DEFAULT`).
* :mod:`repro.obs.spans` — hierarchical timed spans (context manager and
  decorator) emitting ``span.start``/``span.end`` events and feeding the
  metrics timers; span context propagates into runner worker processes
  so a cell's spans nest under the run that scheduled it.
* :mod:`repro.obs.result` — the unified experiment result protocol
  (:class:`~repro.obs.result.ExperimentResult`) shared by inference
  results, miss-ratio matrices, the CLI and the E1-E12 benchmarks.
* :mod:`repro.obs.ledger` — schema-versioned ``*.ledger.json`` run
  manifests (git SHA, params, seeds, environment, wall time, artifact
  digests, counter snapshot) written next to every sidecar and compared
  by the ``repro-cache report`` subcommand.

Three more layers build the *across-run* plane on top of those five:

* :mod:`repro.obs.history` — the WAL-mode sqlite run-history store
  (``history-v<schema>.sqlite``) that every ledger and ``BENCH_*.json``
  trajectory point can be recorded into (auto-recorded by the CLI under
  ``--metrics``, backfilled by ``repro-cache history ingest``);
* :mod:`repro.obs.regress` — the perf-regression detector (median + MAD
  baselines per experiment group) behind ``repro-cache history check``;
* :mod:`repro.obs.dash` — the static HTML dashboard renderer behind
  ``repro-cache dash``.

The event schema, result protocol, ledger schema and run-history plane
are documented in OBSERVABILITY.md.
"""

import importlib

#: Public name -> the submodule that defines it.  Loaded on first
#: access (PEP 562), so ``python -m repro.obs.ledger`` and
#: ``python -m repro.obs.result`` do not find their module already
#: imported by the package.
_EXPORTS = {
    "LEDGER_SCHEMA_VERSION": "repro.obs.ledger",
    "RunLedger": "repro.obs.ledger",
    "build_ledger": "repro.obs.ledger",
    "diff_ledgers": "repro.obs.ledger",
    "format_ledger": "repro.obs.ledger",
    "ledger_path_for": "repro.obs.ledger",
    "read_ledger": "repro.obs.ledger",
    "validate_ledger": "repro.obs.ledger",
    "write_ledger": "repro.obs.ledger",
    "DEFAULT": "repro.obs.metrics",
    "Metrics": "repro.obs.metrics",
    "MetricSummary": "repro.obs.metrics",
    "SCHEMA_VERSION": "repro.obs.result",
    "ExperimentResult": "repro.obs.result",
    "validate_result": "repro.obs.result",
    "validate_result_file": "repro.obs.result",
    "adopt": "repro.obs.spans",
    "current_span": "repro.obs.spans",
    "span": "repro.obs.spans",
    "traced": "repro.obs.spans",
    "JsonlWriter": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
    "filter_events": "repro.obs.trace",
    "format_event": "repro.obs.trace",
    "install": "repro.obs.trace",
    "read_jsonl": "repro.obs.trace",
    "tracing": "repro.obs.trace",
    "uninstall": "repro.obs.trace",
    "write_jsonl": "repro.obs.trace",
}

__all__ = [
    "DEFAULT",
    "Metrics",
    "MetricSummary",
    "SCHEMA_VERSION",
    "LEDGER_SCHEMA_VERSION",
    "ExperimentResult",
    "RunLedger",
    "build_ledger",
    "diff_ledgers",
    "format_ledger",
    "ledger_path_for",
    "read_ledger",
    "validate_ledger",
    "validate_result",
    "validate_result_file",
    "write_ledger",
    "JsonlWriter",
    "Tracer",
    "adopt",
    "current_span",
    "span",
    "traced",
    "filter_events",
    "format_event",
    "install",
    "read_jsonl",
    "tracing",
    "uninstall",
    "write_jsonl",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
