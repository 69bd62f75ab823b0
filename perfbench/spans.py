"""Per-layer spans recorded from outside the program.

Each layer's public entry point is wrapped at the binding its caller
resolves (a package attribute, a module global or a class attribute),
so nothing under ``src/`` changes.  Spans stay in memory as flat
records and are folded into per-name totals once a traced pass ends.

A span's self time is its duration minus the time its child spans
cover.  Calls nest strictly (one thread, plain function wrappers), so
the children of a span are disjoint and their durations simply add up.
There are no spans per simulated load or per trace access: that grain
comes from the package's own counters (``repro.obs.metrics``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

_MISSING = object()


@dataclass(frozen=True)
class Binding:
    """One wrapped entry point: ``owner.attribute`` records span ``name``."""

    name: str
    owner: object
    attribute: str
    #: Units of work counted from the call's arguments (e.g. batch size).
    units: Callable | None = None
    #: Keep the call's results (read once the traced pass has ended).
    keep: bool = False


class SpanRecorder:
    """Installs span wrappers and keeps the spans of one traced phase."""

    def __init__(self, bindings: list[Binding]) -> None:
        self.bindings = bindings
        self._saved: list[tuple] = []
        #: Closed spans: ``[name, parent index, start, end]``.
        self.spans: list[list] = []
        #: Per-name units counted from call arguments.
        self.units: dict[str, int] = {}
        #: Per-name results of ``keep`` bindings.
        self.kept: dict[str, list] = {}
        self._stack: list[int] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        for binding in self.bindings:
            owner, attribute = binding.owner, binding.attribute
            original = owner.__dict__.get(attribute, _MISSING)
            if original is _MISSING:
                # An entry point the program no longer has: its span reads 0.
                print(f"perfbench: {owner!r} has no {attribute!r}; "
                      f"span {binding.name} not recorded", file=sys.stderr)
                continue
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(binding, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _wrap(self, binding: Binding, fn: Callable) -> Callable:
        name, units = binding.name, binding.units
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if units is not None:
                recorder.units[name] = recorder.units.get(name, 0) + units(args)
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if binding.keep:
                recorder.kept.setdefault(name, []).append(result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------
    def take(self) -> tuple[dict[str, dict[str, float]], dict[str, list]]:
        """Per-name ``{"calls", "self_s"[, "units"]}`` totals and kept
        results; clears what was recorded."""
        children = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for index, (name, _parent, start, end) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - children[index]
        for name, count in self.units.items():
            totals.setdefault(name, {"calls": 0, "self_s": 0.0})["units"] = count
        kept = self.kept
        self.spans.clear()
        self.units = {}
        self.kept = {}
        return totals, kept


def layer_bindings(workload_module) -> list[Binding]:
    """The span table: which entry point each per-layer span wraps."""
    from repro import kernels
    from repro.core.identify import CandidateIdentification
    from repro.core.inference import PermutationInference
    from repro.core.oracle import SimulatedSetOracle, VotingOracle
    from repro.eval import missratio, predictability
    from repro.hardware.harness import HardwareSetOracle
    from repro.hardware.platform import HardwarePlatform
    from repro.kernels import automaton, store
    from repro.measuredb.db import MeasurementDB
    from repro.measuredb.oracle import MeasurementDBOracle
    from repro.runner import cells
    from repro.runner.core import ExperimentRunner

    def queries(position: int) -> Callable:
        return lambda args: len(args[position])

    def trace_length(args) -> int:
        return len(args[0])

    B = Binding
    return [
        B("hardware.boot", workload_module, "boot_platform"),
        B("hardware.measure", HardwareSetOracle, "count_misses"),
        B("cache.flush", HardwarePlatform, "wbinvd"),
        B("core.infer", PermutationInference, "infer"),
        B("core.identify", CandidateIdentification, "identify"),
        B("core.sim_query", SimulatedSetOracle, "count_misses"),
        B("core.sim_query", SimulatedSetOracle, "query"),
        B("core.vote", VotingOracle, "count_misses"),
        B("core.vote", VotingOracle, "query"),
        B("measuredb.query", MeasurementDBOracle, "query"),
        B("measuredb.db", MeasurementDB, "get_many"),
        B("measuredb.db", MeasurementDB, "load_scope"),
        B("measuredb.db", MeasurementDB, "put_many"),
        B("kernels.compile", automaton, "compile_policy", keep=True),
        B("kernels.compile", automaton.CompiledPolicy, "expand_all"),
        B("kernels.store_load", store, "load"),
        B("kernels.trace", cells, "try_simulate_trace", units=trace_length),
        B("kernels.trace", missratio, "try_simulate_trace", units=trace_length),
        B("kernels.batch", kernels, "count_misses_batch", units=queries(1)),
        B("kernels.batch", kernels, "sequence_hits_batch", units=queries(1)),
        B("kernels.batch", kernels, "sequence_hits_preloaded_batch", units=queries(2)),
        B("kernels.set", kernels, "count_misses_kernel"),
        B("kernels.set", kernels, "count_misses_preloaded"),
        B("kernels.set", kernels, "sequence_hits"),
        B("kernels.set", kernels, "sequence_hits_preloaded"),
        B("kernels.set", kernels, "simulate_sequence"),
        B("eval.simulate_trace", cells, "simulate_cell"),
        B("eval.simulate_trace", missratio, "simulate_trace"),
        B("eval.reachable_states", predictability, "reachable_full_states"),
        B("eval.evict_metric", predictability, "evict_metric_spec"),
        B("eval.evict_metric", predictability, "evict_metric_policy"),
        B("eval.collapse_depth", predictability, "collapse_depth_spec"),
        B("eval.collapse_depth", predictability, "collapse_depth_policy"),
        B("eval.predictability", workload_module, "predictability_of_policy"),
        B("workloads.generate", workload_module, "workload_suite"),
        B("runner.map", ExperimentRunner, "map"),
        # Unreported: keeps the cell's own glue out of runner.map's self time.
        B("cell", workload_module, "run_cell"),
    ]
