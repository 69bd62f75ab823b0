"""Compiled policy-automaton simulation kernel.

The interpreter (:mod:`repro.cache`) simulates one access as a chain of
method calls and dataclass constructions.  This package compiles a
deterministic replacement policy into flat integer transition tables
(:mod:`repro.kernels.automaton`) and runs whole access sequences and
address traces as table lookups (:mod:`repro.kernels.engine`), producing
**bit-identical** miss counts, eviction orders and
:class:`~repro.cache.stats.CacheStats`.

Single-set simulation has exactly two entry points,
:func:`count_misses_batch` and :func:`sequence_hits_batch`: "simulate
these ``(setup, probe)`` queries on this policy", answered with probe
miss counts or per-access hit/miss outcomes.  A single query is a
one-element batch.  ``preload`` replaces the empty start set with a
start image: ``preload[w]`` sits in way ``w`` and the policy is in its
reset state, as :meth:`~repro.cache.set.CacheSet.preload` defines it.
The two functions own the whole routing decision:

* the compiled kernel runs when it is enabled (the default; see
  :func:`set_kernel_enabled` and the CLI's ``--no-kernel``) **and** no
  active :mod:`repro.obs.trace` tracer wants per-access ``cache.*``
  events (:func:`kernel_allowed`) — full event tracing keeps the
  instrumented interpreter so per-access event streams are unchanged,
  but metrics collection and cold-event tracers
  (``oracle.*``/``runner.*``/... include filters) compose with the
  kernel, whose engines flush aggregate ``kernel.*`` counters per call;
* a compiled batch goes to the prefix-trie planner
  (:mod:`repro.kernels.trie`) first — only without a start image, and
  only past its ``MIN_QUERIES`` (silent) and sharing-ratio (counted as
  ``kernel.trie.fallbacks``) gates — then to the vector engine
  (:mod:`repro.kernels.vector`; numpy importable and at least
  ``MIN_LANES`` queries), then to the scalar batch engine;
  :func:`count_misses_batch` first measures identical queries once,
  since a compiled set answers them identically;
* randomized/adaptive policies have no automaton and run on the
  interpreter; a policy whose reachable state space exceeds the
  compile budget mid-run raises
  :class:`~repro.errors.KernelUnsupported` inside the engine, is marked
  unsupported, and the batch reruns on the interpreter;
* the interpreter runs each query in request order on a clone of the
  policy, reset, in a fresh :class:`~repro.cache.set.CacheSet`, so
  randomized policies keep their RNG draw order and a full tracer sees
  the per-access ``cache.*`` stream.

Whole-cache trace simulation routes the same way through
:func:`try_simulate_trace` (callers: :mod:`repro.eval.missratio`,
:mod:`repro.runner.cells`), which additionally has a "direct mode" that
drives non-compilable policies through an inlined loop, still
bit-identical.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import contextmanager

from repro.cache.set import CacheSet
from repro.errors import KernelUnsupported
from repro.obs import trace as _obs_trace
from repro.kernels.automaton import (
    DEFAULT_BUDGET,
    CompiledPolicy,
    clear_compile_cache,
    compile_policy,
    compiled_for,
    compiled_for_factory,
    compiled_for_spec,
    mark_factory_unsupported,
    mark_spec_unsupported,
    mark_unsupported,
)
from repro.kernels.engine import (
    Queries,
    simulate_trace_direct,
    simulate_trace_kernel,
    try_simulate_trace,
)
from repro.kernels import engine, store, trie, vector
from repro.kernels.vector import numpy_available, vector_allowed
from repro.policies import ReplacementPolicy

__all__ = [
    "DEFAULT_BUDGET",
    "CompiledPolicy",
    "KernelUnsupported",
    "compile_policy",
    "compiled_for",
    "compiled_for_factory",
    "compiled_for_spec",
    "mark_unsupported",
    "mark_factory_unsupported",
    "mark_spec_unsupported",
    "clear_compile_cache",
    "count_misses_batch",
    "sequence_hits_batch",
    "store",
    "vector",
    "simulate_trace_direct",
    "simulate_trace_kernel",
    "try_simulate_trace",
    "kernel_allowed",
    "kernel_enabled",
    "set_kernel_enabled",
    "kernel_disabled",
    "numpy_available",
    "vector_allowed",
    "trie",
]

def count_misses_batch(
    policy: ReplacementPolicy,
    queries: Queries,
    *,
    preload: Sequence[int] | None = None,
) -> list[int]:
    """Probe miss counts of ``(setup, probe)`` queries on ``policy``, in order.

    Each query runs ``setup`` (uncounted) then ``probe`` from the start
    set — empty, or the ``preload`` image — on an independent copy of
    the policy.  See the module docstring for the routing rules.
    """
    if not queries:
        return []
    compiled = _compiled_for_batch(policy, preload)
    if compiled is not None:
        keys = [(tuple(setup), tuple(probe)) for setup, probe in queries]
        position: dict[tuple, int] = {}
        unique: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for key in keys:
            if key not in position:
                position[key] = len(unique)
                unique.append(key)
        try:
            measured = engine.batch_miss_counts(compiled, unique, preload)
        except KernelUnsupported:
            mark_unsupported(policy)
        else:
            return [measured[position[key]] for key in keys]
    return [len(hits) - sum(hits) for hits in _interpret(policy, queries, preload)]


def sequence_hits_batch(
    policy: ReplacementPolicy,
    queries: Queries,
    *,
    preload: Sequence[int] | None = None,
) -> list[tuple[bool, ...]]:
    """Per-access probe hit/miss outcomes of ``queries`` on ``policy``.

    The outcome twin of :func:`count_misses_batch` (same start set, same
    routing), without its duplicate-query folding.
    """
    if not queries:
        return []
    compiled = _compiled_for_batch(policy, preload)
    if compiled is not None:
        try:
            return engine.batch_outcomes(compiled, queries, preload)
        except KernelUnsupported:
            mark_unsupported(policy)
    return _interpret(policy, queries, preload)


def _compiled_for_batch(
    policy: ReplacementPolicy, preload: Sequence[int] | None
) -> CompiledPolicy | None:
    """The automaton a batch may run on, or None for the interpreter."""
    if not kernel_allowed():
        return None
    if preload is not None and len(preload) != policy.ways:
        return None  # the interpreter's CacheSet.preload raises the error
    return compiled_for(policy)


def _interpret(
    policy: ReplacementPolicy, queries: Queries, preload: Sequence[int] | None
) -> list[tuple[bool, ...]]:
    """The reference path: one interpreted set per query, in request order."""
    outcomes = []
    for setup, probe in queries:
        clone = policy.clone()
        clone.reset()
        cache_set = CacheSet(clone.ways, clone)
        if preload is not None:
            cache_set.preload(list(preload))
        for block in setup:
            cache_set.access(block)
        outcomes.append(tuple(cache_set.access(block).hit for block in probe))
    return outcomes


#: Process-wide switch.  Worker processes forked by the runner inherit
#: the parent's setting, so ``--no-kernel`` disables the fast path in
#: parallel grids too.
_ENABLED = True


def kernel_enabled() -> bool:
    """True when the compiled fast path may be used."""
    return _ENABLED


def kernel_allowed() -> bool:
    """True when the compiled fast path may run *right now*.

    The kernel must be enabled, and any active tracer must not want
    per-access ``cache.*`` events (the one stream only the interpreter
    can produce).  Metrics-only observers and cold-event tracers keep
    the fast path; the engines report their work through the aggregate
    ``kernel.*`` counters and ``kernel.run`` events instead.
    """
    if not _ENABLED:
        return False
    tracer = _obs_trace.ACTIVE
    return tracer is None or not tracer.wants_cache


def set_kernel_enabled(enabled: bool) -> None:
    """Globally enable or disable the compiled fast path."""
    global _ENABLED
    _ENABLED = bool(enabled)


@contextmanager
def kernel_disabled():
    """Temporarily force the interpreted path (tests, A/B benchmarks)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous
