"""Fast simulation loops over compiled policy automata.

Two granularities, matching the two shapes of simulation in the library:

* **single set, block ids** — the oracle/inference substrate.
  :func:`batch_miss_counts` and :func:`batch_outcomes` replay batches
  of block-id ``(setup, probe)`` queries against one compiled set,
  reproducing exactly what :class:`~repro.cache.set.CacheSet` driven
  through ``access()`` would do (cold fills go to ascending ways,
  full-set misses evict the policy's victim).  The public, routed
  entry points are :func:`repro.kernels.count_misses_batch` and
  :func:`repro.kernels.sequence_hits_batch`.

* **whole cache, address traces** — the evaluation substrate.
  :func:`simulate_trace_kernel` runs a trace against ``num_sets``
  independent automaton instances sharing one transition table;
  :func:`simulate_trace_direct` covers non-compilable (randomized /
  set-dueling) policies with the real policy objects driven by an
  inlined loop that skips the interpreter's per-access dataclass and
  tracer overhead.  :func:`try_simulate_trace` picks the right one and
  returns ``None`` when the kernel must stay off (disabled globally, or
  an active tracer wants per-access ``cache.*`` events).  Every engine
  call flushes its aggregate hit/miss/evict work into the metrics store
  (``kernel.*`` counters), and the whole-trace engines additionally
  report per-state visit counts and a ``kernel.run`` event when a
  (cold-event) tracer is watching.

Bit-identity argument, in one place: per set the interpreter's state is
(tag→way map, policy state).  The kernel mirrors the tag→way map
directly and replaces the policy object with an automaton state id whose
transitions were *computed by the policy's own methods* in the same
order the interpreter calls them (hit → ``touch(way)``; cold miss →
``fill(first invalid way)``; full miss → ``evict()`` then
``fill(victim)``).  The fill-ascending invariant holds because these
loops only ever access (never invalidate), so the number of valid lines
*is* the first invalid way.  Statistics are counted by the same rules as
:meth:`repro.cache.cache.Cache.access`; traces carry only reads, so
dirty bits and writebacks cannot occur on the fast path.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.errors import KernelUnsupported
from repro.kernels import automaton, trie, vector
from repro.kernels.automaton import CompiledPolicy, compiled_for_factory
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.policies import PolicyFactory
from repro.util.rng import SeededRng
from repro.workloads.trace import Trace

__all__ = [
    "batch_miss_counts",
    "batch_outcomes",
    "simulate_trace_direct",
    "simulate_trace_kernel",
    "try_simulate_trace",
]


# -- counters ----------------------------------------------------------------

def _note_kernel_call(
    mode: str, accesses: int, hits: int, misses: int, evictions: int = 0
) -> None:
    """Flush one engine call's aggregate work into the metrics store.

    The compiled engines have no per-access instrumentation sites, so
    this per-call flush is what keeps a metrics-only observer informed
    without giving up the fast path.  ``mode`` is ``"batch"`` (single-set
    block queries, one or many per call), ``"trace"`` (compiled
    whole-cache) or ``"direct"`` (real-policy whole-cache).

    Invariant (every mode, every call site): ``accesses = hits +
    misses``, counting *all* executed accesses — setup replays included.
    Setup accesses a batch *skips* through snapshot reuse are reported
    separately as ``kernel.setup_reused``, so the per-query and batch
    paths reconcile exactly: ``accesses(batch) + setup_reused ==
    accesses(per-query)``.
    """
    metrics = obs_metrics.DEFAULT
    metrics.incr("kernel.calls")
    metrics.incr(f"kernel.calls.{mode}")
    metrics.incr("kernel.accesses", accesses)
    metrics.incr("kernel.hits", hits)
    metrics.incr("kernel.misses", misses)
    if evictions:
        metrics.incr("kernel.evictions", evictions)


# -- single-set runs ---------------------------------------------------------

def _run_blocks(
    compiled: CompiledPolicy,
    blocks: Sequence[int],
    way_of: dict[int, int],
    tag_of: list[int],
    state: int,
    hits: list[bool] | None = None,
) -> tuple[int, int]:
    """Advance one set over ``blocks``; return ``(final state, hit count)``.

    ``way_of``/``tag_of`` are mutated in place; ``hits`` (when given)
    collects the per-access hit/miss outcome.  The hit count is returned
    even without a ``hits`` list so setup replays can be accounted under
    the accesses = hits + misses counter invariant.
    """
    ways = compiled.ways
    hit_next = compiled.hit_next
    fill_next = compiled.fill_next
    miss_victim = compiled.miss_victim
    miss_next = compiled.miss_next
    record = hits.append if hits is not None else None
    hit_count = 0
    for block in blocks:
        way = way_of.get(block)
        if way is not None:
            nxt = hit_next[state * ways + way]
            state = nxt if nxt >= 0 else compiled.expand_hit(state, way)
            hit_count += 1
            if record is not None:
                record(True)
            continue
        filled = len(way_of)
        if filled < ways:
            way_of[block] = filled
            tag_of[filled] = block
            nxt = fill_next[state * ways + filled]
            state = nxt if nxt >= 0 else compiled.expand_fill(state, filled)
        else:
            victim = miss_victim[state]
            if victim >= 0:
                nxt = miss_next[state]
            else:
                victim, nxt = compiled.expand_miss(state)
            del way_of[tag_of[victim]]
            tag_of[victim] = block
            way_of[block] = victim
            state = nxt
        if record is not None:
            record(False)
    return state, hit_count


# -- batched single-set runs -------------------------------------------------

Queries = Sequence[tuple[Sequence[int], Sequence[int]]]


def _run_batch(
    compiled: CompiledPolicy,
    queries: Queries,
    preload: Sequence[int] | None = None,
) -> tuple[list[list[bool]], int, int, int]:
    """Run many ``(setup, probe)`` queries through one automaton.

    Returns ``(outcomes, executed, executed_hits, reused)``: the
    per-query hit lists, the number of accesses actually executed, how
    many of those hit, and the number of setup accesses *skipped* via
    snapshot reuse.  Each query is an independent run from the start
    image — an empty set, or ``preload[w]`` resident in way ``w`` with
    the automaton in its reset state (the kernel analogue of
    :meth:`repro.cache.set.CacheSet.preload` on a fresh set) — but
    consecutive queries sharing a setup — the dominant shape in
    inference and distinguishing searches — replay the post-setup
    snapshot instead of re-running the setup, which is where the batch
    win on top of amortized call overhead comes from.
    """
    if preload is None:
        start_way_of: dict[int, int] = {}
        start_tag_of = [0] * compiled.ways
    else:
        start_way_of = {tag: way for way, tag in enumerate(preload)}
        start_tag_of = list(preload)
    outcomes: list[list[bool]] = []
    executed = 0
    executed_hits = 0
    reused = 0
    prev_setup: tuple[int, ...] | None = None
    base_way_of = start_way_of
    base_tag_of = start_tag_of
    base_state = 0
    for setup, probe in queries:
        setup_key = tuple(setup)
        if setup_key != prev_setup:
            base_way_of = dict(start_way_of)
            base_tag_of = list(start_tag_of)
            base_state, setup_hits = _run_blocks(
                compiled, setup, base_way_of, base_tag_of, 0
            )
            prev_setup = setup_key
            executed += len(setup_key)
            executed_hits += setup_hits
        else:
            reused += len(setup_key)
        way_of = dict(base_way_of)
        tag_of = list(base_tag_of)
        hits: list[bool] = []
        _run_blocks(compiled, probe, way_of, tag_of, base_state, hits)
        executed += len(hits)
        executed_hits += sum(hits)
        outcomes.append(hits)
    return outcomes, executed, executed_hits, reused


def _flush_batch(executed: int, executed_hits: int, reused: int = 0) -> None:
    _note_kernel_call("batch", executed, executed_hits, executed - executed_hits)
    if reused:
        obs_metrics.DEFAULT.incr("kernel.setup_reused", reused)


def batch_miss_counts(
    compiled: CompiledPolicy,
    queries: Queries,
    preload: Sequence[int] | None = None,
) -> list[int]:
    """Probe miss counts of many ``(setup, probe)`` queries, in order.

    Engine choice for one compiled batch: the trie planner
    (:mod:`repro.kernels.trie`) first — it executes each shared
    ``setup ‖ probe`` prefix exactly once, and takes only batches
    without a start image — then the vector engine, whose per-lane
    outcomes are summed in numpy and never materialize as Python lists,
    then the scalar :func:`_run_batch`.  Every engine gives identical
    counts; one metrics flush covers the batch.  The vector engine's
    accounting is definitionally identical to the scalar batch's (same
    chunking-by-consecutive-setup rule), so only ``kernel.vector.*``
    reveals which of the two ran; the planner executes strictly fewer
    accesses and reports the skipped ones as
    ``kernel.trie.reused_accesses`` (see OBSERVABILITY.md for the
    relaxed parity contract).
    """
    if preload is None:
        planned = trie.plan_miss_counts(compiled, queries)
        if planned is not None:
            counts, executed, executed_hits = planned
            _flush_batch(executed, executed_hits)
            return counts
    result = vector.batch_miss_counts(compiled, queries, preload)
    if result is None:
        outcomes, executed, executed_hits, reused = _run_batch(
            compiled, queries, preload
        )
        counts = [len(hits) - sum(hits) for hits in outcomes]
    else:
        counts, executed, executed_hits, reused = result
    _flush_batch(executed, executed_hits, reused)
    return counts


def batch_outcomes(
    compiled: CompiledPolicy,
    queries: Queries,
    preload: Sequence[int] | None = None,
) -> list[tuple[bool, ...]]:
    """Per-access probe outcomes of many queries, in order.

    The outcome twin of :func:`batch_miss_counts`: same engine order,
    same accounting, one metrics flush per batch.
    """
    if preload is None:
        planned = trie.plan_outcomes(compiled, queries)
        if planned is not None:
            outcomes, executed, executed_hits = planned
            _flush_batch(executed, executed_hits)
            return [tuple(hits) for hits in outcomes]
    result = vector.batch_outcomes(compiled, queries, preload)
    if result is None:
        result = _run_batch(compiled, queries, preload)
    outcomes, executed, executed_hits, reused = result
    _flush_batch(executed, executed_hits, reused)
    return [tuple(hits) for hits in outcomes]


# -- whole-cache trace runs --------------------------------------------------

def _decompose_params(config: CacheConfig) -> tuple[int, int, bool, int]:
    return (
        config.offset_bits,
        config.index_bits,
        config.index_hash != "bits",
        config.num_sets - 1,
    )


def simulate_trace_kernel(
    trace: Trace,
    config: CacheConfig,
    policy: "str | PolicyFactory",
    seed: int = 0,
) -> CacheStats:
    """Compiled whole-cache run of a read trace; bit-identical statistics.

    ``seed`` is accepted for signature parity but unused: a compilable
    policy is deterministic and never draws from the cache rng.  Raises
    :class:`~repro.errors.KernelUnsupported` for non-compilable policies
    (use :func:`simulate_trace_direct`) or on a mid-run budget blow.
    """
    factory = policy if isinstance(policy, PolicyFactory) else PolicyFactory(policy)
    params = tuple(sorted(factory.params.items()))
    compiled = compiled_for_factory(factory.name, params, config.ways)
    if compiled is None:
        raise KernelUnsupported(
            f"policy {factory.name!r} has no compiled automaton at "
            f"{config.ways} ways"
        )
    try:
        return _simulate_trace_compiled(trace, config, compiled, factory.name)
    except KernelUnsupported:
        automaton.mark_factory_unsupported(factory.name, params, config.ways)
        raise


def _simulate_trace_compiled(
    trace: Trace, config: CacheConfig, compiled: CompiledPolicy, policy: str = "?"
) -> CacheStats:
    if obs_trace.ACTIVE is None:
        # No tracer wants kernel.run / per-state detail: the lock-step
        # vector engine may take the whole trace.  Counters stay
        # mode-invariant — the same "trace" flush either way.
        stats = vector.simulate_trace_lockstep(trace, config, compiled)
        if stats is not None:
            _note_kernel_call(
                "trace", stats.accesses, stats.hits, stats.misses, stats.evictions
            )
            return stats
    return _simulate_trace_scalar(trace, config, compiled, policy)


def _simulate_trace_scalar(
    trace: Trace, config: CacheConfig, compiled: CompiledPolicy, policy: str = "?"
) -> CacheStats:
    """The scalar whole-trace engine: one Python step per access."""
    offset_bits, index_bits, hashed, set_mask = _decompose_params(config)
    num_sets = config.num_sets
    ways = config.ways
    tag_shift = offset_bits + index_bits
    states = [0] * num_sets
    way_ofs: list[dict[int, int]] = [{} for _ in range(num_sets)]
    tag_ofs: list[list[int]] = [[0] * ways for _ in range(num_sets)]
    hit_next = compiled.hit_next
    fill_next = compiled.fill_next
    miss_victim = compiled.miss_victim
    miss_next = compiled.miss_next
    expand_hit = compiled.expand_hit
    expand_fill = compiled.expand_fill
    expand_miss = compiled.expand_miss
    hits = misses = evictions = 0
    # Per-state visit counts (flat array indexed by state id), collected
    # only when a (cold-event) tracer is watching: the extra list write
    # per access is measurable, and without a tracer the aggregates above
    # are all a metrics snapshot reports anyway.
    tracer = obs_trace.ACTIVE
    visits: list[int] | None = [] if tracer is not None else None
    addresses = trace.addresses
    for address in addresses:
        if hashed:
            tag = address >> offset_bits
            set_index = 0
            if index_bits:
                remaining = tag
                while remaining:
                    set_index ^= remaining & set_mask
                    remaining >>= index_bits
        else:
            set_index = (address >> offset_bits) & set_mask
            tag = address >> tag_shift
        way_of = way_ofs[set_index]
        state = states[set_index]
        if visits is not None:
            if state >= len(visits):
                visits.extend([0] * (state + 1 - len(visits)))
            visits[state] += 1
        way = way_of.get(tag)
        if way is not None:
            hits += 1
            nxt = hit_next[state * ways + way]
            states[set_index] = nxt if nxt >= 0 else expand_hit(state, way)
            continue
        misses += 1
        tag_of = tag_ofs[set_index]
        filled = len(way_of)
        if filled < ways:
            way_of[tag] = filled
            tag_of[filled] = tag
            nxt = fill_next[state * ways + filled]
            states[set_index] = nxt if nxt >= 0 else expand_fill(state, filled)
        else:
            evictions += 1
            victim = miss_victim[state]
            if victim >= 0:
                nxt = miss_next[state]
            else:
                victim, nxt = expand_miss(state)
            del way_of[tag_of[victim]]
            tag_of[victim] = tag
            way_of[tag] = victim
            states[set_index] = nxt
    _note_kernel_call("trace", len(addresses), hits, misses, evictions)
    if tracer is not None and visits is not None:
        states_visited = sum(1 for count in visits if count)
        metrics = obs_metrics.DEFAULT
        metrics.incr("kernel.states_visited", states_visited)
        for count in visits:
            if count:
                metrics.observe("kernel.state_visits", count)
        tracer.emit(
            "kernel.run",
            mode="trace",
            policy=policy,
            accesses=len(addresses),
            hits=hits,
            misses=misses,
            evictions=evictions,
            states=states_visited,
        )
    return CacheStats(
        accesses=len(addresses),
        hits=hits,
        misses=misses,
        evictions=evictions,
        fills=misses,
    )


def simulate_trace_direct(
    trace: Trace,
    config: CacheConfig,
    policy: "str | PolicyFactory",
    seed: int = 0,
) -> CacheStats:
    """Inlined whole-cache run with real policy objects (direct mode).

    Covers policies the automaton cannot (randomized, set-dueling): the
    policies, their shared context and the rng are constructed exactly
    as :class:`~repro.cache.cache.Cache` constructs them, and driven in
    the same call order, so every rng draw and shared-state update lands
    identically — only the interpreter's per-access object overhead is
    gone.
    """
    factory = policy if isinstance(policy, PolicyFactory) else PolicyFactory(policy)
    offset_bits, index_bits, hashed, set_mask = _decompose_params(config)
    num_sets = config.num_sets
    ways = config.ways
    tag_shift = offset_bits + index_bits
    rng = SeededRng(seed)
    shared = factory.create_shared(num_sets, rng.fork("shared"))
    policies = [
        factory.build(ways, set_index, shared, rng) for set_index in range(num_sets)
    ]
    way_ofs: list[dict[int, int]] = [{} for _ in range(num_sets)]
    tag_ofs: list[list[int]] = [[0] * ways for _ in range(num_sets)]
    hits = misses = evictions = 0
    addresses = trace.addresses
    for address in addresses:
        if hashed:
            tag = address >> offset_bits
            set_index = 0
            if index_bits:
                remaining = tag
                while remaining:
                    set_index ^= remaining & set_mask
                    remaining >>= index_bits
        else:
            set_index = (address >> offset_bits) & set_mask
            tag = address >> tag_shift
        way_of = way_ofs[set_index]
        way = way_of.get(tag)
        set_policy = policies[set_index]
        if way is not None:
            hits += 1
            set_policy.touch(way)
            continue
        misses += 1
        tag_of = tag_ofs[set_index]
        filled = len(way_of)
        if filled < ways:
            way_of[tag] = filled
            tag_of[filled] = tag
            set_policy.fill(filled)
        else:
            evictions += 1
            victim = set_policy.evict()
            del way_of[tag_of[victim]]
            tag_of[victim] = tag
            way_of[tag] = victim
            set_policy.fill(victim)
    _note_kernel_call("direct", len(addresses), hits, misses, evictions)
    tracer = obs_trace.ACTIVE
    if tracer is not None:
        tracer.emit(
            "kernel.run",
            mode="direct",
            policy=factory.name,
            accesses=len(addresses),
            hits=hits,
            misses=misses,
            evictions=evictions,
        )
    return CacheStats(
        accesses=len(addresses),
        hits=hits,
        misses=misses,
        evictions=evictions,
        fills=misses,
    )


def try_simulate_trace(
    trace: Trace,
    config: CacheConfig,
    policy: "str | PolicyFactory",
    seed: int = 0,
) -> CacheStats | None:
    """Fast-path a whole-trace simulation if the kernel may run.

    Returns ``None`` when the caller must use the interpreter: the
    kernel is globally disabled, or an active tracer wants per-access
    ``cache.*`` events (the interpreter is the instrumented path; see
    OBSERVABILITY.md).  Metrics-only observers and cold-event tracers
    keep the fast path — the engines flush aggregate ``kernel.*``
    counters per call and emit ``kernel.run`` summaries under a tracer.
    Otherwise returns statistics bit-identical to the interpreter's,
    choosing the compiled automaton when the policy supports it and
    direct mode when it does not.
    """
    from repro.kernels import kernel_allowed

    if not kernel_allowed():
        return None
    factory = policy if isinstance(policy, PolicyFactory) else PolicyFactory(policy)
    params = tuple(sorted(factory.params.items()))
    compiled = compiled_for_factory(factory.name, params, config.ways)
    if compiled is not None:
        try:
            return _simulate_trace_compiled(trace, config, compiled, factory.name)
        except KernelUnsupported:
            # Budget blown mid-run: remember, and re-run in direct mode.
            automaton.mark_factory_unsupported(factory.name, params, config.ways)
    return simulate_trace_direct(trace, config, factory, seed)
