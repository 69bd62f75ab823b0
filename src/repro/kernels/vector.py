"""Vectorized multi-lane execution of compiled policy automata.

The scalar engine (:mod:`repro.kernels.engine`) steps one set, one query
at a time: a Python loop per access.  But the paper's pipelines are
embarrassingly data-parallel — a distinguishing search replays hundreds
of probes against the same automaton, a bulk oracle batch measures
thousands of independent ``(setup, probe)`` queries, and a whole-cache
trace is just ``num_sets`` independent automata that never interact.
This module represents the state of many such *lanes* as flat numpy
vectors and advances all of them with one fancy-indexed gather per
access step::

    states[hit] = hit_next[states[hit] * ways + ways_hit]

Two kinds of entry point, each mirroring (and bit-identical to) a
scalar one:

* :func:`batch_outcomes` / :func:`batch_miss_counts` — many ``(setup,
  probe)`` queries through one automaton, from an empty set or a
  preloaded start image (behind ``count_misses_batch`` /
  ``sequence_hits_batch``);
* :func:`simulate_trace_lockstep` — a whole address trace, partitioned
  per set and run with all ``num_sets`` automata advancing lock-step
  (behind ``simulate_trace_kernel`` / ``try_simulate_trace``).

The stepper's layout is chosen so per-step Python/numpy dispatch
overhead amortizes over as many lanes as possible:

* *every* query of a batch becomes a lane of **one** stepper call
  (queries sharing a setup start from the same snapshot — the vector
  analogue of the scalar batch's snapshot reuse);
* lanes are sorted by sequence length, longest first, so the active
  lanes always form a prefix and each step operates on a contiguous
  view that shrinks as lanes retire — no per-step boolean masking;
* the block matrix is stored column-major (``(width, lanes)``) so each
  step reads one contiguous row.

Ground rules:

* **numpy is optional.**  When it is absent every entry point returns
  ``None`` and callers keep the scalar engine; nothing in the library
  imports numpy unconditionally.
* **Only complete automata run vectorized, and closing one is paid for
  by the accesses run on it.**  The stepper has no lazy expansion hook —
  a ``-1`` table entry would be gathered as a state id — so the
  automaton must be closed first.  :func:`ensure_tables` closes at most
  as many BFS transitions as the call is about to execute accesses;
  until the closure is done the call runs on the scalar lazy engine,
  which only expands the states it reaches.  Closure resumes across
  calls, so a long-lived process still reaches the vector engine, and a
  whole trace longer than its automaton runs lock-step on the first
  call.  A budget blow is memoized as "scalar only" on the automaton.
* **Fallback is always legal.**  Every ``None`` return means "use the
  scalar engine"; the vector path is an optimization, never a
  capability.  Engagement, fallbacks and deferred closures are visible
  as ``kernel.vector.*`` counters.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from itertools import chain

from repro.errors import KernelUnsupported
from repro.obs import metrics as obs_metrics

try:  # numpy is an optional extra (pip install repro[vector])
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None

__all__ = [
    "VectorTables",
    "available",
    "batch_miss_counts",
    "batch_outcomes",
    "ensure_tables",
    "numpy_available",
    "simulate_trace_lockstep",
    "vector_allowed",
]

#: Below this many lanes a batch stays scalar: per-step numpy dispatch
#: overhead (~µs) would dominate the handful of lanes.
MIN_LANES = 64

#: Whole-trace lock-step needs enough sets to fill the lanes.
MIN_TRACE_LANES = 64

#: Refuse lane matrices beyond this many cells (a pathologically skewed
#: trace would otherwise allocate set-count x trace-length).
MAX_MATRIX_CELLS = 64_000_000

#: A trace whose per-set access counts are so imbalanced that fewer than
#: this fraction of lane-matrix cells are real accesses stays scalar.
MIN_FILL_RATIO = 0.2

#: Block ids / tags must fit comfortably in int64 lanes.
_MAX_BLOCK = 1 << 62


def available() -> bool:
    """True when numpy is importable in this process."""
    return _np is not None


#: Package-level aliases: ``repro.kernels.numpy_available()`` and the
#: engines' "may the vector engine run" check — the same question, as
#: numpy availability is the vector engine's only gate.
numpy_available = available
vector_allowed = available


class VectorTables:
    """Numpy mirror of one complete automaton's transition tables.

    Flat int32 arrays in the same layout as the scalar lists —
    ``hit_next``/``fill_next`` indexed ``state * ways + way``,
    ``miss_victim``/``miss_next`` indexed ``state``.  Instances are
    attached to their :class:`~repro.kernels.automaton.CompiledPolicy`
    (``vector_tables`` slot) by :func:`ensure_tables`, or zero-copy by
    the artifact store over an mmap of the on-disk tables.
    """

    __slots__ = (
        "ways",
        "num_states",
        "hit_next",
        "fill_next",
        "miss_victim",
        "miss_next",
        "fused_next",
        "fused_way",
    )

    def __init__(self, ways, num_states, hit_next, fill_next, miss_victim, miss_next):
        self.ways = ways
        self.num_states = num_states
        self.hit_next = hit_next
        self.fill_next = fill_next
        self.miss_victim = miss_victim
        self.miss_next = miss_next
        self.fused_next = None
        self.fused_way = None

    def fused(self):
        """The stepper's fused ``(state, event)`` tables, built lazily.

        An access step has ``2 * ways + 1`` possible events per state:
        hit at way ``w`` (event ``w``), cold fill at way ``w`` (event
        ``ways + w``), and evicting miss (event ``2 * ways``).  Fusing
        the three transition tables into one lets the stepper advance
        every lane — hit or miss — with a single gather, and
        ``fused_way`` yields the way each missing lane writes (-1 for
        hits, which write nothing).
        """
        if self.fused_next is None:
            np = _np
            states, ways = self.num_states, self.ways
            span = 2 * ways + 1
            nxt = np.empty((states, span), dtype=np.int32)
            nxt[:, :ways] = self.hit_next.reshape(states, ways)
            nxt[:, ways : 2 * ways] = self.fill_next.reshape(states, ways)
            nxt[:, 2 * ways] = self.miss_next
            way = np.empty((states, span), dtype=np.int32)
            way[:, :ways] = -1
            way[:, ways : 2 * ways] = np.arange(ways, dtype=np.int32)
            way[:, 2 * ways] = self.miss_victim
            self.fused_next = nxt.reshape(-1)
            self.fused_way = way.reshape(-1)
        return self.fused_next, self.fused_way

    @classmethod
    def from_lists(cls, compiled) -> "VectorTables":
        """Copy a complete automaton's list tables into numpy arrays."""
        return cls(
            compiled.ways,
            compiled.num_states,
            _np.asarray(compiled.hit_next, dtype=_np.int32),
            _np.asarray(compiled.fill_next, dtype=_np.int32),
            _np.asarray(compiled.miss_victim, dtype=_np.int32),
            _np.asarray(compiled.miss_next, dtype=_np.int32),
        )

    @classmethod
    def from_buffers(cls, ways, num_states, buffers) -> "VectorTables":
        """Zero-copy views over int32 buffers (the store's mmap payload)."""
        return cls(
            ways,
            num_states,
            _np.frombuffer(buffers["hit_next"], dtype=_np.int32),
            _np.frombuffer(buffers["fill_next"], dtype=_np.int32),
            _np.frombuffer(buffers["miss_victim"], dtype=_np.int32),
            _np.frombuffer(buffers["miss_next"], dtype=_np.int32),
        )


def ensure_tables(compiled, work: int) -> VectorTables | None:
    """The automaton's numpy tables, or None when it must stay scalar.

    The stepper cannot expand lazily, so tables exist only for a
    complete automaton.  ``work`` is the number of accesses the caller
    is about to execute: at most that many BFS transitions are closed
    (:meth:`~repro.kernels.automaton.CompiledPolicy.expand_all` resumes
    where the previous call stopped), so no process closes more of an
    automaton than it runs accesses on it.  An automaton still open
    afterwards returns None with nothing memoized, counted as
    ``kernel.vector.deferred``; a later call carries on the closure.

    The outcome is memoized on the automaton: a successful build as the
    tables themselves, a budget blow or missing numpy as a ``False``
    tombstone so the probe runs once.
    """
    cached = compiled.vector_tables
    if cached is not None:
        return cached or None
    if _np is None:
        compiled.vector_tables = False
        return None
    try:
        compiled.expand_all(work)
    except KernelUnsupported:
        compiled.vector_tables = False
        return None
    if not compiled.is_complete():
        obs_metrics.DEFAULT.incr("kernel.vector.deferred")
        return None
    tables = VectorTables.from_lists(compiled)
    compiled.vector_tables = tables
    return tables


# -- the lock-step stepper ---------------------------------------------------

def _run_lanes(tables, states, tags, filled, blocks, lengths, hits_out=None):
    """Advance every lane over its block column, one access step at a time.

    Lanes MUST be ordered by non-increasing ``lengths`` so the active
    lanes are always a prefix; ``blocks`` is column-major (shape
    ``(width, Q)``, padded with -1) so each step reads one contiguous
    row, and ``hits_out`` (optional) has the same layout.  ``states`` /
    ``filled`` are int32 ``(Q,)`` vectors, ``tags`` an int64 ``(Q,
    ways)`` matrix (-1 = invalid way); all are mutated in place.
    Returns ``(total_hits, total_evictions)``.

    Each step mirrors the scalar engine's per-access rules exactly: a
    matching tag is a hit at that way, a miss in a partly-filled lane
    cold-fills the first invalid way (== the fill count, because these
    runs never invalidate), a miss in a full lane evicts the automaton's
    victim.  The three cases collapse into one event id per lane, so a
    single gather through the fused tables advances every lane at once.
    """
    np = _np
    ways = tables.ways
    span = 2 * ways + 1
    fused_next, fused_way = tables.fused()
    width = blocks.shape[0]
    lanes = states.shape[0]
    if not width or not lanes:
        return 0, 0
    # ended_by[c] = lanes whose sequence is over by step c; the active
    # lanes are always the remaining prefix, by the length ordering.
    ended_by = np.cumsum(np.bincount(lengths, minlength=width + 1))
    arange = np.arange(lanes)
    filled_before = int(filled.sum())
    total = 0
    total_hits = 0
    for column in range(width):
        active = lanes - int(ended_by[column])
        if not active:
            break
        total += active
        s = states[:active]
        t = tags[:active]
        f = filled[:active]
        b = blocks[column, :active]
        eq = t == b[:, None]
        # One scan finds the matching way; a gather of that way tells us
        # whether it actually matched (argmax of an all-False row is 0).
        way_all = eq.argmax(axis=1)
        hit = eq[arange[:active], way_all]
        # Event id: way (hit), ways + fill count (cold miss, capped at
        # ways which IS the evicting-miss event when the lane is full).
        event = np.where(hit, way_all, ways + np.minimum(f, ways))
        index = s * span + event
        s[:] = fused_next[index]
        miss = ~hit
        miss_rows = miss.nonzero()[0]
        if miss_rows.size:
            t[miss_rows, fused_way[index[miss_rows]]] = b[miss_rows]
            f += miss & (f < ways)
        if hits_out is not None:
            hits_out[column, :active] = hit
        total_hits += int(np.count_nonzero(hit))
    # Every miss either cold-filled a way (visible as filled growth) or
    # evicted; no per-step counting needed.
    cold_fills = int(filled.sum()) - filled_before
    evictions = (total - total_hits) - cold_fills
    return total_hits, evictions


def _scalar_run(tables, blocks, preload=None) -> tuple[int, dict, int]:
    """Walk one sequence over the numpy tables in plain Python.

    Used for chunk setups: each runs once, from the empty set or the
    ``preload`` start image, and its snapshot seeds every lane of the
    chunk.  Returns ``(state, way_of, hits)`` — the same snapshot the
    scalar engine's ``_run_blocks`` maintains (``tag_of`` is recoverable
    from ``way_of`` since these runs never invalidate).
    """
    ways = tables.ways
    hit_next = tables.hit_next
    fill_next = tables.fill_next
    miss_victim = tables.miss_victim
    miss_next = tables.miss_next
    if preload is None:
        way_of: dict = {}
        tag_of = [-1] * ways
    else:
        way_of = {tag: way for way, tag in enumerate(preload)}
        tag_of = list(preload)
    state = 0
    hits = 0
    for block in blocks:
        way = way_of.get(block)
        if way is not None:
            state = int(hit_next[state * ways + way])
            hits += 1
            continue
        filled = len(way_of)
        if filled < ways:
            way_of[block] = filled
            tag_of[filled] = block
            state = int(fill_next[state * ways + filled])
        else:
            victim = int(miss_victim[state])
            del way_of[tag_of[victim]]
            tag_of[victim] = block
            way_of[block] = victim
            state = int(miss_next[state])
    return state, way_of, hits


def _note_vector_call(lanes: int, accesses: int) -> None:
    metrics = obs_metrics.DEFAULT
    metrics.incr("kernel.vector.calls")
    metrics.incr("kernel.vector.lanes", lanes)
    metrics.incr("kernel.vector.accesses", accesses)


def _note_fallback() -> None:
    obs_metrics.DEFAULT.incr("kernel.vector.fallbacks")


def _lane_matrix(probes: Sequence[Sequence[int]], order, lengths):
    """Column-major padded lane matrix for probes taken in ``order``.

    Returns ``(blocks, lengths_sorted, step, lane)`` where ``step`` /
    ``lane`` map each flattened access (lanes concatenated in order) to
    its matrix cell — the same index pair extracts per-lane outcomes
    from a ``hits_out`` matrix in one gather.  Returns None when any
    block id falls outside the int64 lane range ``[0, _MAX_BLOCK)``
    (-1 is the padding sentinel, so negatives must stay scalar).
    """
    np = _np
    count = len(probes)
    lengths_sorted = lengths[order]
    width = int(lengths_sorted[0]) if count else 0
    blocks = np.full((width, count), -1, dtype=np.int64)
    total = int(lengths.sum())
    if not total:
        empty = np.empty(0, dtype=np.int64)
        return blocks, lengths_sorted, empty, empty
    ordered = (probes[index] for index in order.tolist())
    try:
        flat = np.fromiter(chain.from_iterable(ordered), dtype=np.int64, count=total)
    except (OverflowError, ValueError):
        return None
    if int(flat.max()) >= _MAX_BLOCK or int(flat.min()) < 0:
        return None
    if int(lengths_sorted[-1]) == width:
        # Uniform probe length (the common distinguish/verify shape):
        # the lane matrix is just the flat array transposed — no
        # scatter — and outcomes un-flatten by row, signalled by the
        # None step map.
        blocks = np.ascontiguousarray(flat.reshape(count, width).T)
        return blocks, lengths_sorted, None, None
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths_sorted, out=offsets[1:])
    step = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], lengths_sorted)
    lane = np.repeat(np.arange(count, dtype=np.int64), lengths_sorted)
    blocks[step, lane] = flat
    return blocks, lengths_sorted, step, lane


def _split_outcomes(hits_out, lengths_sorted, step, lane, order):
    """Un-sort a ``hits_out`` matrix into per-query tuples of bools."""
    outcomes: list = [None] * len(order)
    if step is None:  # uniform lengths: one lane per matrix column
        width = hits_out.shape[0]
        flat = hits_out.T.reshape(-1).tolist()
        for lane_index, query_index in enumerate(order.tolist()):
            position = lane_index * width
            outcomes[query_index] = tuple(flat[position : position + width])
        return outcomes
    flat = hits_out[step, lane].tolist()
    position = 0
    for lane_index, query_index in enumerate(order.tolist()):
        length = int(lengths_sorted[lane_index])
        outcomes[query_index] = tuple(flat[position : position + length])
        position += length
    return outcomes


# -- batched (setup, probe) queries ------------------------------------------

def batch_outcomes(compiled, queries, preload=None):
    """Vectorized analogue of the scalar engine's ``_run_batch``.

    Returns ``(outcomes, executed, executed_hits, reused)`` — the same
    accounting tuple, with identical values (outcomes as tuples) — or
    ``None`` when the batch must stay scalar (numpy absent, automaton
    not closed yet or not closable, too few lanes, or block ids outside
    the int64 lane range).  Queries are chunked by *consecutive equal
    setups* exactly like the scalar path; every chunk's setup runs once (in
    Python, over the numpy tables, from the empty set or the
    ``preload`` start image) and its snapshot seeds that chunk's lanes,
    after which ALL lanes advance in one stepper call.
    """
    run = _batch_run(compiled, queries, preload)
    if run is None:
        return None
    hits_out, lengths_sorted, step, lane, order, accounting = run
    outcomes = _split_outcomes(hits_out, lengths_sorted, step, lane, order)
    return (outcomes, *accounting)


def batch_miss_counts(compiled, queries, preload=None):
    """Per-query probe *miss counts* — the oracle path, list-free.

    Same contract and accounting as :func:`batch_outcomes`, but the
    per-access outcomes never materialize as Python objects: each lane's
    hit column is summed in numpy.  Returns ``(counts, executed,
    executed_hits, reused)`` or ``None`` for scalar fallback.
    """
    run = _batch_run(compiled, queries, preload)
    if run is None:
        return None
    hits_out, lengths_sorted, _, _, order, accounting = run
    lane_misses = (lengths_sorted - hits_out.sum(axis=0, dtype=_np.int64)).tolist()
    counts: list = [None] * len(order)
    for lane_index, query_index in enumerate(order.tolist()):
        counts[query_index] = lane_misses[lane_index]
    return (counts, *accounting)


def _batch_run(compiled, queries, preload=None):
    if _np is None or len(queries) < MIN_LANES:
        return None
    if preload is not None and any(tag < 0 or tag >= _MAX_BLOCK for tag in preload):
        return None
    np = _np
    count = len(queries)

    # Chunk by consecutive equal setups (the scalar batch's reuse rule);
    # chunks cover contiguous query ranges by construction.  Callers
    # typically pass the *same* setup object for a whole chunk, so an
    # identity check skips most of the tuple building.
    chunk_bounds: list[int] = []  # start index of each chunk
    chunk_setups: list[tuple[int, ...]] = []
    prev_obj = None
    prev_setup: tuple[int, ...] | None = None
    for index, (setup, _) in enumerate(queries):
        if prev_setup is not None and setup is prev_obj:
            continue
        setup_key = tuple(setup)
        if prev_setup is None or setup_key != prev_setup:
            chunk_bounds.append(index)
            chunk_setups.append(setup_key)
            prev_setup = setup_key
        prev_obj = setup
    chunk_bounds.append(count)
    probes = [probe for _, probe in queries]
    lengths = np.fromiter((len(p) for p in probes), dtype=np.int64, count=count)

    # The accesses this batch executes: each chunk's setup once, then
    # every probe.
    work = sum(map(len, chunk_setups)) + int(lengths.sum())
    tables = ensure_tables(compiled, work)
    if tables is None:
        if compiled.vector_tables is False:
            _note_fallback()
        return None
    ways = tables.ways

    # Replay each chunk's setup once; seed its lane range from the snapshot.
    states = np.zeros(count, dtype=np.int32)
    tags = np.full((count, ways), -1, dtype=np.int64)
    filled = np.zeros(count, dtype=np.int32)
    executed = 0
    executed_hits = 0
    reused = 0
    for chunk, setup_key in enumerate(chunk_setups):
        if any(block < 0 or block >= _MAX_BLOCK for block in setup_key):
            _note_fallback()
            return None  # id outside the lane range: whole batch stays scalar
        start, end = chunk_bounds[chunk], chunk_bounds[chunk + 1]
        state, way_of, setup_hits = _scalar_run(tables, setup_key, preload)
        executed += len(setup_key)
        executed_hits += setup_hits
        reused += len(setup_key) * (end - start - 1)
        if state:
            states[start:end] = state
        if way_of:
            row = np.full(ways, -1, dtype=np.int64)
            for tag, way in way_of.items():
                row[way] = tag
            tags[start:end] = row
            filled[start:end] = len(way_of)

    # Sort lanes longest-probe-first so the stepper's active set is a
    # shrinking prefix, run, then un-sort the outcomes.
    order = np.argsort(-lengths, kind="stable")
    layout = _lane_matrix(probes, order, lengths)
    if layout is None:
        _note_fallback()
        return None
    blocks, lengths_sorted, step, lane = layout
    hits_out = np.zeros(blocks.shape, dtype=bool)
    total_hits, _ = _run_lanes(
        tables,
        states[order],
        tags[order],
        filled[order],
        blocks,
        lengths_sorted,
        hits_out,
    )
    executed += int(lengths.sum())
    executed_hits += total_hits
    _note_vector_call(count, executed)
    accounting = (executed, executed_hits, reused)
    return hits_out, lengths_sorted, step, lane, order, accounting


# -- whole-trace lock-step ---------------------------------------------------

def simulate_trace_lockstep(trace, config, compiled):
    """Run a whole read trace with all ``num_sets`` automata lock-step.

    The trace is decomposed into per-set tag subsequences (sets never
    interact, and a stable partition preserves each set's access order),
    then every set advances one access per stepper column.  Returns a
    :class:`~repro.cache.stats.CacheStats` bit-identical to the scalar
    trace engine / interpreter, or ``None`` for scalar fallback (numpy
    absent, too few sets, automaton not closed yet or not closable, a
    pathologically skewed trace, or tags beyond the int64 lane range).
    """
    if _np is None or config.num_sets < MIN_TRACE_LANES:
        return None
    tables = ensure_tables(compiled, len(trace))
    if tables is None:
        if compiled.vector_tables is False:
            _note_fallback()
        return None
    from repro.cache.stats import CacheStats

    total = len(trace)
    if not total:
        return CacheStats(accesses=0, hits=0, misses=0, evictions=0, fills=0)
    layout = _trace_layout(trace, config)
    if layout is None:
        _note_fallback()
        return None
    np = _np
    blocks, lengths_sorted = layout
    num_sets = config.num_sets
    ways = tables.ways
    states = np.zeros(num_sets, dtype=np.int32)
    tags = np.full((num_sets, ways), -1, dtype=np.int64)
    filled = np.zeros(num_sets, dtype=np.int32)
    hits, evictions = _run_lanes(tables, states, tags, filled, blocks, lengths_sorted)
    misses = total - hits
    _note_vector_call(num_sets, total)
    return CacheStats(
        accesses=total,
        hits=hits,
        misses=misses,
        evictions=evictions,
        fills=misses,
    )


#: One-slot memo for the last trace's lock-step layout.  The layout
#: (block matrix + per-lane lengths) depends only on the trace and the
#: cache geometry — not the policy — and evaluation loops simulate the
#: same trace under many policies back to back.  Keyed by trace
#: *identity* (a weak reference, traces are immutable) so it can never
#: serve stale data for a different trace.
_TRACE_LAYOUT: tuple | None = None


def _trace_layout(trace, config):
    """Decompose + partition ``trace`` for ``config``, memoized.

    Returns ``(blocks, lengths_sorted)`` — both treated as read-only by
    the stepper — or None when the trace cannot run lock-step (address
    or tag beyond the int64 lane range, or a matrix-size gate tripped).
    The None is memoized too: the gates are deterministic per layout.
    """
    global _TRACE_LAYOUT
    np = _np
    geometry = (
        config.offset_bits,
        config.index_bits,
        config.num_sets,
        config.index_hash,
    )
    if _TRACE_LAYOUT is not None:
        trace_ref, cached_geometry, layout = _TRACE_LAYOUT
        if trace_ref() is trace and cached_geometry == geometry:
            return layout
    layout = _build_trace_layout(trace, config)
    try:
        _TRACE_LAYOUT = (weakref.ref(trace), geometry, layout)
    except TypeError:  # pragma: no cover - Trace supports weakrefs
        _TRACE_LAYOUT = None
    return layout


def _build_trace_layout(trace, config):
    np = _np
    address_vec = trace.address_array()
    if address_vec is None:
        return None
    total = len(address_vec)
    offset_bits = config.offset_bits
    index_bits = config.index_bits
    num_sets = config.num_sets
    set_mask = np.uint64(num_sets - 1)
    if config.index_hash != "bits":
        tag_vec = address_vec >> np.uint64(offset_bits)
        set_vec = np.zeros(total, dtype=np.uint64)
        if index_bits:
            remaining = tag_vec.copy()
            shift = np.uint64(index_bits)
            while remaining.any():
                set_vec ^= remaining & set_mask
                remaining >>= shift
    else:
        set_vec = (address_vec >> np.uint64(offset_bits)) & set_mask
        tag_vec = address_vec >> np.uint64(offset_bits + index_bits)
    if int(tag_vec.max()) >= _MAX_BLOCK:
        return None
    set_vec = set_vec.astype(np.int64)
    counts = np.bincount(set_vec, minlength=num_sets)
    width = int(counts.max())
    if num_sets * width > MAX_MATRIX_CELLS:
        return None
    if total < MIN_FILL_RATIO * num_sets * width:
        return None
    # Partition accesses by set (stable: per-set order preserved), order
    # the lanes busiest-set-first, and scatter every access into its
    # (step, lane) cell of the column-major block matrix in one shot.
    access_order = np.argsort(set_vec, kind="stable")
    sorted_tags = tag_vec[access_order].astype(np.int64)
    sorted_sets = set_vec[access_order]
    offsets = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    lane_order = np.argsort(-counts, kind="stable")
    inverse = np.empty(num_sets, dtype=np.int64)
    inverse[lane_order] = np.arange(num_sets)
    step_of = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    blocks = np.full((width, num_sets), -1, dtype=np.int64)
    blocks[step_of, inverse[sorted_sets]] = sorted_tags
    return blocks, counts[lane_order]
