"""Prefix-trie query planner: execute each shared access prefix once.

The batched engines (the scalar ``_run_batch`` of
:mod:`repro.kernels.engine` and :mod:`repro.kernels.vector`) execute
every ``(setup, probe)`` query of a batch end-to-end, reusing work only for
*consecutive, bit-identical* setups.  But inference-shaped batches are
far more redundant than that: the establishment prefix is shared by
every position measurement, verification windows replay nested prefixes
of one another, and fresh-block suffixes extend each other one access at
a time.  Concatenated as ``setup ‖ probe`` block sequences, such a batch
forms a *radix trie* in which each node is one access — and since the
automaton run over any sequence prefix is deterministic, every trie node
needs to be executed exactly **once**, not once per query that contains
it.  This planner turns O(Σ|query|) executed accesses into O(|trie|).

The trie is never materialized as linked nodes.  Sorting the sequences
lexicographically makes prefix sharing *adjacent*: consecutive sorted
sequences share exactly their longest common prefix (LCP), and the trie
nodes are precisely the suffix accesses beyond each LCP.  The planner
therefore

1. sorts the concatenated sequences (stable, so duplicate queries
   collapse entirely),
2. computes per-neighbour LCPs (vectorized over a padded block matrix
   when numpy is present),
3. gates on the measured **sharing ratio** ``Σ|query| / |trie|`` —
   a batch with no prefix redundancy is not worth planning and falls
   back to the batched engines (counted as ``kernel.trie.fallbacks``),
4. executes only the deduplicated suffixes, and
5. replays per-query answers from the shared traversal: the per-depth
   outcome and cumulative-miss arrays along the current trie path are
   valid for *every* query that path passes through, so a miss count is
   one subtraction and an outcome list is one slice.

Two execution engines, bit-identical to each other and to the batched
engines:

* **Scalar replay** (pure Python, numpy-free, lazy-expansion capable):
  a depth-first walk of the sorted sequences.  Instead of snapshotting
  ``(state, way_of, tag_of)`` at every branch point, it keeps one
  mutable set image plus a constant-size *undo record* per depth — a
  hit restores nothing, a fill or eviction restores one way — so
  backtracking from one sorted sequence to the next costs O(depth
  difference), and the per-node work matches the scalar engine's.
* **Level-frontier lanes** (numpy): all trie nodes at one depth advance
  as lanes of a single fused-gather step through the *same*
  ``(state, event)`` tables the vector engine builds
  (:meth:`repro.kernels.vector.VectorTables.fused`).  A node's parent
  at depth ``d-1`` is the nearest preceding sorted row that created a
  node there, found with one ``searchsorted`` per level; gathering the
  parents' lane states *is* the branch-point snapshot.  Chosen when the
  trie is wide enough for per-level numpy dispatch to amortize and the
  automaton is closed; the batch's accesses pay toward that closure
  (:func:`repro.kernels.vector.ensure_tables`), so a fresh automaton
  replays in scalar until they have.

Ground rules (matching :mod:`repro.kernels.vector`):

* numpy is optional — the scalar replay is a full planner, not a stub;
* fallback is always legal — every ``None`` return means "use the
  batched engines", and the planner is an optimization, never a
  capability;
* engagement is observable — ``kernel.trie.plans`` / ``.nodes`` /
  ``.reused_accesses`` / ``.fallbacks`` (and ``.vector_plans`` for the
  frontier engine), while the logical ``kernel.accesses = hits +
  misses`` invariant continues to hold over the accesses actually
  executed (see OBSERVABILITY.md for the relaxed parity contract).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from repro.kernels import vector
from repro.obs import metrics as obs_metrics

try:  # numpy is an optional extra (pip install repro[vector])
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None

__all__ = [
    "MIN_QUERIES",
    "MIN_SHARE_RATIO",
    "plan_miss_counts",
    "plan_outcomes",
]

#: Below this many queries a batch stays on the batched engines: the
#: sort/LCP bookkeeping cannot pay for itself, and tiny batches are the
#: adaptive (unbatchable) measurement shape anyway.
MIN_QUERIES = 8

#: Minimum measured sharing ratio ``total accesses / trie nodes``.  At
#: 1.0 the trie is the batch (no sharing); below this bar planning would
#: add sort overhead on top of full execution, so the planner declines
#: (counted as a ``kernel.trie.fallbacks``).
MIN_SHARE_RATIO = 1.2

#: Refuse padded sort matrices beyond this many cells; the Python
#: LCP/replay path takes over (same gate value as the vector engine's).
MAX_MATRIX_CELLS = 64_000_000

#: The frontier engine needs enough nodes, and enough nodes *per level*
#: (= nodes / max depth), for per-level numpy dispatch to amortize; a
#: chain-shaped trie runs faster under the scalar replay.
MIN_VECTOR_NODES = 256
MIN_AVG_FRONTIER = 8


def _note_fallback() -> None:
    obs_metrics.DEFAULT.incr("kernel.trie.fallbacks")


def _note_plan(nodes: int, reused: int, vectorized: bool) -> None:
    metrics = obs_metrics.DEFAULT
    metrics.incr("kernel.trie.plans")
    metrics.incr("kernel.trie.nodes", nodes)
    if reused:
        metrics.incr("kernel.trie.reused_accesses", reused)
    if vectorized:
        metrics.incr("kernel.trie.vector_plans")


# -- planning ----------------------------------------------------------------

def plan_miss_counts(compiled, queries):
    """Plan + execute a batch for per-query probe miss counts.

    Returns ``(counts, executed, executed_hits)`` — counts in request
    order, plus the accounting the caller flushes as one ``"batch"``
    kernel call — or ``None`` when the batch should stay on the batched
    engines (too few queries, or sharing below
    :data:`MIN_SHARE_RATIO`).
    """
    return _plan(compiled, queries, want_outcomes=False)


def plan_outcomes(compiled, queries):
    """Plan + execute a batch for per-query hit/miss outcome lists.

    Same contract and accounting as :func:`plan_miss_counts`, with
    ``outcomes[q]`` a list of bools covering query ``q``'s probe.
    """
    return _plan(compiled, queries, want_outcomes=True)


def _plan(compiled, queries, want_outcomes):
    if len(queries) < MIN_QUERIES:
        return None
    count = len(queries)
    splits = [len(setup) for setup, _ in queries]
    total = sum(split + len(probe) for split, (_, probe) in zip(splits, queries))
    if not total:
        return None  # all-empty batch: nothing to share
    layout = _matrix_layout(queries, count, total) if _np is not None else None
    seqs = None
    if layout is not None:
        order, lcps, mat, lengths, block_lo, block_hi = layout
    else:
        # No numpy (or ids outside int64, or an oversized matrix): sort
        # tuple keys and scan neighbouring pairs for their LCP.
        seqs = [tuple(setup) + tuple(probe) for setup, probe in queries]
        order = sorted(range(count), key=seqs.__getitem__)
        lcps = [0] * count
        prev = seqs[order[0]]
        for position in range(1, count):
            cur = seqs[order[position]]
            bound = min(len(prev), len(cur))
            shared = 0
            while shared < bound and prev[shared] == cur[shared]:
                shared += 1
            lcps[position] = shared
            prev = cur
        mat = lengths = None
        block_lo = block_hi = 0
    nodes = total - sum(lcps)
    if total < MIN_SHARE_RATIO * nodes:
        _note_fallback()
        return None
    tables = None
    if (
        mat is not None
        and vector.vector_allowed()
        and nodes >= MIN_VECTOR_NODES
        and nodes >= MIN_AVG_FRONTIER * mat.shape[1]
        and block_lo >= 0
        and block_hi < vector._MAX_BLOCK
    ):
        tables = vector.ensure_tables(compiled, total)
    if tables is not None:
        answers, executed_hits = _run_frontier(
            tables, mat, lengths, lcps, order, splits, want_outcomes
        )
    else:
        if seqs is None:
            # The matrix layout ran but the frontier gates said no:
            # rehydrate per-row sequences for the replay from the sorted
            # matrix (tolist is one C pass; pad cells are sliced away).
            rows, trims = mat.tolist(), lengths.tolist()
            seqs = [None] * count
            for position, index in enumerate(order):
                seqs[index] = rows[position][: trims[position]]
        answers, executed_hits = _replay_scalar(
            compiled, seqs, order, lcps, splits, want_outcomes
        )
    _note_plan(nodes, total - nodes, vectorized=tables is not None)
    return answers, nodes, executed_hits


def _matrix_layout(queries, count, total):
    """Sorted padded block matrix + per-neighbour LCPs, all in numpy.

    Returns ``(order, lcps, mat, lengths, block_lo, block_hi)`` —
    ``order[position]`` the original index of sorted row ``position``,
    ``lcps`` aligned with sorted positions (``lcps[0] == 0``), ``mat``
    the ``(count, width)`` int64 matrix in sorted row order — or
    ``None`` when a block id overflows int64 or the matrix would be too
    large, in which case the caller sorts tuple keys instead.

    The sort never touches Python tuples: rows are mapped through the
    order-preserving int64 -> uint64 bias, serialized big-endian, and
    argsorted as fixed-width byte strings — lexicographic block order
    with the pad value (one below the smallest block) ranking a shorter
    sequence before its extensions, exactly like tuple comparison.
    """
    np = _np
    width = max(len(setup) + len(probe) for setup, probe in queries)
    if count * width > MAX_MATRIX_CELLS:
        return None
    try:
        flat = np.fromiter(
            chain.from_iterable(
                chain(setup, probe) for setup, probe in queries
            ),
            dtype=np.int64,
            count=total,
        )
    except (OverflowError, ValueError):
        return None
    block_lo = int(flat.min())
    block_hi = int(flat.max())
    if block_lo == -(1 << 63):
        return None  # no room to pad below the smallest block
    lengths = np.fromiter(
        (len(setup) + len(probe) for setup, probe in queries),
        dtype=np.int64,
        count=count,
    )
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    col = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], lengths)
    row = np.repeat(np.arange(count, dtype=np.int64), lengths)
    mat = np.full((count, width), block_lo - 1, dtype=np.int64)
    mat[row, col] = flat
    keys = np.ascontiguousarray(
        (mat.view(np.uint64) ^ np.uint64(1 << 63)).astype(">u8")
    ).view(f"V{8 * width}")
    order_arr = np.argsort(keys.ravel(), kind="stable")
    mat = mat[order_arr]
    lengths = lengths[order_arr]
    # First mismatch between neighbouring sorted rows; the sentinel
    # column catches fully identical (padded) rows.  Padding cannot
    # fake agreement past a row's end: the LCP is clipped to both
    # lengths.
    neq = mat[1:] != mat[:-1]
    sentinel = np.ones((count - 1, 1), dtype=bool)
    first = np.concatenate([neq, sentinel], axis=1).argmax(axis=1)
    lcp = np.minimum(first, np.minimum(lengths[1:], lengths[:-1]))
    lcps = [0]
    lcps.extend(lcp.tolist())
    return order_arr.tolist(), lcps, mat, lengths, block_lo, block_hi


# -- scalar replay -----------------------------------------------------------

def _replay_scalar(compiled, seqs, order, lcps, splits, want_outcomes):
    """Depth-first replay of the sorted sequences with per-depth undo.

    Executes exactly the trie's node accesses: each sorted sequence
    backtracks to its LCP with the previous one (undoing one access per
    popped depth) and runs only its new suffix.  The per-depth outcome
    (``hits_path``) and cumulative-miss (``cum``) arrays along the
    current path answer every query whose sequence is the current path,
    shared prefix included.  Per-access rules and lazy expansion match
    the scalar engine's ``_run_blocks`` exactly.
    """
    ways = compiled.ways
    hit_next = compiled.hit_next
    fill_next = compiled.fill_next
    miss_victim = compiled.miss_victim
    miss_next = compiled.miss_next
    way_of: dict[int, int] = {}
    tag_of = [-1] * ways
    width = max(len(seq) for seq in seqs)
    path_states = [0] * width
    # Undo record per depth: way written by the access (-1 for hits,
    # which change only the state) and the tag it displaced (-1 for cold
    # fills).  Restoring a record exactly inverts the access given every
    # deeper one is already undone.
    undo_ways = [0] * width
    undo_tags = [0] * width
    hits_path = [False] * width
    cum = [0] * (width + 1)
    answers: list = [None] * len(seqs)
    depth = 0
    executed_hits = 0
    for position, index in enumerate(order):
        seq = seqs[index]
        keep = lcps[position]
        for d in range(depth - 1, keep - 1, -1):
            way = undo_ways[d]
            if way >= 0:
                old = undo_tags[d]
                del way_of[tag_of[way]]
                tag_of[way] = old
                if old >= 0:
                    way_of[old] = way
        state = path_states[keep - 1] if keep else 0
        for d in range(keep, len(seq)):
            block = seq[d]
            way = way_of.get(block)
            if way is not None:
                nxt = hit_next[state * ways + way]
                state = nxt if nxt >= 0 else compiled.expand_hit(state, way)
                undo_ways[d] = -1
                hits_path[d] = True
                cum[d + 1] = cum[d]
                executed_hits += 1
            else:
                filled = len(way_of)
                if filled < ways:
                    way_of[block] = filled
                    tag_of[filled] = block
                    nxt = fill_next[state * ways + filled]
                    state = nxt if nxt >= 0 else compiled.expand_fill(state, filled)
                    undo_ways[d] = filled
                    undo_tags[d] = -1
                else:
                    victim = miss_victim[state]
                    if victim >= 0:
                        nxt = miss_next[state]
                    else:
                        victim, nxt = compiled.expand_miss(state)
                    old = tag_of[victim]
                    del way_of[old]
                    tag_of[victim] = block
                    way_of[block] = victim
                    state = nxt
                    undo_ways[d] = victim
                    undo_tags[d] = old
                hits_path[d] = False
                cum[d + 1] = cum[d] + 1
            path_states[d] = state
        depth = len(seq)
        split = splits[index]
        if want_outcomes:
            answers[index] = hits_path[split:depth]
        else:
            answers[index] = cum[depth] - cum[split]
    return answers, executed_hits


# -- vectorized level frontiers ----------------------------------------------

def _run_frontier(tables, mat, lengths, lcps, order, splits, want_outcomes):
    """Advance each trie level's node frontier as lanes of one gather.

    The frontier at depth ``d`` is the sorted rows with ``lcp <= d <
    len`` — exactly the rows that *create* a trie node there.  A node's
    parent at depth ``d - 1`` is the nearest preceding row in the
    ``d - 1`` frontier (the row that created the shared parent node);
    gathering the parents' ``(state, tags, filled)`` lanes is the
    planner's branch-point snapshot.  Each level then takes one step
    through the vector engine's fused ``(state, event)`` tables — the
    same event encoding as :func:`repro.kernels.vector._run_lanes`.
    """
    np = _np
    ways = tables.ways
    span = 2 * ways + 1
    fused_next, fused_way = tables.fused()
    count, width = mat.shape
    lcps_vec = np.asarray(lcps, dtype=np.int64)
    depth_grid = np.arange(width, dtype=np.int64)
    valid = depth_grid < lengths[:, None]
    created = valid & (depth_grid >= lcps_vec[:, None])
    hits_grid = np.zeros((count, width), dtype=bool)
    rows_prev = states_prev = tags_prev = filled_prev = None
    executed_hits = 0
    for d in range(width):
        rows = created[:, d].nonzero()[0]
        if not rows.size:
            break  # no nodes here => no sequence reaches this depth
        if d == 0:
            states = np.zeros(rows.size, dtype=np.int32)
            tags = np.full((rows.size, ways), -1, dtype=np.int64)
            filled = np.zeros(rows.size, dtype=np.int32)
        else:
            parents = np.searchsorted(rows_prev, rows, side="right") - 1
            states = states_prev[parents]
            tags = tags_prev[parents]  # fancy index: already a copy
            filled = filled_prev[parents]
        blocks = mat[rows, d]
        eq = tags == blocks[:, None]
        way_all = eq.argmax(axis=1)
        hit = eq[np.arange(rows.size), way_all]
        event = np.where(hit, way_all, ways + np.minimum(filled, ways))
        index = states * span + event
        states = fused_next[index]
        miss_rows = (~hit).nonzero()[0]
        if miss_rows.size:
            tags[miss_rows, fused_way[index[miss_rows]]] = blocks[miss_rows]
            filled = filled + (~hit & (filled < ways))
        hits_grid[rows, d] = hit
        executed_hits += int(np.count_nonzero(hit))
        rows_prev, states_prev, tags_prev, filled_prev = rows, states, tags, filled
    # A row's shared-prefix outcomes are its trie ancestors': cell
    # (row, d) takes the value computed at the last row <= it that
    # *created* the node at depth d (rows own the cells they created;
    # row 0 created its whole sequence, so every valid cell has a
    # creator).  A running maximum over creator row ids turns the whole
    # propagation into one accumulate plus one gather.
    row_ids = np.arange(count)
    creator = np.where(created, row_ids[:, None], 0)
    np.maximum.accumulate(creator, axis=0, out=creator)
    hits_grid = hits_grid[creator, depth_grid[None, :]]
    cum = np.cumsum(~hits_grid & valid, axis=1)
    answers: list = [None] * count
    if want_outcomes:
        for position in range(count):
            index = order[position]
            split = splits[index]
            answers[index] = hits_grid[position, split : int(lengths[position])].tolist()
        return answers, executed_hits
    splits_sorted = np.fromiter(
        (splits[order[position]] for position in range(count)),
        dtype=np.int64,
        count=count,
    )
    total_m = np.where(lengths > 0, cum[row_ids, np.maximum(lengths - 1, 0)], 0)
    setup_m = np.where(
        splits_sorted > 0, cum[row_ids, np.maximum(splits_sorted - 1, 0)], 0
    )
    counts_sorted = (total_m - setup_m).tolist()
    for position in range(count):
        answers[order[position]] = int(counts_sorted[position])
    return answers, executed_hits
