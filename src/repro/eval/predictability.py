"""Predictability metrics of replacement policies.

The second half of the paper's evaluation asks how *analysable* the
reverse-engineered policies are for worst-case execution time analysis,
using the metrics of Reineke et al.:

* **evict** — the smallest number of accesses to pairwise distinct
  blocks after which the cache is *guaranteed* to contain only blocks
  from the accessed sequence, no matter the initial state and no matter
  which of the accessed blocks happened to be cached already (an old
  block that one of the accesses aliases becomes part of the known
  contents).  Small evict = fast "may" information for WCET analysis.
* **fill** — the smallest number of such accesses after which the cache
  state is *completely known*.  We compute it as ``evict + collapse``,
  where ``collapse`` is how many further guaranteed misses force every
  possible policy state into the same state (exactly A for standard-miss
  permutation policies, whose miss behaviour is a forced shift).

evict is the value of an adversarial game: the analyst picks the number
of accesses, an adversary picks the initial state and which accesses
alias still-cached old blocks (each old block can be claimed at most
once because accesses are pairwise distinct).  The game is solved
exactly by backward induction over *layers*, layer ``k`` holding the
positions with ``k`` old-labelled ways.  A hit on an old way, or a miss
that evicts one, drops to the already solved layer ``k - 1``; the only
move that stays inside a layer is the miss that evicts a new line, which
leaves the labels alone, so within a layer the game is the functional
graph of that one miss.  A chain of such misses that never leaves the
layer is a cycle that keeps old blocks alive forever: the metric is
unbounded (reported as ``None``), the correct verdict for random
replacement and for LIP, whose miss never changes its state.

Permutation specs play the game in position space (:func:`evict_metric_spec`).
Every other deterministic policy plays it on its compiled automaton
(:func:`repro.kernels.automaton.compiled_for`): :func:`reachable_full_states`
closes the automaton's full-set states under hits and misses into dense
tables, so a store-loaded automaton serves E5 as well as a fresh one,
and :func:`evict_metric_policy` / :func:`collapse_depth_policy` run on
those tables — vectorized with numpy when it is importable, on plain
lists otherwise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError, KernelUnsupported
from repro.kernels.automaton import compiled_for
from repro.policies import PermutationSpec, ReplacementPolicy

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None

#: Value of a game position from which the adversary can stall forever.
#: Above any finite value (a play visits each game position at most
#: once) and far below the int32 limit, so sums stay exact.
_UNBOUNDED = 1 << 30


def _layers(ways: int) -> list[list[int]]:
    """Label masks grouped by popcount: ``_layers(w)[k]`` has ``k`` old ways."""
    layers: list[list[int]] = [[] for _ in range(ways + 1)]
    for mask in range(1 << ways):
        layers[mask.bit_count()].append(mask)
    return layers


def _chain_values(base: list[int], succ: list[int]) -> list[int]:
    """Solve one layer's functional graph on lists.

    ``value[c] = max(base[c], 1 + value[succ[c]])`` where ``succ[c]`` is
    the in-layer successor of position ``c`` or -1 when every move
    leaves the layer.  A chain that runs into a cycle never leaves, so
    every position on it is unbounded.
    """
    value = list(base)
    mark = [0] * len(base)  # 0 unseen, 1 on the current chain, 2 solved
    for start in range(len(base)):
        chain = []
        node = start
        while node >= 0 and not mark[node]:
            mark[node] = 1
            chain.append(node)
            node = succ[node]
        if node < 0:
            tail = -_UNBOUNDED
        elif mark[node] == 1:
            tail = _UNBOUNDED  # the chain closed on itself
        else:
            tail = value[node]
        for node in reversed(chain):
            tail = min(max(value[node], tail + 1), _UNBOUNDED)
            value[node] = tail
            mark[node] = 2
    return value


def evict_metric_spec(spec: PermutationSpec, max_states: int = 300_000) -> int | None:
    """Exact evict metric of a permutation policy.

    Positions abstract away the ways, so a game position is just the
    mask of positions holding old blocks and there is a single initial
    position: every position old.  Only the masks reachable from it are
    solved (``max_states`` bounds them), so LRU-like specs stay cheap at
    any associativity.
    """
    ways = spec.ways
    last = 1 << (ways - 1)

    def moved(mask: int, perm) -> int:
        result = 0
        while mask:
            low = mask & -mask
            result |= 1 << perm[low.bit_length() - 1]
            mask ^= low
        return result

    # moves[mask] = (masks one layer down, in-layer successor or None)
    moves: dict[int, tuple[list[int], int | None]] = {}
    pending = [(1 << ways) - 1]
    while pending:
        mask = pending.pop()
        if mask in moves:
            continue
        if len(moves) >= max_states:
            raise ConfigurationError(
                f"predictability search exceeded {max_states} states"
            )
        # A hit claiming any still-unknown old block.
        exits = [moved(mask & ~(1 << p), spec.hit_perms[p]) for p in range(ways) if mask >> p & 1]
        # A miss: the last position's label leaves, the rest relocate.
        shifted = moved(mask & ~last, spec.miss_perm)
        stay = None
        if mask & last:
            exits.append(shifted)
        elif mask:
            stay = shifted
        moves[mask] = (exits, stay)
        pending.extend(exits)
        if stay is not None:
            pending.append(stay)

    value: dict[int, int] = {}
    for k in range(ways + 1):
        masks = [mask for mask in moves if mask.bit_count() == k]
        if k == 0:
            value.update((mask, 0) for mask in masks)
            continue
        index = {mask: i for i, mask in enumerate(masks)}
        base, succ = [], []
        for mask in masks:
            exits, stay = moves[mask]
            base.append(1 + max(value[target] for target in exits))
            succ.append(-1 if stay is None else index[stay])
        value.update(zip(masks, _chain_values(base, succ)))
    top = value[(1 << ways) - 1]
    return None if top >= _UNBOUNDED else top


@dataclass(frozen=True, eq=False)
class FullSetTables:
    """A policy's full-set automaton as dense transition tables.

    States are renumbered densely from 0, the state after the cold fill
    of ways 0..A-1 in ascending order (matching
    :class:`~repro.cache.set.CacheSet`).  ``hit[s * ways + w]`` is the
    state after a hit on way ``w``; a miss evicts ``victim[s]`` and
    leaves the set in ``next[s]``.
    """

    ways: int
    hit: list[int]
    victim: list[int]
    next: list[int]

    def __len__(self) -> int:
        return len(self.victim)


def reachable_full_states(
    policy: ReplacementPolicy, max_states: int = 100_000
) -> FullSetTables:
    """The policy states reachable once the set has filled up, as tables.

    Reads the policy's compiled automaton, expanding any transition it
    has not interned yet, and closes the cold-filled state under hits on
    any way and misses.  Raises :class:`~repro.errors.ConfigurationError`
    when more than ``max_states`` states are reachable, when the
    automaton outgrows the kernel's own state budget, or when the policy
    has no automaton (randomized policies).
    """
    compiled = compiled_for(policy)
    if compiled is None:
        raise ConfigurationError(
            f"policy {type(policy).__name__} has no compiled automaton"
        )
    ways = compiled.ways
    hit_next = compiled.hit_next
    fill_next = compiled.fill_next
    miss_victim = compiled.miss_victim
    miss_next = compiled.miss_next
    hit: list[int] = []
    victim: list[int] = []
    nxt: list[int] = []
    try:
        start = 0
        for way in range(ways):
            target = fill_next[start * ways + way]
            start = target if target >= 0 else compiled.expand_fill(start, way)
        dense = {start: 0}
        order = [start]
        for source in order:  # grows as new states are discovered
            hits = [
                target if target >= 0 else compiled.expand_hit(source, way)
                for way, target in enumerate(hit_next[source * ways : (source + 1) * ways])
            ]
            if miss_victim[source] < 0:
                compiled.expand_miss(source)
            for target in (*hits, miss_next[source]):
                if target not in dense:
                    dense[target] = len(order)
                    order.append(target)
            if len(order) > max_states:
                raise ConfigurationError(
                    f"policy has more than {max_states} reachable states"
                )
            hit.extend(dense[target] for target in hits)
            victim.append(miss_victim[source])
            nxt.append(dense[miss_next[source]])
    except KernelUnsupported as exc:
        raise ConfigurationError(str(exc)) from exc
    return FullSetTables(ways, hit, victim, nxt)


def _full_set_tables(policy: ReplacementPolicy | FullSetTables) -> FullSetTables | None:
    """Tables passed in as they are, built for a deterministic policy,
    or None for a randomized one."""
    if isinstance(policy, FullSetTables):
        return policy
    if not policy.DETERMINISTIC:
        return None
    return reachable_full_states(policy)


def evict_metric_policy(
    policy: ReplacementPolicy | FullSetTables, max_states: int = 1 << 25
) -> int | None:
    """Exact evict metric of an arbitrary deterministic policy.

    A game position pairs a full-set state with the mask of ways still
    holding old blocks; the adversary additionally chooses the initial
    state among all reachable full-set states.  Accepts the policy or
    its :func:`reachable_full_states` tables.  ``max_states`` bounds the
    game positions (states × 2^A masks) the solver may hold.
    """
    tables = _full_set_tables(policy)
    if tables is None:
        return None  # e.g. random replacement: eviction can never be forced
    positions = len(tables) << tables.ways
    # A finite value is below the position count; keep it below _UNBOUNDED.
    if positions > min(max_states, _UNBOUNDED):
        raise ConfigurationError(
            f"predictability game has {positions} positions, over {max_states}"
        )
    solve = _evict_on_arrays if _np is not None else _evict_on_lists
    top = solve(tables)
    return None if top >= _UNBOUNDED else top


def _evict_on_lists(tables: FullSetTables) -> int:
    """Layered backward induction, one label mask at a time."""
    ways, hit, victim, nxt = tables.ways, tables.hit, tables.victim, tables.next
    states = range(len(tables))
    solved = {0: [0] * len(tables)}  # layer 0: no old block left
    for masks in _layers(ways)[1:]:
        layer = {}
        for mask in masks:
            olds = [way for way in range(ways) if mask >> way & 1]
            below = [(way, solved[mask ^ (1 << way)]) for way in olds]
            base, succ = [], []
            for state in states:
                row = state * ways
                best = max(values[hit[row + way]] for way, values in below)
                way = victim[state]
                if mask >> way & 1:
                    best = max(best, solved[mask ^ (1 << way)][nxt[state]])
                    succ.append(-1)
                else:
                    succ.append(nxt[state])
                base.append(best + 1)
            layer[mask] = _chain_values(base, succ)
        solved = layer
    return max(solved[(1 << ways) - 1])


def _miss_graph(nxt: list[int]) -> tuple[list[int], list[list[int]]]:
    """Split the miss graph ``s -> nxt[s]`` into cycles and the trees on them.

    Returns ``(cycle, levels)``: ``cycle`` holds the states on a cycle of
    misses, ``levels[d - 1]`` the states ``d`` misses away from one.
    Every state's successor comes in an earlier level or on a cycle, so
    solving the levels in order sees each successor solved.
    """
    indegree = [0] * len(nxt)
    for target in nxt:
        indegree[target] += 1
    peeled = [state for state, count in enumerate(indegree) if count == 0]
    for state in peeled:  # grows as the peeling frees successors
        target = nxt[state]
        indegree[target] -= 1
        if indegree[target] == 0:
            peeled.append(target)
    depth = [0] * len(nxt)
    levels: list[list[int]] = []
    for state in reversed(peeled):
        depth[state] = depth[nxt[state]] + 1
        if depth[state] > len(levels):
            levels.append([])
        levels[depth[state] - 1].append(state)
    cycle = [state for state, count in enumerate(indegree) if count > 0]
    return cycle, levels


def _evict_on_arrays(tables: FullSetTables) -> int:
    """Layered backward induction, every mask of a layer at once.

    A layer's values form a ``(masks, n)`` int32 array.  Exits to the
    layer below are gathers through the hit and miss tables; the
    in-layer miss chains are solved level by level down the trees of the
    miss graph, and on its cycles by pointer doubling.
    """
    np = _np
    ways = tables.ways
    n = len(tables)
    hit = np.array(tables.hit, dtype=np.intp).reshape(n, ways).T.copy()
    victim = np.array(tables.victim, dtype=np.intp)
    nxt = np.array(tables.next, dtype=np.intp)
    evicts = [np.flatnonzero(victim == way) for way in range(ways)]
    evicts_next = [nxt[rows] for rows in evicts]
    cycle, levels = _miss_graph(tables.next)
    levels = [(np.array(level), nxt[level]) for level in levels]
    cycle = np.array(cycle, dtype=np.intp)
    # Cycle states renumbered 0..len(cycle)-1 for the doubling.
    position = np.zeros(n, dtype=np.intp)
    position[cycle] = np.arange(len(cycle))
    cycle_next = position[nxt[cycle]]

    solved = {0: np.zeros(n, dtype=np.int32)}  # layer 0: no old block left
    for masks in _layers(ways)[1:]:
        value = np.zeros((len(masks), n), dtype=np.int32)
        for row, mask in zip(value, masks):
            for way in range(ways):
                if mask >> way & 1:
                    below = solved[mask ^ (1 << way)]
                    # A hit on the old line in `way` ...
                    np.maximum(row, below[hit[way]], out=row)
                    # ... or a miss that evicts it.
                    rows = evicts[way]
                    row[rows] = np.maximum(row[rows], below[evicts_next[way]])
        value += 1
        holds_old = ((np.array(masks)[:, None] >> np.arange(ways)) & 1).astype(bool)
        stop = holds_old[:, victim]  # the miss evicts an old line
        # Every miss graph has a cycle: its states are finitely many.
        value[:, cycle] = _cycle_values(value[:, cycle], stop[:, cycle], cycle_next)
        for level, level_next in levels:
            here = value[:, level]
            chained = np.maximum(here, value[:, level_next] + 1)
            value[:, level] = np.where(stop[:, level], here, chained)
        np.minimum(value, _UNBOUNDED, out=value)
        solved = dict(zip(masks, value))
    return int(solved[(1 << ways) - 1].max())


def _cycle_values(base, stop, succ):
    """Chain values on the miss graph's cycles by pointer doubling.

    ``base`` and ``stop`` are ``(masks, cycle states)``; ``succ`` maps a
    cycle state to the next one.  After round ``r``, ``best`` is the
    chain value over the first ``2^r`` states of each chain and ``hop``
    the state ``2^r`` misses on, or the sink once the chain has left the
    layer.  No cycle is longer than the cycle states are many, so a
    chain still on one after that many misses never leaves it: unbounded.
    """
    np = _np
    width, sink = base.shape
    hop = np.where(stop, sink, succ[None, :])
    best = base
    span = 1
    while span < sink:
        padded = np.hstack([best, np.full((width, 1), -_UNBOUNDED, dtype=best.dtype)])
        best = np.maximum(best, np.take_along_axis(padded, hop, axis=1) + span)
        hop = np.take_along_axis(np.hstack([hop, np.full((width, 1), sink)]), hop, axis=1)
        span *= 2
    return np.where(hop == sink, best, _UNBOUNDED)


def collapse_depth_spec(spec: PermutationSpec) -> int:
    """Misses needed to force a known state for a permutation policy.

    For the standard miss permutation this is exactly A: every miss
    inserts at a fixed position and shifts deterministically, so A
    consecutive guaranteed misses determine the position of every block.
    General miss permutations converge once every position has been
    visited by an insertion, bounded by A * A (or never, for
    non-thrashable miss permutations).
    """
    ways = spec.ways
    position = spec.insertion_position
    visited = {position}
    for step in range(1, ways * ways + 1):
        position = spec.miss_perm[position]
        visited.add(position)
        if len(visited) == ways:
            return step + 1
    return ways  # standard-miss specs exit through the loop; keep a floor


def collapse_depth_policy(
    policy: ReplacementPolicy | FullSetTables, horizon_factor: int = 4
) -> int | None:
    """Misses after which all reachable policy states coincide.

    Walks ``m`` consecutive misses from every reachable full-set state
    at once and finds the smallest ``m`` (at least ``ways``, at most
    ``horizon_factor * ways``) where both the states and the ways the
    last ``ways`` misses filled agree; returns None if never.  Accepts
    the policy or its :func:`reachable_full_states` tables.
    """
    tables = _full_set_tables(policy)
    if tables is None:
        return None
    ways = tables.ways
    if _np is not None:
        victim, nxt = _np.array(tables.victim), _np.array(tables.next)
        current = _np.arange(len(tables))

        def step_from(states):
            return victim[states], nxt[states]

        def agree(values) -> bool:
            return bool((values == values[0]).all())
    else:
        victim, nxt = tables.victim, tables.next
        current = list(range(len(tables)))

        def step_from(states):
            return [victim[s] for s in states], [nxt[s] for s in states]

        def agree(values) -> bool:
            return len(set(values)) == 1

    fills: deque = deque(maxlen=ways)
    for step in range(1, horizon_factor * ways + 1):
        filled, current = step_from(current)
        fills.append(filled)
        if step >= ways and agree(current) and all(agree(way) for way in fills):
            return step
    return None


@dataclass(frozen=True)
class PredictabilityResult:
    """The predictability metrics of one policy.

    ``evict``/``fill`` are None when the metric is unbounded (note
    "unbounded"), when the policy is randomized (note "randomized"), or
    when the exact game was too large (note "state budget exceeded").
    """

    policy: str
    ways: int
    evict: int | None
    fill: int | None
    note: str = ""

    @staticmethod
    def na(policy: str, ways: int, note: str = "randomized") -> "PredictabilityResult":
        """A not-analysable result (e.g. random replacement)."""
        return PredictabilityResult(policy=policy, ways=ways, evict=None, fill=None, note=note)


def predictability_of_spec(name: str, spec: PermutationSpec) -> PredictabilityResult:
    """evict/fill for a permutation policy given by its spec."""
    evict = evict_metric_spec(spec)
    fill = None if evict is None else evict + collapse_depth_spec(spec)
    note = "unbounded" if evict is None else ""
    return PredictabilityResult(policy=name, ways=spec.ways, evict=evict, fill=fill, note=note)


def predictability_of_policy(name: str, policy: ReplacementPolicy) -> PredictabilityResult:
    """evict/fill for an arbitrary deterministic policy implementation.

    Permutation policies are analysed through their derived spec, whose
    abstract positions factor out way symmetry (a way-labeled collapse
    check would wrongly report unbounded fill for LRU: the block-to-way
    assignment stays unknown, but the observable state does collapse).
    Other policies are analysed in way space, where their victim choice
    genuinely depends on way indices.
    """
    if not policy.DETERMINISTIC:
        return PredictabilityResult.na(name, policy.ways)
    from repro.core.permutation import derive_spec_from_policy

    spec = derive_spec_from_policy(policy)
    if spec is not None:
        return predictability_of_spec(name, spec)
    try:
        tables = reachable_full_states(policy)
        evict = evict_metric_policy(tables)
        collapse = collapse_depth_policy(tables)
    except ConfigurationError:
        return PredictabilityResult.na(name, policy.ways, note="state budget exceeded")
    fill = None if evict is None or collapse is None else evict + collapse
    note = ""
    if evict is None:
        note = "unbounded"
    elif fill is None:
        note = "fill unbounded"
    return PredictabilityResult(policy=name, ways=policy.ways, evict=evict, fill=fill, note=note)
