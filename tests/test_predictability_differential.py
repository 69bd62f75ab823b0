"""The table solver of E5 against the adversarial search it replaced.

The reference below is the recursive longest-path search over cloned
policy objects that ``repro.eval.predictability`` used before it ran on
compiled full-set tables: memoized DFS, a position on the current path
means the adversary can cycle forever (unbounded, ``None``).  It is kept
here only as an independent oracle.  The table solver must give the same
evict and collapse on every deterministic registered policy the search
can finish, with numpy and on its list path.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.errors import ConfigurationError
from repro.eval import predictability
from repro.eval.predictability import (
    collapse_depth_policy,
    evict_metric_policy,
    evict_metric_spec,
    reachable_full_states,
)
from repro.kernels import clear_compile_cache, compile_policy, store
from repro.kernels.automaton import compiled_for
from repro.policies import (
    FifoPolicy,
    LruPolicy,
    PermutationSpec,
    ReplacementPolicy,
    available_policies,
    fifo_spec,
    get,
    lru_spec,
)
from repro.policies.permutation import apply_permutation

OLD, NEW = "O", "N"


class _Unbounded(Exception):
    pass


def _search(initial_states, moves_of) -> int | None:
    """Longest adversary-controlled path until no old blocks remain."""
    values: dict = {}
    on_path = object()

    def value(state) -> int:
        known = values.get(state)
        if known is on_path:
            raise _Unbounded
        if known is not None:
            return known
        successors = list(moves_of(state))
        if not successors:
            values[state] = 0
            return 0
        values[state] = on_path
        best = 1 + max(value(next_state) for next_state in successors)
        values[state] = best
        return best

    try:
        return max(value(state) for state in initial_states)
    except _Unbounded:
        return None


def _full_states(policy) -> list:
    """Reachable full-set states as policy clones (cold fill, then close)."""
    start = policy.clone()
    start.reset()
    for way in range(policy.ways):
        start.fill(way)
    frontier, seen, states = [start], {start.state_key()}, [start]
    while frontier:
        current = frontier.pop()
        successors = []
        for way in range(policy.ways):
            touched = current.clone()
            touched.touch(way)
            successors.append(touched)
        missed = current.clone()
        missed.fill(missed.evict())
        successors.append(missed)
        for successor in successors:
            if successor.state_key() not in seen:
                seen.add(successor.state_key())
                states.append(successor)
                frontier.append(successor)
    return states


def _reference_evict(policy) -> int | None:
    ways = policy.ways
    prototypes = {state.state_key(): state for state in _full_states(policy)}

    def register(policy_state, labels):
        prototypes.setdefault(policy_state.state_key(), policy_state)
        return policy_state.state_key(), labels

    def moves_of(state):
        key, labels = state
        if OLD not in labels:
            return
        missed = prototypes[key].clone()
        victim = missed.evict()
        missed.fill(victim)
        miss_labels = list(labels)
        miss_labels[victim] = NEW
        yield register(missed, tuple(miss_labels))
        for way, label in enumerate(labels):
            if label == OLD:
                claimed = prototypes[key].clone()
                claimed.touch(way)
                hit_labels = list(labels)
                hit_labels[way] = NEW
                yield register(claimed, tuple(hit_labels))

    initial = [(key, (OLD,) * ways) for key in list(prototypes)]
    return _search(initial, moves_of)


def _reference_collapse(policy, horizon_factor: int = 4) -> int | None:
    ways = policy.ways
    current = [(state.clone(), ()) for state in _full_states(policy)]
    for step in range(1, horizon_factor * ways + 1):
        advanced = []
        for state, fills in current:
            victim = state.evict()
            state.fill(victim)
            advanced.append((state, (fills + (victim,))[-ways:]))
        current = advanced
        if len({(state.state_key(), fills) for state, fills in current}) == 1 and step >= ways:
            return step
    return None


def _reference_evict_spec(spec: PermutationSpec) -> int | None:
    ways = spec.ways

    def moves_of(labels):
        if OLD not in labels:
            return
        relocated = list(labels)
        relocated[ways - 1] = NEW
        yield tuple(apply_permutation(relocated, spec.miss_perm))
        for position, label in enumerate(labels):
            if label == OLD:
                claimed = list(labels)
                claimed[position] = NEW
                yield tuple(apply_permutation(claimed, spec.hit_perms[position]))

    return _search([(OLD,) * ways], moves_of)


@functools.cache
def reference(name: str, ways: int) -> tuple[int, int | None, int | None]:
    """(full-set states, evict, collapse) by the clone-based search."""
    policy = get(name, ways)
    return len(_full_states(policy)), _reference_evict(policy), _reference_collapse(policy)


def _cells() -> list[tuple[str, int]]:
    cells = []
    for name in available_policies():
        if name == "permutation":
            continue
        for ways in (2, 3, 4, 5):
            try:
                policy = get(name, ways)
            except ConfigurationError:
                continue  # tree PLRU needs power-of-two ways
            if policy.DETERMINISTIC:
                cells.append((name, ways))
    return cells + [("srrip", 6), ("qlru_h00_m1", 6)]


CELLS = _cells()


class _SaturatingPointer(ReplacementPolicy):
    """Evicts the way it points at; a hit points at the hit way, a fill
    one way further, saturating at the last.  Its misses drive every
    state to the last way, so its collapse (2A - 1) is bounded."""

    NAME = "saturating-pointer"

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self.pointer = 0

    def touch(self, way: int) -> None:
        self.pointer = way

    def evict(self) -> int:
        return self.pointer

    def fill(self, way: int) -> None:
        self.pointer = min(way + 1, self.ways - 1)

    def reset(self) -> None:
        self.pointer = 0

    def state_key(self):
        return self.pointer

    def clone(self) -> "_SaturatingPointer":
        copy = _SaturatingPointer(self.ways)
        copy.pointer = self.pointer
        return copy


def _random_specs(count: int, seed: int) -> list[PermutationSpec]:
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        ways = rng.randint(1, 6)

        def perm():
            order = list(range(ways))
            rng.shuffle(order)
            return tuple(order)

        specs.append(PermutationSpec(ways, tuple(perm() for _ in range(ways)), perm()))
    return specs


class TestTableSolverMatchesSearch:
    @pytest.mark.parametrize("name,ways", CELLS, ids=[f"{n}-{w}" for n, w in CELLS])
    def test_evict_and_collapse(self, name, ways):
        states, evict, collapse = reference(name, ways)
        tables = reachable_full_states(get(name, ways))
        assert len(tables) == states
        assert evict_metric_policy(tables) == evict
        assert collapse_depth_policy(tables) == collapse

    def test_policy_entry_points_build_their_own_tables(self):
        policy = get("srrip", 4)
        _states, evict, collapse = reference("srrip", 4)
        assert evict_metric_policy(policy) == evict == 12
        assert collapse_depth_policy(policy) == collapse

    @pytest.mark.parametrize("ways", [2, 3, 5])
    def test_bounded_collapse(self, ways):
        policy = _SaturatingPointer(ways)
        assert _reference_collapse(policy) == collapse_depth_policy(policy) == 2 * ways - 1
        assert _reference_evict(policy) == evict_metric_policy(policy)

    def test_lip_miss_cycle_is_unbounded(self):
        # LIP's miss leaves its state unchanged: once the victim way holds
        # a new line, the in-layer miss loops forever.
        assert _reference_evict(get("lip", 4)) is None
        assert evict_metric_policy(get("lip", 4)) is None

    @pytest.mark.parametrize("ways", [2, 3, 4, 6])
    def test_lru_and_fifo_policy_path_match_spec(self, ways):
        assert evict_metric_policy(LruPolicy(ways)) == evict_metric_spec(lru_spec(ways)) == ways
        assert (
            evict_metric_policy(FifoPolicy(ways))
            == evict_metric_spec(fifo_spec(ways))
            == 2 * ways - 1
        )

    def test_spec_solver_matches_search(self):
        for spec in _random_specs(150, seed=5):
            assert evict_metric_spec(spec) == _reference_evict_spec(spec), spec

    def test_store_loaded_automaton(self):
        key = store.factory_key("srrip", (), 4)
        assert store.save(key, compile_policy(get("srrip", 4)))
        clear_compile_cache()
        try:
            policy = get("srrip", 4)
            assert compiled_for(policy).frozen
            _states, evict, collapse = reference("srrip", 4)
            assert evict_metric_policy(policy) == evict
            assert collapse_depth_policy(policy) == collapse
        finally:
            clear_compile_cache()

    def test_budget_enforced(self):
        with pytest.raises(ConfigurationError):
            reachable_full_states(LruPolicy(8), max_states=10)
        with pytest.raises(ConfigurationError):
            evict_metric_policy(LruPolicy(4), max_states=24 * 16 - 1)
        with pytest.raises(ConfigurationError):
            evict_metric_spec(lru_spec(8), max_states=8)  # 9 reachable masks


class TestTableSolverWithoutNumpy(TestTableSolverMatchesSearch):
    """The same checks on the list path the solver takes without numpy."""

    @pytest.fixture(autouse=True)
    def _without_numpy(self, monkeypatch):
        monkeypatch.setattr(predictability, "_np", None)
