"""Eager automaton closure is paid for by the accesses run on it.

The vector engines need a complete automaton, but closing one costs a
clone per transition (685k of them for 8-way LRU).  ``ensure_tables``
therefore closes at most as many BFS transitions as the call executes
accesses, resuming from :meth:`CompiledPolicy.expand_all`'s cursor, and
the call runs on the scalar lazy engine until the closure is done.
These tests pin that routing:

* a verification-shaped batch on a fresh 8-way automaton stays lazy and
  answers like the interpreter;
* a whole trace longer than its automaton still runs lock-step on the
  first call, a shorter one defers;
* repeated small batches finish the closure, never expanding more
  transitions than they executed accesses, and then run vectorized;
* reverse engineering 8-way LRU interns a few thousand states, not 8!.
"""

import random

import pytest

from repro.cache import Cache, CacheConfig
from repro.core import SimulatedSetOracle, reverse_engineer
from repro.kernels import (
    automaton,
    clear_compile_cache,
    compile_policy,
    compiled_for,
    count_misses_batch,
    kernel_disabled,
    try_simulate_trace,
    vector,
)
from repro.kernels import engine as kernel_engine
from repro.kernels.automaton import CompiledPolicy
from repro.obs import metrics as obs_metrics
from repro.policies import LruPolicy, PolicyFactory, get
from repro.workloads.trace import Trace

numpy_only = pytest.mark.skipif(
    not vector.available(), reason="numpy not installed"
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_compile_cache()
    obs_metrics.DEFAULT.reset()
    yield
    clear_compile_cache()


def _counter(name):
    return obs_metrics.DEFAULT.counter(name)


def _transitions(compiled):
    """Number of expanded transitions (a miss is one: victim + next)."""
    return sum(
        sum(1 for entry in table if entry >= 0)
        for table in (compiled.hit_next, compiled.fill_next, compiled.miss_victim)
    )


@pytest.fixture
def eager_transitions(monkeypatch):
    """Record how many transitions each ``expand_all`` call closes."""
    closed: list[int] = []
    original = CompiledPolicy.expand_all

    def recording(self, limit=None):
        before = _transitions(self)
        try:
            return original(self, limit)
        finally:
            closed.append(_transitions(self) - before)

    monkeypatch.setattr(CompiledPolicy, "expand_all", recording)
    return closed


# -- expand_all(limit) -------------------------------------------------------

def test_bounded_closure_resumes_to_the_same_automaton():
    """Closing in bounded steps yields the one-shot BFS tables exactly."""
    whole = compile_policy(LruPolicy(5))
    whole.expand_all()
    stepped = compile_policy(LruPolicy(5))
    assert stepped.expand_all(0) == 1 and not stepped.is_complete()
    steps = 0
    while not stepped.is_complete():
        before = _transitions(stepped)
        stepped.expand_all(37)
        assert _transitions(stepped) - before <= 37
        steps += 1
        assert steps <= 120 * (2 * 5 + 1) // 37 + 1, "the closure stopped progressing"
    assert steps > 1
    assert stepped.num_states == whole.num_states == 120
    assert stepped.to_tables() == whole.to_tables()
    assert stepped.expand_all(5) == 120  # complete: nothing left to close


def test_unbounded_closure_finishes_a_partly_lazy_automaton():
    """Lazily expanded transitions are skipped, never re-expanded."""
    compiled = compile_policy(LruPolicy(4))
    kernel_engine._run_batch(compiled, [([0, 1, 2, 3], [4, 0, 5])])
    assert not compiled.is_complete()
    assert compiled.expand_all() == 24
    assert compiled.is_complete()
    assert _transitions(compiled) == 24 * (2 * 4 + 1)


# -- routing -----------------------------------------------------------------

def _verification_batch(ways, seed=0):
    """30 queries of 84 accesses: one shared setup, 60 random probe accesses."""
    rng = random.Random(seed)
    setup = list(range(3 * ways))
    queries = []
    for _ in range(30):
        probe = []
        fresh = 1_000
        for _ in range(60):
            if rng.random() < 0.35:
                probe.append(fresh)
                fresh += 1
            else:
                probe.append(rng.choice(setup[-ways:] + probe[-ways:]))
        queries.append((setup, probe))
    return queries


@numpy_only
def test_verification_batch_stays_lazy(eager_transitions):
    """A 2,520-access batch does not close 8-way LRU's 40,320 states."""
    policy = get("lru", 8)
    queries = _verification_batch(8)
    work = sum(len(setup) + len(probe) for setup, probe in queries)
    assert work == 2_520
    with kernel_disabled():
        expected = count_misses_batch(get("lru", 8), queries)
    assert count_misses_batch(policy, queries) == expected
    compiled = compiled_for(policy)
    assert compiled.num_states < 10_000
    assert not compiled.is_complete()
    assert sum(eager_transitions) <= work
    assert _counter("kernel.vector.deferred") == 1
    assert _counter("kernel.vector.fallbacks") == 0
    assert _counter("kernel.trie.plans") == 1


def _random_trace(lines, length, seed):
    rng = random.Random(seed)
    return Trace(f"rand-{seed}", tuple(rng.randrange(lines) * 64 for _ in range(length)))


def _interpreted(trace, config, policy):
    cache = Cache(config, PolicyFactory(policy))
    for address in trace:
        cache.access(address)
    return cache.stats


@numpy_only
def test_trace_longer_than_its_automaton_runs_lockstep():
    config = CacheConfig("t", 64 * 6 * 64, 6)  # 64 sets: enough lanes
    assert config.num_sets >= vector.MIN_TRACE_LANES
    trace = _random_trace(lines=2 * 64 * 6, length=12_000, seed=1)
    stats = try_simulate_trace(trace, config, "lru")
    assert _counter("kernel.vector.calls") == 1
    assert "kernel.vector.deferred" not in obs_metrics.DEFAULT.snapshot()["counters"]
    compiled = automaton.compiled_for_factory("lru", (), 6)
    assert compiled.is_complete()
    assert len(trace) > compiled.num_states * (2 * 6 + 1)  # the premise
    assert stats == _interpreted(trace, config, "lru")


@numpy_only
def test_trace_shorter_than_its_automaton_defers():
    config = CacheConfig("t", 64 * 6 * 64, 6)
    trace = _random_trace(lines=2 * 64 * 6, length=2_000, seed=2)
    stats = try_simulate_trace(trace, config, "lru")
    assert "kernel.vector.calls" not in obs_metrics.DEFAULT.snapshot()["counters"]
    assert _counter("kernel.vector.deferred") == 1
    assert _counter("kernel.calls.trace") == 1
    assert stats == _interpreted(trace, config, "lru")


@numpy_only
def test_repeated_batches_finish_the_closure(eager_transitions):
    """Small batches pay the closure off in instalments, then vectorize."""
    ways = 6
    compiled = compile_policy(LruPolicy(ways))
    rng = random.Random(3)
    work_done = 0
    deferred_calls = 0
    for _ in range(200):
        # 64 lanes (the vector engine's minimum) with distinct first
        # blocks, so the trie planner finds no sharing and declines.
        queries = [
            ([], [10_000 + lane] + [rng.randrange(2 * ways) for _ in range(7)])
            for lane in range(vector.MIN_LANES)
        ]
        with kernel_disabled():
            expected = count_misses_batch(LruPolicy(ways), queries)
        vector_calls = _counter("kernel.vector.calls")
        assert kernel_engine.batch_miss_counts(compiled, queries) == expected
        work_done += sum(len(setup) + len(probe) for setup, probe in queries)
        assert sum(eager_transitions) <= work_done
        if _counter("kernel.vector.calls") > vector_calls:
            break
        deferred_calls += 1
        assert _counter("kernel.vector.deferred") == deferred_calls
    else:
        pytest.fail("the vector engine never engaged")
    assert deferred_calls > 1
    assert compiled.is_complete()
    assert compiled.num_states == 720
    assert _counter("kernel.vector.fallbacks") == 0


@numpy_only
def test_reverse_engineering_lru_interns_few_states(monkeypatch):
    compiled: list[CompiledPolicy] = []
    original = automaton.compile_policy

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        compiled.append(result)
        return result

    monkeypatch.setattr(automaton, "compile_policy", recording)
    finding = reverse_engineer(SimulatedSetOracle(get("lru", 8)))
    assert finding.policy_name == "lru"
    assert compiled
    assert sum(each.num_states for each in compiled) < 10_000
    assert _counter("kernel.vector.deferred") >= 1
