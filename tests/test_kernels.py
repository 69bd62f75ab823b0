"""Unit tests for the compiled policy-automaton kernel (repro.kernels)."""

import pytest

from repro.cache import Cache, CacheConfig
from repro.cache.set import CacheSet
from repro.core import SimulatedSetOracle
from repro.errors import KernelUnsupported, SimulationError
from repro.kernels import (
    DEFAULT_BUDGET,
    clear_compile_cache,
    compile_policy,
    compiled_for,
    compiled_for_factory,
    compiled_for_spec,
    count_misses_batch,
    kernel_allowed,
    kernel_disabled,
    kernel_enabled,
    mark_factory_unsupported,
    mark_spec_unsupported,
    mark_unsupported,
    sequence_hits_batch,
    set_kernel_enabled,
    try_simulate_trace,
)
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.policies import (
    LruPolicy,
    PermutationPolicy,
    RandomPolicy,
    lru_spec,
    make_policy,
)
from repro.util.rng import SeededRng
from repro.workloads.trace import Trace


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Compilation caches are process-global; isolate every test."""
    clear_compile_cache()
    yield
    clear_compile_cache()


class TestCompilePolicy:
    def test_compile_from_instance(self):
        compiled = compile_policy(LruPolicy(4))
        assert compiled.ways == 4
        assert compiled.num_states == 1  # lazy: only the reset state so far

    def test_compile_from_name(self):
        assert compile_policy("fifo", 4).ways == 4

    def test_compile_from_name_needs_ways(self):
        with pytest.raises(KernelUnsupported):
            compile_policy("lru")

    def test_compile_from_spec(self):
        compiled = compile_policy(lru_spec(4))
        assert compiled.ways == 4

    def test_ways_mismatch_rejected(self):
        with pytest.raises(KernelUnsupported):
            compile_policy(LruPolicy(4), ways=8)

    def test_randomized_policy_unsupported(self):
        with pytest.raises(KernelUnsupported):
            compile_policy(RandomPolicy(4))
        with pytest.raises(KernelUnsupported):
            compile_policy("dip", 4)

    def test_expand_all_closes_the_automaton(self):
        # Small closed-form state spaces: LRU reaches every permutation
        # of its recency stack, tree PLRU every setting of ways-1 bits.
        assert compile_policy("lru", 3).expand_all() == 6
        assert compile_policy("plru", 4).expand_all() == 8
        compiled = compile_policy("fifo", 3)
        total = compiled.expand_all()
        assert total == compiled.num_states
        assert all(entry >= 0 for entry in compiled.hit_next)
        assert all(entry >= 0 for entry in compiled.fill_next)
        assert all(entry >= 0 for entry in compiled.miss_victim)
        assert all(entry >= 0 for entry in compiled.miss_next)

    def test_budget_exceeded_raises(self):
        compiled = compile_policy(LruPolicy(4), budget=3)
        with pytest.raises(KernelUnsupported):
            compiled.expand_all()

    def test_default_budget_bounds_lazy_growth(self):
        compiled = compile_policy(LruPolicy(4))
        assert compiled.budget == DEFAULT_BUDGET


class TestCompileCaches:
    def test_instance_cache_returns_same_automaton(self):
        policy = LruPolicy(4)
        first = compiled_for(policy)
        assert first is not None
        assert compiled_for(policy) is first

    def test_instance_cache_none_for_randomized(self):
        policy = RandomPolicy(4)
        assert compiled_for(policy) is None
        # The failed probe is remembered, not retried.
        assert compiled_for(policy) is None

    def test_mark_unsupported_stops_retries(self):
        policy = LruPolicy(4)
        assert compiled_for(policy) is not None
        mark_unsupported(policy)
        assert compiled_for(policy) is None
        # A permutation policy tombstones its spec, so fresh instances
        # of the same spec stop retrying too.
        spec = lru_spec(4)
        mark_unsupported(PermutationPolicy(4, spec))
        assert compiled_for(PermutationPolicy(4, spec)) is None

    def test_factory_cache(self):
        first = compiled_for_factory("plru", (), 8)
        assert first is not None
        assert compiled_for_factory("plru", (), 8) is first
        assert compiled_for_factory("random", (), 8) is None
        mark_factory_unsupported("plru", (), 8)
        assert compiled_for_factory("plru", (), 8) is None

    def test_spec_cache(self):
        spec = lru_spec(4)
        first = compiled_for_spec(spec)
        assert first is not None
        assert compiled_for_spec(spec) is first
        mark_spec_unsupported(spec)
        assert compiled_for_spec(spec) is None

    def test_clear_compile_cache(self):
        policy = LruPolicy(4)
        first = compiled_for(policy)
        clear_compile_cache()
        assert compiled_for(policy) is not first


class TestSingleSetEngine:
    def test_count_misses_matches_oracle(self):
        queries = [([], [1, 2, 1]), ([1, 2], [3, 1])]
        fast = count_misses_batch(LruPolicy(2), queries)
        with kernel_disabled():
            oracle = SimulatedSetOracle(LruPolicy(2))
            assert fast == [oracle.count_misses(setup, probe) for setup, probe in queries]

    def test_sequence_hits_detail(self):
        assert sequence_hits_batch(LruPolicy(2), [([], [1, 2, 1, 3, 2])]) == [
            (False, False, True, False, False)
        ]

    def test_preloaded_matches_preloaded_set(self):
        tags = [10, 11, 12, 13]
        probe = [14, 10, 15, 11, 12]
        cache_set = CacheSet(4, make_policy("srrip", 4))
        cache_set.preload(tags)
        expected = sum(1 for block in probe if not cache_set.access(block).hit)
        policy = make_policy("srrip", 4)
        assert count_misses_batch(policy, [([], probe)], preload=tags) == [expected]

    def test_preloaded_validates_length(self):
        # A start image of the wrong size never reaches an engine; the
        # interpreter's CacheSet.preload rejects it on either path.
        with pytest.raises(SimulationError):
            count_misses_batch(LruPolicy(4), [([], [3])], preload=[1, 2])
        with kernel_disabled(), pytest.raises(SimulationError):
            count_misses_batch(LruPolicy(4), [([], [3])], preload=[1, 2])


class TestRouting:
    CONFIG = CacheConfig("tiny", 2 * 1024, 4)  # 8 sets

    def _trace(self):
        return Trace("t", tuple((i % 96) * 64 for i in range(300)))

    def test_enable_disable_switch(self):
        assert kernel_enabled()
        set_kernel_enabled(False)
        try:
            assert not kernel_enabled()
        finally:
            set_kernel_enabled(True)
        with kernel_disabled():
            assert not kernel_enabled()
        assert kernel_enabled()

    def test_try_simulate_trace_respects_disable(self):
        with kernel_disabled():
            assert try_simulate_trace(self._trace(), self.CONFIG, "lru") is None

    def test_try_simulate_trace_respects_active_tracer(self):
        with tracing():
            assert try_simulate_trace(self._trace(), self.CONFIG, "lru") is None

    def test_try_simulate_trace_matches_interpreter(self):
        trace = self._trace()
        stats = try_simulate_trace(trace, self.CONFIG, "lru")
        assert stats is not None
        cache = Cache(self.CONFIG, "lru")
        for address in trace:
            cache.access(address)
        assert stats == cache.stats

    def test_try_simulate_trace_direct_mode_for_randomized(self):
        # Randomized policies cannot compile, but direct mode still
        # fast-paths them — bit-identically, rng draws included.
        trace = self._trace()
        stats = try_simulate_trace(trace, self.CONFIG, "random", seed=3)
        assert stats is not None
        cache = Cache(self.CONFIG, "random", rng=SeededRng(3))
        for address in trace:
            cache.access(address)
        assert stats == cache.stats

    def test_oracle_routing_is_transparent(self):
        setup = list(range(4))
        probe = [5, 0, 6, 1, 2, 7]
        fast = SimulatedSetOracle(make_policy("plru", 4))
        fast_count = fast.count_misses(setup, probe)
        with kernel_disabled():
            slow = SimulatedSetOracle(make_policy("plru", 4))
            assert slow.count_misses(setup, probe) == fast_count
        # Cost metrics are identical in both paths.
        assert fast.measurements == 1
        assert fast.accesses == len(setup) + len(probe)


class TestKernelCounters:
    CONFIG = CacheConfig("tiny", 2 * 1024, 4)  # 8 sets

    def _trace(self):
        return Trace("t", tuple((i % 96) * 64 for i in range(300)))

    def test_kernel_allowed_with_cold_path_tracer(self):
        """A tracer that does not want cache.* events leaves the kernel
        engaged; only per-access fidelity forces the interpreter."""
        assert kernel_allowed()
        with tracing(include=("runner.", "kernel.")):
            assert kernel_allowed()
        with tracing():  # full fidelity wants cache.*
            assert not kernel_allowed()
        with kernel_disabled():
            assert not kernel_allowed()

    def test_trace_mode_flushes_counters(self):
        obs_metrics.DEFAULT.reset()
        stats = try_simulate_trace(self._trace(), self.CONFIG, "lru")
        assert stats is not None
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["kernel.calls"] == 1
        assert counters["kernel.calls.trace"] == 1
        assert counters["kernel.accesses"] == stats.accesses
        assert counters["kernel.hits"] == stats.hits
        assert counters["kernel.misses"] == stats.misses
        assert counters["kernel.evictions"] == stats.evictions

    def test_direct_mode_flushes_counters(self):
        obs_metrics.DEFAULT.reset()
        stats = try_simulate_trace(self._trace(), self.CONFIG, "random", seed=3)
        assert stats is not None
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["kernel.calls"] == 1
        assert counters["kernel.calls.direct"] == 1
        assert counters["kernel.accesses"] == stats.accesses

    def test_kernel_run_event_under_cold_path_tracer(self):
        obs_metrics.DEFAULT.reset()
        with tracing(include=("kernel.",)) as tracer:
            stats = try_simulate_trace(self._trace(), self.CONFIG, "lru")
        assert stats is not None
        (event,) = [e for e in tracer.events if e["kind"] == "kernel.run"]
        assert event["mode"] == "trace"
        assert event["policy"] == "lru"
        assert event["hits"] == stats.hits
        assert event["misses"] == stats.misses
        assert event["states"] >= 1
        # Per-state visit detail rides along only when a tracer asked.
        observations = obs_metrics.DEFAULT.snapshot()["observations"]
        assert observations["kernel.state_visits"]["count"] == event["states"]

    def test_state_visit_detail_skipped_without_tracer(self):
        obs_metrics.DEFAULT.reset()
        assert try_simulate_trace(self._trace(), self.CONFIG, "lru") is not None
        snapshot = obs_metrics.DEFAULT.snapshot()
        assert "kernel.state_visits" not in snapshot["observations"]
        assert "kernel.states_visited" not in snapshot["counters"]


class TestCliFlag:
    def test_kernel_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["evaluate", "--policies", "lru"]).kernel is True
        args = parser.parse_args(["evaluate", "--policies", "lru", "--no-kernel"])
        assert args.kernel is False
        infer = ["infer", "--processor", "ivybridge-like"]
        assert parser.parse_args(infer + ["--kernel"]).kernel is True
        assert parser.parse_args(infer + ["--no-kernel"]).kernel is False

    def test_engine_switch_flags_are_gone(self, capsys):
        # The vector engine and the trie planner have no user switch;
        # --no-kernel (the interpreter, the reference path) is the one.
        from repro.cli import build_parser

        parser = build_parser()
        for flag in ("--no-vector", "--no-trie"):
            with pytest.raises(SystemExit):
                parser.parse_args(["evaluate", "--policies", "lru", flag])
