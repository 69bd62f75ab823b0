"""Differential test for ``wbinvd``: a flush resets only the sets filled
since the previous flush, and must leave the caches indistinguishable
from freshly built ones.

Hypothesis drives random loads, stores, prefetches and set-conflict
sweeps (which make inclusive levels back-invalidate) through three-level
hierarchies mixing inclusive, NINE and exclusive levels and zoo policies,
randomized and set-dueling ones included, and every state-changing
``Cache`` method through a single cache.  After every flush each set's
tags, dirty bits and replacement state, and each level's shared context,
must equal a fresh build's, while all statistics are kept.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import Cache, CacheConfig, CacheHierarchy
from repro.obs import metrics as obs_metrics
from repro.policies import ReplacementPolicy
from repro.util.rng import SeededRng

#: Zoo policies valid at 2 and 4 ways, deterministic and randomized.
POLICIES = (
    "lru", "fifo", "plru", "bitplru", "nru", "clock", "slru", "srrip", "lip",
    "qlru_h00_m1", "qlru_h21_m3", "random", "bip", "brrip", "dip", "drrip",
)

ops = st.lists(
    st.tuples(
        st.sampled_from(["load", "store", "prefetch", "sweep"]),
        st.integers(min_value=0, max_value=(1 << 13) - 1),
    ),
    max_size=120,
)


def build(l2_inclusion, l3_inclusion, l3_hash, policies, seed):
    configs = [
        CacheConfig("L1", 256, 2),
        CacheConfig("L2", 1024, 4, inclusion=l2_inclusion),
        CacheConfig("L3", 2048, 4, inclusion=l3_inclusion, index_hash=l3_hash),
    ]
    return CacheHierarchy(configs, list(policies), rng=SeededRng(seed))


def state(value):
    """Comparable replacement state: ``state_key()`` where a policy has
    one, otherwise its attributes (recursively), ignoring RNG streams."""
    if isinstance(value, ReplacementPolicy):
        key = value.state_key()
        if key is not None:
            return key
    if isinstance(value, SeededRng):
        return None
    if isinstance(value, (list, tuple)):
        return [state(item) for item in value]
    if hasattr(value, "__dict__"):
        return {name: state(item) for name, item in vars(value).items()}
    return value


def cache_snapshot(cache):
    sets = [(s.contents(), list(s._dirty), state(s.policy)) for s in cache.sets]
    return sets, state(cache.shared)


def snapshot(hierarchy):
    return [cache_snapshot(cache) for cache in hierarchy.levels]


def stats(hierarchy):
    return (
        [vars(cache.stats).copy() for cache in hierarchy.levels],
        hierarchy.stats.memory_accesses,
    )


def run(hierarchy, round_ops):
    l3 = hierarchy.level("L3")
    for kind, value in round_ops:
        if kind == "load":
            hierarchy.access(value)
        elif kind == "store":
            hierarchy.access(value, write=True)
        elif kind == "prefetch":
            hierarchy.access(value, demand=False)
        else:
            # More lines of one L3 set than it has ways: inclusive L3
            # evictions back-invalidate the upper levels.
            set_index = value % l3.config.num_sets
            for ordinal in range(l3.config.ways + 2):
                hierarchy.access(l3.codec.same_set_address(set_index, ordinal + value % 7))


@given(
    rounds=st.lists(ops, min_size=1, max_size=3),
    l2=st.sampled_from(["inclusive", "nine", "exclusive"]),
    l3=st.sampled_from(["inclusive", "nine"]),
    l3_hash=st.sampled_from(["bits", "xor-fold"]),
    policies=st.tuples(*[st.sampled_from(POLICIES)] * 3),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_flush_equals_fresh_hierarchy(rounds, l2, l3, l3_hash, policies, seed):
    hierarchy = build(l2, l3, l3_hash, policies, seed)
    fresh = snapshot(build(l2, l3, l3_hash, policies, seed))
    for round_ops in rounds:
        run(hierarchy, round_ops)
        before = stats(hierarchy)
        hierarchy.flush()
        assert snapshot(hierarchy) == fresh
        assert stats(hierarchy) == before


@given(
    rounds=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["access", "store", "touch", "fill", "dirty", "invalidate"]),
                st.integers(min_value=0, max_value=(1 << 11) - 1),
            ),
            max_size=80,
        ),
        min_size=1,
        max_size=3,
    ),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_cache_flush_equals_fresh_cache(rounds, policy, seed):
    config = CacheConfig("L2", 1024, 4)
    cache = Cache(config, policy, rng=SeededRng(seed))
    fresh = cache_snapshot(Cache(config, policy, rng=SeededRng(seed)))
    for round_ops in rounds:
        for kind, address in round_ops:
            if kind == "access":
                cache.access(address)
            elif kind == "store":
                cache.access(address, write=True)
            elif kind == "touch":
                cache.lookup_touch(address, write=address % 2 == 1, demand=address % 3 > 0)
            elif kind == "fill":
                if not cache.probe(address):
                    cache.fill(address, write=address % 2 == 1, demand=address % 3 > 0)
            elif kind == "dirty":
                cache.mark_dirty(address)
            else:
                cache.invalidate(address)
        before = vars(cache.stats).copy()
        cache.flush()
        assert cache_snapshot(cache) == fresh
        assert vars(cache.stats) == before


def test_flush_counts_only_touched_sets():
    """``cache.flush.sets`` grows by the touched sets, not the set count."""
    hierarchy = build("nine", "inclusive", "bits", ("lru", "lru", "lru"), 0)
    hierarchy.flush()  # nothing touched yet
    metrics = obs_metrics.Metrics()
    saved, obs_metrics.DEFAULT = obs_metrics.DEFAULT, metrics
    try:
        hierarchy.flush()
        assert metrics.counter("cache.flush.sets") == 0
        hierarchy.access(0)  # one set in each of the three levels
        hierarchy.flush()
        assert metrics.counter("cache.flush.sets") == 3
        hierarchy.flush()
        assert metrics.counter("cache.flush.sets") == 3
    finally:
        obs_metrics.DEFAULT = saved
