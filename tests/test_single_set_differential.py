"""One differential test for single-set execution.

Every way of simulating a batch of ``(setup, probe)`` queries on one
cache set must give the same answers: the scalar batch engine, the
vector engine, the trie planner's scalar replay and level frontier, the
public entry points on the compiled kernel, and the interpreter they
fall back to.  Hypothesis draws zoo policies, associativities and random
batches, with and without a ``preload`` start image, and every engine is
called directly (gates moved only so that it engages) and compared
against the interpreter for both miss counts and per-access outcomes.

The routing tests below pin what the entry points decide: which engine
a batch shape reaches, what a mid-run budget blow does, and what the
interpreter path keeps (RNG draw order, the per-access event stream).
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.cache.set import CacheSet
from repro.kernels import (
    clear_compile_cache,
    compiled_for,
    count_misses_batch,
    kernel_disabled,
    sequence_hits_batch,
    trie,
    vector,
)
from repro.kernels import engine
from repro.errors import KernelUnsupported
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.policies import LruPolicy, RandomPolicy, lru_spec, make_policy
from repro.util.rng import SeededRng
from tests.conftest import all_deterministic_policies

#: Small associativities keep every automaton fully expandable, so the
#: vector engine and the trie frontier can take every drawn batch.
WAYS_CHOICES = (2, 3, 4)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_compile_cache()
    yield
    clear_compile_cache()


@contextmanager
def patched(module, **values):
    """Set module attributes for the duration of a block (gate moves)."""
    saved = {name: getattr(module, name) for name in values}
    for name, value in values.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def build(name, ways):
    if name == "permutation":
        return make_policy(name, ways, spec=lru_spec(ways))
    return make_policy(name, ways)


@st.composite
def batches(draw):
    """(policy name, ways, queries, preload or None).

    A small block alphabet makes hits, shared prefixes and duplicate
    queries common; a preload is ``ways`` distinct blocks from the same
    alphabet, so probes hit the start image too.
    """
    ways = draw(st.sampled_from(WAYS_CHOICES))
    name = draw(st.sampled_from([name for name, _ in all_deterministic_policies(ways)]))
    alphabet = list(range(2 * ways + 2))
    blocks = st.lists(st.sampled_from(alphabet), max_size=3 * ways)
    queries = draw(st.lists(st.tuples(blocks, blocks), min_size=1, max_size=24))
    preload = draw(st.none() | st.permutations(alphabet).map(lambda p: p[:ways]))
    return name, ways, queries, preload


def misses(outcomes):
    return [len(hits) - sum(hits) for hits in outcomes]


@given(case=batches())
@settings(max_examples=150, deadline=None)
def test_every_single_set_path_agrees(case):
    name, ways, queries, preload = case
    with kernel_disabled():
        expected = sequence_hits_batch(build(name, ways), queries, preload=preload)
        assert count_misses_batch(build(name, ways), queries, preload=preload) == misses(
            expected
        )
    compiled = compiled_for(build(name, ways))
    compiled.expand_all()  # closed: the vector engines run on any batch
    answers = {}

    outcomes = engine._run_batch(compiled, queries, preload)[0]
    answers["scalar"] = [tuple(hits) for hits in outcomes]

    if vector.available():
        with patched(vector, MIN_LANES=1):
            answers["vector"] = vector.batch_outcomes(compiled, queries, preload)[0]
            counts = vector.batch_miss_counts(compiled, queries, preload)[0]
        assert counts == misses(expected)

    total = sum(len(setup) + len(probe) for setup, probe in queries)
    if preload is None and total:
        # The planner takes only batches without a start image.
        forced = {"MIN_QUERIES": 1, "MIN_SHARE_RATIO": 0.0}
        frontiers = [("trie-replay", {"MIN_VECTOR_NODES": 1 << 60})]
        if vector.available():
            frontiers.append(
                ("trie-frontier", {"MIN_VECTOR_NODES": 0, "MIN_AVG_FRONTIER": 0})
            )
        for label, gates in frontiers:
            with patched(trie, **forced, **gates):
                planned = trie.plan_outcomes(compiled, queries)[0]
                counts = trie.plan_miss_counts(compiled, queries)[0]
            answers[label] = [tuple(hits) for hits in planned]
            assert counts == misses(expected)

    answers["public"] = sequence_hits_batch(build(name, ways), queries, preload=preload)
    counts = count_misses_batch(build(name, ways), queries, preload=preload)
    assert counts == misses(expected)

    for label, got in answers.items():
        assert got == expected, label


# -- routing -----------------------------------------------------------------

#: Nine distinct queries sharing a long prefix: past the planner's gates.
SHARED = [(list(range(4)), [5, 0, 6, 10 + i]) for i in range(9)]


def _counters():
    return obs_metrics.DEFAULT.snapshot()["counters"]


def test_single_query_is_a_one_element_batch():
    """One query passes the trie and vector gates silently and counts
    under kernel.calls.batch; no kernel.calls.set exists any more."""
    query = [([0, 1, 2, 3], [4, 0, 5])]
    with kernel_disabled():
        expected = count_misses_batch(make_policy("plru", 4), query)
    obs_metrics.DEFAULT.reset()
    assert count_misses_batch(make_policy("plru", 4), query) == expected
    counters = _counters()
    assert counters["kernel.calls.batch"] == 1
    assert counters["kernel.accesses"] == 7
    assert "kernel.calls.set" not in counters
    assert not [key for key in counters if key.startswith(("kernel.trie.", "kernel.vector."))]


def test_preload_batches_skip_the_planner():
    policy = make_policy("lru", 4)
    obs_metrics.DEFAULT.reset()
    count_misses_batch(policy, SHARED)
    assert _counters()["kernel.trie.plans"] == 1
    obs_metrics.DEFAULT.reset()
    count_misses_batch(policy, SHARED, preload=[10, 11, 12, 13])
    assert "kernel.trie.plans" not in _counters()


def test_duplicates_measured_once_on_the_kernel():
    """count_misses_batch folds identical queries on the compiled path."""
    obs_metrics.DEFAULT.reset()
    counts = count_misses_batch(make_policy("lru", 4), [([1], [2, 1])] * 3)
    assert counts == [1, 1, 1]
    assert _counters()["kernel.accesses"] == 3


def test_budget_blow_marks_unsupported_and_interprets(monkeypatch):
    policy = make_policy("srrip", 4)
    with kernel_disabled():
        expected = count_misses_batch(policy, SHARED)

    def blow(*args):
        raise KernelUnsupported("budget")

    monkeypatch.setattr(engine, "batch_miss_counts", blow)
    assert count_misses_batch(policy, SHARED) == expected
    assert compiled_for(policy) is None  # not retried


def test_randomized_policy_keeps_rng_draw_order():
    """Duplicates get fresh draws, in request order, like a loop of
    clone-reset-run measurements."""
    queries = [([], list(range(12)))] * 3 + [([1, 2], [9, 8, 7, 6, 5, 4])]
    got = count_misses_batch(RandomPolicy(2, rng=SeededRng(4)), queries)
    reference = RandomPolicy(2, rng=SeededRng(4))
    expected = []
    for setup, probe in queries:
        clone = reference.clone()
        clone.reset()
        cache_set = CacheSet(2, clone)
        for block in setup:
            cache_set.access(block)
        expected.append(sum(1 for block in probe if not cache_set.access(block).hit))
    assert got == expected


def test_full_tracer_gets_the_per_access_stream():
    with tracing() as tracer:
        (outcome,) = sequence_hits_batch(LruPolicy(2), [([1], [1, 2, 3])])
    cache_events = [e["kind"] for e in tracer.events if e["kind"].startswith("cache.")]
    assert outcome == (True, False, False)
    assert cache_events.count("cache.hit") == 1
    assert cache_events.count("cache.miss") == 3  # setup fill + two probe misses


def test_entry_points_are_the_package_attributes():
    """Callers resolve the two entry points through ``repro.kernels``."""
    assert "count_misses_batch" in kernels.__all__
    assert "sequence_hits_batch" in kernels.__all__
    for gone in (
        "count_misses_kernel",
        "count_misses_preloaded",
        "sequence_hits",
        "sequence_hits_preloaded",
        "sequence_hits_preloaded_batch",
        "simulate_sequence",
        "set_vector_enabled",
        "vector_enabled",
        "vector_disabled",
        "set_trie_enabled",
        "trie_enabled",
        "trie_disabled",
        "trie_allowed",
    ):
        assert not hasattr(kernels, gone), gone
