"""Prefix-trie query planner tests.

Four concerns, mirroring the contract in :mod:`repro.kernels.trie`:

* **Equivalence** — both planner engines (scalar replay and vectorized
  level frontiers) are bit-identical to the batched engines for miss
  counts and outcome lists, over random batches and the awkward shapes:
  empty setups/probes, duplicate queries, single-query batches, and the
  no-numpy fallback leg.
* **Counters** — a planned batch still satisfies ``kernel.accesses ==
  kernel.hits + kernel.misses``, and the relaxed parity contract holds:
  ``kernel.accesses + kernel.trie.reused_accesses`` equals the accesses
  a per-query run would have executed.  ``kernel.trie.plans`` / ``nodes``
  / ``vector_plans`` / ``fallbacks`` record engagement.
* **Gates** — small batches are silently declined, and low-sharing
  batches are declined *and counted* as fallbacks.
* **Integration** — ``SimulatedSetOracle.query`` dedups without
  perturbing ``oracle.*`` accounting, and a full inference run produces
  the same :class:`InferenceResult` through the planner as through the
  interpreter.

Engines are reached directly — ``engine.batch_miss_counts`` /
``engine.batch_outcomes`` route one compiled batch planner-first, and
the scalar ``engine._run_batch`` is the batched-engine reference.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InferenceConfig, PermutationInference, SimulatedSetOracle
from repro.kernels import (
    clear_compile_cache,
    compile_policy,
    count_misses_batch,
    kernel_disabled,
    trie,
    vector,
)
from repro.kernels import engine as kernel_engine
from repro.obs import metrics as obs_metrics
from repro.policies import LruPolicy, PlruPolicy, make_policy
from tests.conftest import all_deterministic_policies

WAYS = 4

numpy_only = pytest.mark.skipif(
    not vector.available(), reason="numpy not installed"
)

#: Engines the planner can execute a trie with.  The "vector" leg only
#: exists when numpy is importable; the scalar replay always does.
ENGINES = ["scalar"] + (["vector"] if vector.available() else [])

#: A batch the default gates accept: 9 queries (>= MIN_QUERIES) whose
#: duplicates collapse to 3 distinct sequences, sharing ratio ~3.6.
SHARED_QUERIES = (
    [(list(range(WAYS)), [5, 0, 6, 1])] * 5
    + [([7, 8], [7, 9, 8])] * 3
    + [([], [1, 1, 2])]
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_compile_cache()
    yield
    clear_compile_cache()


@contextmanager
def planner_forced(engine):
    """Open every gate and pin the planner onto one execution engine."""
    saved = (
        trie.MIN_QUERIES,
        trie.MIN_SHARE_RATIO,
        trie.MIN_VECTOR_NODES,
        trie.MIN_AVG_FRONTIER,
    )
    trie.MIN_QUERIES = 1
    trie.MIN_SHARE_RATIO = 0.0
    if engine == "vector":
        trie.MIN_VECTOR_NODES = 0
        trie.MIN_AVG_FRONTIER = 0
    else:
        trie.MIN_VECTOR_NODES = 1 << 60
    try:
        yield
    finally:
        (
            trie.MIN_QUERIES,
            trie.MIN_SHARE_RATIO,
            trie.MIN_VECTOR_NODES,
            trie.MIN_AVG_FRONTIER,
        ) = saved


policy_names = st.sampled_from([name for name, _ in all_deterministic_policies(WAYS)])
# A small block alphabet makes shared prefixes (and duplicate queries)
# common, so sorted-LCP sharing is actually exercised.
blocks = st.lists(st.integers(min_value=0, max_value=7), max_size=24)
query_lists = st.lists(st.tuples(blocks, blocks), min_size=1, max_size=23)


def build(name, ways=WAYS):
    if name == "permutation":
        from repro.policies import lru_spec

        return make_policy(name, ways, spec=lru_spec(ways))
    return make_policy(name, ways)


def batched_outcomes(compiled, queries):
    """The scalar batched engine's outcomes: the planner's reference."""
    return [tuple(hits) for hits in kernel_engine._run_batch(compiled, queries)[0]]


def batched_counts(compiled, queries):
    return [len(hits) - sum(hits) for hits in batched_outcomes(compiled, queries)]


def per_query_outcomes(compiled, queries):
    """One scalar run per query, no reuse across queries at all."""
    return [batched_outcomes(compiled, [query])[0] for query in queries]


# -- equivalence -------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
@given(name=policy_names, queries=query_lists)
@settings(max_examples=60, deadline=None)
def test_planner_counts_bit_identical(engine, name, queries):
    """Planned miss counts == batched-engine miss counts, any engine."""
    compiled = compile_policy(build(name))
    expected = batched_counts(compiled, queries)
    with planner_forced(engine):
        assert kernel_engine.batch_miss_counts(compiled, queries) == expected


@pytest.mark.parametrize("engine", ENGINES)
@given(name=policy_names, queries=query_lists)
@settings(max_examples=60, deadline=None)
def test_planner_outcomes_bit_identical(engine, name, queries):
    """Planned hit/miss outcome lists == batched-engine outcomes."""
    compiled = compile_policy(build(name))
    expected = batched_outcomes(compiled, queries)
    with planner_forced(engine):
        assert kernel_engine.batch_outcomes(compiled, queries) == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_planner_edge_shapes(engine):
    """Empty setups/probes, duplicates, single-query batches."""
    compiled = compile_policy(LruPolicy(WAYS))
    cases = [
        [([], [])],                              # single, fully empty
        [([], []), ([], [])],                    # all-empty batch
        [([], [1, 2, 1])],                       # single-query batch
        [([1, 2], [])],                          # empty probe
        [([1, 2], [3, 1])] * 7,                  # pure duplicates
        [([], []), ([], []), ([1], [1])],        # empties then content
        [([1, 2, 3], [4]), ([1, 2], [3, 4]), ([1], [2, 3, 4])],  # nested
        [([i], [i, i + 1]) for i in range(17)],  # no sharing at all
    ]
    for queries in cases:
        expected = per_query_outcomes(compiled, queries)
        with planner_forced(engine):
            assert kernel_engine.batch_outcomes(compiled, queries) == expected
            counts = kernel_engine.batch_miss_counts(compiled, queries)
        assert counts == [len(h) - sum(h) for h in expected]


@numpy_only
def test_planner_engines_agree_on_huge_ids():
    """Block ids beyond int64 push the layout (and plan) to the scalar
    replay via the Python LCP path — same results."""
    compiled = compile_policy(LruPolicy(WAYS))
    big = 1 << 70
    queries = [([big], [big, 1])] * 5 + [([big], [big, 2])] * 4
    expected = per_query_outcomes(compiled, queries)
    assert kernel_engine.batch_outcomes(compiled, queries) == expected


# -- counters ----------------------------------------------------------------

def test_planner_counter_reconciliation():
    """Relaxed parity: executed + reused == per-query accesses."""
    compiled = compile_policy(LruPolicy(WAYS))
    total = sum(len(s) + len(p) for s, p in SHARED_QUERIES)
    obs_metrics.DEFAULT.reset()
    counts = kernel_engine.batch_miss_counts(compiled, SHARED_QUERIES)
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert counters["kernel.trie.plans"] == 1
    assert counters["kernel.trie.nodes"] == counters["kernel.accesses"]
    assert counters["kernel.accesses"] < total  # sharing actually reused work
    assert counters["kernel.accesses"] + counters["kernel.trie.reused_accesses"] == total
    assert counters["kernel.accesses"] == counters["kernel.hits"] + counters["kernel.misses"]
    assert "kernel.trie.fallbacks" not in counters

    # One-element batches (too small for the planner and the vector
    # engine) execute every single access.
    policy = LruPolicy(WAYS)
    obs_metrics.DEFAULT.reset()
    expected = [count_misses_batch(policy, [query])[0] for query in SHARED_QUERIES]
    reference = obs_metrics.DEFAULT.snapshot()["counters"]
    assert reference["kernel.accesses"] == total
    assert counts == expected


@numpy_only
def test_planner_engines_report_identical_accounting():
    """Scalar replay and vector frontiers agree on every kernel counter."""
    compiled = compile_policy(PlruPolicy(WAYS))
    compiled.expand_all()  # closed: the frontier engine runs on any batch
    snapshots = {}
    for engine in ("scalar", "vector"):
        obs_metrics.DEFAULT.reset()
        with planner_forced(engine):
            counts = kernel_engine.batch_miss_counts(compiled, SHARED_QUERIES)
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        snapshots[engine] = (counts, {
            key: counters[key]
            for key in (
                "kernel.accesses",
                "kernel.hits",
                "kernel.misses",
                "kernel.trie.plans",
                "kernel.trie.nodes",
                "kernel.trie.reused_accesses",
            )
        })
        if engine == "vector":
            assert counters["kernel.trie.vector_plans"] == 1
        else:
            assert "kernel.trie.vector_plans" not in counters
    assert snapshots["scalar"] == snapshots["vector"]


def test_small_batches_silently_decline():
    """Below MIN_QUERIES the planner refuses without a fallback count."""
    compiled = compile_policy(LruPolicy(WAYS))
    queries = SHARED_QUERIES[: trie.MIN_QUERIES - 1]
    obs_metrics.DEFAULT.reset()
    assert trie.plan_miss_counts(compiled, queries) is None
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert "kernel.trie.plans" not in counters
    assert "kernel.trie.fallbacks" not in counters


def test_low_sharing_batches_count_a_fallback(monkeypatch):
    """A shareless batch is declined and recorded as kernel.trie.fallbacks."""
    compiled = compile_policy(LruPolicy(WAYS))
    monkeypatch.setattr(trie, "MIN_QUERIES", 1)
    queries = [([], [i]) for i in range(8)]  # ratio exactly 1.0 < 1.2
    obs_metrics.DEFAULT.reset()
    assert trie.plan_miss_counts(compiled, queries) is None
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert counters["kernel.trie.fallbacks"] == 1
    assert "kernel.trie.plans" not in counters
    # The batched engines still answer the batch, bit-identically.
    assert kernel_engine.batch_miss_counts(compiled, queries) == [
        len(hits) - sum(hits) for hits in per_query_outcomes(compiled, queries)
    ]


def test_all_empty_batch_is_not_planned():
    compiled = compile_policy(LruPolicy(WAYS))
    obs_metrics.DEFAULT.reset()
    assert trie.plan_miss_counts(compiled, [([], [])] * 9) is None
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert "kernel.trie.fallbacks" not in counters


# -- no-numpy fallback -------------------------------------------------------

class TestNoNumpyPlanner:
    """With numpy gone the scalar replay is still a full planner."""

    @pytest.fixture(autouse=True)
    def _without_numpy(self, monkeypatch):
        monkeypatch.setattr(trie, "_np", None)
        monkeypatch.setattr(vector, "_np", None)

    def test_planner_still_engages_and_matches(self):
        compiled = compile_policy(LruPolicy(WAYS))
        obs_metrics.DEFAULT.reset()
        planned = kernel_engine.batch_miss_counts(compiled, SHARED_QUERIES)
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["kernel.trie.plans"] == 1
        assert "kernel.trie.vector_plans" not in counters
        assert planned == batched_counts(compiled, SHARED_QUERIES)

    def test_outcomes_match(self):
        compiled = compile_policy(PlruPolicy(WAYS))
        expected = per_query_outcomes(compiled, SHARED_QUERIES)
        assert kernel_engine.batch_outcomes(compiled, SHARED_QUERIES) == expected


# -- integration -------------------------------------------------------------

def test_oracle_query_dedup_preserves_accounting():
    """Duplicate requests are measured once by the kernel, yet oracle.*
    counters (and the oracle's own cost fields) stay per-request."""
    requests = [([1, 2], [1, 3])] * 6 + [([], [4])] * 3
    oracle = SimulatedSetOracle(LruPolicy(WAYS))
    obs_metrics.DEFAULT.reset()
    counts = oracle.query(requests)
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert counters["oracle.measurements"] == len(requests)
    assert counters["oracle.accesses"] == sum(
        len(setup) + len(probe) for setup, probe in requests
    )
    assert oracle.measurements == len(requests)
    assert counts == [oracle.count_misses(setup, probe) for setup, probe in requests]


def test_inference_result_invariant_under_planner():
    """The planner changes cost, never answers: the same result as the
    interpreter's.

    The policy is registry-built so the oracle has a provenance (it is
    deterministic), which is what lets ``_verify`` batch its windows
    through ``oracle.query`` and reach the planner.
    """
    def run():
        oracle = SimulatedSetOracle(make_policy("plru", 8))
        config = InferenceConfig(verify_sequences=10)
        return PermutationInference(oracle, config=config).infer()

    obs_metrics.DEFAULT.reset()
    with_planner = run()
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert counters.get("kernel.trie.plans", 0) >= 1
    with kernel_disabled():
        without_planner = run()
    assert with_planner == without_planner
    assert with_planner.succeeded
