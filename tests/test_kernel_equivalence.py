"""Property-based kernel/interpreter equivalence suite.

The compiled kernel's whole claim is *bit-identity*: whatever the
interpreted :class:`~repro.cache.set.CacheSet` / :class:`~repro.cache.Cache`
would produce — per-access hit/miss, filled way, eviction order, whole
cache statistics — the table-driven engine must produce too, for every
deterministic policy in the registry and for arbitrary permutation
specs.  Hypothesis supplies the traces and the specs; the interpreter is
the reference implementation in every assertion.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import Cache, CacheConfig
from repro.cache.set import CacheSet
from repro.core import PermutationInference, SimulatedSetOracle
from repro.core.permutation import standard_miss_perm
from repro.kernels import (
    clear_compile_cache,
    compile_policy,
    count_misses_batch,
    kernel_disabled,
    simulate_trace_direct,
    try_simulate_trace,
)
from repro.kernels.engine import _run_blocks
from repro.policies import PermutationPolicy, PermutationSpec, available, make_policy
from repro.util.rng import SeededRng
from repro.workloads.trace import Trace
from tests.conftest import RANDOMIZED, all_deterministic_policies

WAYS = 4

policy_names = st.sampled_from([name for name, _ in all_deterministic_policies(WAYS)])
block_sequences = st.lists(
    st.integers(min_value=0, max_value=11), min_size=1, max_size=120
)


@st.composite
def random_specs(draw, ways=WAYS):
    """Random standard-miss specs (the class inference targets)."""
    hits = tuple(
        tuple(draw(st.permutations(list(range(ways))))) for _ in range(ways)
    )
    return PermutationSpec(ways, hits, standard_miss_perm(ways))


def build(name, ways=WAYS):
    if name == "permutation":
        from repro.policies import lru_spec

        return make_policy(name, ways, spec=lru_spec(ways))
    return make_policy(name, ways)


def assert_steps_match(compiled, cache_set, blocks):
    """Step the automaton and the interpreted set together, access by
    access: hit/miss outcome and the full tag image (so fill way and
    eviction order) must agree after every access."""
    way_of: dict[int, int] = {}
    tag_of = [0] * compiled.ways
    state = 0
    for block in blocks:
        hits: list[bool] = []
        state, _ = _run_blocks(compiled, [block], way_of, tag_of, state, hits)
        assert hits == [cache_set.access(block).hit]
        resident = [tag_of[way] if way < len(way_of) else None for way in range(WAYS)]
        assert resident == cache_set.contents()


@given(name=policy_names, blocks=block_sequences)
@settings(max_examples=150, deadline=None)
def test_registry_policies_bit_identical(name, blocks):
    """Every deterministic policy: full per-access detail matches."""
    assert_steps_match(compile_policy(build(name)), CacheSet(WAYS, build(name)), blocks)


@given(spec=random_specs(), blocks=block_sequences)
@settings(max_examples=100, deadline=None)
def test_random_specs_bit_identical(spec, blocks):
    """Arbitrary permutation specs: full per-access detail matches."""
    assert_steps_match(
        compile_policy(spec), CacheSet(WAYS, PermutationPolicy(WAYS, spec)), blocks
    )


@given(
    name=policy_names,
    setup=st.lists(st.integers(min_value=0, max_value=11), max_size=30),
    probe=block_sequences,
)
@settings(max_examples=100, deadline=None)
def test_miss_counts_match_oracle(name, setup, probe):
    """Kernel miss counts equal the interpreted oracle's."""
    (fast,) = count_misses_batch(build(name), [(setup, probe)])
    with kernel_disabled():
        oracle = SimulatedSetOracle(build(name))
        assert fast == oracle.count_misses(setup, probe)


def _random_trace(lines: int, length: int, seed: int) -> Trace:
    rng = SeededRng(seed).fork("trace")
    return Trace(
        f"rand-{seed}",
        tuple(rng.randrange(lines) * 64 for _ in range(length)),
    )


@pytest.mark.parametrize("name", sorted(available()))
@pytest.mark.parametrize("index_hash", ["bits", "xor-fold"])
def test_whole_cache_stats_bit_identical(name, index_hash):
    """try_simulate_trace == interpreted Cache for every registry policy.

    Covers both index hashes and both kernel modes: compiled automata
    for deterministic policies, direct mode for the randomized and
    set-dueling ones (same rng construction order, so identical draws).
    """
    from repro.policies import PolicyFactory, lru_spec

    config = CacheConfig("t", 4 * 1024, 4, index_hash=index_hash)  # 16 sets
    kwargs = {"spec": lru_spec(4)} if name == "permutation" else {}
    factory = PolicyFactory(name, **kwargs)
    trace = _random_trace(lines=200, length=4000, seed=11)

    stats = try_simulate_trace(trace, config, factory, seed=5)
    assert stats is not None

    cache = Cache(config, factory, rng=SeededRng(5))
    for address in trace:
        cache.access(address)
    assert stats == cache.stats


@pytest.mark.parametrize("name", sorted(RANDOMIZED))
def test_direct_mode_seed_sensitivity(name):
    """Direct mode threads the seed exactly like the interpreter does."""
    config = CacheConfig("t", 2 * 1024, 4)
    trace = _random_trace(lines=150, length=3000, seed=2)
    for seed in (0, 9):
        direct = simulate_trace_direct(trace, config, name, seed=seed)
        cache = Cache(config, name, rng=SeededRng(seed))
        for address in trace:
            cache.access(address)
        assert direct == cache.stats


@given(spec=random_specs())
@settings(max_examples=10, deadline=None)
def test_inference_identical_with_and_without_kernel(spec):
    """The end-to-end inference result does not depend on the path taken."""
    clear_compile_cache()
    fast = PermutationInference(SimulatedSetOracle(PermutationPolicy(WAYS, spec))).infer()
    with kernel_disabled():
        slow = PermutationInference(
            SimulatedSetOracle(PermutationPolicy(WAYS, spec))
        ).infer()
    assert fast.succeeded == slow.succeeded
    assert fast.spec == slow.spec
    assert fast.measurements == slow.measurements
    assert fast.accesses == slow.accesses
