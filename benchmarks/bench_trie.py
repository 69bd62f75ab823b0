"""BENCH — prefix-trie query planner versus the batched engines.

The acceptance benchmark for :mod:`repro.kernels.trie`: the same
compiled automaton answers the same batches twice, once on the plain
batched engines (vector lanes when numpy is present) and once through
the planner — each called directly — interleaved in one process so
CPU-clock drift cancels.  Two workloads:

* **E2-shaped stream** — the position-measurement family the paper's
  E2 experiment issues: every query replays the same thrash +
  establishment prefix, re-accesses one establishment block, appends a
  fresh-block eviction tail and probes one block.  Concatenated, the
  batch is a shallow, very wide radix trie (measured sharing ratio
  ~40x), and the headline >= 3x acceptance gate lives here for both
  miss counts and per-access outcomes.  The stream is
  deterministically shuffled: arrival order is whatever the inference
  loop produced, so the batched engines' consecutive-identical-setup
  reuse cannot see the redundancy — the planner's sort can.
* **end-to-end inference** — a full ``PermutationInference.infer`` run
  against ``SimulatedSetOracle`` on the kernel (planner engaged) versus
  the interpreter (``kernel_disabled()``) must produce *bit-identical*
  ``InferenceResult``s (the planner changes cost, never answers);
  engagement is asserted through ``kernel.trie.plans`` and the run must
  record zero ``kernel.trie.fallbacks``.

Results are bit-compared before any timing claim, land in
``benchmarks/results/bench_trie.txt``, and the acceptance run writes
the ``benchmarks/results/BENCH_trie.json`` trajectory point (an
ExperimentResult envelope, validated in CI by
``python -m repro.obs.result``).

Unlike the vector bench nothing here needs numpy — the scalar replay
is a complete planner — but the 3x bar is calibrated for the numpy CI
runner, where the baseline batched engine is itself vectorized.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.core import InferenceConfig, PermutationInference, SimulatedSetOracle
from repro.kernels import (
    clear_compile_cache,
    compile_policy,
    engine,
    kernel_disabled,
    trie,
    vector,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.result import ExperimentResult
from repro.policies import make_policy
from repro.util.tables import format_table

RESULTS_DIR = Path(__file__).parent / "results"

WAYS = 8

#: The E2 position-measurement family: for every (re-accessed block,
#: eviction depth, probed block) triple one query replays the shared
#: establishment prefix.  ways^3 = 512 queries per round.
THRASH_FACTOR = 4

#: Scale multiplier: repeat the family with distinct fresh-block tails
#: so the batch is big enough for stable timing.
ROUNDS = 4


def _skip_if_tracing():
    tracer = obs_trace.ACTIVE
    if tracer is not None:
        pytest.skip("an active tracer routes queries through the scalar oracle")


def _e2_stream(ways=WAYS, rounds=ROUNDS, seed=0):
    """The E2-shaped batch: position measurements at every depth.

    ``setup = thrash || e_0..e_{A-1} || e_hit || fresh_1..fresh_d``,
    ``probe = [e_target]`` — the exact concatenation shape inference's
    position-table stage produces, where everything up to the fresh
    tail is shared by the whole family.  Deterministically shuffled:
    measurements arrive in whatever order the inference loop asked, not
    conveniently grouped by identical setup.
    """
    thrash = [1000 + block for block in range(ways * THRASH_FACTOR)]
    establish = list(range(ways))
    queries = []
    for round_id in range(rounds):
        fresh_base = 2000 + 100 * round_id
        for hit in range(ways):
            base = thrash + establish + [hit]
            for depth in range(1, ways + 1):
                tail = [fresh_base + offset for offset in range(depth)]
                for target in range(ways):
                    queries.append((base + tail, [target]))
    random.Random(seed).shuffle(queries)
    return queries


def _best(fn, repeats):
    result, elapsed = None, float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - start)
    return result, elapsed


def _batched(compiled, queries, want_outcomes):
    """The plain batched engines: vector lanes when numpy is present."""
    if want_outcomes:
        result = vector.batch_outcomes(compiled, queries)
    else:
        result = vector.batch_miss_counts(compiled, queries)
    if result is None:
        result = engine._run_batch(compiled, queries)
        if not want_outcomes:
            return [len(hits) - sum(hits) for hits in result[0]]
    return [tuple(hits) for hits in result[0]] if want_outcomes else result[0]


def _planned(compiled, queries, want_outcomes):
    plan = trie.plan_outcomes if want_outcomes else trie.plan_miss_counts
    planned = plan(compiled, queries)
    assert planned is not None, "the planner declined the E2 stream"
    return [tuple(hits) for hits in planned[0]] if want_outcomes else planned[0]


def _ab(compiled, queries, want_outcomes, repeats=3):
    """Interleaved batched/planned best-of-N; asserts identical results."""
    def batched():
        return _batched(compiled, queries, want_outcomes)

    def planned():
        return _planned(compiled, queries, want_outcomes)

    batched()  # warm: automaton expansion, vector tables
    batched_result, batched_seconds = _best(batched, repeats)
    planned_result, planned_seconds = _best(planned, repeats)
    assert planned_result == batched_result, "planner result diverged from batched"
    speedup = batched_seconds / planned_seconds if planned_seconds else 0.0
    return batched_seconds, planned_seconds, speedup


def test_bench_trie_speedup(save_result):
    """Acceptance: E2-shaped batches >= 3x, zero fallbacks, identical
    InferenceResults end to end."""
    _skip_if_tracing()
    clear_compile_cache()

    compiled = compile_policy(make_policy("plru", WAYS))
    queries = _e2_stream()
    total_accesses = sum(len(setup) + len(probe) for setup, probe in queries)

    count_batched, count_planned, count_speedup = _ab(compiled, queries, False)
    seq_batched, seq_planned, seq_speedup = _ab(compiled, queries, True)

    # End-to-end: the planner must be invisible in the answers.
    def infer():
        oracle = SimulatedSetOracle(make_policy("plru", WAYS))
        config = InferenceConfig(verify_sequences=10)
        return PermutationInference(oracle, config=config).infer()

    infer()  # warm
    with kernel_disabled():
        (result_off, infer_off) = _best(infer, 2)
    (result_on, infer_on) = _best(infer, 2)
    assert result_on == result_off, "InferenceResult diverged under the planner"
    assert result_on.succeeded

    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    plans = counters.get("kernel.trie.plans", 0)
    fallbacks = counters.get("kernel.trie.fallbacks", 0)
    nodes = counters.get("kernel.trie.nodes", 0)
    reused = counters.get("kernel.trie.reused_accesses", 0)
    share_ratio = (nodes + reused) / nodes if nodes else 0.0

    rows = [
        ["stream/count_misses", f"{count_batched:.3f}", f"{count_planned:.3f}",
         f"{count_speedup:.2f}x"],
        ["stream/sequence_hits", f"{seq_batched:.3f}", f"{seq_planned:.3f}",
         f"{seq_speedup:.2f}x"],
        ["inference/infer (interpreter | kernel)", f"{infer_off:.3f}",
         f"{infer_on:.3f}", f"{(infer_off / infer_on) if infer_on else 0.0:.2f}x"],
    ]
    table = format_table(
        ["workload", "batched s", "planned s", "speedup"],
        rows,
        title=(
            f"BENCH trie: {len(queries)}-query E2 stream "
            f"({total_accesses} accesses, sharing {share_ratio:.1f}x); "
            f"plans={plans} fallbacks={fallbacks}"
        ),
    )

    data = {
        "stream": {
            "queries": len(queries),
            "total_accesses": total_accesses,
            "share_ratio": share_ratio,
            "count_misses": {
                "batched_seconds": count_batched,
                "planned_seconds": count_planned,
                "speedup": count_speedup,
            },
            "sequence_hits": {
                "batched_seconds": seq_batched,
                "planned_seconds": seq_planned,
                "speedup": seq_speedup,
            },
        },
        "inference": {
            "interpreter_seconds": infer_off,
            "kernel_seconds": infer_on,
            "identical_result": True,
        },
        "counters": {
            "kernel.trie.plans": plans,
            "kernel.trie.fallbacks": fallbacks,
            "kernel.trie.nodes": nodes,
            "kernel.trie.reused_accesses": reused,
        },
    }
    params = {
        "ways": WAYS,
        "thrash_factor": THRASH_FACTOR,
        "rounds": ROUNDS,
        "policy": "plru",
        "seed": 0,
    }
    save_result("bench_trie", table, data=data, params=params)

    point = ExperimentResult(
        name="bench_trie",
        params=json.loads(json.dumps(params, default=str)),
        data=json.loads(json.dumps(data, default=str)),
        metrics=obs_metrics.DEFAULT.snapshot(),
    )
    trajectory = RESULTS_DIR / "BENCH_trie.json"
    trajectory.write_text(point.to_json(indent=2) + "\n")
    print(f"[trajectory point saved to {trajectory}]")

    assert plans >= 1, "the planner never engaged on the E2 stream"
    assert fallbacks == 0, f"{fallbacks} batches fell back to the batched engines"
    assert count_speedup >= 3.0, (
        f"planned miss counts only {count_speedup:.2f}x over the "
        f"batched engine, below the 3x acceptance bar"
    )
    assert seq_speedup >= 3.0, (
        f"planned outcomes only {seq_speedup:.2f}x over the "
        f"batched engine, below the 3x acceptance bar"
    )
