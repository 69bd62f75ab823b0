"""The four benchmark workloads: fixed cell tables, set-up, one pass, checks.

Each workload runs a fixed table of cells serially in this process.  The
``--seed`` argument only reorders the table and picks inputs whose
correct outputs do not depend on it (platform seeds, a tag relabeling of
the traces), so one recorded reference (``reference.json``) checks every
seed and every pass does the same amount of work.

Every cell is guarded: a cell that raises becomes a failed cell with its
error text instead of aborting the run.  Each workload declares its cell
labels in set-up, and a pass whose outputs miss a label or add one fails
those cells (see ``harness.Pass.problems``).
"""

from __future__ import annotations

import random
import traceback

from repro.cache import CacheConfig
from repro.core import InferenceConfig, SimulatedSetOracle, VotingOracle, reverse_engineer
from repro.eval import miss_ratio_matrix
from repro.eval.predictability import predictability_of_policy
from repro.hardware import (
    PROCESSORS,
    HardwarePlatform,
    HardwareSetOracle,
    LevelSpec,
    NoiseModel,
    ProcessorSpec,
)
from repro.kernels import clear_compile_cache, store
from repro.measuredb import MeasurementDBOracle
from repro.policies import get as get_policy
from repro.runner import ExperimentRunner
from repro.workloads import Trace, workload_suite

# -- hw-reverse ----------------------------------------------------------------
#: E1's trimmed verification (benchmarks/bench_e1_inferred_policies.py).
E1_CONFIG = InferenceConfig(verify_sequences=10, verify_length=40)
#: E6's windowed verification for noisy counters (bench_e6_noise.py).
E6_CONFIG = InferenceConfig(verify_sequences=8, verify_length=40, verify_window=4)
#: Set-dueling policies have no per-set identity: the right verdict is
#: "unidentified" (E1 and E9 treat them the same way).
ADAPTIVE_POLICIES = ("dip", "drrip")

#: Candidate identification through the hardware path.  The one catalog
#: cell that takes it, ivybridge L2, compiles 25 8-way candidate automata
#: per pass (about 6 s), so the same policy sits here at 4 ways.
MINI_QLRU = ProcessorSpec(
    name="mini-qlru-l2",
    description="PLRU L1 over a 4-way quad-age L2 (ivybridge L2 policy)",
    levels=(
        LevelSpec(CacheConfig("L1", 4 * 1024, 4), "plru"),
        LevelSpec(CacheConfig("L2", 64 * 1024, 4, inclusion="nine"), "qlru_h00_m2"),
    ),
)
#: E6's noisy-counter platform at rate 0.01, measured 7 times with min.
NOISY_PLRU = ProcessorSpec(
    name="noisy-0.01",
    description="PLRU L1 with noisy counters",
    levels=(LevelSpec(CacheConfig("L1", 4 * 1024, 4), "plru"),),
    noise=NoiseModel(counter_noise_rate=0.01),
)

#: (label, processor, level, repetitions, inference config, max_blocks).
HW_CELLS = [
    ("atom-d525-like/L1", PROCESSORS["atom-d525-like"], "L1", 1, E1_CONFIG, 512),
    ("core2-e6300-like/L1", PROCESSORS["core2-e6300-like"], "L1", 1, E1_CONFIG, 512),
    ("sandybridge-like/L1", PROCESSORS["sandybridge-like"], "L1", 1, E1_CONFIG, 512),
    ("mini-qlru-l2/L2", MINI_QLRU, "L2", 1, E1_CONFIG, 512),
    ("noisy-0.01/L1#a", NOISY_PLRU, "L1", 7, E6_CONFIG, 96),
    ("noisy-0.01/L1#b", NOISY_PLRU, "L1", 7, E6_CONFIG, 96),
]

# -- zoo-infer -----------------------------------------------------------------
ZOO_POLICIES = [
    "lru", "fifo", "plru", "bitplru", "nru", "srrip", "qlru_h00_m1", "qlru_h11_m1", "slru",
]
#: 8-way srrip and qlru identification (11 s together) and 16-way lru,
#: fifo, plru (9 s) are left out to keep a pass near 5 s.
ZOO_CELLS = (
    [(policy, 4) for policy in ZOO_POLICIES]
    + [(policy, 8) for policy in ("lru", "fifo", "plru", "bitplru", "nru", "slru")]
    + [("bitplru", 16)]
)

# -- trace-eval ----------------------------------------------------------------
#: E3's nine policies at 8 ways, on a cache 4x E3's so a pass lasts seconds.
TRACE_POLICIES = ["lru", "fifo", "plru", "bitplru", "nru", "srrip", "lip", "dip", "random"]
TRACE_CONFIG = CacheConfig("L2", 256 * 1024, 8)

# -- predictability ------------------------------------------------------------
PRED_POLICIES = ["lru", "fifo", "plru", "bitplru", "nru", "srrip", "qlru_h00_m1", "random"]
#: 8-way qlru_h00_m1 (8 s to exhaust its state budget) is left out.
PRED_CELLS = [
    (policy, ways)
    for ways in (2, 4, 8)
    for policy in PRED_POLICIES
    if (policy, ways) != ("qlru_h00_m1", 8)
]
BUDGET_EXCEEDED = "state budget exceeded"


def run_cell(cell, task) -> dict:
    """Run one cell; an exception becomes ``{"error": ...}``."""
    try:
        return cell(task)
    except Exception as exc:  # noqa: BLE001 - a failed cell, not a failed run
        return {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}


def by_label(labels: list[str], outputs: list[dict]) -> dict[str, dict]:
    """``{label: output}``; when the counts differ, every cell fails."""
    if len(outputs) != len(labels):
        error = {"error": f"{len(outputs)} outputs for {len(labels)} cells"}
        return {label: error for label in labels}
    return dict(zip(labels, outputs))


def serial_map(cell, tasks, labels) -> dict[str, dict]:
    """Cells through the experiment runner, serially (no worker pool)."""
    # run_cell is looked up per call, so a traced pass sees its span.
    outputs = ExperimentRunner(jobs=0).map(
        lambda task: run_cell(cell, task), tasks, labels=labels
    )
    return by_label(labels, outputs)


def boot_platform(spec: ProcessorSpec, level: str, seed: int, max_blocks: int):
    """Boot a platform and its harness: the ``hardware.boot`` layer."""
    platform = HardwarePlatform(spec, seed=seed)
    return platform, HardwareSetOracle(platform, level, max_blocks=max_blocks)


def spec_vectors(spec) -> list | None:
    return None if spec is None else [list(map(list, spec.hit_perms)), list(spec.miss_perm)]


def oracle_counts(outputs: dict[str, dict]) -> dict[str, int]:
    """Logical oracle cost summed over the cells' findings."""
    return {
        "core.oracle.measurements": sum(out.get("measurements", 0) for out in outputs.values()),
        "core.oracle.accesses": sum(out.get("accesses", 0) for out in outputs.values()),
    }


class Workload:
    """One workload: ``setup`` builds its inputs and warm state once;
    ``run_pass`` runs the cell table and returns ``{label: output}``."""

    name = ""

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        self.reference = reference
        #: Every cell a pass must return, set by ``setup``.
        self.labels: list[str] = []

    def setup(self) -> None:
        """Declared set-up: build the inputs (from ``self.seed``), the
        cell labels and any warm state the passes start from.
        Repeatable: every call builds the same state."""

    def run_pass(self) -> dict[str, dict]:
        """One pass over the cell table: ``{label: output}``."""
        raise NotImplementedError

    def check(self, label: str, output: dict) -> str | None:
        """The problem with one cell's output, or None when it is right."""
        raise NotImplementedError

    def units(self, outputs: dict[str, dict]) -> int:
        """Work units of one pass: what ``ops_per_s`` counts."""
        raise NotImplementedError

    def layer_counts(self, outputs: dict[str, dict]) -> dict[str, float]:
        """Per-layer counts this workload reads off its own outputs."""
        return {}

    def record(self, outputs: dict[str, dict]) -> dict:
        """The reference entry for these (checked by hand) outputs."""
        return dict(outputs)


class HwReverse(Workload):
    name = "hw-reverse"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.tasks = [
            (label, spec, level, rng.randrange(1 << 31), reps, config, blocks)
            for label, spec, level, reps, config, blocks in HW_CELLS
        ]
        rng.shuffle(self.tasks)
        self.labels = [task[0] for task in self.tasks]

    def run_pass(self):
        return serial_map(_hw_cell, self.tasks, self.labels)

    def check(self, label: str, output: dict) -> str | None:
        if "error" in output:
            return output["error"]
        truth = output["truth"]
        if truth in ADAPTIVE_POLICIES:
            if output["identified"]:
                return f"adaptive {truth} identified as {output['summary']}"
        elif output["policy"] != truth:
            return f"inferred {output['summary']}, truth {truth}"
        expected = self.reference[label]["measurements"]
        if output["measurements"] != expected:
            return f"{output['measurements']} measurements, reference {expected}"
        return None

    def units(self, outputs):
        return sum(out.get("measurements", 0) for out in outputs.values())

    def layer_counts(self, outputs):
        counts = {"hardware.loads": 0, "core.vote.samples": 0, **oracle_counts(outputs)}
        for level in ("L1", "L2", "L3"):
            counts[f"cache.{level}.accesses"] = 0
            counts[f"cache.{level}.misses"] = 0
        for out in outputs.values():
            if "error" in out:
                continue
            counts["hardware.loads"] += out["loads"]
            if out["repetitions"] > 1:
                counts["core.vote.samples"] += out["measurements"]
            for level, (accesses, misses) in out["levels"].items():
                counts[f"cache.{level}.accesses"] += accesses
                counts[f"cache.{level}.misses"] += misses
        return counts

    def record(self, outputs):
        return {label: {"measurements": out["measurements"]} for label, out in outputs.items()}


def _hw_cell(task) -> dict:
    label, spec, level, seed, repetitions, config, max_blocks = task
    platform, oracle = boot_platform(spec, level, seed, max_blocks)
    if repetitions > 1:
        oracle = VotingOracle(oracle, repetitions=repetitions, aggregate="min")
    finding = reverse_engineer(oracle, inference_config=config)
    return {
        "summary": finding.summary(),
        "policy": finding.policy_name,
        "identified": finding.identified,
        "truth": spec.ground_truth[level],
        "repetitions": repetitions,
        "measurements": finding.measurements,
        "accesses": finding.accesses,
        "loads": platform.loads_performed,
        "levels": {
            cache.name: (cache.stats.accesses, cache.stats.misses)
            for cache in platform.hierarchy.levels
        },
    }


class ZooInfer(Workload):
    name = "zoo-infer"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.tasks = list(ZOO_CELLS)
        rng.shuffle(self.tasks)
        self.labels = [f"{policy}/{ways}" for policy, ways in self.tasks]

    def run_pass(self):
        return serial_map(_zoo_cell, self.tasks, self.labels)

    def check(self, label: str, output: dict) -> str | None:
        if "error" in output:
            return output["error"]
        expected = self.reference[label]
        for key in ("summary", "spec", "measurements", "accesses"):
            if output[key] != expected[key]:
                return f"{key} {output[key]!r}, reference {expected[key]!r}"
        return None

    def units(self, outputs):
        return sum(out.get("measurements", 0) for out in outputs.values())

    def layer_counts(self, outputs):
        return oracle_counts(outputs)


def _zoo_cell(task) -> dict:
    policy, ways = task
    oracle = MeasurementDBOracle(SimulatedSetOracle(get_policy(policy, ways)))
    finding = reverse_engineer(oracle)
    return {
        "summary": finding.summary(),
        "spec": spec_vectors(finding.spec),
        "measurements": finding.measurements,
        "accesses": finding.accesses,
    }


class TraceEval(Workload):
    name = "trace-eval"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        traces = workload_suite(
            cache_lines=TRACE_CONFIG.num_sets * TRACE_CONFIG.ways, seed=0
        )
        # XOR a seeded mask into the tag bits: a bijection on tags that
        # keeps every set index and the access order, so each cell's
        # miss count is the same for every seed.
        tag_shift = TRACE_CONFIG.offset_bits + TRACE_CONFIG.index_bits
        tag_bits = max(address for trace in traces for address in trace).bit_length() - tag_shift
        mask = rng.randrange(1 << max(tag_bits, 1)) << tag_shift
        self.traces = [
            Trace(name=trace.name, addresses=tuple(address ^ mask for address in trace))
            for trace in traces
        ]
        self.labels = [
            f"{policy}/{trace.name}" for policy in TRACE_POLICIES for trace in self.traces
        ]
        store.warm((policy, (), TRACE_CONFIG.ways) for policy in TRACE_POLICIES)
        # Passes load the warmed automata from the store, not from memory.
        clear_compile_cache()

    def run_pass(self):
        # Fresh Trace objects: their memoized address arrays are built in
        # every pass alike.
        traces = [Trace(name=trace.name, addresses=trace.addresses) for trace in self.traces]
        try:
            matrix = miss_ratio_matrix(
                traces, TRACE_CONFIG, TRACE_POLICIES, seed=0, jobs=0, memoize=False
            )
        except Exception as exc:  # noqa: BLE001 - every cell of the grid failed
            return {label: {"error": f"{type(exc).__name__}: {exc}"} for label in self.labels}
        if len(matrix.cells) != len(self.labels):
            return by_label(self.labels, matrix.cells)
        # With the count right, a repeated cell leaves a label missing.
        return {
            f"{cell.policy}/{cell.trace}": {"misses": cell.misses, "accesses": cell.accesses}
            for cell in matrix.cells
        }

    def check(self, label: str, output: dict) -> str | None:
        if "error" in output:
            return output["error"]
        expected = self.reference.get(label)
        if output != expected:
            return f"{output}, reference {expected}"
        return None

    def units(self, outputs):
        return sum(out.get("accesses", 0) for out in outputs.values())


class Predictability(Workload):
    name = "predictability"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.tasks = list(PRED_CELLS)
        rng.shuffle(self.tasks)
        self.labels = [f"{policy}/{ways}" for policy, ways in self.tasks]

    def run_pass(self):
        return serial_map(_pred_cell, self.tasks, self.labels)

    def check(self, label: str, output: dict) -> str | None:
        if "error" in output:
            return output["error"]
        policy, ways = label.split("/")
        closed = closed_form(policy, int(ways))
        if closed is not None and (output["evict"], output["fill"]) != closed:
            return f"evict/fill {output['evict']}/{output['fill']}, closed form {closed}"
        expected = self.reference[label]
        if expected["note"] == BUDGET_EXCEEDED:
            # A later exact search may resolve the cell: any bounded
            # answer is accepted in place of the exceeded budget.
            if output["note"] == BUDGET_EXCEEDED or output["evict"] is not None:
                return None
        if output != expected:
            return f"{output}, reference {expected}"
        return None

    def units(self, outputs):
        return len(outputs)

    def layer_counts(self, outputs):
        unresolved = sum(1 for out in outputs.values() if out.get("note") == BUDGET_EXCEEDED)
        return {"eval.predictability.unresolved": unresolved}


def _pred_cell(task) -> dict:
    policy, ways = task
    result = predictability_of_policy(policy, get_policy(policy, ways))
    return {"evict": result.evict, "fill": result.fill, "note": result.note}


def closed_form(policy: str, ways: int) -> tuple[int, int] | None:
    """(evict, fill) of LRU, FIFO and tree-PLRU.

    evict is Reineke et al.'s closed form; fill is evict plus the
    collapse depth, which is ``ways`` for these permutation policies.
    """
    log2 = ways.bit_length() - 1
    evict = {"lru": ways, "fifo": 2 * ways - 1, "plru": ways // 2 * log2 + 1}.get(policy)
    return None if evict is None else (evict, evict + ways)


WORKLOADS = {cls.name: cls for cls in (HwReverse, ZooInfer, TraceEval, Predictability)}
