"""One benchmark run: isolation, set-up, timed passes, checks and metrics.

Every pass of a run starts from the same declared state:

* the in-process memos are empty (compiled automata, the runner's cell
  memo, the measurement-DB services and handle, the trace layout memo);
* the measurement DB is a fresh empty directory;
* the artifact store and the run history live in directories made for
  this run inside the checkout (``.bench_build/``: a run reads and writes
  nothing outside its checkout), and history recording and tracers are
  off;
* whatever warm state a workload needs was built by its set-up, never
  by an earlier pass.

A guard checks that every pass compiled the same number of automata and
missed the measurement DB as often as the first pass did, so cold and
warm passes cannot mix in one run without the run saying so.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro import kernels, measuredb
from repro.kernels import automaton, store, vector
from repro.measuredb.db import set_db_dir
from repro.obs import history
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runner import clear_memo

import workloads
from spans import SpanRecorder, layer_bindings

#: Set-up runs this many times per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3
REFERENCE = Path(__file__).with_name("reference.json")
#: Per-run scratch directories are made here, in the checkout.
SCRATCH = Path(__file__).resolve().parent.parent / ".bench_build"

#: Package counters read as per-pass deltas.
COUNTERS = (
    "kernel.compile.miss",
    "db.miss",
    "db.hit",
    "db.write",
    "kernel.accesses",
    "kernel.setup_reused",
    "kernel.trie.reused_accesses",
    "kernel.trie.plans",
    "kernel.trie.fallbacks",
    "kernel.vector.fallbacks",
    "runner.pool.spawned",
)

#: Spans reported as ``<name>.calls`` and ``<name>.self_s``.
CALL_SPANS = (
    "hardware.boot", "hardware.measure", "cache.flush",
    "core.infer", "core.identify", "core.sim_query", "core.vote",
    "measuredb.query",
    "kernels.compile", "kernels.store_load", "kernels.trace", "kernels.batch", "kernels.set",
    "eval.simulate_trace",
    "runner.map",
)
#: Spans reported by self time only.
SELF_SPANS = (
    "measuredb.db", "eval.reachable_states", "eval.evict_metric", "eval.collapse_depth",
)
#: Every per-layer metric with its unit, in report order.
PER_LAYER = (
    [(f"{span}.calls", "count") for span in CALL_SPANS]
    + [(f"{span}.self_s", "s") for span in CALL_SPANS + SELF_SPANS]
    + [
        ("hardware.loads", "count"),
        ("cache.L1.accesses", "count"),
        ("cache.L1.misses", "count"),
        ("cache.L2.accesses", "count"),
        ("cache.L2.misses", "count"),
        ("cache.L3.accesses", "count"),
        ("cache.L3.misses", "count"),
        ("core.vote.samples", "count"),
        ("core.oracle.measurements", "count"),
        ("core.oracle.accesses", "count"),
        ("measuredb.db.rows_written", "count"),
        ("measuredb.hit_ratio", "ratio"),
        ("kernels.compile.states", "count"),
        ("kernels.trace.accesses", "count"),
        ("kernels.batch.queries", "count"),
        ("kernels.executed_ratio", "ratio"),
        ("kernels.trie.plans", "count"),
        ("kernels.trie.fallbacks", "count"),
        ("kernels.vector.fallbacks", "count"),
        ("eval.predictability.calls", "count"),
        ("eval.predictability.unresolved", "count"),
        ("workloads.generate.self_s", "s"),
        ("obs.trace_overhead_ratio", "ratio"),
    ]
)
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))


class Isolation:
    """Fresh directories for every persistent store, inside the checkout."""

    def __init__(self) -> None:
        SCRATCH.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="perfbench-", dir=SCRATCH))
        self._made = 0

    def fresh(self, name: str) -> Path:
        self._made += 1
        path = self.root / f"{name}-{self._made}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def reset_memos() -> None:
    """Empty every in-process memo a pass could inherit."""
    kernels.clear_compile_cache()
    clear_memo()
    measuredb.reset()
    vector._TRACE_LAYOUT = None


def begin_setup(iso: Isolation) -> None:
    """The state a set-up starts from: empty stores, empty memos."""
    if obs_trace.ACTIVE is not None:
        raise RuntimeError("a tracer is active; the benchmark measures untraced")
    store.set_cache_dir(iso.fresh("store"))
    history.set_history_dir(iso.fresh("history"))
    history.set_history_enabled(False)
    reset_memos()


class Pass:
    """One timed pass: wall time, per-cell outputs, counter deltas."""

    def __init__(self, workload, iso: Isolation) -> None:
        reset_memos()
        set_db_dir(iso.fresh("db"))
        gc.collect()
        before = {name: obs_metrics.DEFAULT.counter(name) for name in COUNTERS}
        start = time.perf_counter()
        self.outputs = workload.run_pass()
        self.wall = time.perf_counter() - start
        self.counters = {
            name: obs_metrics.DEFAULT.counter(name) - before[name] for name in COUNTERS
        }
        measuredb.reset()
        self.units = workload.units(self.outputs)
        self.guard = (self.counters["kernel.compile.miss"], self.counters["db.miss"])

    def problems(self, workload) -> dict[str, str]:
        """``{label: problem}`` for every cell that is wrong, missing from
        the outputs, or not a cell of the workload."""
        problems = {
            label: "no output" for label in workload.labels if label not in self.outputs
        }
        expected = set(workload.labels)
        for label, output in self.outputs.items():
            if label not in expected:
                problems[label] = "not a cell of the workload"
            elif (problem := workload.check(label, output)) is not None:
                problems[label] = problem
        return problems


def layer_values(totals: dict, kept: dict, counters: dict, own: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (set-up-only ones aside)."""
    values: dict[str, float] = {name: 0 for name, _unit in PER_LAYER}
    for name, entry in totals.items():
        if f"{name}.calls" in values:
            values[f"{name}.calls"] = entry["calls"]
        if f"{name}.self_s" in values:
            values[f"{name}.self_s"] = entry["self_s"]
    values["eval.predictability.calls"] = totals.get("eval.predictability", {}).get("calls", 0)
    values["kernels.batch.queries"] = totals.get("kernels.batch", {}).get("units", 0)
    values["kernels.trace.accesses"] = totals.get("kernels.trace", {}).get("units", 0)
    values["kernels.compile.states"] = sum(
        compiled.num_states
        for compiled in kept.get("kernels.compile", [])
        if isinstance(compiled, automaton.CompiledPolicy)
    )
    lookups = counters["db.hit"] + counters["db.miss"]
    values["measuredb.hit_ratio"] = counters["db.hit"] / lookups if lookups else 0.0
    values["measuredb.db.rows_written"] = counters["db.write"]
    executed = counters["kernel.accesses"]
    logical = executed + counters["kernel.setup_reused"] + counters["kernel.trie.reused_accesses"]
    values["kernels.executed_ratio"] = executed / logical if logical else 0.0
    for name in ("kernels.trie.plans", "kernels.trie.fallbacks", "kernels.vector.fallbacks"):
        values[name] = counters[name.replace("kernels.", "kernel.", 1)]
    values.update(own)
    return values


def load_reference(workload_name: str) -> dict:
    with REFERENCE.open() as handle:
        return json.load(handle)[workload_name]


def run(workload_name: str, seed: int, seconds: float, traced: bool, import_s: float) -> dict:
    """Run one workload; return the result object the run prints."""
    workload = workloads.WORKLOADS[workload_name](seed, load_reference(workload_name))
    recorder = SpanRecorder(layer_bindings(workloads)) if traced else None
    iso = Isolation()
    try:
        setups = []
        for _ in range(1 if traced else SETUP_REPEATS):
            begin_setup(iso)
            if recorder is not None:
                recorder.install()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
            if recorder is not None:
                recorder.uninstall()
                setup_totals, _kept = recorder.take()

        untraced: list[Pass] = []
        traced_passes: list[tuple[Pass, dict]] = []
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < seconds:
            untraced.append(Pass(workload, iso))
            if recorder is not None:
                recorder.install()
                try:
                    done = Pass(workload, iso)
                finally:
                    recorder.uninstall()
                totals, kept = recorder.take()
                traced_passes.append(
                    (done, layer_values(totals, kept, done.counters,
                                        workload.layer_counts(done.outputs)))
                )
        passes = untraced + [done for done, _values in traced_passes]
    finally:
        iso.close()

    correct = True
    failures = [(label, problem) for p in passes for label, problem in p.problems(workload).items()]
    for label, problem in failures[:10]:
        print(f"[{workload_name}] FAILED {label}: {problem}", file=sys.stderr)
    if any(p.guard != passes[0].guard for p in passes):
        print(f"[{workload_name}] passes differ in (kernel.compile.miss, db.miss): "
              f"{[p.guard for p in passes]}", file=sys.stderr)
        correct = False
    if any(p.counters["runner.pool.spawned"] for p in passes):
        print(f"[{workload_name}] a worker pool was spawned", file=sys.stderr)
        correct = False

    wall = statistics.median(p.wall for p in untraced)
    if recorder is None:
        metrics = {
            "wall_s": wall,
            "setup_s": import_s + statistics.median(setups),
            "ops_per_s": statistics.median(p.units / p.wall for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    else:
        metrics = {
            name: statistics.median(values[name] for _done, values in traced_passes)
            for name, _unit in PER_LAYER
        }
        metrics["workloads.generate.self_s"] = (
            setup_totals.get("workloads.generate", {}).get("self_s", 0.0)
        )
        metrics["obs.trace_overhead_ratio"] = (
            statistics.median(done.wall for done, _values in traced_passes) / wall
        )
        units = dict(PER_LAYER)
    print(f"[{workload_name}] seed {seed}: {len(untraced)} untraced + "
          f"{len(traced_passes)} traced passes, pass walls "
          f"{[round(p.wall, 3) for p in passes]}", file=sys.stderr)
    return {
        "correct": correct and not failures,
        "attempted": len(workload.labels) * len(passes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
