"""Shared infrastructure for the experiment benchmarks.

Every benchmark regenerates one of the paper's tables or figures
(reconstructed as experiments E1-E8; see DESIGN.md).  Besides the
pytest-benchmark timing, each writes its rows to
``benchmarks/results/<experiment>.txt`` so the numbers survive the run
and can be pasted into EXPERIMENTS.md, plus a
``<experiment>.metrics.json`` sidecar: an ExperimentResult envelope
(see OBSERVABILITY.md) carrying the experiment's structured data and a
snapshot of the run's metrics, and a ``<experiment>.ledger.json`` run
manifest (git revision, environment, counters, artifact digests) that
``repro-cache report`` can summarize and diff across runs.

Pass ``--obs-trace`` to additionally record structured events
(``runner.*``, ``span.*``, ``kernel.*``, ``oracle.*``, ``infer.*``,
``identify.*`` — the cold-path kinds; per-access ``cache.*`` events are
excluded so tracing neither distorts the timed sections nor disengages
the compiled kernel) and write them to
``<experiment>.trace.jsonl`` next to the other artifacts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.obs import history as obs_history
from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.obs.result import ExperimentResult
from repro.kernels import kernel_enabled

RESULTS_DIR = Path(__file__).parent / "results"

#: Event-kind prefixes recorded under --obs-trace.
TRACE_INCLUDE = ("runner.", "span.", "kernel.", "oracle.", "infer.", "identify.")

#: Wall-clock start of the current test, for the ledger (set by _observe).
_CLOCK: dict[str, float] = {}


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        action="store",
        type=int,
        default=0,
        help="worker processes for experiment grids (0 = serial); results "
        "are bit-identical in both modes (see repro.runner)",
    )
    parser.addoption(
        "--obs-trace",
        action="store_true",
        default=False,
        help="record structured events per experiment and write them to "
        "benchmarks/results/<experiment>.trace.jsonl",
    )


@pytest.fixture(scope="session")
def jobs(request) -> int:
    """Worker count for the experiment runner (0 = serial default)."""
    return request.config.getoption("--jobs")


@pytest.fixture(autouse=True)
def _observe(request):
    """Reset metrics and span state per test; trace under --obs-trace.

    Each benchmark therefore sees only its own counters in the metrics
    sidecar — nothing bleeds across benches — and the tracer's events
    are available to ``save_result`` through
    :data:`repro.obs.trace.ACTIVE`.  The wall clock recorded here feeds
    the run ledger.
    """
    obs_metrics.DEFAULT.reset()
    obs_spans.reset()
    _CLOCK["start"] = time.perf_counter()
    if request.config.getoption("--obs-trace"):
        with obs_trace.tracing(include=TRACE_INCLUDE):
            yield
    else:
        yield


@pytest.fixture(scope="session")
def save_result(request):
    """Persist an experiment table plus its sidecar and run ledger.

    ``data`` and ``params`` feed the ``<name>.metrics.json`` envelope;
    anything JSON-unfriendly inside them is stringified.  When a tracer
    is active its events are drained to ``<name>.trace.jsonl``.  Every
    save also writes a ``<name>.ledger.json`` manifest so two runs of
    the same experiment can be compared with ``repro-cache report
    --diff``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str, data=None, params=None) -> None:
        params = params or {}
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        snapshot = obs_metrics.DEFAULT.snapshot()
        result = ExperimentResult(
            name=name,
            params=json.loads(json.dumps(params, default=str)),
            data=json.loads(json.dumps(data if data is not None else {}, default=str)),
            metrics=snapshot,
        )
        sidecar = RESULTS_DIR / f"{name}.metrics.json"
        sidecar.write_text(result.to_json(indent=2) + "\n")
        trace_path = None
        tracer = obs_trace.ACTIVE
        if tracer is not None and tracer.events:
            trace_path = obs_trace.write_jsonl(
                tracer.events, RESULTS_DIR / f"{name}.trace.jsonl"
            )
            tracer.events.clear()
            print(f"[trace saved to {trace_path}]")
        wall_seconds = time.perf_counter() - _CLOCK.get("start", time.perf_counter())
        jobs = params.get("jobs", request.config.getoption("--jobs"))
        ledger = obs_ledger.build_ledger(
            name=name,
            params=params,
            wall_seconds=wall_seconds,
            seed=params.get("seed"),
            jobs=int(jobs) if isinstance(jobs, (int, float, str)) and str(jobs).isdigit() else None,
            kernel=kernel_enabled(),
            counters=snapshot.get("counters", {}),
            # The table (<name>.txt) is gitignored, so a committed ledger
            # must not record it: --verify would report it missing.
            artifacts=[p for p in (sidecar, trace_path) if p is not None],
        )
        ledger_path = obs_ledger.write_ledger(
            ledger, obs_ledger.ledger_path_for(sidecar)
        )
        # Auto-record into the run-history database so `repro-cache
        # history check` and the dashboard see every bench run without a
        # separate ingest step.  Recording never fails the benchmark.
        try:
            recorded = obs_history.record_ledger(ledger, source="bench")
        except Exception:
            recorded = None
        history_note = (
            f"; history run {recorded}" if recorded is not None else ""
        )
        print(f"\n{text}\n[saved to {path}; metrics sidecar {sidecar}; "
              f"ledger {ledger_path}{history_note}]")

    return _save
