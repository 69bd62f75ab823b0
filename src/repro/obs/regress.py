"""Perf-regression detection over the run-history database.

The detector answers one question per experiment group: *is the latest
run slower (or hungrier) than its recent history says it should be?*

Runs are grouped by **baseline key** — ``(experiment name, jobs,
kernel, vector)`` — because those settings legitimately change wall
time; comparing a serial interpreter run against a ``--jobs 4`` kernel
run would only produce noise.  ``vector`` is the run's recorded
``vector`` param: whether numpy, and with it the vector engine, was
importable (CLI simulation runs record it).  Within a group the newest
run is the **candidate** and the runs before it form the **baseline
window**:

* baseline center = median of the window's values (robust to one bad
  historical run);
* baseline spread = MAD (median absolute deviation), the robust sigma;
* a candidate **fails** when it exceeds *both* the ratio threshold
  (``value > threshold * median``) and the noise band
  (``value > median + NOISE_SIGMAS * 1.4826 * MAD + epsilon``) — the
  combined rule keeps tiny absolute drifts on millisecond-scale runs
  from flagging, while a genuine 3x wall-time jump always does;
* groups with fewer than ``min_samples`` baseline runs are **skipped**
  (verdict ``skip``), the min-sample guard for cold history databases.

``--baseline REF`` pins the baseline window to the runs recorded at one
git revision (prefix match) instead of the sliding window, for "did my
branch regress against main?" checks.

Wall time is always checked; each :data:`CHECK_COUNTERS` counter
present in both candidate and baseline is checked with the (laxer)
counter threshold — counters are deterministic per experiment, so a
drift there means the *logical* cost model moved, not the machine.

Consumers: ``repro-cache history check`` (exit-code gate),
``repro-cache report --against-history`` (render one ledger against its
baseline), and the dashboard (flag regressed runs red).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import history as obs_history
from repro.obs import ledger as obs_ledger
from repro.util.tables import format_table

__all__ = [
    "CHECK_COUNTERS",
    "DEFAULT_MIN_SAMPLES",
    "DEFAULT_WALL_THRESHOLD",
    "DEFAULT_COUNTER_THRESHOLD",
    "DEFAULT_WINDOW",
    "BaselineKey",
    "Verdict",
    "check_history",
    "check_run",
    "format_verdicts",
    "median_mad",
]

#: Sliding-window length: how many prior runs form the baseline.
DEFAULT_WINDOW = 10

#: Baseline runs required before a verdict is rendered at all.
DEFAULT_MIN_SAMPLES = 1

#: Candidate wall time above ``threshold * median`` fails (with the MAD
#: noise band also exceeded).  1.5x tolerates shared-runner jitter;
#: the CI smoke gate tightens it to 2.0 explicitly.
DEFAULT_WALL_THRESHOLD = 1.5

#: Counters drift threshold — laxer than wall time because a counter
#: regression is a logical-cost change, checked on exact-ish quantities.
DEFAULT_COUNTER_THRESHOLD = 2.0

#: MAD multiples a candidate must clear beyond the median (1.4826 * MAD
#: estimates sigma for normal noise).
NOISE_SIGMAS = 3.0

#: Absolute wall-time slack (seconds): sub-50ms drifts never flag.
WALL_EPSILON = 0.05

#: Absolute counter slack: single-digit count drifts never flag.
COUNTER_EPSILON = 8.0

#: Ledger counters baselined per group (the paper's query-cost model
#: plus the execution-tier totals; warm/cold splits are process-local
#: and deliberately absent).
CHECK_COUNTERS = (
    "oracle.measurements",
    "oracle.accesses",
    "kernel.accesses",
    "kernel.trie.fallbacks",
    "db.miss",
    "cache.flush.sets",
    "runner.chunk_retries",
    "runner.pool.restarted",
    "runner.shm.fallbacks",
)


@dataclass(frozen=True)
class BaselineKey:
    """The grouping key runs are baselined within."""

    name: str
    jobs: int | None
    kernel: bool | None
    vector: bool | None

    def describe(self) -> str:
        parts = [self.name]
        parts.append(f"jobs={self.jobs if self.jobs is not None else '-'}")
        parts.append(f"kernel={self.kernel if self.kernel is not None else '-'}")
        if self.vector is not None:
            parts.append(f"vector={self.vector}")
        return " ".join(parts)


@dataclass(frozen=True)
class Verdict:
    """One metric's regression verdict for one candidate run.

    ``status`` is ``ok``, ``fail`` or ``skip`` (not enough baseline
    samples).  ``run_id`` is the candidate's history row id, so the
    dashboard can flag the exact run.
    """

    key: BaselineKey
    metric: str
    status: str
    value: float
    baseline_median: float | None = None
    baseline_mad: float | None = None
    baseline_runs: int = 0
    threshold: float | None = None
    run_id: int | None = None
    run_created: str | None = None
    note: str = ""

    @property
    def ratio(self) -> float | None:
        if self.baseline_median:
            return self.value / self.baseline_median
        return None


def median_mad(values: list[float]) -> tuple[float, float]:
    """Median and median-absolute-deviation of ``values`` (non-empty)."""
    ordered = sorted(values)
    count = len(ordered)
    mid = count // 2
    if count % 2:
        median = ordered[mid]
    else:
        median = (ordered[mid - 1] + ordered[mid]) / 2.0
    deviations = sorted(abs(value - median) for value in ordered)
    if count % 2:
        mad = deviations[mid]
    else:
        mad = (deviations[mid - 1] + deviations[mid]) / 2.0
    return median, mad


def _exceeds(
    value: float,
    median: float,
    mad: float,
    threshold: float,
    epsilon: float,
) -> bool:
    """The combined regression rule: ratio gate AND robust noise band."""
    if value <= threshold * median + 1e-12:
        return False
    return value > median + NOISE_SIGMAS * 1.4826 * mad + epsilon


def _key_for(run: dict) -> BaselineKey:
    return BaselineKey(
        name=run["name"],
        jobs=run.get("jobs"),
        kernel=run.get("kernel"),
        vector=run.get("vector"),
    )


def _judge(
    key: BaselineKey,
    candidate: dict,
    baseline: list[dict],
    min_samples: int,
    wall_threshold: float,
    counter_threshold: float,
) -> list[Verdict]:
    """Verdicts for one candidate against its baseline window."""
    common = {
        "run_id": candidate["id"],
        "run_created": candidate["created"],
        "key": key,
    }
    if len(baseline) < min_samples:
        return [
            Verdict(
                metric="wall_seconds",
                status="skip",
                value=candidate["wall_seconds"],
                baseline_runs=len(baseline),
                note=f"need {min_samples} baseline run(s), have {len(baseline)}",
                **common,
            )
        ]
    verdicts: list[Verdict] = []
    walls = [run["wall_seconds"] for run in baseline]
    median, mad = median_mad(walls)
    failed = _exceeds(
        candidate["wall_seconds"], median, mad, wall_threshold, WALL_EPSILON
    )
    verdicts.append(
        Verdict(
            metric="wall_seconds",
            status="fail" if failed else "ok",
            value=candidate["wall_seconds"],
            baseline_median=median,
            baseline_mad=mad,
            baseline_runs=len(baseline),
            threshold=wall_threshold,
            **common,
        )
    )
    candidate_counters = candidate.get("counters") or {}
    for name in CHECK_COUNTERS:
        if name not in candidate_counters:
            continue
        series = [
            run["counters"][name]
            for run in baseline
            if name in (run.get("counters") or {})
        ]
        if len(series) < min_samples:
            continue
        median, mad = median_mad(series)
        failed = _exceeds(
            candidate_counters[name], median, mad, counter_threshold,
            COUNTER_EPSILON,
        )
        verdicts.append(
            Verdict(
                metric=name,
                status="fail" if failed else "ok",
                value=candidate_counters[name],
                baseline_median=median,
                baseline_mad=mad,
                baseline_runs=len(series),
                threshold=counter_threshold,
                **common,
            )
        )
    return verdicts


def check_history(
    db: "obs_history.HistoryDB | None" = None,
    experiments: list[str] | None = None,
    window: int = DEFAULT_WINDOW,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    counter_threshold: float = DEFAULT_COUNTER_THRESHOLD,
    baseline_ref: str | None = None,
) -> list[Verdict]:
    """Judge the latest run of every baseline group in the history DB.

    Returns one verdict list over all groups (wall time first within
    each group).  ``experiments`` restricts to the named experiments;
    ``baseline_ref`` pins the baseline to runs recorded at that git
    revision (sha prefix) instead of the sliding window.
    """
    db = db or obs_history.get_history()
    runs = db.runs(with_counters=True)
    if experiments:
        wanted = set(experiments)
        runs = [run for run in runs if run["name"] in wanted]
    groups: dict[BaselineKey, list[dict]] = {}
    for run in runs:  # runs() is newest-first
        groups.setdefault(_key_for(run), []).append(run)
    verdicts: list[Verdict] = []
    for key in sorted(groups, key=lambda k: (k.name, str(k.jobs))):
        ordered = groups[key]
        candidate = ordered[0]
        if baseline_ref is not None:
            baseline = [
                run
                for run in ordered[1:]
                if run.get("git_sha") and run["git_sha"].startswith(baseline_ref)
            ][:window]
            if not baseline:
                verdicts.append(
                    Verdict(
                        key=key,
                        metric="wall_seconds",
                        status="skip",
                        value=candidate["wall_seconds"],
                        run_id=candidate["id"],
                        run_created=candidate["created"],
                        note=f"no baseline runs at git {baseline_ref}",
                    )
                )
                continue
        else:
            baseline = ordered[1 : 1 + window]
        verdicts.extend(
            _judge(
                key, candidate, baseline, min_samples, wall_threshold,
                counter_threshold,
            )
        )
    return verdicts


def check_run(
    ledger: "obs_ledger.RunLedger",
    db: "obs_history.HistoryDB | None" = None,
    window: int = DEFAULT_WINDOW,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    counter_threshold: float = DEFAULT_COUNTER_THRESHOLD,
    baseline_ref: str | None = None,
) -> list[Verdict]:
    """Judge one ledger (not yet necessarily in history) against history.

    The ``report --against-history`` path: the baseline window is drawn
    from recorded runs in the ledger's group, excluding any run with the
    same content (so checking an already-ingested ledger does not
    baseline it against itself).
    """
    db = db or obs_history.get_history()
    params = ledger.params or {}
    vector = params.get("vector")
    key = BaselineKey(
        name=ledger.name,
        jobs=ledger.jobs,
        kernel=ledger.kernel,
        vector=None if vector is None else bool(vector),
    )
    candidate = {
        "id": None,
        "name": ledger.name,
        "created": ledger.created,
        "wall_seconds": ledger.wall_seconds,
        "jobs": ledger.jobs,
        "kernel": ledger.kernel,
        "vector": key.vector,
        "counters": ledger.counters,
    }
    baseline = [
        run
        for run in db.runs(name=ledger.name, with_counters=True)
        if _key_for(run) == key
        and not (
            run["created"] == ledger.created
            and run["wall_seconds"] == ledger.wall_seconds
        )
    ]
    if baseline_ref is not None:
        baseline = [
            run
            for run in baseline
            if run.get("git_sha") and run["git_sha"].startswith(baseline_ref)
        ]
    return _judge(
        key, candidate, baseline[:window], min_samples, wall_threshold,
        counter_threshold,
    )


def format_verdicts(verdicts: list[Verdict], title: str = "history check") -> str:
    """Render verdicts as a printable table (the CLI's output)."""
    rows: list[list[object]] = []
    for verdict in verdicts:
        ratio = verdict.ratio
        rows.append(
            [
                verdict.key.describe(),
                verdict.metric,
                f"{verdict.value:.3f}" if verdict.metric == "wall_seconds"
                else f"{verdict.value:g}",
                "-" if verdict.baseline_median is None
                else (
                    f"{verdict.baseline_median:.3f}"
                    if verdict.metric == "wall_seconds"
                    else f"{verdict.baseline_median:g}"
                ),
                f"{ratio:.2f}x" if ratio is not None else "-",
                verdict.baseline_runs,
                verdict.status.upper(),
                verdict.note,
            ]
        )
    return format_table(
        ["group", "metric", "value", "baseline", "ratio", "n", "status", "note"],
        rows,
        title=title,
    )
