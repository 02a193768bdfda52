"""Per-layer metrics from recorded spans, client timings and counters.

Every metric is computed for every workload; a layer a workload does
not exercise reads 0 there (the daemon layers on ``fleet_sweep``, the
sweep layer on ``daemon_cold_batch``).  See README.md for which
end-to-end metric each one should move.
"""

from __future__ import annotations

import bisect
import statistics
from typing import Any, Iterable

from tracing import Span

#: Per-layer metric names, units and directions (BENCHMARK.json order).
PER_LAYER = (
    ("daemon.submit_ms", "ms", "lower"),
    ("daemon.result_ms", "ms", "lower"),
    ("daemon.polls_per_job", "count", "lower"),
    ("daemon.queue_wait_ms", "ms", "lower"),
    ("daemon.job_run_ms", "ms", "lower"),
    ("daemon.fsyncs_per_job", "count", "lower"),
    ("daemon.journal_bytes_per_job", "bytes", "lower"),
    ("daemon.replay_ms", "ms", "lower"),
    ("daemon.unattributed_ms", "ms", "lower"),
    ("service.parse_ms", "ms", "lower"),
    ("service.fingerprint_ms", "ms", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("surrogate.serve_ms", "ms", "lower"),
    ("surrogate.accept_ratio", "ratio", "higher"),
    ("surrogate.prepares_per_request", "count", "lower"),
    ("surrogate.oracle_disagreements", "count", "lower"),
    ("search.ms_per_miss", "ms", "lower"),
    ("search.configs_per_miss", "count", "lower"),
    ("search.kernel_cache_hit_ratio", "ratio", "higher"),
    ("datausage.plan_ms", "ms", "lower"),
    ("datausage.plans_per_request", "count", "lower"),
    ("sweep.grid_ms", "ms", "lower"),
    ("sweep.template_plan_ratio", "ratio", "higher"),
    ("host.probe_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.projections_per_s", "1/s", "higher"),
)

WORKER_PREFIX = "repro-daemon-worker"


def median_ms(seconds: Iterable[float]) -> float:
    values = list(seconds)
    return statistics.median(values) * 1e3 if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class SpanIndex:
    """Spans of one time window, grouped per thread and sorted by start.

    ``window`` keeps only spans that start and end inside it (the timed
    phase: warm-up, start-up and drain spans stay out).
    """

    def __init__(
        self, spans: list[Span], window: tuple[float, float] | None = None
    ) -> None:
        if window is not None:
            spans = [
                s for s in spans if window[0] <= s[2] and s[3] <= window[1]
            ]
        self.spans = spans
        self._threads: dict[str, list[Span]] = {}
        for span in spans:
            self._threads.setdefault(span[1], []).append(span)
        self._starts: dict[str, list[float]] = {}
        for thread, items in self._threads.items():
            items.sort(key=lambda s: s[2])
            self._starts[thread] = [s[2] for s in items]

    def named(self, name: str, workers_only: bool = False) -> list[Span]:
        return [
            s
            for s in self.spans
            if s[0] == name
            and (not workers_only or s[1].startswith(WORKER_PREFIX))
        ]

    def inside(self, parent: Span) -> list[Span]:
        """Spans on the parent's thread that lie within it."""
        items = self._threads[parent[1]]
        starts = self._starts[parent[1]]
        lo = bisect.bisect_left(starts, parent[2])
        hi = bisect.bisect_right(starts, parent[3])
        return [
            s
            for s in items[lo:hi]
            if s is not parent and s[3] <= parent[3]
        ]


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def daemon_layers(
    index: SpanIndex,
    outcomes: list[Any],
    requests: int,
    journal_bytes_per_job: float,
    replay_seconds: float,
    counters: dict[str, float],
) -> dict[str, float]:
    """The ``daemon.*``, ``service.*`` (but the cache hit ratio),
    ``search.*`` and ``datausage.*`` metrics of one daemon run.

    ``outcomes`` are the client's timed jobs (ok ones only are timed);
    ``requests`` counts projections asked for (jobs, or batch records).
    Counters come from the daemon's ``/metrics`` and cover its whole run.
    """
    ok = [o for o in outcomes if o.ok]
    jobs = len(outcomes)
    submitted = {s[4]: s[2] for s in index.named("queue.submit")}
    claimed = {
        s[4]: s[3] for s in index.named("queue.claim") if s[4] is not None
    }
    finished = {s[4]: s[3] for s in index.named("queue.finish")}
    waits, runs, residuals = [], [], []
    for o in ok:
        jid = o.job_id
        if jid not in submitted or jid not in claimed or jid not in finished:
            continue
        waits.append(claimed[jid] - submitted[jid])
        runs.append(finished[jid] - claimed[jid])
        covered = _union_seconds(
            [
                o.submit,
                (submitted[jid], claimed[jid]),
                (claimed[jid], finished[jid]),
                o.result,
            ]
        )
        residuals.append(max(0.0, o.latency - covered))

    parses = index.named("service.parse", workers_only=True)
    search = []
    for parent in index.named("engine.project", workers_only=True):
        if parent[4] is not False:
            continue
        timed = sum(
            c[3] - c[2]
            for c in index.inside(parent)
            if c[0]
            in ("engine.fingerprint", "cache.get", "cache.put", "datausage.plan")
        )
        search.append(parent[3] - parent[2] - timed)
    plans = index.named("datausage.plan", workers_only=True)
    misses = counters.get("cache_misses", 0.0)
    kernel_hits = counters.get("kernel_cache_hits", 0.0)
    kernel_lookups = kernel_hits + counters.get("kernel_cache_misses", 0.0)
    return {
        "daemon.submit_ms": median_ms(o.submit[1] - o.submit[0] for o in ok),
        "daemon.result_ms": median_ms(o.result[1] - o.result[0] for o in ok),
        "daemon.polls_per_job": ratio(sum(o.polls for o in outcomes), jobs),
        "daemon.queue_wait_ms": median_ms(waits),
        "daemon.job_run_ms": median_ms(runs),
        "daemon.fsyncs_per_job": ratio(len(index.named("os.fsync")), jobs),
        "daemon.journal_bytes_per_job": journal_bytes_per_job,
        "daemon.replay_ms": replay_seconds * 1e3,
        "daemon.unattributed_ms": median_ms(residuals),
        "service.parse_ms": median_ms(
            (s[3] - s[2]) / s[4] for s in parses if s[4]
        ),
        "service.fingerprint_ms": median_ms(
            s[3] - s[2]
            for s in index.named("engine.fingerprint", workers_only=True)
        ),
        "search.ms_per_miss": median_ms(search),
        "search.configs_per_miss": ratio(
            counters.get("candidates_explored", 0.0), misses
        ),
        "search.kernel_cache_hit_ratio": ratio(kernel_hits, kernel_lookups),
        "datausage.plan_ms": median_ms(s[3] - s[2] for s in plans),
        "datausage.plans_per_request": ratio(len(plans), requests),
    }


def serving_layers(index: SpanIndex) -> dict[str, float]:
    """``service.cache_hit_ratio`` and the ``surrogate.*`` timings of
    auto-mode projection jobs (the traced run's interactive pass)."""
    lookups = index.named("cache.get", workers_only=True)
    served = index.named("surrogate.project", workers_only=True)
    accepted = [s for s in served if s[4] == "surrogate"]
    prepares = 0
    for parent in served:
        inner = index.inside(parent)
        exact = [s for s in inner if s[0] == "engine.project"]
        for child in inner:
            if child[0] == "datausage.plan" and not any(
                e[2] <= child[2] and child[3] <= e[3] for e in exact
            ):
                prepares += 1
    return {
        "service.cache_hit_ratio": ratio(
            sum(1 for s in lookups if s[4]), len(lookups)
        ),
        "surrogate.serve_ms": median_ms(s[3] - s[2] for s in accepted),
        "surrogate.accept_ratio": ratio(len(accepted), len(served)),
        "surrogate.prepares_per_request": ratio(prepares, len(served)),
    }


def sweep_layers(index: SpanIndex) -> dict[str, float]:
    """The ``sweep.*`` and ``datausage.*`` metrics of a fleet run."""
    grids = index.named("sweep.grid")
    points = sum(s[4]["points"] for s in grids if s[4])
    templated = sum(s[4]["plans_from_template"] for s in grids if s[4])
    plans = index.named("datausage.plan")
    return {
        "sweep.grid_ms": median_ms(s[3] - s[2] for s in grids),
        "sweep.template_plan_ratio": ratio(templated, points),
        "datausage.plan_ms": median_ms(s[3] - s[2] for s in plans),
        "datausage.plans_per_request": ratio(len(plans), len(grids)),
    }


def assemble(values: dict[str, float]) -> dict[str, dict[str, Any]]:
    """Every per-layer metric with its unit; absent layers read 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _better in PER_LAYER
    }
