"""The benchmark workloads: prep, timed phase, checks, metrics.

Each ``run_*`` function builds its inputs from the seed, measures, then
checks every output against :mod:`oracle` after the clock has stopped,
and returns a :class:`Outcome`.  Runs are sized by a count of whole
rounds of operations derived from ``--seconds`` and a nominal rate of
this host (see README.md), so memory and state figures do not depend
on how fast the host happens to be during the run.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs.prometheus import parse_exposition

import inputs
import layers
import loadgen
import oracle
import tracing

#: Cold starts measured per run; ``setup_s`` is their median.
SETUP_STARTS = 7
#: JobQueue constructions timed on the full state dir (traced runs).
REPLAY_ROUNDS = 3

#: Nominal rates on the 2-core reference host, used only to turn
#: ``--seconds`` into an operation count.
COLD_REQUESTS_PER_S = 75.0
SWEEP_GRIDS_PER_S = 17.5

#: Fewest exact requests per cold-batch job.
COLD_BATCH_SIZE = 12
#: Fleet points re-derived through the per-point reference pipeline.
SWEEP_SAMPLE = 10
#: Registry catalog rounds of the traced run's interactive pass.
PASS_ROUNDS = 3


@dataclass
class Outcome:
    attempted: int
    failed: int
    refused: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def host_probe_seconds(rounds: int = 5) -> list[float]:
    """A fixed pure-Python and NumPy workload, timed ``rounds`` times.

    It tells a slow host period from a regression: the program never
    runs inside it.
    """
    import numpy as np

    samples = []
    matrix = np.arange(40000, dtype=np.float64).reshape(200, 200) / 4e4
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(100000):
            acc += i * i % 7
        for _ in range(20):
            matrix = matrix @ matrix
            matrix /= np.abs(matrix).max()
        samples.append(time.perf_counter() - start)
    return samples


def _daemon_counters(text: str) -> dict[str, float]:
    """The daemon's ``repro_<name>_total`` counters from ``/metrics``."""
    samples = {
        name: value
        for name, labels, value in parse_exposition(text)
        if not labels
    }
    names = (
        "cache_misses",
        "candidates_explored",
        "kernel_cache_hits",
        "kernel_cache_misses",
    )
    return {name: samples.get(f"repro_{name}_total", 0.0) for name in names}


def _replay_seconds(state_dir: Path) -> float:
    from repro.daemon.queue import JobQueue

    samples = []
    for _ in range(REPLAY_ROUNDS):
        start = time.perf_counter()
        JobQueue(state_dir)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _check_all(
    outcome: Outcome, items: list[tuple[str, Callable[[], int]]]
) -> int:
    """Run every check; failures become problems, disagreements add up."""
    start = time.perf_counter()
    disagreements = 0
    for label, check in items:
        try:
            disagreements += check()
        except oracle.CheckFailed as exc:
            outcome.problems.append(f"{label}: {exc}")
    outcome.notes.append(
        f"checked {len(items)} outputs in {time.perf_counter() - start:.1f} s"
    )
    return disagreements


def _latency_metrics(
    outcome: Outcome, seconds: list[float], label: str, phase: float
) -> None:
    # p90 is the highest percentile with at least ten of a cold-batch
    # run's 119 jobs beyond it.
    beyond = len(seconds) - math.ceil(0.90 * len(seconds))
    outcome.notes.append(
        f"{label}: {len(seconds)} timed samples, {beyond} beyond p90, "
        f"timed phase {phase:.1f} s"
    )
    outcome.end_to_end["latency_p50_ms"] = (
        statistics.median(seconds) * 1e3,
        "ms",
    )
    outcome.end_to_end["latency_p90_ms"] = (
        nearest_rank(seconds, 0.90) * 1e3,
        "ms",
    )


def _count_failures(outcome: Outcome, outcomes: list[Any]) -> None:
    for o in outcomes:
        if not o.ok:
            outcome.failed += 1
            outcome.refused += int(o.refused)
            if len(outcome.notes) < 20:
                outcome.notes.append(f"failed job {o.tag}: {o.error}")


# Interactive pass (traced runs) ---------------------------------------------
def _interactive_pass(
    client: Any, catalog: list[dict[str, Any]], rng: random.Random
) -> tuple[list[Any], tuple[float, float]]:
    """Auto-mode ``projection`` jobs from two closed-loop clients: one
    round of the registry catalog in order (it fills the exact cache
    for the payloads the surrogate declines), then
    ``PASS_ROUNDS - 1`` seeded rounds whose window is measured."""
    warm = loadgen.closed_loop(
        client,
        "projection",
        [[(i, catalog[i]) for i in range(len(catalog))]],
    )
    sequence = inputs.interactive_sequence(catalog, rng, PASS_ROUNDS - 1)
    streams = [
        [(i, catalog[i]) for i in sequence[client_no::2]]
        for client_no in (0, 1)
    ]
    start = time.perf_counter()
    timed = loadgen.closed_loop(client, "projection", streams)
    return warm + timed, (start, time.perf_counter())


def _trace_cost(outcome: Outcome, span_count: int, phase: float) -> None:
    """The traced run's own throughput, and the estimated tracing cost:
    spans x calibrated per-span cost, as a share of the timed phase."""
    outcome.per_layer["trace.projections_per_s"] = outcome.end_to_end[
        "projections_per_s"
    ][0]
    outcome.per_layer["trace.overhead_pct"] = (
        100.0 * span_count * tracing.span_cost_seconds() / phase
    )


# daemon_cold_batch -----------------------------------------------------------
def cold_sizing(seconds: int) -> tuple[int, int]:
    """``(jobs, requests per job)`` of a cold-batch run.

    Once a run holds the whole registry study (one what-if block per
    job) at ``COLD_BATCH_SIZE`` requests per job, it submits exactly one
    job per block and longer runs make the jobs larger, so every job has
    the same make-up: one block plus inline skeletons.  Shorter runs
    take ``COLD_BATCH_SIZE``-request jobs on a seeded subset of blocks.
    """
    target = seconds * COLD_REQUESTS_PER_S
    blocks = len(inputs.registry_blocks())
    if target >= blocks * COLD_BATCH_SIZE:
        return blocks, round(target / blocks)
    return max(2, round(target / COLD_BATCH_SIZE)), COLD_BATCH_SIZE


def run_cold_batch(
    seed: int, seconds: int, trace: bool, work: Path
) -> Outcome:
    rng = random.Random(seed)
    jobs, size = cold_sizing(seconds)
    batches = inputs.cold_batches(rng, jobs, size, tag=f"s{seed}")
    requests = [request for batch in batches for request in batch]
    stream = [(n, {"requests": batch}) for n, batch in enumerate(batches)]
    model = inputs.train_model(work / "surrogate.npz") if trace else None

    probes = host_probe_seconds()
    spans_path = work / "daemon.spans" if trace else None
    setups = []
    daemon = None
    for k in range(SETUP_STARTS):
        serving = k == SETUP_STARTS - 1
        daemon = loadgen.DaemonProcess(
            work / f"state{k}",
            work / "daemon.log",
            surrogate_model=model if serving else None,
            spans_path=spans_path if serving else None,
        )
        try:
            setups.append(daemon.start())
        finally:
            if not serving:
                daemon.stop()
                shutil.rmtree(work / f"state{k}", ignore_errors=True)
    assert daemon is not None
    state = daemon.state_dir
    try:
        start = time.perf_counter()
        outcomes = loadgen.closed_loop(
            daemon.client, "batch", [stream]
        )
        phase = time.perf_counter() - start
        counters = _daemon_counters(daemon.client.metrics_text())
        peak_rss = daemon.peak_rss_mb()
        journal_bytes = (state / "journal.jsonl").stat().st_size
        catalog: list[dict[str, Any]] = []
        served: list[Any] = []
        pass_window = (0.0, 0.0)
        if trace:
            catalog = inputs.interactive_catalog(rng)
            served, pass_window = _interactive_pass(
                daemon.client, catalog, rng
            )
    finally:
        daemon.stop()
    probes += host_probe_seconds()
    state_mb = loadgen.tree_mb(state)

    outcome = Outcome(attempted=len(outcomes) + len(served), failed=0)
    _count_failures(outcome, outcomes + served)
    truths = oracle.Oracle()

    def check(record: dict, request: dict) -> Callable[[], int]:
        def run() -> int:
            oracle.check_exact_record(
                record, truths.truth(request), request["iterations"]
            )
            return 0

        return run

    items = []
    records = 0
    for o in outcomes:
        if not o.ok:
            continue
        rows = o.body["records"]
        records += len(rows)
        for row, request in zip(rows, batches[o.tag]):
            items.append((f"request {request['id']}", check(row, request)))
        if len(rows) != len(batches[o.tag]):
            outcome.problems.append(f"job {o.job_id}: record count differs")

    def check_pass(o: Any) -> Callable[[], int]:
        payload = catalog[o.tag]
        return lambda: oracle.check_served(
            o.body["record"], truths.truth(payload), payload["iterations"]
        )

    items += [(f"job {o.job_id}", check_pass(o)) for o in served if o.ok]
    disagreements = _check_all(outcome, items)
    outcome.end_to_end["setup_s"] = (statistics.median(setups), "s")
    _latency_metrics(
        outcome, [o.latency for o in outcomes if o.ok], "jobs", phase
    )
    outcome.end_to_end["projections_per_s"] = (records / phase, "1/s")
    outcome.end_to_end["peak_rss_mb"] = (peak_rss, "MiB")
    outcome.end_to_end["state_mb"] = (state_mb, "MiB")
    outcome.per_layer["host.probe_ms"] = statistics.median(probes) * 1e3
    if spans_path is not None:
        spans = tracing.load_spans(spans_path)
        outcome.per_layer.update(
            layers.daemon_layers(
                layers.SpanIndex(spans, (start, start + phase)),
                outcomes,
                len(requests),
                journal_bytes / len(outcomes),
                _replay_seconds(state),
                counters,
            )
        )
        outcome.per_layer.update(
            layers.serving_layers(layers.SpanIndex(spans, pass_window))
        )
        outcome.per_layer["surrogate.oracle_disagreements"] = disagreements
        _trace_cost(outcome, len(spans), phase)
    return outcome


# fleet_sweep -----------------------------------------------------------------
def _start_worker(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Spawn the sweep worker; returns it and its seconds to ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(loadgen.BENCH_DIR / "sweep_worker.py"), *argv],
        stdout=subprocess.PIPE,
        env=loadgen.child_env(),
        text=True,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline().strip()
    ready = time.perf_counter() - start
    if line != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"sweep worker did not start: {line!r}")
    return proc, ready


def run_fleet_sweep(
    seed: int, seconds: int, trace: bool, work: Path
) -> Outcome:
    rng = random.Random(seed)
    per_round = len(inputs.SWEEP_WORKLOADS)
    rounds = max(1, round(seconds * SWEEP_GRIDS_PER_S / per_round))
    grids = inputs.sweep_grids(rng, rounds)
    sample = sorted(
        {
            (rng.randrange(len(grids)), rng.randrange(inputs.SWEEP_POINTS))
            for _ in range(SWEEP_SAMPLE)
        }
    )
    spec_path = work / "sweep_inputs.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"grids": grids, "sample": sample}, fh)
    result_path = work / "sweep_result.json"
    spans_path = work / "sweep.spans"

    probes = host_probe_seconds()
    setups = []
    for _ in range(SETUP_STARTS - 1):
        proc, ready = _start_worker(["--ready-only"])
        proc.communicate()
        setups.append(ready)
    argv = [str(spec_path), str(result_path)]
    if trace:
        argv += ["--spans", str(spans_path)]
    proc, ready = _start_worker(argv)
    setups.append(ready)
    tail, _ = proc.communicate()
    probes += host_probe_seconds()

    outcome = Outcome(attempted=len(grids), failed=0)
    if proc.returncode != 0 or "done" not in tail:
        outcome.failed = len(grids)
        outcome.problems.append(f"sweep worker exited {proc.returncode}")
        return outcome
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    done = result["grids"]
    truths = oracle.Oracle()

    def check(g: int, p: int) -> Callable[[], int]:
        def run() -> int:
            grid, out = grids[g], done[g]
            size = grid["sizes"][p]
            reference = []
            for a, arch_id in enumerate(out["arches"]):
                truth = truths.sweep_truth(grid["workload"], size, arch_id)
                oracle.check_sweep_point(out["detail"][str(p)][a], truth)
                reference.append(
                    truth.kernel_seconds + truth.transfer_seconds()
                )
            column = [row[p] for row in out["totals"]]
            fastest = min(range(len(column)), key=column.__getitem__)
            best = min(range(len(reference)), key=reference.__getitem__)
            if fastest != best:
                raise oracle.CheckFailed(
                    f"fastest architecture {out['arches'][fastest]} != "
                    f"reference {out['arches'][best]}"
                )
            return 0

        return run

    _check_all(
        outcome,
        [(f"grid {g} point {p}", check(g, p)) for g, p in sample],
    )
    grid_seconds = [out["seconds"] for out in done]
    cells = sum(len(out["totals"]) * len(out["totals"][0]) for out in done)
    outcome.end_to_end["setup_s"] = (statistics.median(setups), "s")
    _latency_metrics(outcome, grid_seconds, "grids", sum(grid_seconds))
    outcome.end_to_end["projections_per_s"] = (cells / sum(grid_seconds), "1/s")
    outcome.end_to_end["peak_rss_mb"] = (result["peak_rss_mb"], "MiB")
    outcome.end_to_end["state_mb"] = (
        sum(out["summary_bytes"] for out in done) / (1024.0 * 1024.0),
        "MiB",
    )
    outcome.per_layer["host.probe_ms"] = statistics.median(probes) * 1e3
    if trace:
        spans = tracing.load_spans(spans_path)
        outcome.per_layer.update(layers.sweep_layers(layers.SpanIndex(spans)))
        _trace_cost(outcome, len(spans), sum(grid_seconds))
    return outcome


WORKLOADS: dict[str, Callable[[int, int, bool, Path], Outcome]] = {
    "daemon_cold_batch": run_cold_batch,
    "fleet_sweep": run_fleet_sweep,
}
