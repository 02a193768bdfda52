"""In-memory span recording around the program's public entry points.

Spans are recorded from the benchmark's own code: :func:`install`
replaces each listed entry point with a thin wrapper that appends one
``(name, thread, start, end, info)`` tuple per call to a list, and
:func:`dump` writes the list out once, when the process ends.  Times
come from :func:`time.perf_counter`, which on Linux reads the
system-wide monotonic clock, so spans from the load process and the
daemon process share one time axis and can be joined per job.

Only entry points that stay in place when the fast path and its
parallel helpers are deleted are wrapped (see README.md): search time
is derived as the remainder of a cache-missing
``ProjectionEngine.project`` call after its timed children.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

Span = tuple[str, str, float, float, Any]


class Recorder:
    """Collects spans in memory; nothing is written until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        info: Callable[[tuple, Any], Any] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped so that every call records one span.

        ``info(args, result)`` extracts what the analysis needs from a
        call (a job id, a cache verdict); it runs after the end time is
        taken, so its cost stays outside the span.
        """
        append = self.spans.append
        current = threading.current_thread
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                append((name, current().name, start, clock(), None))
                raise
            end = clock()
            append(
                (
                    name,
                    current().name,
                    start,
                    end,
                    info(args, result) if info is not None else None,
                )
            )
            return result

        return traced

    def dump(self, path: str | Path) -> None:
        """Write every span as one JSON line (atomically)."""
        path = Path(path)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        os.replace(tmp, path)


def load_spans(path: str | Path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind every module attribute that names ``original``.

    Functions imported by name (``from repro.datausage.analyzer import
    analyze_transfers``) live on in each importing module; all of them
    must see the wrapper.
    """
    for module in list(sys.modules.values()):
        try:
            namespace = vars(module)
        except TypeError:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every traced entry point of the layers the benchmark reads.

    Importing the daemon server first pulls in the service, surrogate,
    data-usage and sweep modules, so every by-name import exists by the
    time the function wrappers are rebound.
    """
    import repro.daemon.server  # noqa: F401 - imports every layer
    import repro.datausage.analyzer as analyzer
    import repro.service.jobs as jobs
    from repro.daemon.queue import JobQueue
    from repro.service.cache import ProjectionCache
    from repro.service.engine import ProjectionEngine
    from repro.surrogate.engine import SurrogateEngine
    from repro.sweep.engine import SweepEngine

    wrap = recorder.wrap
    JobQueue.submit = wrap(
        JobQueue.submit, "queue.submit", lambda args, job: args[1].job_id
    )
    JobQueue.claim = wrap(
        JobQueue.claim,
        "queue.claim",
        lambda args, job: job.job_id if job is not None else None,
    )
    JobQueue.finish = wrap(
        JobQueue.finish, "queue.finish", lambda args, result: args[1]
    )
    ProjectionEngine.project = wrap(
        ProjectionEngine.project,
        "engine.project",
        lambda args, response: response.cached,
    )
    ProjectionEngine.fingerprint = wrap(
        ProjectionEngine.fingerprint, "engine.fingerprint"
    )
    ProjectionCache.get = wrap(
        ProjectionCache.get,
        "cache.get",
        lambda args, entry: entry is not None,
    )
    ProjectionCache.put = wrap(ProjectionCache.put, "cache.put")
    SurrogateEngine.project = wrap(
        SurrogateEngine.project,
        "surrogate.project",
        lambda args, response: response.provenance.path,
    )
    SweepEngine.sweep_arch_grid = wrap(
        SweepEngine.sweep_arch_grid,
        "sweep.grid",
        lambda args, rows: dict(args[0].stats),
    )
    _replace_everywhere(
        jobs.parse_objects,
        wrap(
            jobs.parse_objects,
            "service.parse",
            lambda args, parsed: len(parsed),
        ),
    )
    _replace_everywhere(
        analyzer.analyze_transfers,
        wrap(analyzer.analyze_transfers, "datausage.plan"),
    )
    os.fsync = wrap(os.fsync, "os.fsync")


def span_cost_seconds(rounds: int = 5, calls: int = 20000) -> float:
    """Median added cost of one recorded span, measured on a no-op."""
    recorder = Recorder()

    def noop() -> None:
        return None

    traced = recorder.wrap(noop, "calibrate", lambda args, result: None)
    samples = []
    for _ in range(rounds):
        recorder.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        samples.append(max(0.0, wrapped - bare) / calls)
    samples.sort()
    return samples[len(samples) // 2]
