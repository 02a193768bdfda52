"""Daemon processes and closed-loop clients.

A client sends its next job only after the previous job's result body
has arrived, the way a tuning loop or ``repro daemon submit --wait``
does.  Clients are the shipped :class:`repro.daemon.client.DaemonClient`
(``urllib``, one connection per request): each times ``submit`` and
then calls ``result`` every :data:`POLL_INTERVAL` seconds until it no
longer answers 409.  The interval is short against a job (a few
milliseconds) so that client latency is not quantized by it;
``daemon.polls_per_job`` reports what it costs.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.daemon.client import DaemonClient, DaemonError
from repro.daemon.server import ENDPOINT_FILE

POLL_INTERVAL = 0.001
JOB_TIMEOUT = 60.0
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), str(BENCH_DIR)])
    env.pop("PYTHONSTARTUP", None)
    return env


def vm_hwm_mb(pid: int | str = "self") -> float:
    """High-water resident set size of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def tree_mb(path: Path) -> float:
    """Bytes under ``path``, in MiB."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(root, name)).st_size
            except FileNotFoundError:
                continue
    return total / (1024.0 * 1024.0)


class DaemonProcess:
    """``repro daemon start`` in a child process, with timed start-up.

    Untraced runs start the real CLI; traced runs start
    :mod:`launch_daemon`, which installs the span wrappers first.
    """

    def __init__(
        self,
        state_dir: Path,
        log_path: Path,
        surrogate_model: Path | None = None,
        spans_path: Path | None = None,
    ) -> None:
        self.state_dir = state_dir
        self.log_path = log_path
        self.surrogate_model = surrogate_model
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        self.client: DaemonClient | None = None

    def _argv(self) -> list[str]:
        if self.spans_path is not None:
            argv = [
                sys.executable,
                str(BENCH_DIR / "launch_daemon.py"),
                "--spans",
                str(self.spans_path),
            ]
        else:
            argv = [sys.executable, "-m", "repro", "daemon", "start"]
        argv += ["--state-dir", str(self.state_dir)]
        if self.surrogate_model is not None:
            argv += ["--surrogate-model", str(self.surrogate_model)]
        return argv

    def start(self) -> float:
        """Spawn and wait until ``/healthz`` answers; returns seconds."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        (self.state_dir / ENDPOINT_FILE).unlink(missing_ok=True)
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self._argv(),
                stdout=log,
                stderr=subprocess.STDOUT,
                env=child_env(),
            )
        deadline = started + START_TIMEOUT
        client = None
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} during "
                    f"start-up; see {self.log_path}"
                )
            try:
                client = client or DaemonClient(state_dir=self.state_dir)
            except ConnectionError:
                time.sleep(0.002)
                continue
            if client.healthy():
                self.client = client
                return time.perf_counter() - started
            time.sleep(0.002)
        self.stop()
        raise RuntimeError("daemon did not answer /healthz in time")

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM, wait for the drain; SIGKILL only past the deadline."""
        proc = self.proc
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                print(
                    f"daemon {proc.pid} still running {STOP_TIMEOUT:g} s "
                    "after SIGTERM; killed",
                    file=sys.stderr,
                )
                proc.kill()
                proc.wait()
        self.proc = None
        self.client = None
        return proc.returncode


@dataclass
class JobOutcome:
    """What one client saw of one job, on the shared monotonic clock."""

    tag: Any
    start: float
    end: float = 0.0
    job_id: str = ""
    ok: bool = False
    refused: bool = False
    error: str = ""
    submit: tuple[float, float] = (0.0, 0.0)
    result: tuple[float, float] = (0.0, 0.0)
    polls: int = 0
    body: dict[str, Any] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.start


def run_job(
    client: DaemonClient,
    kind: str,
    name: str,
    payload: dict[str, Any],
    tag: Any,
) -> JobOutcome:
    """Submit one job and poll until its result body arrives."""
    clock = time.perf_counter
    outcome = JobOutcome(tag=tag, start=clock())
    try:
        outcome.job_id = client.submit(kind, payload, client=name)["id"]
        outcome.submit = (outcome.start, clock())
        deadline = outcome.start + JOB_TIMEOUT
        while True:
            time.sleep(POLL_INTERVAL)
            sent = clock()
            try:
                body = client.result(outcome.job_id)
            except DaemonError as exc:
                if exc.status != 409:
                    raise
                outcome.polls += 1
                if clock() > deadline:
                    outcome.error = "timed out"
                    return outcome
                continue
            outcome.result = (sent, clock())
            break
        outcome.end = outcome.result[1]
        if body.get("state") != "done":
            outcome.error = (
                f"job ended {body.get('state')}: {body.get('error')}"
            )
            return outcome
        outcome.ok = True
        outcome.body = body["result"]
    except DaemonError as exc:
        outcome.refused = exc.status == 429
        outcome.error = str(exc)
    except (OSError, ValueError) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def closed_loop(
    client: DaemonClient,
    kind: str,
    streams: list[list[tuple[Any, dict[str, Any]]]],
) -> list[JobOutcome]:
    """One client thread per stream; returns every job's outcome."""
    results: list[list[JobOutcome]] = [[] for _ in streams]

    def loop(index: int) -> None:
        for tag, payload in streams[index]:
            results[index].append(
                run_job(client, kind, f"bench-{index}", payload, tag)
            )

    threads = [
        threading.Thread(target=loop, args=(i,), name=f"bench-client-{i}")
        for i in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [outcome for stream in results for outcome in stream]
