"""Steadiness command: repeat the workloads and report each metric's spread.

    python3 perfbench/steady.py --runs 10 [--trace] [--first-seed 1]

Each repetition runs every workload of ``BENCHMARK.json`` once at its
``run_seconds``, through ``run.py`` in a fresh interpreter, with its
own seed (``first-seed + repetition``); the workload order alternates
between repetitions (forward, then reversed) so that a slow host period
does not always land on the same workload.  For every workload and metric it prints the median, the
first and third quartile (``statistics.quantiles(values, n=4)``) and
the spread, (q3 - q1) / median, next to ``bound / 3`` from
``BENCHMARK.json``, together with ``host.probe_ms`` (which every run
prints).  With ``--trace`` every repetition also makes a traced
run, and the table closes with the tracing overhead per workload: the
untraced minus the traced median of ``projections_per_s`` as a share
of the untraced one, next to the traced runs' own estimate
``trace.overhead_pct``.

Raw results are appended to ``perfbench/out/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited "
            f"{proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("host.probe_ms: ") and not trace:
            result["metrics"]["host.probe_ms"] = {
                "value": float(line.split()[1]),
                "unit": "ms",
            }
    result.update(
        workload=workload,
        seed=seed,
        trace=trace,
        wall_s=time.perf_counter() - start,
    )
    return result


def spread_table(results: list[dict], bounds: dict[str, float]) -> list[str]:
    lines = [
        f"{'workload':<20} {'metric':<32} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'spread':>8} {'bound/3':>8}"
    ]
    keys = sorted(
        {(r["workload"], r["trace"], m) for r in results for m in r["metrics"]}
    )
    for workload, trace, metric in keys:
        values = [
            r["metrics"][metric]["value"]
            for r in results
            if r["workload"] == workload and r["trace"] == trace
        ]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(metric)
        limit = f"{bound / 3:8.4f}" if bound is not None and not trace else ""
        lines.append(
            f"{workload:<20} {metric:<32} {med:12.6g} {q1:12.6g} "
            f"{q3:12.6g} {spread:8.4f} {limit:>8}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    results = []
    for rep in range(args.runs):
        order = names if rep % 2 == 0 else names[::-1]
        seed = args.first_seed + rep
        for workload in order:
            for trace in (0, 1) if args.trace else (0,):
                result = run_once(workload, seed, spec["run_seconds"], trace)
                results.append(result)
                with open(out / "steady.jsonl", "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(result) + "\n")
                print(
                    f"rep {rep} {workload} seed {seed} trace {trace}: "
                    f"{result['wall_s']:.1f}s, correct {result['correct']}, "
                    f"failed {result['failed']}/{result['attempted']}",
                    flush=True,
                )
    for line in spread_table(results, bounds):
        print(line)
    if args.trace:
        for workload in names:

            def median_of(metric: str, trace: int) -> float:
                return statistics.median(
                    r["metrics"][metric]["value"]
                    for r in results
                    if r["workload"] == workload and r["trace"] == trace
                )

            plain = median_of("projections_per_s", 0)
            traced = median_of("trace.projections_per_s", 1)
            print(
                f"{workload}: tracing overhead "
                f"{100.0 * (plain - traced) / plain:.2f}% of "
                f"projections_per_s (measured), "
                f"{median_of('trace.overhead_pct', 1):.3f}% (estimated)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
