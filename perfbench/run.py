"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload daemon_cold_batch --seed 1 \
        --seconds 30 --trace 0

Workloads: ``daemon_cold_batch`` and ``fleet_sweep`` (see README.md).  With ``--trace 0`` the last line
holds every end-to-end metric; with ``--trace 1`` the program's entry
points are wrapped with span recorders and the last line holds every
per-layer metric instead.  Human-readable notes (sample counts, failed
jobs, check failures) come first.  The exit code is 0 only when every
output check passed.

Run from the root of a checkout: the program is imported from
``src/``.  Scratch files go to ``perfbench/out/`` and are removed when
the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("daemon_cold_batch", "fleet_sweep")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(
            f"error: no program sources at {SRC_DIR}; run from the root "
            "of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import layers
    import workloads

    work = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in outcome.notes:
        print(f"note: {note}")
    for problem in outcome.problems[:50]:
        print(f"CHECK FAILED: {problem}")
    print(
        f"attempted {outcome.attempted}, failed {outcome.failed} "
        f"(refused {outcome.refused}), check failures "
        f"{len(outcome.problems)}"
    )
    if args.trace:
        metrics = layers.assemble(outcome.per_layer)
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.end_to_end.items()
        }
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"host.probe_ms: {outcome.per_layer['host.probe_ms']!r}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
