"""The fleet sweep's serving process: one interpreter, in-process sweeps.

Reads the seeded grids, prints ``ready`` once it can serve the first
grid (imports done, engine built), then calls
``SweepEngine.sweep_arch_grid`` once per grid across every registry
architecture with ``buses="paired"``.  Each call is timed on its own.
After its clock stops, every point is serialized the way the program
persists a projection (``summarize_projection(...).to_json()``, the
faithful summary the service caches); the bytes of those documents
are the study's output size.  Totals, the sampled points' detail for
the checks and the sizes are written as one JSON document for
``workloads.py``.

    python3 perfbench/sweep_worker.py INPUTS OUTPUT [--spans FILE]
    python3 perfbench/sweep_worker.py --ready-only
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _point(projection) -> dict:
    return {
        "kernels": [
            [kp.kernel, kp.best.config.label(), kp.best.seconds]
            for kp in projection.kernels.kernels
        ],
        "transfers": [
            [t.array, t.direction.short, t.bytes, seconds]
            for t, seconds in zip(
                projection.plan.transfers, projection.per_transfer_seconds
            )
        ],
        "kernel_seconds": projection.kernel_seconds,
        "transfer_seconds": projection.transfer_seconds,
        "total_seconds": projection.total_seconds(1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("inputs", nargs="?")
    parser.add_argument("output", nargs="?")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--ready-only", action="store_true")
    args = parser.parse_args(argv)

    recorder = None
    if args.spans is not None:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    from repro.core.serialize import summarize_projection
    from repro.gpu.registry import arch_ids, get_arch, get_spec
    from repro.sweep.engine import SweepEngine
    from repro.workloads.base import Dataset
    from repro.workloads.registry import get_workload

    engine = SweepEngine(
        get_arch("quadro_fx_5600"), get_spec("quadro_fx_5600").bus()
    )
    arches = arch_ids()
    print("ready", flush=True)
    if args.ready_only:
        return 0

    with open(args.inputs, encoding="utf-8") as fh:
        spec = json.load(fh)
    sample = {tuple(pair) for pair in spec["sample"]}
    grids = []
    for grid in spec["grids"]:
        workload = get_workload(grid["workload"])
        datasets = [Dataset(str(size), size) for size in grid["sizes"]]
        grids.append(
            (
                [workload.skeleton(d) for d in datasets],
                [workload.hints(d) for d in datasets],
                grid["sizes"],
            )
        )

    out_grids = []
    clock = time.perf_counter
    for g, (programs, hints, sizes) in enumerate(grids):
        start = clock()
        rows = engine.sweep_arch_grid(
            programs, arches, hints=hints, sizes=sizes, buses="paired"
        )
        seconds = clock() - start
        totals = [
            [p.total_seconds(1) for p in row.projections] for row in rows
        ]
        detail = {
            str(p): [_point(row.projections[p]) for row in rows]
            for p in range(len(programs))
            if (g, p) in sample
        }
        summary_bytes = sum(
            len(summarize_projection(p).to_json().encode("utf-8"))
            for row in rows
            for p in row.projections
        )
        out_grids.append(
            {
                "seconds": seconds,
                "summary_bytes": summary_bytes,
                "arches": [row.arch_id for row in rows],
                "totals": totals,
                "detail": detail,
            }
        )
        del rows

    from loadgen import vm_hwm_mb

    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump({"grids": out_grids, "peak_rss_mb": vm_hwm_mb()}, fh)
    if recorder is not None:
        recorder.dump(args.spans)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
