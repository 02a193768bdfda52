"""Seeded inputs for every workload, built before any timed phase.

Everything the program receives comes from here and depends only on the
seed and the run size: the surrogate model (trained through the same
``generate_training_set``/``train_surrogate`` path as ``repro surrogate
train``), the interactive catalog and its popularity sequence, the cold
batch request list with its inline skeleton texts, and the sweep size
grids.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any

from repro.gpu.registry import arch_ids
from repro.workloads.base import Workload
from repro.workloads.registry import all_workloads, get_workload

PCIE_GENS = (1, 2, 3)

#: Workloads of the fleet sweep: every registry workload whose size
#: axis is a single free parameter (PathFinder's 64 stages and
#: Stassuij's fixed sparse operand make poor size grids).
SWEEP_WORKLOADS = ("CFD", "HotSpot", "SRAD", "VectorAdd", "KMeans")
SWEEP_POINTS = 8


def train_model(path: Path) -> Path:
    """Train and save the surrogate exactly as ``repro surrogate train``
    does with its defaults (24 sizes per kernel, 25% holdout, split
    seed 7, 93% target accuracy)."""
    from repro.gpu.arch import quadro_fx_5600
    from repro.surrogate import (
        generate_training_set,
        save_model,
        train_surrogate,
    )
    from repro.surrogate.dataset import split_rows
    from repro.transform.space import TransformationSpace

    arch = quadro_fx_5600()
    space = TransformationSpace.default()
    training = generate_training_set(arch, space, sizes_per_kernel=24)
    _hold, train_idx = split_rows(training.rows, (0.25,), seed=7)
    model = train_surrogate(
        training.subset(train_idx), arch, space, target_accuracy=0.93
    )
    return save_model(model, path)


def iterations(rng: random.Random, workload: Workload) -> int:
    """A seeded draw from the workload's own iteration sweep (the
    counts of the paper's speedup-vs-iterations figures); 1 for a
    workload the paper does not iterate."""
    if not workload.is_iterative:
        return 1
    return rng.choice(workload.iteration_sweep())


# Interactive ---------------------------------------------------------------
def interactive_catalog(rng: random.Random) -> list[dict[str, Any]]:
    """Every registry (workload, dataset, pcie_gen) projection payload."""
    catalog = []
    for workload in all_workloads():
        for dataset in workload.datasets():
            for gen in PCIE_GENS:
                catalog.append(
                    {
                        "workload": workload.name,
                        "dataset": dataset.label,
                        "pcie_gen": gen,
                        "iterations": iterations(rng, workload),
                        "mode": "auto",
                    }
                )
    return catalog


def interactive_sequence(
    catalog: list[dict[str, Any]], rng: random.Random, rounds: int
) -> list[int]:
    """``rounds`` rounds of catalog indices, each a seeded permutation
    of the whole catalog: popularity is uniform over the registry, and
    every round has the same make-up whatever the seed."""
    sequence: list[int] = []
    for _ in range(rounds):
        order = list(range(len(catalog)))
        rng.shuffle(order)
        sequence.extend(order)
    return sequence


# Cold batch ----------------------------------------------------------------
def registry_blocks() -> list[list[dict[str, Any]]]:
    """Workload x dataset x arch x pcie_gen x batched_transfers, as one
    what-if block per (workload, dataset, arch): its six bus variants."""
    blocks = []
    for workload in all_workloads():
        for dataset in workload.datasets():
            for arch in arch_ids():
                blocks.append(
                    [
                        {
                            "workload": workload.name,
                            "dataset": dataset.label,
                            "arch": arch,
                            "pcie_gen": gen,
                            "batched_transfers": batched,
                        }
                        for gen in PCIE_GENS
                        for batched in (False, True)
                    ]
                )
    return blocks


def _stencil(name: str, n: int, m: int, flops: int) -> str:
    return f"""program {name}
array u[{n}][{m}] f32
array f[{n}][{m}] f32
array v[{n}][{m}] f32

kernel relax
  parfor i in 1..{n - 1}
  parfor j in 1..{m - 1}
  stmt flops={flops}
    load u[i-1][j]
    load u[i+1][j]
    load u[i][j-1]
    load u[i][j+1]
    load f[i][j]
    store v[i][j]
"""


def _map_reduce(name: str, n: int, k: int, flops: int) -> str:
    return f"""program {name}
array x[{n}] f32
array w[{k}] f32
array t[{n}] f32
array y[{n}] f32
temporary t

kernel scale
  parfor i in 0..{n}
  stmt flops={flops}
    load x[i]
    store t[i]

kernel accumulate
  parfor i in 0..{n}
  for q in 0..{k}
  stmt flops=2
    load t[i]
    load w[q]
  stmt flops=1 amortize=i
    store y[i]
"""


def _matvec(name: str, rows: int, cols: int, flops: int) -> str:
    return f"""program {name}
array a[{rows}][{cols}] f32
array x[{cols}] f32
array y[{rows}] f32

kernel rowdot
  parfor r in 0..{rows}
  for c in 0..{cols}
  stmt flops={flops}
    load a[r][c]
    load x[c]
  stmt flops=0 amortize=r
    store y[r]
"""


def inline_skeleton(rng: random.Random, index: int, tag: str) -> str:
    """One unique inline skeleton; the template cycles with ``index`` so
    every run has the same template mix, sizes and flop counts are
    seeded, and ``index`` in the name and the leading extent keeps
    every kernel distinct."""
    name = f"inline_{tag}_{index}"
    template = index % 3
    flops = rng.randint(2, 24)
    if template == 0:
        n = 256 + 8 * index + rng.randint(0, 7)
        return _stencil(name, n, rng.randint(64, 4096), flops)
    if template == 1:
        n = 65536 + 64 * index + rng.randint(0, 63)
        return _map_reduce(name, n, rng.randint(4, 64), flops)
    rows = 1024 + 16 * index + rng.randint(0, 15)
    return _matvec(name, rows, rng.randint(16, 1024), flops)


def cold_batches(
    rng: random.Random, jobs: int, size: int, tag: str
) -> list[list[dict[str, Any]]]:
    """``jobs`` batches of ``size`` unique exact requests, seeded.

    Each batch holds one registry what-if block (the six bus variants
    of one workload, dataset and arch, in seeded order, so the kernel
    cache serves the five after the first search whatever the seed)
    while blocks last, and inline skeletons fill the rest of it: the
    registry cross product alone would run out of keys in about half a
    run.  Blocks come in seeded order, all of them when they fit (a
    seeded subset otherwise), so every seed gives batches of the same
    make-up.  Registry requests iterate as often as a seeded draw from
    their workload's iteration sweep; inline skeletons, which have no
    sweep, iterate once.
    """
    blocks = registry_blocks()
    if jobs < len(blocks):
        blocks = rng.sample(blocks, jobs)
    rng.shuffle(blocks)
    for block in blocks:
        rng.shuffle(block)
    inline = 0
    batches = []
    for job in range(jobs):
        batch = blocks[job] if job < len(blocks) else []
        while len(batch) < size:
            batch.append(
                {
                    "skeleton": inline_skeleton(rng, inline, tag),
                    "arch": rng.choice(arch_ids()),
                    "pcie_gen": rng.choice(PCIE_GENS),
                    "batched_transfers": rng.random() < 0.5,
                }
            )
            inline += 1
        batches.append(batch)
    for number, request in enumerate(r for b in batches for r in b):
        request["iterations"] = (
            iterations(rng, get_workload(request["workload"]))
            if "workload" in request
            else 1
        )
        request["id"] = f"r{number}"
    return batches


# Fleet sweep ---------------------------------------------------------------
def sweep_grid_sizes(rng: random.Random, workload_name: str) -> list[int]:
    """``SWEEP_POINTS`` increasing sizes from a quarter of the workload's
    smallest dataset to twice its largest: one log-uniform draw in each
    of ``SWEEP_POINTS`` equal log strata, so every grid spans the whole
    range and its cost does not hinge on the seed."""
    sizes = [d.size for d in get_workload(workload_name).datasets()]
    lo, hi = max(8, min(sizes) // 4), max(sizes) * 2
    chosen: list[int] = []
    for stratum in range(SWEEP_POINTS):
        u = (stratum + rng.random()) / SWEEP_POINTS
        size = int(round(lo * (hi / lo) ** u))
        chosen.append(max(size, chosen[-1] + 1) if chosen else size)
    return chosen


def sweep_grids(
    rng: random.Random, rounds: int
) -> list[dict[str, Any]]:
    """``rounds`` rounds of one grid per sweep workload, seeded sizes."""
    grids = []
    for _ in range(rounds):
        for name in SWEEP_WORKLOADS:
            grids.append(
                {"workload": name, "sizes": sweep_grid_sizes(rng, name)}
            )
    return grids
