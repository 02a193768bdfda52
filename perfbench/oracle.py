"""Output checks computed apart from the serving path.

Every check here runs after the timed phase.  Expected values come from
the scalar reference explorer (``explorer="reference"``, a fresh
:class:`~repro.gpu.model.GpuPerformanceModel` per architecture), the
data-usage analyzer's transfer plan, and the paper's bus model
``T(d) = alpha + beta * d`` evaluated here from each bus preset's
``alpha``/``beta``, never from a stored copy of earlier output.

A failed check raises :class:`CheckFailed`; surrogate mappings that
differ from the reference are counted, not failed (the surrogate is an
estimate with a calibrated acceptance gate, see docs/SURROGATE.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.datausage.analyzer import analyze_transfers
from repro.gpu.model import GpuPerformanceModel
from repro.gpu.registry import get_arch, get_spec
from repro.pcie.presets import bus_for_generation
from repro.skeleton.parser import parse_skeleton
from repro.transform.explorer import project_program
from repro.transform.space import TransformationSpace
from repro.workloads.base import Dataset
from repro.workloads.registry import get_workload

#: Relative tolerance for float sums whose order differs between the
#: program and the recomputation (the surrogate sums per direction).
REL_TOL = 1e-12

#: Architecture the daemon serves when a request names none.
DEFAULT_ARCH = "quadro_fx_5600"


class CheckFailed(AssertionError):
    """An output disagreed with its independent computation."""


@dataclass(frozen=True)
class KernelTruth:
    name: str
    mapping: str
    seconds: float
    #: Fastest time of any legal candidate in the reference table.
    fastest_legal: float


@dataclass(frozen=True)
class Truth:
    """The reference answer for one (program, arch, bus, batching)."""

    kernels: tuple[KernelTruth, ...]
    #: (array, direction, bytes) in plan order.
    transfers: tuple[tuple[str, str, int], ...]
    #: (alpha, beta) per direction short name.
    bus: dict[str, tuple[float, float]]

    @property
    def kernel_seconds(self) -> float:
        return sum(k.seconds for k in self.kernels)

    def transfer_seconds(self) -> float:
        """Sum over transfers of ``alpha + beta * bytes``."""
        return sum(
            self.bus[direction][0] + self.bus[direction][1] * size
            for _array, direction, size in self.transfers
        )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _need(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def _bus_terms(bus: Any) -> dict[str, tuple[float, float]]:
    return {
        "H2D": (bus.h2d.alpha, bus.h2d.beta),
        "D2H": (bus.d2h.alpha, bus.d2h.beta),
    }


class Oracle:
    """Reference answers, memoized per program and architecture."""

    def __init__(self) -> None:
        self._space = TransformationSpace.default()
        self._models: dict[str, GpuPerformanceModel] = {}
        self._kernels: dict[tuple[str, str], tuple[KernelTruth, ...]] = {}
        self._plans: dict[tuple[str, bool], tuple] = {}

    @staticmethod
    def program_of(request: dict[str, Any]) -> tuple[str, Any, Any]:
        """``(key, program, hints)`` for a request record."""
        if "workload" in request:
            workload = get_workload(request["workload"])
            dataset = workload.dataset(request["dataset"])
            return (
                f"{workload.name}/{dataset.label}",
                workload.skeleton(dataset),
                workload.hints(dataset),
            )
        text = request["skeleton"]
        return text, parse_skeleton(text), None

    def _model(self, arch_id: str) -> GpuPerformanceModel:
        model = self._models.get(arch_id)
        if model is None:
            model = self._models[arch_id] = GpuPerformanceModel(
                get_arch(arch_id)
            )
        return model

    def kernels(
        self, key: str, program: Any, arch_id: str
    ) -> tuple[KernelTruth, ...]:
        found = self._kernels.get((key, arch_id))
        if found is None:
            projection = project_program(
                program,
                self._model(arch_id),
                self._space,
                explorer="reference",
            )
            found = tuple(
                KernelTruth(
                    name=kp.kernel,
                    mapping=kp.best.config.label(),
                    seconds=kp.best.seconds,
                    fastest_legal=min(c.seconds for c in kp.candidates),
                )
                for kp in projection.kernels
            )
            self._kernels[(key, arch_id)] = found
        return found

    def plan(
        self, key: str, program: Any, hints: Any, batched: bool
    ) -> tuple[tuple[str, str, int], ...]:
        found = self._plans.get((key, batched))
        if found is None:
            plan = analyze_transfers(program, hints)
            if batched:
                plan = plan.batched()
            found = tuple(
                (t.array, t.direction.short, t.bytes) for t in plan.transfers
            )
            self._plans[(key, batched)] = found
        return found

    def truth(self, request: dict[str, Any]) -> Truth:
        """Reference answer for a daemon request record."""
        key, program, hints = self.program_of(request)
        arch_id = request.get("arch", DEFAULT_ARCH)
        bus = bus_for_generation(int(request["pcie_gen"]))
        return Truth(
            kernels=self.kernels(key, program, arch_id),
            transfers=self.plan(
                key,
                program,
                hints,
                bool(request.get("batched_transfers", False)),
            ),
            bus=_bus_terms(bus),
        )

    def sweep_truth(
        self, workload_name: str, size: int, arch_id: str
    ) -> Truth:
        """Reference answer for one fleet-grid cell, priced on the
        architecture's registry-paired bus."""
        workload = get_workload(workload_name)
        dataset = Dataset(str(size), size)
        key = f"{workload.name}@{size}"
        program = workload.skeleton(dataset)
        return Truth(
            kernels=self.kernels(key, program, arch_id),
            transfers=self.plan(
                key, program, workload.hints(dataset), False
            ),
            bus=_bus_terms(get_spec(arch_id).bus()),
        )


def check_exact_record(
    record: dict[str, Any], truth: Truth, iterations: int
) -> None:
    """An exact projection record against its reference answer."""
    _need(record.get("ok") is True, f"record not ok: {record.get('error')}")
    summary = record["projection"]
    kernels = summary["kernels"]
    _need(
        [k["name"] for k in kernels] == [k.name for k in truth.kernels],
        "kernel list differs from the reference",
    )
    for got, want in zip(kernels, truth.kernels):
        _need(
            got["best_mapping"] == want.mapping,
            f"kernel {want.name}: best mapping {got['best_mapping']} "
            f"!= reference {want.mapping}",
        )
        _need(
            _close(got["seconds"], want.seconds),
            f"kernel {want.name}: {got['seconds']!r}s != reference "
            f"{want.seconds!r}s",
        )
        _need(
            got["seconds"] <= want.fastest_legal * (1 + REL_TOL),
            f"kernel {want.name}: chosen mapping slower than a legal "
            "candidate of the reference table",
        )
    _need(
        _close(summary["kernel_seconds"], truth.kernel_seconds),
        "kernel_seconds is not the sum of the reference kernel times",
    )
    transfers = summary["transfers"]
    _need(
        [(t["array"], t["direction"], t["bytes"]) for t in transfers]
        == list(truth.transfers),
        "transfer list differs from the data-usage plan",
    )
    for t in transfers:
        alpha, beta = truth.bus[t["direction"]]
        _need(
            _close(t["seconds"], alpha + beta * t["bytes"]),
            f"transfer {t['array']} {t['direction']}: {t['seconds']!r}s "
            f"!= alpha + beta * {t['bytes']}",
        )
    _need(
        _close(summary["transfer_seconds"], truth.transfer_seconds()),
        "transfer_seconds != sum(alpha + beta * bytes)",
    )
    expected_total = (
        summary["kernel_seconds"] * iterations
        + summary["transfer_seconds"]
        + summary.get("setup_seconds", 0.0)
    )
    _need(
        _close(record["total_seconds"], expected_total),
        "total_seconds != kernel_seconds * iterations + transfer_seconds",
    )


def check_surrogate_record(
    record: dict[str, Any], truth: Truth, iterations: int
) -> int:
    """An accepted surrogate answer; returns 1 if its mappings differ
    from the reference (counted, not failed)."""
    _need(record.get("ok") is True, f"record not ok: {record.get('error')}")
    _need(
        _close(record["transfer_seconds"], truth.transfer_seconds()),
        "surrogate transfer_seconds != sum(alpha + beta * bytes)",
    )
    _need(
        _close(
            record["total_seconds"],
            record["kernel_seconds"] * iterations
            + record["transfer_seconds"],
        ),
        "surrogate total_seconds != kernel * iterations + transfer",
    )
    _need(
        record["kernel_seconds"] > 0,
        "surrogate kernel_seconds is not positive",
    )
    mappings = record["mappings"]
    return int(
        any(mappings.get(k.name) != k.mapping for k in truth.kernels)
    )


def check_served(
    record: dict[str, Any], truth: Truth, iterations: int
) -> int:
    """Dispatch on the serving path; returns the disagreement count."""
    if record.get("path") == "surrogate":
        return check_surrogate_record(record, truth, iterations)
    check_exact_record(record, truth, iterations)
    return 0


def check_sweep_point(
    point: dict[str, Any], truth: Truth
) -> None:
    """One (architecture, size) cell of a fleet grid."""
    _need(
        [(k[0], k[1]) for k in point["kernels"]]
        == [(k.name, k.mapping) for k in truth.kernels],
        "sweep point mappings differ from the per-point reference",
    )
    for got, want in zip(point["kernels"], truth.kernels):
        _need(
            _close(got[2], want.seconds),
            f"sweep kernel {want.name}: {got[2]!r}s != reference",
        )
    _need(
        [tuple(t[:3]) for t in point["transfers"]] == list(truth.transfers),
        "sweep point transfers differ from the data-usage plan",
    )
    for _array, direction, size, seconds in point["transfers"]:
        alpha, beta = truth.bus[direction]
        _need(
            _close(seconds, alpha + beta * size),
            "sweep transfer != alpha + beta * bytes",
        )
    _need(
        _close(point["transfer_seconds"], truth.transfer_seconds()),
        "sweep transfer_seconds != sum(alpha + beta * bytes)",
    )
    _need(
        _close(
            point["total_seconds"],
            truth.kernel_seconds + truth.transfer_seconds(),
        ),
        "sweep total != kernel + transfer (one iteration)",
    )
