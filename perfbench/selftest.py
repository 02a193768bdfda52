"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

1. The output checks reject a record whose transfer time, best mapping
   or kernel time has been perturbed, and accept the untouched record.
2. Every workload runs end to end at its smallest size (``--seconds
   1``), traced and untraced, with every check passing and no failed
   operation.
3. Without the program's sources next to it, ``run.py`` exits non-zero
   and prints no result.

Takes about two minutes on a 2-core host.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402

WORKLOADS = ("daemon_cold_batch", "fleet_sweep")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def _other_label(label: str) -> str:
    return "b64" if label != "b64" else "b128"


def _rejects(check, record) -> bool:
    try:
        check(record)
    except oracle.CheckFailed:
        return True
    return False


def check_perturbations() -> None:
    from repro.gpu.registry import get_arch
    from repro.service.engine import ProjectionEngine
    from repro.service.jobs import parse_objects

    request = {
        "workload": "SRAD",
        "dataset": "2048 x 2048",
        "arch": "tesla_c1060",
        "pcie_gen": 2,
        "iterations": 10,
    }
    (parsed,) = parse_objects([request], ROOT)
    engine = ProjectionEngine(arch=get_arch("tesla_c1060"))
    record = engine.project(parsed.request).to_dict()
    truth = oracle.Oracle().truth(request)

    def exact(r):
        oracle.check_exact_record(r, truth, request["iterations"])

    expect(not _rejects(exact, record), "untouched exact record rejected")
    bumped = copy.deepcopy(record)
    bumped["projection"]["transfers"][0]["seconds"] *= 1 + 1e-9
    expect(_rejects(exact, bumped), "perturbed transfer time accepted")
    bumped = copy.deepcopy(record)
    bumped["projection"]["transfer_seconds"] *= 1 + 1e-9
    expect(_rejects(exact, bumped), "perturbed transfer total accepted")
    swapped = copy.deepcopy(record)
    kernel = swapped["projection"]["kernels"][0]
    kernel["best_mapping"] = _other_label(kernel["best_mapping"])
    expect(_rejects(exact, swapped), "perturbed best mapping accepted")
    slower = copy.deepcopy(record)
    slower["projection"]["kernels"][0]["seconds"] *= 1.01
    expect(_rejects(exact, slower), "perturbed kernel time accepted")

    surrogate = {
        "ok": True,
        "path": "surrogate",
        "kernel_seconds": record["projection"]["kernel_seconds"],
        "transfer_seconds": record["projection"]["transfer_seconds"],
        "total_seconds": record["total_seconds"],
        "mappings": {
            k["name"]: k["best_mapping"]
            for k in record["projection"]["kernels"]
        },
    }

    def served(r):
        return oracle.check_served(r, truth, request["iterations"])

    expect(served(surrogate) == 0, "agreeing surrogate answer counted")
    bumped = dict(
        surrogate, transfer_seconds=surrogate["transfer_seconds"] * 1.001
    )
    expect(_rejects(served, bumped), "perturbed surrogate transfer accepted")
    wrong = dict(
        surrogate,
        mappings={
            name: _other_label(label)
            for name, label in surrogate["mappings"].items()
        },
    )
    expect(served(wrong) == 1, "disagreeing surrogate mapping not counted")
    print("perturbation checks: ok")


def run(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def check_smallest_runs() -> None:
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = run(
                [
                    "perfbench/run.py",
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ],
                ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            expect(
                proc.returncode == 0 and bool(lines),
                f"{workload} trace {trace} exited {proc.returncode}:\n"
                f"{proc.stdout}\n{proc.stderr}",
            )
            result = json.loads(lines[-1])
            expect(
                result["correct"]
                and result["failed"] == 0
                and result["attempted"] >= 1,
                f"{workload} trace {trace}: {result}",
            )
            print(
                f"{workload} trace {trace}: attempted "
                f"{result['attempted']}, {len(result['metrics'])} metrics"
            )


def check_refuses_without_sources() -> None:
    bare = BENCH_DIR / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            BENCH_DIR,
            bare / "perfbench",
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        proc = run(
            [
                "perfbench/run.py",
                "--workload",
                "fleet_sweep",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            bare,
        )
        expect(proc.returncode != 0, "ran without the program's sources")
        expect('"correct"' not in proc.stdout, "printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare checkout: refused")


def main() -> int:
    check_perturbations()
    check_refuses_without_sources()
    check_smallest_runs()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
