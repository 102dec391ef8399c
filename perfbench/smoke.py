"""Smoke test of the benchmark itself, at toy size.

Runs every workload of ``BENCHMARK.json`` once untraced and once traced with
``--toy`` (hosts of a few dozen nodes) and asserts that

1. every end-to-end and per-layer metric of ``BENCHMARK.json`` is emitted
   with its unit, and every per-kind metric below appears in the report line
   with its unit;
2. every output check passed;
3. every traced operation's ledger equals its untraced replay.

Usage, from the root of a checkout (exit status 0 on success)::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The per-kind metrics each workload reports by name beside mix_s.
KIND_METRICS = {
    "broadcast": {"textbook_s": "s/op", "fast_s": "s/op", "fast_batch_s": "s/placement"},
    "faults": {
        "grid_deep_sweeps_per_s": "sweeps/s",
        "grid_dense_sweeps_per_s": "sweeps/s",
        "static_cell_s": "s/cell",
        "lossy_cell_s": "s/cell",
    },
    "apsp-cuts": {"spanner_s": "s/op", "cuts_s": "s/op", "apsp_s": "s/op"},
    "reference": {"sim_fast_s": "s/op", "sim_lossy_s": "s/op"},
}
ROUNDS = {"broadcast": "fast_rounds"}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "1",
            "--seconds", "0.5",
            "--trace", str(trace),
            "--toy",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


def check_metrics(where: str, emitted: dict, declared: list[dict]) -> list[str]:
    problems = []
    want = {m["name"]: m["unit"] for m in declared}
    if set(emitted) != set(want):
        problems.append(f"{where}: metrics {sorted(set(emitted) ^ set(want))} differ")
    for name, unit in want.items():
        got = emitted.get(name)
        if got is not None and (got["unit"] != unit or not isinstance(got["value"], (int, float))):
            problems.append(f"{where}: {name} = {got}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = f"{workload} trace={trace}"
            report, result = run(workload, trace)
            problems += check_metrics(where, result["metrics"], declared)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: checks failed: {report['problems']}")
            if trace and report["tracing"]["ledger_mismatches"]:
                problems.append(f"{where}: traced ledgers differ from untraced")
            if not trace:
                kinds = report["kinds"]
                for name, unit in KIND_METRICS[workload].items():
                    if name not in kinds or kinds[name]["unit"] != unit:
                        problems.append(f"{where}: per-kind metric {name} [{unit}] missing")
                if workload in ROUNDS and ROUNDS[workload] not in report["rounds"]:
                    problems.append(f"{where}: {ROUNDS[workload]} missing")
            print(f"ran {where}", flush=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
