"""Self-test of the benchmark: traced counters repeat exactly at one seed.

    python3 perfbench/selftest.py

Runs each workload's traced run twice at seed 7, each in its own process,
and asserts that every count and count ratio is identical between the two.
Also checks that BENCHMARK.json lists exactly the metrics run.py
prints.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (stdlib-only at import time)

SEED = 7
TIMED_UNITS = ("s",)
TIMED_NAMES = ("trace.overhead_frac",)


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run reported failures:\n{out.stdout}")
    return result["metrics"]


def counts(metrics: dict) -> dict:
    return {
        name: m["value"] for name, m in metrics.items()
        if m["unit"] not in TIMED_UNITS and name not in TIMED_NAMES
    }


def check_manifest(workloads, spans) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    errors = []
    if [w["name"] for w in manifest["workloads"]] != list(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in manifest["end_to_end"]] != run.END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] != spans.PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    return errors


def main() -> int:
    workloads, spans = run._load()
    errors = check_manifest(workloads, spans)
    for workload in workloads.WORKLOADS:
        first, second = counts(traced(workload, SEED)), counts(traced(workload, SEED))
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if diff:
            errors.append(f"{workload}: counters differ between two runs at seed {SEED}: {diff}")
        print(f"{workload}: {len(first)} counters, {'identical' if not diff else 'DIFFERENT'}", flush=True)
    for line in errors:
        print(f"FAIL {line}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
