"""Self-test of the benchmark: every workload, both modes, hermetic.

    python3 wallbench/selftest.py

Runs each workload briefly at the pinned seed with ``--trace 0`` and
``--trace 1`` and checks that every run passes its own checks, emits
exactly the metrics ``BENCHMARK.json`` declares, with their units, and
leaves every file of the repository outside ``.bench_build/`` unchanged.
Then checks that the benchmark refuses to run, without printing a result,
in a directory holding only ``BENCHMARK.json`` and the benchmark itself.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SKIPPED = {".git", ".bench_build"}
sys.pycache_prefix = str(ROOT / ".bench_build" / "pycache")

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def snapshot() -> dict:
    """sha256 of every file in the repository outside :data:`SKIPPED`."""
    digests = {}
    for path in sorted(ROOT.rglob("*")):
        relative = path.relative_to(ROOT)
        if relative.parts[0] in SKIPPED or not path.is_file():
            continue
        digests[str(relative)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "wallbench/run.py", "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    failures = []
    before = snapshot()
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{label}: no result line; stderr: {done.stderr[-500:]}")
                continue
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{label}: checks failed:\n{done.stdout}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(
                    f"{label}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(units.items()) ^ set(expected[trace].items()))}"
                )
            print(f"selftest: {label}: {result['attempted']} ops, correct={result['correct']}")
    if snapshot() != before:
        changed = sorted(set(snapshot().items()) ^ set(before.items()))
        failures.append(f"the runs changed the repository: {changed[:10]}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(Path(bare), "soak-get", 0)
        if done.returncode == 0 or done.stdout.strip():
            failures.append(f"without the program the benchmark exited {done.returncode}: {done.stdout}")

    for failure in failures:
        print(f"selftest FAILED: {failure}")
    print("selftest: " + ("FAILED" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
