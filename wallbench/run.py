"""Wall-clock benchmark of the dual-stack simulator.

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: soak-get, soak-set, conformance,
loadgen (see ``workloads.py`` and ``README.md``).  Each measurement runs in
a fresh interpreter (``child.py``), one at a time, single-threaded.

``--trace 0`` runs the workload in three fresh processes, each measuring
for a third of ``--seconds``, and reports the end-to-end metrics, each the
median over the three: ``setup_s``, ``ops_per_s``, ``latency_p50_ms`` and
``peak_rss_mb``.  ``--trace 1`` runs it once untraced and once with every
layer boundary wrapped, half of ``--seconds`` each, and reports the
per-layer metrics.  Both modes check every simulated output, print a
human-readable report and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every check passed.

Times are divided by a host-speed index from fixed pure-Python kernels
timed beside every op (``hostspeed.py``), so load from other tenants of the
host cancels out; the report prints the raw figures and the index beside
the metrics.  The benchmark writes nothing in the repository except its
byte-code cache under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.pycache_prefix = str(BUILD / "pycache")

import hostspeed  # noqa: E402
from tracer import NAMES  # noqa: E402
from workloads import DEFAULT_SEED, PINNED_FINGERPRINTS, WORKLOADS  # noqa: E402

#: Fresh processes per untraced run; ``setup_s`` and the timed metrics are
#: the medians over them.
REPETITIONS = 3
#: Seconds from the start of a run after which a child still running is
#: killed and the run fails.
DEADLINE_S = 170
#: Calls whose set-up self time the traced run reports.
SETUP_CALLS = (
    "crypto.keygen", "crypto.ca_issue", "crypto.rsa_sign",
    "container.issue_credentials", "apps.build_rig", "testkit.build_world",
)
CACHES = (
    "c14n.text", "dsig.digest", "dsig.sign", "dsig.verify", "x509.check",
    "serialize.fragment",
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(
    workload: str, seed: int, budget: float, deadline: float, *, trace: bool = False
) -> dict:
    """Run one child process; returns its JSON result (or its failure).

    The child is killed if it is still running at ``deadline`` (a
    ``time.perf_counter()`` reading).
    """
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--budget", repr(budget),
    ]
    if trace:
        command.append("--trace")
    index_before = hostspeed.burst(hostspeed.SETUP_KERNEL)
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command + ["--started", repr(started)], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child still running {DEADLINE_S} s into the run"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        return {"error": f"child exited {done.returncode}: " + " | ".join(tail)}
    result = json.loads(lines[-1])
    # Set-up is one block that cannot be interleaved with calibrations, so
    # it is normalized by the host index just before and just after it.
    result["setup_norm_s"] = result["setup_s"] / ((index_before + result["setup_index"]) / 2)
    return result


def prime(workload: str, deadline: float) -> None:
    """Fill the byte-code cache once per checkout, so no measured process
    pays for compiling the interpreter's or the program's modules."""
    marker = BUILD / f"primed-{workload}"
    if marker.exists():
        return
    BUILD.mkdir(exist_ok=True)
    result = spawn(workload, DEFAULT_SEED, 0.0, deadline, trace=True)
    if "error" not in result:
        marker.write_text("")


def rate(child: dict) -> float:
    """Ops per host-normalized second."""
    return child["ops"] / child["norm_s"]


def check(children: list[dict], workload: str, seed: int) -> list[str]:
    """Problems the children reported, plus fingerprint agreement."""
    problems = []
    for child in children:
        if "error" in child:
            problems.append(child["error"])
        else:
            problems.extend(child["problems"])
    prints = {child.get("fingerprint") for child in children}
    if len(prints) != 1:
        problems.append(f"virtual fingerprints differ between processes: {sorted(map(str, prints))}")
    elif seed == DEFAULT_SEED and prints != {PINNED_FINGERPRINTS[workload]}:
        problems.append(
            f"virtual fingerprint {prints.pop()} != pinned {PINNED_FINGERPRINTS[workload]}"
        )
    return problems


def harrell_davis_median(values: list[float]) -> float:
    """The Harrell-Davis estimate of the median: a weighted mean of the
    order statistics, with weights from the Beta((n+1)/2, (n+1)/2) law.

    Unlike the sample median it does not jump across a gap between the
    middle values, which ``conformance``'s widely differing programs have.
    """
    ordered = sorted(values)
    n = len(ordered)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    steps = 64
    weights = []
    for i in range(n):
        width = 1 / n / steps
        mass = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(x * (1 - x))) * width
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def median_op_ms(children: list[dict]) -> float:
    """The median op time: the Harrell-Davis median over a pass's op
    positions of each position's median over every pass of every process.

    Every pass repeats the same ops, so the median over repetitions takes
    the noise out of each op before the median over ops picks the typical
    one.
    """
    passes = [samples for child in children for samples in child["samples_ms"]]
    return harrell_davis_median([statistics.median(op) for op in zip(*passes)])


def p99_ms(children: list[dict]) -> tuple[float, int]:
    """p99 of the pooled op samples, and how many samples lie beyond it."""
    samples = [s for child in children for samples in child["samples_ms"] for s in samples]
    p99 = statistics.quantiles(samples, n=100)[98] if len(samples) > 1 else samples[0]
    return p99, sum(1 for s in samples if s > p99)


def end_to_end(children: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(c["setup_norm_s"] for c in children), "s"),
        "ops_per_s": (statistics.median(r for c in children for r in c["pass_rates"]), "1/s"),
        "latency_p50_ms": (median_op_ms(children), "ms"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MB"),
    }


def per_layer(plain: dict, traced: dict, workload: str) -> tuple[dict, list[str]]:
    """The traced run's layer table, plus coverage-check problems."""
    trace = traced["trace"]
    ops = traced["ops"]
    wall_ns = traced["wall_s"] * 1e9
    metrics = {}
    for name in NAMES:
        totals = trace["calls"][name]
        metrics[f"{name}.calls"] = (totals["calls"] / ops, "count")
        metrics[f"{name}.self_ms"] = (totals["self_ns"] / 1e6 / ops, "ms")
        metrics[f"{name}.share"] = (totals["self_ns"] / wall_ns, "ratio")
    for name in SETUP_CALLS:
        metrics[f"{name}.setup_ms"] = (trace["calls"][name]["setup_ns"] / 1e6, "ms")
    for cache in CACHES:
        stats = plain["cache_stats"][cache]
        lookups = stats["hits"] + stats["misses"]
        metrics[f"xmllib.memo.{cache}.lookups"] = (lookups / plain["ops"], "count")
        metrics[f"xmllib.memo.{cache}.hit_ratio"] = (
            stats["hits"] / lookups if lookups else 0.0, "ratio"
        )
    receipts = trace["calls"]["soap.receipt"]["calls"]
    metrics["soap.receipt.reparse_ratio"] = (
        trace["receipts_reparsed"] / receipts if receipts else 0.0, "ratio"
    )
    metrics["sim.pool.wait_ms"] = (plain["layer"].get("sim.pool.wait_ms", 0.0), "ms")
    metrics["sim.pool.max_depth"] = (plain["layer"].get("sim.pool.max_depth", 0), "count")
    metrics["trace.overhead"] = (rate(traced) / rate(plain), "ratio")
    p99, tail = p99_ms([plain])
    metrics["latency_p99_ms"] = (p99, "ms")
    metrics["latency_p99_tail_n"] = (tail, "count")

    problems = []
    passes = traced["passes"]
    for name, per_pass in WORKLOADS[workload].COVERAGE.items():
        counted = trace["calls"][name]["calls"]
        if counted != per_pass * passes:
            problems.append(
                f"coverage: {name} ran {counted} times in {passes} passes, "
                f"pinned {per_pass} per pass"
            )
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"wallbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    prime(args.workload, deadline)
    kernel = WORKLOADS[args.workload].HOST_KERNEL
    calibration_before = hostspeed.burst(kernel)
    if args.trace:
        plain = spawn(args.workload, args.seed, args.seconds / 2, deadline)
        traced = spawn(args.workload, args.seed, args.seconds / 2, deadline, trace=True)
        children = [plain, traced]
    else:
        children = [
            spawn(args.workload, args.seed, args.seconds / REPETITIONS, deadline)
            for _ in range(REPETITIONS)
        ]
    calibration_after = hostspeed.burst(kernel)

    problems = check(children, args.workload, args.seed)
    metrics = {}
    if not any("error" in child for child in children):
        if args.trace:
            metrics, coverage = per_layer(plain, traced, args.workload)
            problems.extend(coverage)
            metrics["host.index_before"] = (calibration_before, "ratio")
            metrics["host.index_after"] = (calibration_after, "ratio")
        else:
            metrics = end_to_end(children)
    attempted = max(1, sum(child.get("ops", 0) for child in children))
    failed = attempted if problems else 0

    print(f"wallbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'ops_attempted':44s} {attempted:14d} count")
    print(f"  {'ops_failed':44s} {failed:14d} count")
    if not any("error" in child for child in children):
        p99, tail = p99_ms(children)
        if not args.trace and tail >= 10:
            print(f"  {'latency_p99_ms (not gated)':44s} {p99:14.6g} ms, {tail} samples beyond")
        print("  as measured, before host normalization:")
        for child in children:
            print(f"    setup {child['setup_s']:.3f} s, {child['ops'] / child['wall_s']:.2f} ops/s, "
                  f"median host index {child['host_index']:.3f}")
    print(f"  fingerprint {children[0].get('fingerprint')}, host index "
          f"{calibration_before:.3f} before and {calibration_after:.3f} after the run")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
