"""One measured process: set a workload up, then time passes of it.

Run by ``run.py`` as a fresh interpreter per repetition, so set-up time
covers imports, keygen and rig build exactly as a ``python -m repro``
process pays them.  Prints one JSON object on its last line.

    python3 wallbench/child.py --workload NAME --seed N --budget SECONDS \
        --started AT [--trace]

``--started`` is the parent's ``time.perf_counter()`` reading just before
it spawned this process (the clock is system-wide), so ``setup_s`` runs
from process start to the first timed op.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

import hostspeed
from workloads import WORKLOADS, fingerprint


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracer import BETWEEN_OPS, Tracer

        tracer = Tracer()
        tracer.install()
    workload.setup()
    setup_done = time.perf_counter()
    # A full collection now makes the collector's state at the first timed
    # op independent of how much garbage set-up happened to leave.
    gc.collect()

    from repro.xmllib.memo import cache_stats, reset_cache_stats

    setup_index = hostspeed.burst(hostspeed.SETUP_KERNEL)
    reset_cache_stats()
    if tracer is not None:
        tracer.op = BETWEEN_OPS
        workload.mark_op = tracer.mark_op
    passes = []
    timed_start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        if len(passes) == 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - timed_start
        if elapsed + elapsed / len(passes) > args.budget:
            break

    fingerprints = [fingerprint(p.virtual) for p in passes]
    problems = [problem for p in passes for problem in p.problems]
    if len(set(fingerprints)) != 1:
        problems.append(f"virtual fingerprint changed between passes: {fingerprints}")
    result = {
        "setup_s": setup_done - args.started,
        "setup_index": setup_index,
        "passes": len(passes),
        "ops": sum(p.ops for p in passes),
        "wall_s": sum(p.wall_s for p in passes),
        "norm_s": sum(p.norm_s for p in passes),
        "pass_rates": [p.ops / p.norm_s for p in passes],
        "samples_ms": [p.samples_ms for p in passes],
        "host_index": statistics.median(i for p in passes for i in p.host_index),
        "peak_rss_mb": rss_mb,
        "fingerprint": fingerprints[0],
        "problems": problems,
        "cache_stats": cache_stats(),
        "layer": passes[0].layer,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
