"""Anatomy of one signed request: where the milliseconds go.

Runs a single X.509-signed counter Get and prints the per-category
virtual-time breakdown the metrics recorder captured — making the paper's
"dominated by X509 processing" claim visible line by line, and the same for
an unsigned request as contrast.  Then re-slices the same request the
other way: the filter pipeline's span tree (DESIGN.md §10), which shows
*where in the message path* those categories were charged.

Run:  python examples/anatomy_of_a_request.py
"""

from repro.apps.counter import CounterScenario, build_wsrf_rig
from repro.bench.report import format_span_tree
from repro.bench.runner import measure_virtual
from repro.container import SecurityMode


def breakdown(mode: SecurityMode) -> None:
    rig = build_wsrf_rig(CounterScenario(mode=mode, colocated=False))
    counter = rig.client.create(5)
    rig.client.get(counter)  # warm connections
    trace = measure_virtual(rig.deployment, "Get", lambda: rig.client.get(counter))

    print(f"one counter Get, {mode.value} mode — {trace.elapsed_ms:.1f} virtual ms total")
    print(f"  messages: {trace.messages}, bytes on wire: {trace.bytes_on_wire}, "
          f"signatures: {trace.signatures}, verifications: {trace.verifications}, "
          f"db ops: {trace.db_ops}")
    for category, ms in sorted(trace.time_by_category.items(), key=lambda kv: -kv[1]):
        share = 100 * ms / trace.elapsed_ms
        print(f"  {category:18s} {ms:8.2f} ms  ({share:4.1f}%) {'#' * int(share / 2)}")
    print()


def span_tree(mode: SecurityMode) -> None:
    """The same request sliced by pipeline stage instead of cost category."""
    rig = build_wsrf_rig(CounterScenario(mode=mode, colocated=False))
    counter = rig.client.create(5)
    rig.client.get(counter)  # warm connections
    trace = measure_virtual(rig.deployment, "Get", lambda: rig.client.get(counter))
    print(f"the same Get as a span tree ({mode.value} mode):")
    print(format_span_tree(trace.spans[-1]))
    print()


def main() -> None:
    breakdown(SecurityMode.NONE)
    breakdown(SecurityMode.X509)
    span_tree(SecurityMode.X509)
    print("the paper, §5: 'Is one spec/implementation faster? No. The")
    print("performance numbers ... are comparable (and actually dominated by")
    print("X509 processing).'  The bars above are that sentence, measured.")


if __name__ == "__main__":
    main()
