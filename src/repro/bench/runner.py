"""Measurement primitives."""

from __future__ import annotations

from typing import Callable

from repro.container.deployment import Deployment
from repro.sim.metrics import OperationTrace


def measure_virtual(deployment: Deployment, name: str, operation: Callable[[], object]) -> OperationTrace:
    """Run ``operation`` bracketed by the metrics recorder.

    Returns the full trace: virtual elapsed ms, message/byte counts,
    signatures, db ops, per-category time, span trees and wire log —
    everything the analysis sections of the paper reason about.
    """
    network = deployment.network
    network.metrics.begin(name, network.clock.now)
    operation()
    return network.metrics.end(network.clock.now)
