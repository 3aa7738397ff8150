"""The four benchmark workloads, driven through the simulator's public API.

Each workload is built from its seed, sets itself up once (imports, RSA
keygen, certificate issue, rig or world build, warm-up), and then runs
*passes*: fixed units of work that the child process repeats until its
time budget is spent.  A pass returns its wall samples, its virtual
fingerprint and any correctness problem it found.  Everything a pass
checks is simulated output, so a change that only speeds up the simulator
leaves every check and fingerprint unchanged.

Cache-state discipline: every value a soak-set or loadgen pass writes is
new to the process, so no signed request body from an earlier pass can hit
the message caches; conformance clears the message caches and collects
garbage before every pass of its fixed corpus, so each pass starts as
``python -m repro conformance`` does, with keys already generated.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field

import hostspeed

#: The seed whose fingerprints are pinned in :data:`PINNED_FINGERPRINTS`.
DEFAULT_SEED = 1

#: Virtual fingerprint of one pass of each workload at :data:`DEFAULT_SEED`.
PINNED_FINGERPRINTS = {
    "soak-get": "8d65f2c8da79d258",
    "soak-set": "00da1946ca6820e1",
    "conformance": "5aba8d3ce71966b9",
    "loadgen": "a0d48d1fc2e5da9f",
}


@dataclass
class PassResult:
    """What one pass measured and observed."""

    #: Completed ops (round trips, programs or simulated requests).
    ops: int = 0
    #: Wall seconds spent inside ops, as measured.
    wall_s: float = 0.0
    #: The same, each op divided by its host-speed index (see
    #: ``hostspeed.py``); ``ops / norm_s`` is the throughput.
    norm_s: float = 0.0
    #: Host-normalized wall ms per op, one sample per timed op or batch;
    #: a workload may fold them at the end of the pass (see ``_pair_means``).
    samples_ms: list = field(default_factory=list)
    #: The host-speed index each timed op or batch was divided by.
    host_index: list = field(default_factory=list)
    #: Virtual outputs that must repeat exactly (see ``fingerprint``).
    virtual: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    #: Virtual per-layer figures the workload itself observes (loadgen).
    layer: dict = field(default_factory=dict)


def fingerprint(virtual: dict) -> str:
    """A short digest of a pass's virtual outputs."""
    text = json.dumps(virtual, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Timer:
    """Times one op (or batch) after sampling the host-speed index."""

    def __init__(self, result: PassResult, workload: "_Workload", requests: int) -> None:
        self.result = result
        self.workload = workload
        self.requests = requests

    def __enter__(self):
        recent = self.workload.recent_index
        recent.append(hostspeed.index(self.workload.HOST_KERNEL))
        self.index = statistics.median(recent)
        self.workload.mark_op(True)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = (time.perf_counter_ns() - self.start) / 1e9
        self.workload.mark_op(False)
        result = self.result
        result.ops += self.requests
        result.wall_s += elapsed
        result.norm_s += elapsed / self.index
        result.samples_ms.append(elapsed * 1000 / self.index / self.requests)
        result.host_index.append(self.index)


def _pair_means(samples: list) -> list:
    """Fold alternating WSRF/Transfer round trips into one sample per pair.

    The two stacks' round trips differ in cost, so single samples form two
    clusters of equal size, and their median is the unstable midpoint
    between the clusters; the mean of each pair has one cluster.
    """
    return [(a + b) / 2 for a, b in zip(samples[::2], samples[1::2])]


def _open_brackets(networks) -> None:
    for network in networks:
        network.metrics.begin("wallbench.pass", network.clock.now)


def _close_brackets(networks, ops: int) -> dict:
    """Virtual ms per op plus the message, byte and signature counts."""
    traces = [network.metrics.end(network.clock.now) for network in networks]
    return {
        "virtual_ms_per_op": round(sum(t.elapsed_ms for t in traces) / ops, 9),
        "messages": sum(t.messages for t in traces),
        "bytes": sum(t.bytes_on_wire for t in traces),
        "signatures": sum(t.signatures for t in traces),
        "verifications": sum(t.verifications for t in traces),
        "db_ops": sum(t.db_ops for t in traces),
    }


def _x509_distributed_rigs():
    """The ROADMAP signed-soak configuration, one rig per stack."""
    from repro.apps.counter.deploy import (
        CounterScenario,
        build_transfer_rig,
        build_wsrf_rig,
    )
    from repro.container.security import SecurityMode

    scenario = CounterScenario(mode=SecurityMode.X509, colocated=False)
    return (build_wsrf_rig(scenario), build_transfer_rig(scenario))


class _Workload:
    name = ""
    #: The host-speed kernel that tracks this workload's ops (``hostspeed.py``).
    HOST_KERNEL = "bigint"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: The latest host-speed samples; an op is divided by their median,
        #: which damps the noise of a single short calibration.
        self.recent_index = collections.deque(maxlen=5)
        #: Set by the child: ``mark_op(True)`` as an op starts and
        #: ``mark_op(False)`` as it ends, so traced spans carry the op.
        self.mark_op = lambda inside: None

    def timer(self, result: PassResult, requests: int = 1) -> _Timer:
        """Context manager timing ``requests`` ops as one sample."""
        return _Timer(result, self, requests)


class SoakGet(_Workload):
    """Closed loop, one client: signed Gets alternating WSRF and Transfer."""

    name = "soak-get"
    HOST_KERNEL = "tree"
    #: Exact wrapped-call counts per pass in the traced run, for any seed.
    COVERAGE = {"container.invoke": 200, "crypto.rsa_sign": 0, "crypto.ca_issue": 0,
                "container.deliver_notification": 0, "sim.run": 0}
    PASS_OPS = 200
    WARMUP_OPS = 20

    def setup(self) -> None:
        self.rigs = _x509_distributed_rigs()
        self.value = random.Random(self.seed).randrange(10**8, 10**9)
        self.counters = [rig.client.create(self.value) for rig in self.rigs]
        for _ in range(self.WARMUP_OPS):
            for rig, counter in zip(self.rigs, self.counters):
                rig.client.get(counter)

    def run_pass(self) -> PassResult:
        result = PassResult()
        networks = [rig.deployment.network for rig in self.rigs]
        _open_brackets(networks)
        for i in range(self.PASS_OPS):
            rig, counter = self.rigs[i % 2], self.counters[i % 2]
            with self.timer(result):
                got = rig.client.get(counter)
            if got != self.value:
                result.problems.append(f"Get returned {got}, last Set was {self.value}")
        result.samples_ms = _pair_means(result.samples_ms)
        result.virtual = _close_brackets(networks, result.ops)
        return result


def _notified_value(rig, index: int) -> int | None:
    """The NewValue of the ``index``-th notification the rig's consumer got."""
    from repro.xmllib import ns, text_of

    received = rig.consumer.received[index]
    payload = received[1] if isinstance(received, tuple) else received
    if payload is None or payload.tag.local != "CounterValueChanged":
        return None
    return int(text_of(payload.find(f"{{{ns.COUNTER}}}NewValue"), "-1"))


class SoakSet(_Workload):
    """Closed loop, one client: signed Sets of never-repeating values, each
    notifying one subscriber, alternating WSRF and Transfer."""

    name = "soak-set"
    #: Every Set signs its request and its notification; a Transfer Put
    #: also signs its response, which echoes the new value.
    COVERAGE = {"container.invoke": 40, "container.deliver_notification": 40,
                "crypto.rsa_sign": 100, "crypto.ca_issue": 0, "sim.run": 0}
    PASS_OPS = 40
    WARMUP_OPS = 4

    def setup(self) -> None:
        self.rigs = _x509_distributed_rigs()
        self.counters = [rig.client.create(0) for rig in self.rigs]
        for rig, counter in zip(self.rigs, self.counters):
            rig.client.subscribe(counter, rig.consumer)
        # Nine-digit values, so every Set and notification has the same size
        # and virtual cost; timed values count up from ``_next`` and the
        # warm-up values lie below it, so no value recurs in the process.
        self._next = random.Random(self.seed).randrange(2 * 10**8, 8 * 10**8)
        for j in range(self.WARMUP_OPS):
            for rig, counter in zip(self.rigs, self.counters):
                rig.client.set(counter, self._next - 1 - j)
                rig.client.get(counter)
        self.last = [None, None]

    def run_pass(self) -> PassResult:
        result = PassResult()
        networks = [rig.deployment.network for rig in self.rigs]
        _open_brackets(networks)
        for i in range(self.PASS_OPS):
            side = i % 2
            rig, counter = self.rigs[side], self.counters[side]
            value, self._next = self._next, self._next + 1
            before = len(rig.consumer.received)
            with self.timer(result):
                rig.client.set(counter, value)
            self.last[side] = value
            delivered = len(rig.consumer.received) - before
            if delivered != 1:
                result.problems.append(f"Set {value} delivered {delivered} notifications")
            elif _notified_value(rig, before) != value:
                result.problems.append(f"Set {value} notified {_notified_value(rig, before)}")
        for side, (rig, counter) in enumerate(zip(self.rigs, self.counters)):
            got = rig.client.get(counter)
            if got != self.last[side]:
                result.problems.append(f"Get returned {got}, last Set was {self.last[side]}")
        result.samples_ms = _pair_means(result.samples_ms)
        result.virtual = _close_brackets(networks, result.ops)
        return result


#: Pinned counts of the default differential corpus (66 programs): two
#: stack executions per program plus two per replayed program, and the
#: op count ``python -m repro conformance`` reports as ``ops compared``.
CORPUS_PROGRAMS = 66
CORPUS_STACK_EXECUTIONS = 148
CORPUS_OPS_COMPARED = 792


class Conformance(_Workload):
    """The default differential corpus; an op is one program on both stacks."""

    name = "conformance"
    COVERAGE = {"testkit.run_differential": CORPUS_PROGRAMS,
                "testkit.build_world": CORPUS_STACK_EXECUTIONS,
                "crypto.ca_issue": 338, "container.issue_credentials": 338}
    #: Warm-up programs come from this seed range, disjoint from the corpus.
    WARMUP_BASE = 700_000

    def setup(self) -> None:
        from repro.testkit import cli
        from repro.testkit.generator import generate_program
        from repro.testkit.harness import ALL_MODES, run_differential
        from repro.xmllib.memo import clear_caches

        self._generate = generate_program
        self._run = run_differential
        self._clear = clear_caches
        self._replay_every = cli.REPLAY_EVERY
        jobs = []
        for index in range(cli.DEFAULT_COUNTER_SEEDS):
            mode, colocated = ALL_MODES[index % len(ALL_MODES)]
            jobs.append(("counter", index, mode, colocated))
        for index in range(cli.DEFAULT_GIAB_SEEDS):
            mode = cli.GIAB_MODES[index % len(cli.GIAB_MODES)]
            jobs.append(("giab", cli.GIAB_SEED_BASE + index, mode, True))
        for index in range(cli.DEFAULT_DATAGRID_SEEDS):
            mode, colocated = ALL_MODES[index % len(ALL_MODES)]
            jobs.append(("datagrid", cli.DATAGRID_SEED_BASE + index, mode, colocated))
        self.jobs = jobs
        # Warm-up on the signed cells generates every RSA key the worlds use;
        # the passes drop the message caches, so they start cold.
        warm_seed = self.WARMUP_BASE + self.seed % 10_000
        for kind in ("counter", "giab", "datagrid"):
            for mode, colocated in ALL_MODES[2:4]:
                try:
                    run_differential(generate_program(warm_seed, kind), mode, colocated)
                except RuntimeError:
                    pass  # a program the worlds refuse still warmed the keys

    def run_pass(self) -> PassResult:
        result = PassResult()
        self._clear()
        gc.collect()
        executions = 0
        compared = 0
        outcomes = []
        virtual_ms = 0.0
        for kind, seed, mode, colocated in self.jobs:
            replay = seed % self._replay_every == 0
            outcome = None
            with self.timer(result):
                program = self._generate(seed, kind)
                try:
                    outcome = self._run(program, mode, colocated, replay=replay, seed=seed)
                except RuntimeError as exc:
                    result.problems.append(f"invalid program {kind} seed={seed}: {exc}")
            if outcome is None:
                continue
            executions += 4 if replay else 2
            compared += len(program)
            for divergence in outcome.divergences:
                result.problems.append(
                    f"divergence {kind} seed={seed} [{divergence.comparator}]"
                )
            virtual_ms += outcome.wsrf.total_elapsed_ms + outcome.transfer.total_elapsed_ms
            outcomes.append(
                [kind, seed, outcome.wsrf.to_dict(), outcome.transfer.to_dict()]
            )
        if (executions, compared) != (CORPUS_STACK_EXECUTIONS, CORPUS_OPS_COMPARED):
            result.problems.append(
                f"corpus ran {executions} stack executions and compared {compared} "
                f"ops, pinned {CORPUS_STACK_EXECUTIONS} and {CORPUS_OPS_COMPARED}"
            )
        outcomes.sort(key=lambda row: (row[0], row[1]))
        result.virtual = {
            "virtual_ms_per_op": round(virtual_ms / result.ops, 9),
            "stack_executions": executions,
            "ops_compared": compared,
            "outcomes": fingerprint({"outcomes": outcomes}),
        }
        return result


class Loadgen(_Workload):
    """Open-loop Poisson arrivals in virtual time on both stacks, an 80/20
    Get/Set mix at fixed rates below the single-worker knee."""

    name = "loadgen"
    COVERAGE = {"sim.run": 4, "container.invoke": 0, "crypto.ca_issue": 0}
    RATES = (6.0, 12.0)
    BATCH_REQUESTS = 80
    BATCH_SETS = 16

    def setup(self) -> None:
        from repro.apps.counter.deploy import SERVER_HOST
        from repro.bench.loadgen import op_request
        from repro.sim.loadgen import arrival_times, run_open_loop
        from repro.testkit.ops import GetCounter, SetCounter

        self._server = SERVER_HOST
        self._op_request = op_request
        self._arrivals = arrival_times
        self._open_loop = run_open_loop
        self._get, self._set = GetCounter, SetCounter
        # The seed places one Set in each run of five requests, never last,
        # and draws the arrival times.  A Get after a Set returns a new value
        # and so signs a new response; with every Set followed by a Get,
        # each batch signs the same number of messages whatever the seed.
        # Every pass replays this schedule with Set values new to the process.
        rng = random.Random(self.seed)
        run = self.BATCH_REQUESTS // self.BATCH_SETS
        self.set_at = frozenset(
            start + rng.randrange(run - 1) for start in range(0, self.BATCH_REQUESTS, run)
        )
        self._next = rng.randrange(2 * 10**8, 8 * 10**8)
        self.run_pass()

    def run_pass(self) -> PassResult:
        result = PassResult()
        # Fresh rigs per pass, as ``run_load`` builds them, so every pass
        # replays the same virtual timeline; building them is not timed.
        rigs = dict(zip(("wsrf", "transfer"), _x509_distributed_rigs()))
        counters = {stack: rig.client.create(0) for stack, rig in rigs.items()}
        networks = [rig.deployment.network for rig in rigs.values()]
        for network in networks:
            network.kernel.configure_pool(self._server, 1, 64)
        _open_brackets(networks)
        summaries = {}
        waits = []
        depth = 0
        for stack, rig in rigs.items():
            kernel, soap = rig.deployment.network.kernel, rig.client.soap
            for index, rate in enumerate(self.RATES):
                ops = []
                for i in range(self.BATCH_REQUESTS):
                    if i in self.set_at:
                        ops.append(self._set("c0", self._next))
                        self._next += 1
                    else:
                        ops.append(self._get("c0"))
                arrivals = self._arrivals(
                    len(ops), rate, "poisson", self.seed * 31 + index, start=kernel.clock.now
                )

                def make_task(i: int, stack=stack, ops=ops, soap=soap):
                    return soap.invoke_task(*self._op_request(stack, ops[i], counters[stack]))

                with self.timer(result, len(ops)):
                    load = self._open_loop(
                        kernel, arrivals, make_task, offered_per_sec=rate, name=f"{stack}-req"
                    )
                summary = load.summary()
                if (summary["completed"], summary["rejected"], summary["failed"]) != (
                    len(ops), 0, 0,
                ):
                    result.problems.append(
                        f"{stack} at {rate}/s: {summary['completed']} completed, "
                        f"{summary['rejected']} rejected, {summary['failed']} failed"
                    )
                summaries[f"{stack}@{rate}"] = summary
                waits.extend(load.queueing.samples())
                depth = max([depth, *summary["max_queue_depth"].values()])
        # The four batches differ in cost, so the pass is the sample: its
        # normalized time per simulated request.
        result.samples_ms = [result.norm_s * 1000 / result.ops]
        result.virtual = _close_brackets(networks, result.ops)
        result.virtual["load"] = summaries
        result.layer = {
            "sim.pool.wait_ms": sum(waits) / len(waits),
            "sim.pool.max_depth": depth,
        }
        return result


WORKLOADS = {w.name: w for w in (SoakGet, SoakSet, Conformance, Loadgen)}
