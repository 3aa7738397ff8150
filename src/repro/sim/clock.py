"""The virtual clock: the single source of time for the whole simulation.

Time is a float in *milliseconds* (matching the paper's reporting unit).
Components advance time by charging costs; timers let lifetime managers and
subscription expiries fire at scheduled virtual instants without any real
sleeping.

Two execution regimes share this class (DESIGN.md §14):

* **Immediate** (the default, and the single-request fast path): every
  ``charge`` advances ``now`` at once, firing due timers mid-advance —
  exactly the behaviour all golden cost ledgers were pinned against.
* **Deferred** (inside a :class:`~repro.sim.kernel.Kernel` stage): charges
  accumulate into a pending total instead of moving the shared timeline,
  so the kernel can sleep the stage's cost as one interleavable delay.
  ``now`` still reflects the locally-elapsed time (``_now + pending``), so
  deadlines computed mid-stage (lease expiries, retry backoff) land where
  the immediate regime would have put them.
"""

from __future__ import annotations

import heapq
import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.sim.errors import SimError


@dataclass(frozen=True)
class Timer:
    """Handle for a scheduled callback; pass to :meth:`Clock.cancel`."""

    fire_at: float
    seq: int
    #: The clock's heap entry ``[fire_at, seq, callback]``.
    _entry: list = field(repr=False, compare=False)


@dataclass
class DeferredCharges:
    """Accumulator for charges made while a kernel stage is executing."""

    ms: float = 0.0


class Clock:
    """Monotonic virtual clock with scheduled timers.

    ``charge(ms)`` is the workhorse: it advances time and fires any timer
    whose deadline falls inside the advance.  Timer callbacks run with the
    clock set to *their* deadline (so a resource destroyed by a lifetime
    sweep sees the correct destruction instant), after which the clock
    continues to the end of the charge.
    """

    def __init__(self, start: float = 0.0, seed: int = 0) -> None:
        self._now = float(start)
        #: Deadline heap of ``[fire_at, seq, callback]`` entries; firing or
        #: cancelling a timer clears its callback, and cleared entries are
        #: dropped as they surface.
        self._heap: list[list] = []
        self._seq = itertools.count()
        #: Non-None while a kernel stage runs with deferred charging.
        self._deferred: DeferredCharges | None = None
        #: The simulation's single source of randomness.  Everything
        #: stochastic (fault injection, backoff jitter) draws from here, so
        #: one seed makes a whole run reproducible.
        self.seed = seed
        self.rng = random.Random(seed)

    def reseed(self, seed: int | None = None) -> None:
        """Reset the RNG stream in place (``None`` replays the original
        seed).  In-place so components holding a reference to ``rng`` —
        e.g. the network's fault injector — see the new stream too."""
        if seed is not None:
            self.seed = seed
        self.rng.seed(self.seed)

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds.

        While a kernel stage defers its charges, ``now`` includes the
        stage's locally-accumulated time, so code running inside the
        stage sees time progress exactly as it would under immediate
        charging.
        """
        if self._deferred is not None:
            return self._now + self._deferred.ms
        return self._now

    def charge(self, ms: float) -> None:
        """Advance the clock by ``ms`` (must be non-negative)."""
        if ms < 0:
            raise SimError(f"cannot charge negative time: {ms}")
        if self._deferred is not None:
            self._deferred.ms += ms
            return
        self.advance_to(self._now + ms)

    def advance_to(self, deadline: float) -> None:
        """Move time forward to ``deadline``, firing due timers in order.

        Backwards movement is a :class:`~repro.sim.errors.SimError`: once
        several tasks schedule wakeups on one shared timeline, a silent
        rewind would deliver events before their causes.
        """
        if self._deferred is not None:
            if deadline < self.now:
                raise SimError(
                    f"clock cannot move backwards ({deadline} < {self.now}, "
                    "inside a deferred kernel stage)"
                )
            self._deferred.ms = deadline - self._now
            return
        if deadline < self._now:
            raise SimError(
                f"clock cannot move backwards ({deadline} < {self._now})"
            )
        while self._heap and self._heap[0][0] <= deadline:
            entry = heapq.heappop(self._heap)
            fire_at, _seq, callback = entry
            if callback is None:
                continue
            entry[2] = None
            self._now = max(self._now, fire_at)
            callback()
        self._now = max(self._now, deadline)

    @contextmanager
    def defer_charges(self):
        """Accumulate charges instead of advancing (one kernel stage).

        Yields the :class:`DeferredCharges` accumulator; on exit the clock
        returns to immediate mode *without* advancing — the kernel owns
        the advance, sleeping the accumulated total as a schedulable
        delay so other tasks' events can interleave inside it.  Deferral
        cannot nest: a stage is the atomic unit of computation.
        """
        if self._deferred is not None:
            raise SimError("charge deferral cannot nest: already inside a kernel stage")
        self._deferred = pending = DeferredCharges()
        try:
            yield pending
        finally:
            self._deferred = None

    @property
    def deferring(self) -> bool:
        """True while charges are being deferred (a kernel stage runs)."""
        return self._deferred is not None

    def schedule(self, fire_at: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to run when virtual time reaches ``fire_at``.

        A deadline in the past fires on the next advance (immediately at the
        current instant), never retroactively.
        """
        entry = [max(fire_at, self.now), next(self._seq), callback]
        heapq.heappush(self._heap, entry)
        return Timer(fire_at, entry[1], entry)

    def schedule_after(self, delay_ms: float, callback: Callable[[], None]) -> Timer:
        return self.schedule(self.now + delay_ms, callback)

    def cancel(self, timer: Timer) -> None:
        """Cancel a scheduled timer (idempotent; firing is skipped, and
        cancelling a timer that already fired is a no-op)."""
        timer._entry[2] = None

    def next_timer_at(self) -> float | None:
        """Deadline of the earliest live timer, or None when idle."""
        while self._heap and self._heap[0][2] is None:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def pending_timers(self) -> int:
        """Number of live (not yet fired, not cancelled) timers."""
        return sum(1 for entry in self._heap if entry[2] is not None)
