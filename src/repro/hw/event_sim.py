"""A small discrete-event simulation (DES) kernel.

This is the substrate under the timed executor: DMA engines, compute
pipelines and shared-bandwidth channels are small state machines on one
simulated clock.  The kernel is callback-driven, kept deliberately small:

* the :class:`Simulator` heap holds ``(when, seq, fn, arg)`` entries;
  popping one sets the clock to ``when`` and calls ``fn(arg)``.
  :meth:`Simulator.schedule` pushes an entry ``delay`` seconds ahead.
* :class:`Event` — one-shot occurrence with an ordered callback list, for
  what several parties wait on (an op's completion, a barrier release).
* :class:`Resource` — FIFO resource with integer capacity (DMA channels,
  the single compute pipeline of a core); a request names the callback
  scheduled when a slot is granted.

A model waits by registering the callback that continues it: on the heap
for a delay, on an :class:`Event`'s list for an occurrence, at a
:class:`Resource` for a slot.  Waiting for several events is a counter
the continuation decrements.

Time is in **seconds** (float).  Determinism: ties on the heap break on a
monotonically increasing sequence number, and an event calls its
callbacks in registration order, so runs are exactly repeatable.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable

from ..errors import SimulationError

Callback = Callable[[Any], None]


class Event:
    """A one-shot occurrence; ``wait`` registers a callback ``cb(event)``."""

    __slots__ = ("callbacks", "triggered", "name")

    def __init__(self, name: str = "") -> None:
        self.callbacks: list[Callable[[Event], None]] = []
        self.triggered = False
        self.name = name

    def succeed(self, _arg: Any = None) -> "Event":
        """Trigger the event now: run its callbacks in registration order.

        Takes (and ignores) one argument so it can be scheduled directly.
        """
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)
        return self

    def wait(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback``; runs immediately if already triggered."""
        if self.triggered:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.triggered else "pending"
        return f"Event({self.name or hex(id(self))}, {state})"


class Simulator:
    """Event loop: a heap of ``(when, seq, fn, arg)`` calls to make."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callback, Any]] = []
        self._seq = 0
        self._processed = 0
        self._heap_peak = 0

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, fn: Callback, arg: Any = None) -> None:
        """Call ``fn(arg)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self._seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, (self.now + delay, seq, fn, arg))
        if len(heap) > self._heap_peak:
            self._heap_peak = len(heap)

    def schedule_at(self, when: float, fn: Callback, arg: Any = None) -> None:
        """Call ``fn(arg)`` at simulated time ``when`` (not in the past)."""
        if when < self.now - 1e-18:
            raise SimulationError(
                f"cannot schedule event at {when} before now={self.now}"
            )
        self._seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, (when, seq, fn, arg))
        if len(heap) > self._heap_peak:
            self._heap_peak = len(heap)

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Run until the heap drains (or simulated time passes ``until``).

        Returns the final simulation time.  ``max_events`` is a runaway
        guard; real experiments stay far below it.
        """
        heap = self._heap
        limit = math.inf if until is None else until
        processed = self._processed
        try:
            while heap:
                if heap[0][0] > limit:
                    self.now = until
                    return until
                when, _seq, fn, arg = heappop(heap)
                self.now = when
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a runaway process"
                    )
                fn(arg)
        finally:
            self._processed = processed
        return self.now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def heap_peak(self) -> int:
        """High-water mark of the pending-event heap."""
        return self._heap_peak


class Resource:
    """FIFO resource with integer capacity.

    ``request(fn, arg)`` schedules ``fn(arg)`` at the current time once a
    slot is free (at once, or at the ``release()`` that frees one for
    it).  Used for DMA channels (capacity = channels_per_core) and the
    compute pipeline (capacity = 1).
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_queue")

    def __init__(self, sim: Simulator, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource {name!r} capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: deque[tuple[Callback, Any]] = deque()

    def request(self, fn: Callback, arg: Any = None) -> None:
        if self._in_use < self.capacity:
            self._in_use += 1
            self.sim.schedule(0.0, fn, arg)
        else:
            self._queue.append((fn, arg))

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            fn, arg = self._queue.popleft()
            self.sim.schedule(0.0, fn, arg)
        else:
            self._in_use -= 1

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)
