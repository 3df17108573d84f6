"""A small discrete-event simulation (DES) kernel.

This is the substrate under the timed executor: DMA engines, compute
pipelines and shared-bandwidth channels are small state machines on one
simulated clock.  The kernel is callback-driven, kept deliberately small:

* the :class:`Simulator` holds pending ``fn(arg)`` calls: a heap of
  ``(when, seq, fn, arg)`` entries for later instants and a FIFO ready
  queue for the current one.  :meth:`Simulator.schedule` queues a call
  ``delay`` seconds ahead; :meth:`Simulator.call_soon` queues one at the
  current instant (``schedule`` hands it every call that lands there);
  :meth:`Simulator.schedule_soon` queues a ``schedule`` behind the calls
  already queued for the current instant.
* :class:`Event` — one-shot occurrence with an ordered callback list, for
  what several parties wait on (an op's completion, a barrier release).
* :class:`Resource` — FIFO resource with integer capacity (DMA channels,
  the single compute pipeline of a core); a request names the callback
  called when a slot is granted.

A model waits by registering the callback that continues it: on the
simulator for a delay, on an :class:`Event`'s list for an occurrence, at
a :class:`Resource` for a slot.  Waiting for several events is a counter
the continuation decrements.

Time is in **seconds** (float).  Determinism: pending calls run in
``(when, seq)`` order, ``seq`` counting pushes, and an event calls its
callbacks in registration order, so runs are exactly repeatable.  The
ready queue keeps that order without the heap: a heap entry due now was
pushed before the clock reached now, so it runs first, and the queue's
calls, all pushed at this instant, follow in push order.  Each queued
call is one event either way (``events_processed``); a grant, and a
``schedule_soon`` push, run no callback of their own and are not events.
``heap_peak`` counts the pending entries of heap and ready queue.

Why a grant needs no event of its own: a queued call that does some
bookkeeping and then schedules its continuation is equivalent to doing
the bookkeeping at once and handing the push to
:meth:`Simulator.schedule_soon`.  The push keeps the call's place in the
ready queue, so it gets the same ``seq``, and the bookkeeping only moves
earlier, which nothing can tell as long as nothing that runs in between
reads it.  The DMA engines' and pipelines' bookkeeping (queue waits,
issue indices, busy time) is read only by their own later grants, which
keep their order, and by reports after the run.
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
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
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
    """Event loop over pending ``fn(arg)`` calls: a heap of
    ``(when, seq, fn, arg)`` entries plus the ready queue of the current
    instant."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callback, Any]] = []
        self._ready: deque[tuple[Callback, Any]] = deque()
        self._seq = 0
        self._processed = 0
        self._heap_peak = 0

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, fn: Callback, arg: Any = None) -> None:
        """Call ``fn(arg)`` ``delay`` seconds from now; a call that lands
        at the current instant goes to :meth:`call_soon`."""
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        when = self.now + delay
        if when == self.now:
            self.call_soon(fn, arg)
            return
        self._seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, (when, seq, fn, arg))
        pending = len(heap) + len(self._ready)
        if pending > self._heap_peak:
            self._heap_peak = pending

    def call_soon(self, fn: Callback, arg: Any = None) -> None:
        """Call ``fn(arg)`` at the current instant, after every call
        already pending for it."""
        ready = self._ready
        ready.append((fn, arg))
        pending = len(self._heap) + len(ready)
        if pending > self._heap_peak:
            self._heap_peak = pending

    def schedule_soon(self, delay: float, fn: Callback, arg: Any = None) -> None:
        """:meth:`schedule` ``fn(arg)``, but only once every call already
        pending for the current instant has run.

        The push waits in the ready queue, so it takes the ``seq`` that a
        queued call making it would have; unlike such a call it is not an
        event.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        ready = self._ready
        ready.append((None, (self.now + delay, fn, arg)))
        pending = len(self._heap) + len(ready)
        if pending > self._heap_peak:
            self._heap_peak = pending

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Run until nothing is pending (or simulated time passes ``until``).

        Returns the final simulation time.  ``max_events`` is a runaway
        guard; real experiments stay far below it.
        """
        heap, ready = self._heap, self._ready
        popleft = ready.popleft
        limit = math.inf if until is None else until
        now = self.now
        if now > limit and (heap or ready):  # every pending call is late
            self.now = until
            return until
        processed = self._processed
        try:
            while True:
                if ready:
                    # heap entries due now were pushed before the clock
                    # got here, so ahead of every queued call
                    if heap and heap[0][0] == now:
                        _when, _seq, fn, arg = heappop(heap)
                    else:
                        fn, arg = popleft()
                        if fn is None:  # a schedule_soon push: no event
                            when, fn, arg = arg
                            if when == now:
                                ready.append((fn, arg))
                            else:
                                self._seq = seq = self._seq + 1
                                heappush(heap, (when, seq, fn, arg))
                            continue
                elif heap:
                    when = heap[0][0]
                    if when > limit:
                        self.now = until
                        return until
                    _when, _seq, fn, arg = heappop(heap)
                    self.now = now = when
                else:
                    break
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
        """High-water mark of pending calls (heap plus ready queue)."""
        return self._heap_peak


class Resource:
    """FIFO resource with integer capacity.

    ``request(fn, arg)`` calls ``fn(arg)`` once a slot is free: at once,
    or inside the ``release()`` that frees one for it, oldest request
    first.  A grantee that continues in time pushes through
    :meth:`Simulator.schedule_soon`, which keeps the push where a queued
    grant call would have made it (see the module docstring).  Used for
    DMA channels (capacity = channels_per_core) and the compute pipeline
    (capacity = 1).
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
            fn(arg)
        else:
            self._queue.append((fn, arg))

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            fn, arg = self._queue.popleft()
            fn(arg)
        else:
            self._in_use -= 1

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)
