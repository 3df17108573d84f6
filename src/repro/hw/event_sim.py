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
* ``Simulator.end_of_instant`` holds hooks ``fn()`` that run once the
  current instant has nothing left to run: its ready queue is empty and
  no heap entry is due now.  Work a hook queues at the instant runs at
  it, before the clock moves on.
* :meth:`Simulator.reserve_seq` takes the ``seq`` of a push made now and
  :meth:`Simulator.push_reserved` makes the push later in the instant,
  once its time is known.
* :class:`Event` — one-shot occurrence with an ordered callback list, for
  what several parties wait on (an op's completion, a barrier release).

A model waits by registering the callback that continues it: on the
simulator for a delay, on an :class:`Event`'s list for an occurrence.
The DMA engines and compute pipelines keep their FIFO slots themselves.

Time is in **seconds** (float).  Determinism: pending calls run in
``(when, seq)`` order, ``seq`` counting pushes, and an event calls its
callbacks in registration order, so runs are exactly repeatable.  The
ready queue keeps that order without the heap: a heap entry due now was
pushed before the clock reached now, so it runs first, and the queue's
calls, all pushed at this instant, follow in push order.  Each queued
call is one event either way (``events_processed``); a grant, a
``schedule_soon`` push and an end-of-instant hook run no call of their
own and are not events.  ``heap_peak`` counts the pending entries of
heap and ready queue; hooks are not among them.

Why a grant needs no event of its own: a queued call that does some
bookkeeping and then schedules its continuation is equivalent to doing
the bookkeeping at once and handing the push to
:meth:`Simulator.schedule_soon`.  The push keeps the call's place in the
ready queue, so it gets the same ``seq``, and the bookkeeping only moves
earlier, which nothing can tell as long as nothing that runs in between
reads it.  The DMA engines' and pipelines' bookkeeping (queue waits,
issue indices, busy time) is read only by their own later grants, which
keep their order, and by reports after the run.

Why a hook can stand in for a queued call: a call queued at an instant
runs after every call queued before it, and before those queued after
it.  When nothing queued after it at that instant has an effect the call
could see or change, other than ``schedule_soon`` pushes (which take
their ``seq`` in queue order whatever runs before them), the call may as
well run last: as a hook.  What a hook pushes through ``schedule_soon``
lands behind every push already queued, as it would have from the call.

Why a reserved ``seq`` keeps the order: the heap orders entries by
``(when, seq)`` alone, so an entry pushed late with the ``seq`` it would
have taken earlier sits exactly where the earlier push would have put
it.  The late push must still land after the current instant, as every
heap entry does.
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
    instant, and the hooks that end the instant.

    ``end_of_instant`` is the list of hooks ``fn()`` to call once the
    current instant has nothing left to run, before the clock moves on:
    append to it (look it up each time: the loop replaces it as it
    calls the hooks).  Hooks run in the order appended, each once; one
    appended while hooks run waits for the work they queued.  A hook is
    not an event.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callback, Any]] = []
        #: queued calls ``(fn, arg)``, and ``(None, pushes)`` for a batch
        #: of ``schedule_soon`` pushes that has calls queued behind it
        self._ready: deque[tuple[Callback | None, Any]] = deque()
        #: ``schedule_soon`` pushes ``(when, fn, arg)`` queued behind
        #: every call in ``_ready``
        self._soon: list[tuple[float, Callback, Any]] = []
        self.end_of_instant: list[Callable[[], None]] = []
        self._seq = 0
        #: entries ever pushed (a ``schedule_soon`` push counts once):
        #: less ``_processed``, the entries pending
        self._pushes = 0
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
        heappush(self._heap, (when, seq, fn, arg))
        self._pushes += 1

    def call_soon(self, fn: Callback, arg: Any = None) -> None:
        """Call ``fn(arg)`` at the current instant, after every call
        already pending for it."""
        soon = self._soon
        if soon:  # the call queues behind these pushes
            self._ready.append((None, tuple(soon)))
            soon.clear()
        self._ready.append((fn, arg))
        self._pushes += 1

    def schedule_soon(self, delay: float, fn: Callback, arg: Any = None) -> None:
        """:meth:`schedule` ``fn(arg)``, but only once every call already
        pending for the current instant has run.

        The push waits in the ready queue, so it takes the ``seq`` that a
        queued call making it would have; unlike such a call it is not an
        event.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self._soon.append((self.now + delay, fn, arg))
        self._pushes += 1

    def reserve_seq(self) -> int:
        """The ``seq`` a push made now would take, for
        :meth:`push_reserved` to use later in this instant."""
        self._seq = seq = self._seq + 1
        return seq

    def push_reserved(self, delay: float, seq: int, fn: Callback,
                      arg: Any = None) -> None:
        """:meth:`schedule` ``fn(arg)`` in the place of the push that
        reserved ``seq`` (see :meth:`reserve_seq`)."""
        when = self.now + delay
        if when == self.now:
            self.call_soon(fn, arg)
            return
        heappush(self._heap, (when, seq, fn, arg))
        self._pushes += 1

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Run until nothing is pending (or simulated time passes ``until``).

        Returns the final simulation time; an ``until`` before ``now``
        runs nothing and leaves the clock where it is.  ``max_events`` is
        a runaway guard; real experiments stay far below it.
        """
        heap, ready, soon = self._heap, self._ready, self._soon
        popleft = ready.popleft
        limit = math.inf if until is None else until
        now = self.now
        if now > limit:  # that instant is past: the clock stays
            return now
        processed, peak = self._processed, self._heap_peak
        try:
            while True:
                if ready or soon:
                    # heap entries due now were pushed before the clock
                    # got here, so ahead of every queued call
                    if heap and heap[0][0] == now:
                        _when, _seq, fn, arg = heappop(heap)
                    else:
                        if ready:
                            fn, arg = popleft()
                        else:
                            fn, arg = None, soon
                        if fn is None:  # schedule_soon pushes: no event
                            seq = self._seq
                            for when, fn, a in arg:
                                if when == now:  # a call after all queued
                                    if soon and arg is not soon:
                                        ready.append((None, tuple(soon)))
                                        soon.clear()
                                    ready.append((fn, a))
                                else:
                                    seq += 1
                                    heappush(heap, (when, seq, fn, a))
                            self._seq = seq
                            if arg is soon:
                                soon.clear()
                            continue
                elif heap:
                    when = heap[0][0]
                    if when != now:  # the instant is over
                        if self.end_of_instant:
                            self._end_instant()
                            continue
                        if when > limit:
                            self.now = until
                            return until
                        self.now = now = when
                    _when, _seq, fn, arg = heappop(heap)
                elif self.end_of_instant:
                    self._end_instant()
                    continue
                else:
                    break
                # pending only grows between events: its high-water
                # mark is reached just before one
                pending = self._pushes - processed
                if pending > peak:
                    peak = pending
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a runaway process"
                    )
                fn(arg)
        finally:
            self._processed, self._heap_peak = processed, peak
        return self.now

    def _end_instant(self) -> None:
        """Run the hooks appended so far; those they append wait for
        the work they queue."""
        hooks = self.end_of_instant
        self.end_of_instant = []
        for hook in hooks:
            hook()

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def heap_peak(self) -> int:
        """High-water mark of pending calls (heap plus ready queue)."""
        return max(self._heap_peak, self._pushes - self._processed)
