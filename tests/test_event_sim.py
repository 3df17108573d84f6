"""The discrete-event simulation kernel."""

import heapq
import math
import random

import pytest

from repro.errors import ConfigError, SimulationError
from repro.hw.bandwidth import LocalChannel, SharedChannel
from repro.hw.cluster import ClusterSim
from repro.hw.config import DmaConfig, DspCoreConfig
from repro.hw.dma import DmaDescriptor, DmaEngine
from repro.hw.event_sim import Event, Simulator
from repro.hw.memory import MemKind


def noop(_arg):
    pass


#: 100 bytes on the 100 B/s core-local link: one second
LOCAL_1S = DmaDescriptor(MemKind.SM, MemKind.AM, rows=1, row_bytes=100)


def make_engine(channels: int):
    """A DMA engine without startup cost over a 100 B/s local link."""
    sim = Simulator()
    local = LocalChannel(sim, 100.0)
    chans = {MemKind.DDR: SharedChannel(sim, 100.0), MemKind.GSM: local,
             MemKind.AM: local, MemKind.SM: local}
    dma = DmaConfig(channels_per_core=channels, startup_cycles=0)
    return sim, DmaEngine(sim, 0, DspCoreConfig(), dma, chans)


class TestEvents:
    def test_timeout_fires_at_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.5, lambda _arg: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_timeout_carries_value(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "payload")
        sim.run()
        assert seen == ["payload"]

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, noop)

    def test_event_triggered_twice_raises(self):
        ev = Event("x")
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_wait_on_triggered_event_fires_immediately(self):
        ev = Event().succeed()
        seen = []
        ev.wait(seen.append)
        assert seen == [ev]

    def test_callbacks_run_in_registration_order(self):
        ev = Event()
        order = []
        for i in range(4):
            ev.wait(lambda _ev, i=i: order.append(i))
        ev.succeed()
        assert order == [0, 1, 2, 3]

    def test_scheduled_succeed_fires_event(self):
        sim = Simulator()
        ev = Event()
        times = []
        ev.wait(lambda _ev: times.append(sim.now))
        sim.schedule(3.0, ev.succeed)
        sim.run()
        assert ev.triggered and times == [3.0]

    def test_callback_chain_sequences_delays(self):
        """A state machine: each step schedules the next."""
        sim = Simulator()
        trace = []

        def step(n):
            trace.append(sim.now)
            if n:
                sim.schedule(1.0 + n, step, n - 1)

        sim.schedule(1.0, step, 1)
        sim.run()
        assert trace == [1.0, 3.0]


class TestResource:
    """The DES's FIFO resources: a DMA engine's channels and a core's
    compute pipeline, each granted inline by the component itself."""

    def test_capacity_one_serializes(self, cluster):
        core = ClusterSim(cluster).cores[0]
        sim, finish = core.sim, []
        # a: 2 us, b: 1 us on the one pipeline
        core.run_kernel(3600, lambda name: finish.append((name, sim.now)), "a")
        core.run_kernel(1800, lambda name: finish.append((name, sim.now)), "b")
        sim.run()
        assert finish == [("a", pytest.approx(2e-6)),
                          ("b", pytest.approx(3e-6))]  # FIFO

    def test_capacity_two_overlaps(self):
        sim, eng = make_engine(channels=2)
        for _ in range(2):
            eng.issue(LOCAL_1S, noop)
        assert eng.in_use == 2 and not eng.waiting
        sim.run()
        assert sim.now == 1.0  # both on the uncontended local link at once

    def test_free_slot_is_granted_inline(self):
        sim, eng = make_engine(channels=1)
        eng.issue(LOCAL_1S, noop)
        # granted inside issue: the channel is taken and no event ran
        assert eng.in_use == 1 and not eng.waiting
        assert sim.events_processed == 0

    def test_release_grants_oldest_queued_at_once(self):
        sim, eng = make_engine(channels=2)
        seen = []

        def done(name):
            # the freed channel went to the oldest waiting transfer inside
            # the completion that freed it
            seen.append((name, eng.in_use, len(eng.waiting)))

        for name in "abcde":
            eng.issue(LOCAL_1S, done, name)
        assert eng.in_use == 2 and len(eng.waiting) == 3
        sim.run()
        assert seen == [("a", 2, 2), ("b", 2, 1), ("c", 2, 0), ("d", 1, 0),
                        ("e", 0, 0)]

    def test_release_with_nothing_queued_idles_the_slot(self, cluster):
        core = ClusterSim(cluster).cores[0]
        core.run_kernel(1800, noop)
        core.sim.run()
        assert not core.busy and not core.waiting
        core.run_kernel(1800, noop)  # granted again at once
        assert core.busy and not core.waiting

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            DmaConfig(channels_per_core=0).validate()

    def test_queue_depth_visible(self):
        _sim, eng = make_engine(channels=1)
        eng.issue(LOCAL_1S, noop)
        eng.issue(LOCAL_1S, noop)
        assert eng.in_use == 1
        assert len(eng.waiting) == 1 and eng.queue_depth_peak == 1


class TestScheduleSoon:
    def test_push_takes_the_seq_of_a_queued_call(self):
        """``schedule_soon`` orders a tie as a queued call that schedules
        would, and is not an event itself."""

        def tie_order(soon):
            sim, log = Simulator(), []

            def at_one(_arg):
                sim.call_soon(
                    lambda _a: sim.schedule(1.0, log.append, "queued call"))
                if soon:
                    sim.schedule_soon(1.0, log.append, "deferred")
                else:
                    sim.call_soon(
                        lambda _a: sim.schedule(1.0, log.append, "deferred"))
                sim.schedule(1.0, log.append, "pushed now")

            sim.schedule(1.0, at_one)
            sim.run()
            return log, sim.events_processed

        log, events = tie_order(soon=True)
        assert (log, events + 1) == tie_order(soon=False)
        assert log == ["pushed now", "queued call", "deferred"]

    def test_zero_delay_lands_behind_the_queue(self):
        sim, log = Simulator(), []
        sim.schedule_soon(0.0, log.append, "soon push")
        sim.call_soon(log.append, "queued after")
        sim.run()
        assert log == ["queued after", "soon push"]
        assert sim.events_processed == 2

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_soon(-1.0, noop)


class TestEndOfInstant:
    def test_hook_runs_once_per_instant_after_the_queue_and_due_entries(self):
        sim, log = Simulator(), []

        def hook():
            log.append(("hook", sim.now))

        def at(name):
            log.append((name, sim.now))
            if not sim.end_of_instant:
                sim.end_of_instant.append(hook)
            if name == "first due at 1":
                sim.call_soon(at, "queued at 1")

        sim.schedule(1.0, at, "first due at 1")
        sim.schedule(1.0, at, "second due at 1")
        sim.schedule(2.0, at, "due at 2")
        sim.run()
        assert log == [("first due at 1", 1.0), ("second due at 1", 1.0),
                       ("queued at 1", 1.0), ("hook", 1.0),
                       ("due at 2", 2.0), ("hook", 2.0)]

    def test_work_a_hook_queues_runs_at_its_instant(self):
        sim, log = Simulator(), []

        def hook():
            log.append(("hook", sim.now))
            sim.call_soon(lambda _a: log.append(("queued", sim.now)))
            sim.schedule_soon(1.0, lambda _a: log.append(("pushed", sim.now)))
            sim.end_of_instant.append(lambda: log.append(("next hook", sim.now)))

        sim.schedule(1.0, lambda _a: sim.end_of_instant.append(hook))
        sim.schedule(1.5, lambda _a: log.append(("due at 1.5", sim.now)))
        sim.run()
        # the hook's call runs at its instant, then the hook it registered
        assert log == [("hook", 1.0), ("queued", 1.0), ("next hook", 1.0),
                       ("due at 1.5", 1.5), ("pushed", 2.0)]

    def test_hook_before_run_runs_at_the_current_instant(self):
        sim, log = Simulator(), []
        sim.schedule(1.0, lambda _a: log.append(("due", sim.now)))
        sim.end_of_instant.append(lambda: log.append(("hook", sim.now)))
        sim.run()
        assert log == [("hook", 0.0), ("due", 1.0)]

    def test_hook_is_not_an_event(self):
        sim, log = Simulator(), []
        sim.schedule(1.0, lambda _a: sim.end_of_instant.append(
            lambda: log.append(sim.now)))
        sim.run()
        assert log == [1.0]
        assert sim.events_processed == 1 and sim.heap_peak == 1

    def test_reserved_seq_keeps_the_place_of_an_earlier_push(self):
        sim, log = Simulator(), []

        def at_one(_arg):
            seq = sim.reserve_seq()
            sim.schedule(1.0, log.append, "pushed after the reservation")
            sim.end_of_instant.append(lambda: sim.push_reserved(
                1.0, seq, log.append, "pushed by the hook"))

        sim.schedule(1.0, at_one)
        sim.run()
        assert log == ["pushed by the hook", "pushed after the reservation"]


class TestSimulator:
    def test_run_until_stops_clock(self):
        sim = Simulator()
        sim.schedule(10.0, noop)
        assert sim.run(until=4.0) == 4.0
        assert sim.now == 4.0

    def test_run_until_in_the_past_keeps_clock(self):
        """An ``until`` before ``now`` must not rewind the clock: a call
        scheduled next would otherwise fire before instants already run."""
        sim = Simulator()
        log = []
        sim.schedule(5.0, log.append, 5.0)
        sim.schedule(10.0, log.append, 10.0)
        assert sim.run(until=6.0) == 6.0
        assert sim.run(until=3.0) == 6.0
        assert sim.now == 6.0
        sim.schedule(1.0, lambda _arg: log.append(sim.now))
        sim.run()
        assert log == [5.0, 7.0, 10.0]

    def test_deterministic_tie_break(self):
        order1, order2 = [], []
        for order in (order1, order2):
            sim = Simulator()
            for i in range(5):
                sim.schedule(1.0, order.append, i)
            sim.run()
        assert order1 == order2 == [0, 1, 2, 3, 4]

    def test_ties_break_on_push_order_across_delays(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "late-push-first")
        sim.schedule(0.5, lambda _arg: sim.schedule(0.5, order.append, "x"))
        sim.schedule(1.0, order.append, "late-push-second")
        sim.run()
        assert order == ["late-push-first", "late-push-second", "x"]

    def test_events_processed_counts_every_pop(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), noop)
        sim.run()
        assert sim.events_processed == 3
        assert sim.heap_peak == 3

    def test_runaway_guard(self):
        sim = Simulator()

        def forever(_arg):
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class _HeapOnly:
    """Reference scheduler: every pending call on one ``(when, seq)`` heap."""

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.events_processed = 0
        self.heap_peak = 0

    def schedule(self, delay, fn, arg=None):
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, fn, arg))
        self.heap_peak = max(self.heap_peak, len(self.heap))

    def run(self, until=None):
        limit = math.inf if until is None else until
        while self.heap:
            if self.heap[0][0] > limit:
                self.now = max(self.now, until)
                return self.now
            self.now, _seq, fn, arg = heapq.heappop(self.heap)
            self.events_processed += 1
            fn(arg)
        return self.now


#: zero delays, equal-time ties, and a delay too small to move the clock
_DELAYS = (0.0, 0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1e-300)


def _drive(sim, seed, deferred=None):
    """Run a seeded random tree of calls on ``sim`` in three ``run``
    segments; return every call with its time, and what ``run`` returned.

    What each call does depends only on its name, so both schedulers see
    the same program.  On a :class:`Simulator` half of the zero-delay
    calls go through ``call_soon``.  With a ``deferred`` list, half of
    the other calls are pushed from a queued call at the current instant
    (on a :class:`Simulator`, through ``schedule_soon``), each counted
    in the list.
    """
    log, returns = [], []
    soon = getattr(sim, "call_soon", None)
    schedule_soon = getattr(sim, "schedule_soon", None)

    def push_later(delay, name):
        if schedule_soon is not None:
            schedule_soon(delay, call, name)
        else:
            sim.schedule(0.0, lambda _a: sim.schedule(delay, call, name))
        deferred.append(name)

    def call(name):
        log.append((name, sim.now))
        rng = random.Random(f"{seed}/{name}")
        if name.count(".") >= 6:
            return
        for k in range(rng.choice((0, 1, 1, 2, 3))):
            delay = rng.choice(_DELAYS)
            via_soon = rng.random() < 0.5
            if soon is not None and delay == 0.0 and via_soon:
                soon(call, f"{name}.{k}")
            elif deferred is not None and delay > 0.0 and via_soon:
                push_later(delay, f"{name}.{k}")
            else:
                sim.schedule(delay, call, f"{name}.{k}")

    rng = random.Random(seed)
    for until in (0.5, 1.5, None):
        for root in range(rng.randrange(1, 5)):
            sim.schedule(rng.choice(_DELAYS), call, f"{until}-{root}")
        returns.append(sim.run(until=until))
    return log, returns


@pytest.mark.parametrize("seed", range(40))
def test_ready_queue_keeps_heap_order(seed):
    """The ready queue runs every call in the heap's ``(when, seq)`` order
    and counts events and pending calls as one heap would."""
    ref, sim = _HeapOnly(), Simulator()
    expected = _drive(ref, seed)
    assert _drive(sim, seed) == expected
    assert expected[0]
    assert sim.events_processed == ref.events_processed
    assert sim.heap_peak == ref.heap_peak


@pytest.mark.parametrize("seed", range(40))
def test_schedule_soon_keeps_a_queued_push_order(seed):
    """A ``schedule_soon`` push orders every tie as a queued call making
    the push would, and is the one event fewer."""
    ref_deferred, deferred = [], []
    ref, sim = _HeapOnly(), Simulator()
    expected = _drive(ref, seed, ref_deferred)
    assert _drive(sim, seed, deferred) == expected
    assert deferred == ref_deferred
    assert sim.events_processed == ref.events_processed - len(deferred)
    assert sim.heap_peak == ref.heap_peak


def test_entry_due_now_runs_before_calls_queued_now():
    sim = Simulator()
    order = []

    def at_one(_arg):
        order.append("first due at 1")
        sim.schedule(0.0, order.append, "zero delay at 1")
        sim.call_soon(order.append, "call_soon at 1")

    sim.schedule(1.0, at_one)
    sim.schedule(1.0, order.append, "second due at 1")
    sim.run()
    assert order == ["first due at 1", "second due at 1",
                     "zero delay at 1", "call_soon at 1"]
    assert sim.events_processed == 4
