"""Property: the slotted calendar queue IS a single global heap.

For arbitrary schedules — same-time bursts, cancellations before and
during the run, mid-drain inserts landing in the active slot, and
far-future events that live in the overflow heap — :class:`SlotCalendar`
must execute exactly the same callbacks, in exactly the same order, at
exactly the same virtual times as the :class:`HeapOracle`.  The
campaign byte-identity guarantees rest on this equivalence.

Both schedulers are driven directly through ``push`` / ``cancel`` /
``drain(clock, until, max_events)`` by :class:`Clock`, the slice of
``Network`` that schedules and runs events; the equivalence property
also runs every schedule through a real ``Network``.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import Network
from repro.netsim.errors import SimulationError
from repro.netsim.scheduler import SLOT_COUNT, SLOT_WIDTH, SlotCalendar

from .oracles import HeapOracle

#: Past this horizon an event cannot land in the ring and must take the
#: overflow-heap path.
OVERFLOW_HORIZON = SLOT_COUNT * SLOT_WIDTH

#: Follow-up delays a firing event may schedule: 0.0 re-enters the slot
#: being drained, tiny deltas land in it or its neighbours, the large
#: one goes to the overflow heap.
FOLLOW_DELAYS = (0.0, 0.001, SLOT_WIDTH / 2, SLOT_WIDTH * 3.5,
                 OVERFLOW_HORIZON * 2)


@st.composite
def schedules(draw):
    times = draw(st.lists(
        st.one_of(
            # Dense cluster: many events per slot, frequent exact ties.
            st.floats(min_value=0.0, max_value=SLOT_WIDTH * 4),
            # Spread across the ring.
            st.floats(min_value=0.0, max_value=OVERFLOW_HORIZON * 0.9),
            # Beyond the ring horizon: overflow heap + migration.
            st.floats(min_value=OVERFLOW_HORIZON,
                      max_value=OVERFLOW_HORIZON * 200),
        ),
        min_size=1, max_size=50))
    # Duplicate some times exactly so same-(when) ordering falls to the
    # sequence numbers, where ties are actually decided.
    dups = draw(st.lists(st.integers(0, len(times) - 1), max_size=15))
    times = times + [times[i] for i in dups]
    n = len(times)
    pre_cancel = draw(st.sets(st.integers(0, n - 1), max_size=n))
    # (canceller, victim): when event *canceller* fires it cancels
    # event *victim* — in-flight tombstoning, possibly of an event in
    # the very slot being drained.
    run_cancel = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=10))
    follow = draw(st.dictionaries(
        st.integers(0, n - 1), st.sampled_from(FOLLOW_DELAYS), max_size=8))
    return times, pre_cancel, run_cancel, follow


#: Scheduler under test, by parameter id.
KINDS = {"heap": HeapOracle, "slots": SlotCalendar}


class Clock:
    """``Network``'s event-queue surface over any scheduler."""

    def __init__(self, kind: str) -> None:
        self.sched = KINDS[kind]()
        self.now = 0.0
        self.step_hook = None
        self.events_processed = 0
        self._seq = itertools.count()

    def call_at(self, when, fn, *args):
        return self.sched.push(when, next(self._seq), fn, args)

    def call_later(self, delay, fn, *args):
        return self.call_at(self.now + delay, fn, *args)

    def cancel_scheduled(self, handle):
        return self.sched.cancel(handle)

    def run_until_idle(self, max_events=20_000_000):
        try:
            return self.sched.drain(self, None, max_events)
        finally:
            self.events_processed += self.sched.drained

    @property
    def pending_events(self):
        return len(self.sched)


def run_schedule(net, spec):
    """Execute *spec* on *net* (a Clock or a Network); return the log."""
    times, pre_cancel, run_cancel, follow = spec
    log = []
    handles = []
    victims = {}
    for canceller, victim in run_cancel:
        victims.setdefault(canceller, []).append(victim)

    def fire(i):
        log.append((net.now, i))
        for j in victims.get(i, ()):
            net.cancel_scheduled(handles[j])
        delay = follow.get(i)
        if delay is not None:
            # Follow-up tags are disjoint from scheduled indexes, so
            # they never recurse into more follow-ups.
            net.call_later(delay, fire, i + 1_000_000)

    for i, when in enumerate(times):
        handles.append(net.call_at(when, fire, i))
    for i in sorted(pre_cancel):
        net.cancel_scheduled(handles[i])
    processed = net.run_until_idle()
    return log, processed, net.now, net.pending_events


class TestSchedulerEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(spec=schedules())
    def test_slots_match_heap_exactly(self, spec):
        heap_result = run_schedule(Clock("heap"), spec)
        assert run_schedule(Clock("slots"), spec) == heap_result
        assert run_schedule(Network(), spec) == heap_result

    def test_same_time_burst_preserves_fifo(self):
        for kind in KINDS:
            net = Clock(kind)
            log = []
            for i in range(50):
                net.call_at(1.0, log.append, i)
            net.run_until_idle()
            assert log == list(range(50)), kind

    def test_far_future_overflow_round_trip(self):
        """Overflow events migrate back into the ring in order."""
        horizon = OVERFLOW_HORIZON
        whens = [horizon * 150, 0.5, horizon * 3, horizon + 0.25, 2.0]
        for kind in KINDS:
            net = Clock(kind)
            log = []
            for i, when in enumerate(whens):
                net.call_at(when, log.append, i)
            net.run_until_idle()
            assert log == [1, 4, 3, 2, 0], kind
            assert net.now == horizon * 150


class TestEventBudget:
    """Satellite: the budget bites after exactly ``max_events``."""

    @pytest.mark.parametrize("kind", ["heap", "slots"])
    def test_exactly_max_events_completes(self, kind):
        net = Clock(kind)
        for i in range(7):
            net.call_at(0.001 * i, lambda: None)
        assert net.run_until_idle(max_events=7) == 7
        assert net.events_processed == 7

    @pytest.mark.parametrize("kind", ["heap", "slots"])
    def test_one_past_budget_raises_with_exactly_max_executed(self, kind):
        net = Clock(kind)
        ran = []
        for i in range(8):
            net.call_at(0.001 * i, ran.append, i)
        with pytest.raises(SimulationError, match="event budget exceeded"):
            net.run_until_idle(max_events=7)
        # The check runs *before* each event: 7 executed, never 8.
        assert ran == list(range(7))
        assert net.events_processed == 7
        assert net.pending_events == 1

    @pytest.mark.parametrize("kind", ["heap", "slots"])
    def test_budget_checked_inside_a_slot_batch(self, kind):
        """All events share one slot; the batch drain must still stop
        at the budget, not at the slot boundary."""
        net = Clock(kind)
        ran = []
        for i in range(10):
            net.call_at(1.0, ran.append, i)
        with pytest.raises(SimulationError, match="event budget exceeded"):
            net.run_until_idle(max_events=4)
        assert ran == [0, 1, 2, 3]
        assert net.events_processed == 4

    @pytest.mark.parametrize("kind", ["heap", "slots"])
    def test_cancelled_events_do_not_charge_the_budget(self, kind):
        net = Clock(kind)
        ran = []
        handles = [net.call_at(0.001 * i, ran.append, i) for i in range(10)]
        for handle in handles[:5]:
            net.cancel_scheduled(handle)
        assert net.run_until_idle(max_events=5) == 5
        assert ran == [5, 6, 7, 8, 9]

    @pytest.mark.parametrize("kind", ["heap", "slots"])
    def test_partial_progress_survives_a_blown_budget(self, kind):
        """After the budget raises, the remaining events are intact and
        a second run finishes them — with events_processed cumulative."""
        net = Clock(kind)
        ran = []
        for i in range(6):
            net.call_at(0.001 * i, ran.append, i)
        with pytest.raises(SimulationError):
            net.run_until_idle(max_events=3)
        assert net.run_until_idle(max_events=3) == 3
        assert ran == list(range(6))
        assert net.events_processed == 6

    @pytest.mark.parametrize("kind", ["heap", "slots"])
    def test_mid_drain_inserts_count_against_the_budget(self, kind):
        net = Clock(kind)
        count = [0]

        def chain():
            count[0] += 1
            net.call_later(0.0, chain)

        net.call_later(0.0, chain)
        with pytest.raises(SimulationError, match="event budget exceeded"):
            net.run_until_idle(max_events=100)
        assert count[0] == 100


class TestSlotOverflow:
    def test_far_events_migrate_in_order(self):
        net = Clock("slots")
        log = []
        for i in range(20):
            net.call_at(0.0, log.append, i)
        net.call_at(OVERFLOW_HORIZON * 2, log.append, "far")
        sched = net.sched
        assert len(sched._overflow) == 1
        assert sched._ring_count == 20
        net.run_until_idle()
        assert log == list(range(20)) + ["far"]
        assert not sched._overflow
        assert sched._ring_count == 0
        assert net.now == OVERFLOW_HORIZON * 2
