"""The event scheduler: a slotted calendar queue.

:class:`~repro.netsim.engine.Network` delegates its event queue to a
:class:`SlotCalendar` — a time-bucketed ring of slots, each
:data:`SLOT_WIDTH` of virtual time wide, with a plain binary heap
catching far-future events beyond the ring's horizon.  Near-term events
cost an O(1) list append on insert; the drain loop activates one slot
at a time, heapifies it once, and executes the whole batch with hoisted
locals before touching the ring again.  Far-future events (long timers)
migrate from the overflow heap into the ring as the horizon advances.

Events execute in ``(time, seq)`` order, where ``seq`` is the network's
global monotonic sequence number — the order of a single global binary
heap, which ``tests/netsim/test_scheduler_property.py`` checks the
calendar against.  The calendar preserves that order because the global
``(time, seq)`` minimum always lives in the earliest nonempty slot, and
the active slot is kept as a live heap while it drains (an event
scheduled *during* the drain that lands in the active slot is
heap-pushed, so it still executes in order relative to the rest of the
batch).

Entries are 4-item lists ``[when, seq, fn, args]`` — mutable so
:meth:`SlotCalendar.cancel` can tombstone an entry in place
(``fn = None``) without a queue scan.  Cancelled entries are skipped by
the drain loop and do not count against the event budget.  Nothing in
the simulator cancels events today (the TCP stack uses generation
counters instead); the cancellation API exists for the scheduler's own
tests and future timer wheels.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional

from .errors import SimulationError

#: Virtual seconds covered by one calendar slot.  Narrower than the
#: default link delay (0.005) would put every hop in its own slot;
#: twice the link delay batches a handful of in-flight packets per slot
#: while keeping slot heaps small.
SLOT_WIDTH = 0.01

#: Ring size (must be a power of two — the drain loop masks instead of
#: dividing).  ``SLOT_WIDTH * SLOT_COUNT`` is the horizon: events
#: further out sit in the overflow heap (TCP connect timeouts at +3 s
#: land in the ring; DNS retry backoffs and watchdog-scale timers may
#: not, and migrate in as virtual time advances).
SLOT_COUNT = 1024

_SLOT_MASK = SLOT_COUNT - 1


class SlotCalendar:
    """A slotted calendar queue with batch dequeue and heap overflow.

    Slots are plain lists keyed by the *absolute* slot index
    ``int(when / SLOT_WIDTH)`` masked into the ring.  Only the slot
    being drained is heap-ordered; every other insert is an append.
    The ring never aliases two epochs: an entry enters the ring only
    while its absolute index lies in ``[base, base + SLOT_COUNT)``, and
    ``base`` never passes a nonempty slot.
    """

    __slots__ = ("_slots", "_overflow", "_base", "_live", "_ring_count",
                 "_draining", "_inv", "drained")

    def __init__(self) -> None:
        self._slots: List[list] = [[] for _ in range(SLOT_COUNT)]
        self._overflow: List[list] = []
        #: Absolute index of the earliest possibly-nonempty slot.
        self._base = 0
        self._live = 0
        #: Physical entries (incl. tombstones) currently in the ring.
        self._ring_count = 0
        #: True while :meth:`drain` is executing the base slot — pushes
        #: into it must heap-push to keep the live batch ordered.
        self._draining = False
        self._inv = 1.0 / SLOT_WIDTH
        #: Events executed by the most recent :meth:`drain` call —
        #: valid even when the drain raised (budget, callback error),
        #: so ``Network.run`` can account for partial progress.
        self.drained = 0

    def push(self, when: float, seq: int, fn: Callable, args: tuple) -> list:
        entry = [when, seq, fn, args]
        self._insert(entry)
        self._live += 1
        return entry

    def _insert(self, entry: list) -> None:
        index = int(entry[0] * self._inv)
        base = self._base
        if index < base:
            # Float-boundary paranoia: ``when >= now`` always holds, so
            # at worst the event belongs in the slot being drained.
            index = base
        if index >= base + SLOT_COUNT:
            heappush(self._overflow, entry)
        else:
            slot = self._slots[index & _SLOT_MASK]
            if self._draining and index == base:
                heappush(slot, entry)
            else:
                slot.append(entry)
            self._ring_count += 1

    def cancel(self, entry: list) -> bool:
        """Tombstone *entry*; returns False if already run/cancelled."""
        if entry[2] is None:
            return False
        entry[2] = None
        self._live -= 1
        return True

    def __len__(self) -> int:
        return self._live

    def _migrate(self, base: int) -> None:
        """Pull overflow entries whose slot is now inside the horizon."""
        overflow = self._overflow
        inv = self._inv
        horizon = base + SLOT_COUNT
        slots = self._slots
        while overflow:
            index = int(overflow[0][0] * inv)
            if index >= horizon:
                break
            entry = heappop(overflow)
            if index < base:
                index = base
            slots[index & _SLOT_MASK].append(entry)
            self._ring_count += 1

    def drain(self, clock, until: Optional[float],
              max_events: int) -> int:
        """Execute events in ``(when, seq)`` order, one slot batch at a
        time, advancing ``clock.now`` and calling ``clock.step_hook``
        (if set) after each event.  The budget check runs before *each*
        event, so a batch-drained slot can never overshoot
        ``max_events``."""
        processed = 0
        self.drained = 0
        hook = clock.step_hook
        pop = heappop
        slots = self._slots
        try:
            while self._live:
                # -- position the base at the earliest nonempty slot --
                base = self._base
                if self._ring_count == 0:
                    # Ring empty: jump straight to the overflow's
                    # earliest slot instead of scanning virtual time.
                    index = int(self._overflow[0][0] * self._inv)
                    if index > base:
                        base = index
                self._migrate(base)
                while not slots[base & _SLOT_MASK]:
                    base += 1
                    self._migrate(base)
                self._base = base
                slot = slots[base & _SLOT_MASK]
                heapify(slot)
                self._draining = True

                # -- batch-drain the active slot (a live heap) --------
                while slot:
                    head = slot[0]
                    when = head[0]
                    if until is not None and when > until:
                        return processed
                    if head[2] is None:  # cancelled: no budget charge
                        pop(slot)
                        self._ring_count -= 1
                        continue
                    if processed >= max_events:
                        raise SimulationError(
                            f"event budget exceeded ({max_events}); "
                            f"likely a packet loop"
                        )
                    pop(slot)
                    self._ring_count -= 1
                    self._live -= 1
                    if when > clock.now:
                        clock.now = when
                    fn = head[2]
                    # Consume before calling: a cancel() against this
                    # handle (even from inside the callback) is a no-op
                    # instead of corrupting the live count.
                    head[2] = None
                    fn(*head[3])
                    processed += 1
                    if hook is not None:
                        hook()

                self._draining = False
                self._base = base + 1
        finally:
            self._draining = False
            self.drained = processed
        return processed
