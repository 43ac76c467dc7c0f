"""The discrete-event scheduler.

A :class:`Simulator` owns a virtual clock (float seconds) and a
pluggable event queue backend.  Components schedule callbacks with
:meth:`Simulator.schedule` / :meth:`Simulator.call_at` and the main loop
dispatches them in timestamp order.  Ties are broken by insertion order
(FIFO), which keeps packet processing deterministic.

Two backends implement the queue contract:

* ``scheduler="heap"`` (default) — a binary heap of ``(time, seq,
  event)`` tuples: the reference implementation, O(log n) per
  operation, no tuning knobs.
* ``scheduler="calendar"`` — a calendar queue: a circular wheel of
  array-backed buckets, each one ``bucket_width`` seconds wide, plus an
  overflow *ladder* (a heap) for events beyond the wheel's span.  When
  the bucket width matches the dominant inter-event quantum — the
  bottleneck link's serialization time in this workload — inserts and
  pops are O(1) amortized: same-quantum packet events batch into one
  bucket append each instead of individual heap sifts.  Only the bucket
  being drained is heap-ordered; every other bucket is a plain append
  array.  Long-horizon timers (RTO backoff, fault schedules) spill to
  the ladder and are redistributed into the wheel when it rotates
  forward.

Both backends maintain the same global ``(time, seq)`` total order over
entries — the sequence counter lives in the backend but is allocated in
identical program order — so dispatch order, including FIFO tie-breaks
and lazy-timer re-keys, is bit-identical between them.  The equivalence
is enforced by the cross-backend property suite, by
``tests/experiments/test_equivalence.py`` on the paper's scenarios, and
by the ``calendar`` ablation arm of ``bench/run.py --trace 1``.

Design notes
------------
* Cancellation is *lazy*: cancelled events stay queued with their
  callback detached and are skipped on pop.  The simulator keeps an O(1)
  live-event count, and when dead entries outnumber live ones (past a
  minimum queue size) the backend compacts in place.  Compaction filters
  entries without touching their ``(time, seq)`` keys, so the eventual
  pop order — and therefore every simulation result — is bit-identical
  with compaction on or off.
* :class:`Timer` is the facility for the cancel/re-arm churn of TCP
  retransmission and delayed-ACK timers.  Re-arming to a *later*
  deadline updates the deadline in place instead of pushing a new
  entry; the stale entry re-keys itself lazily when it surfaces.  A
  long-lived flow acking a thousand packets per RTO period costs one
  push per RTO period instead of one per ACK.  This works unchanged on
  either backend: the deferral touches only ``Event.time``.
* The loop stops at an explicit horizon (:meth:`run` ``until=``) or
  when the event queue is exhausted, whichever comes first; the
  watchdog budgets abort it instead.
* No wall-clock coupling anywhere: runs are exactly reproducible given
  the same seeds.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _wallclock
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    SchedulingError,
    SimulationError,
    SimulationStalledError,
)

__all__ = ["Event", "Simulator", "Timer", "check_wall_budget"]

_INF = math.inf
_floor = math.floor
# Typed as Any-returning so the inlined Event construction in
# Simulator.schedule can assign slot attributes without a cast.
_new_event: Callable[[Any], Any] = object.__new__
_heappush = heapq.heappush
_heappop = heapq.heappop
_heapify = heapq.heapify

#: One queued entry: ``(insert-time key, seq, event)``.  The key is the
#: deadline at insertion; a lazily-deferred timer moves ``event.time``
#: later without re-keying the entry.
_Entry = Tuple[float, int, "Event"]


def check_wall_budget(max_wall_seconds: Optional[float]) -> None:
    """Reject a wall budget the watchdog cannot enforce (nan never trips)."""
    if max_wall_seconds is not None and not (
            math.isfinite(max_wall_seconds) and max_wall_seconds > 0):
        raise SimulationError(f"max_wall_seconds must be a finite number "
                              f"> 0, got {max_wall_seconds}")


class Event:
    """A handle to a scheduled callback.

    Instances are created by :meth:`Simulator.schedule`; user code only
    holds them to :meth:`cancel` pending work (e.g. TCP retransmission
    timers).  Internally the backends store ``(time, seq, event)``
    tuples so ordering is decided by fast C-level tuple comparison
    rather than a Python ``__lt__``.

    ``event.time`` is the *authoritative* deadline.  It normally equals
    the entry key, but a lazily-rescheduled timer moves it later without
    re-keying; the run loop re-inserts such entries when they surface,
    under the sequence number the deferral drew (``_seq``).
    """

    __slots__ = ("time", "callback", "args", "_sim", "_cancelled", "_seq")

    def __init__(self, time: float, callback: Optional[Callable[..., Any]],
                 args: Tuple[Any, ...],
                 sim: Optional["Simulator"] = None) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self._sim = sim
        self._cancelled = False

    def cancel(self) -> None:
        """Detach the callback; the event becomes a no-op when popped.

        Idempotent, and a no-op on an event that has already run — only
        a genuine cancellation of pending work sets :attr:`cancelled`.
        """
        if self.callback is None:
            return
        self.callback = None
        self.args = ()
        self._cancelled = True
        sim = self._sim
        if sim is not None:
            live = sim._live - 1
            sim._live = live
            # Compaction is checked here, not in schedule(): dead
            # entries are created only by cancellation, so this is the
            # one place the dead/live ratio can cross the threshold
            # upward — and schedule() stays a branch shorter.  The
            # threshold test lives in the backend because only it knows
            # its raw entry count.
            sim._sched.note_cancel(live)

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` detached this event while still pending.

        Distinct from :attr:`consumed`: an event that ran normally is
        *not* cancelled, so invariant monitors can tell "this timer was
        disarmed" from "this timer fired".
        """
        return self._cancelled

    @property
    def consumed(self) -> bool:
        """Whether the event was dispatched (ran) by the simulator."""
        return self.callback is None and not self._cancelled

    @property
    def pending(self) -> bool:
        """Whether the event is still queued and will run."""
        return self.callback is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._cancelled:
            state = "cancelled"
        elif self.callback is None:
            state = "consumed"
        else:
            state = getattr(self.callback, "__name__", "?")
        return f"Event(t={self.time:.6f}, {state})"


class Timer:
    """A re-armable one-shot timer with lazy deferral.

    The classic TCP pattern — cancel the retransmission timer and re-arm
    it on every ACK — costs a dead entry plus an O(log n) push per ACK
    when done with raw :class:`Event` handles.  A ``Timer`` instead
    moves the deadline *in place* whenever the new deadline is no
    earlier than the current queue position (the common case: RTO
    restarts always push the deadline forward).  The single entry
    re-keys itself lazily when it surfaces, so a burst of k re-arms
    costs O(1) each plus one push per *expiry period* rather than k
    pushes.  The mechanism is backend-agnostic: only ``Event.time``
    moves, never the entry key.

    Re-arming to an earlier (or the same) deadline falls back to
    cancel-plus-push, and on a simulator constructed with
    ``lazy_timers=False`` every re-arm does.  A deferral draws the
    sequence number that cancel-plus-push would have drawn and the
    entry is re-keyed under it, so dispatch order — FIFO ties at the
    deadline included — is the same in both modes (the equivalence
    tests run both and compare results).

    Parameters
    ----------
    sim:
        The simulator.
    callback:
        Invoked as ``callback(*args)`` when the timer expires.  ``args``
        may be replaced per :meth:`arm` call.
    """

    __slots__ = ("sim", "callback", "args", "_event")

    def __init__(self, sim: "Simulator", callback: Callable[..., Any],
                 *args: Any) -> None:
        self.sim = sim
        self.callback = callback
        self.args = args
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        """Whether the timer is pending (will fire unless re-armed/cancelled)."""
        event = self._event
        return event is not None and event.callback is not None

    @property
    def deadline(self) -> Optional[float]:
        """Absolute expiry time, or ``None`` when disarmed.

        Historically this returned ``nan`` when disarmed, which silently
        poisoned any ``<`` / ``>=`` comparison at a call site (NaN
        compares false against everything).  ``None`` makes the same
        mistake raise a ``TypeError`` instead of corrupting control
        flow.
        """
        event = self._event
        if event is None or event.callback is None:
            return None
        return event.time

    def arm(self, delay: float, *args: Any) -> None:
        """(Re-)arm the timer ``delay`` seconds from now.

        Extra ``args`` replace the callback arguments for this firing;
        when omitted, the arguments from the constructor (or the most
        recent arm) are kept.
        """
        if not 0.0 <= delay < _INF:
            raise SchedulingError(
                f"timer delay must be finite and >= 0, got {delay!r}")
        sim = self.sim
        deadline = sim._now + delay
        if args:
            self.args = args
        # Deferral fast path (one call per ACK on the RTO hot loop): the
        # deadline is finite and >= now by construction.
        event = self._event
        if (sim._lazy_timers and event is not None
                and event.callback is not None and deadline > event.time):
            event.time = deadline
            event._seq = next(sim._seq_alloc)  # the cancel-plus-push's place
            sim.lazy_deferrals += 1
            return
        if event is not None:
            event.cancel()
        self._event = sim.call_at(deadline, self._fire)

    def cancel(self) -> None:
        """Disarm the timer (idempotent)."""
        event = self._event
        if event is not None:
            event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        event = self._event
        if event is not None and event.callback is not None:
            return f"Timer(at t={event.time:.6f})"
        return "Timer(disarmed)"


class _HeapScheduler:
    """Reference backend: one binary heap of ``(time, seq, event)``.

    This is the engine that every optimization is measured against —
    no tuning knobs, O(log n) everywhere, and the simplest possible
    invariants.
    """

    kind = "heap"

    __slots__ = ("sim", "_heap", "_seq", "_compact_min",
                 "peak_size", "compactions")

    def __init__(self, sim: "Simulator", compact_min: int) -> None:
        self.sim = sim
        self._heap: List[_Entry] = []
        self._seq = itertools.count()
        self._compact_min = compact_min
        #: Largest raw entry count ever observed (dead entries included).
        self.peak_size = 0
        #: Number of dead-entry compaction passes performed.
        self.compactions = 0

    # -- queue contract -------------------------------------------------
    def push(self, time: float, event: Event) -> None:
        """Insert ``event`` keyed at ``time`` (callers maintain ``_live``)."""
        heap = self._heap
        _heappush(heap, (time, next(self._seq), event))
        n = len(heap)
        if n > self.peak_size:
            self.peak_size = n

    @property
    def size(self) -> int:
        """Raw entry count, dead entries included."""
        return len(self._heap)

    def note_cancel(self, live: int) -> None:
        """Compact when dead entries outnumber live ones (past the floor)."""
        n = len(self._heap)
        if n - live > live and n >= self._compact_min:
            self.compact()

    def compact(self) -> None:
        """Drop dead entries in place.

        Entry keys are preserved, so the relative pop order of surviving
        entries — including FIFO tie-breaks — is untouched; results are
        bit-identical with compaction on or off.  In-place mutation
        (slice assignment) keeps the list identity stable for the run
        loop's cached reference.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2].callback is not None]
        _heapify(heap)
        self.compactions += 1

    # -- execution ------------------------------------------------------
    def run_loop(self, horizon: float, limit: int, wall_deadline: float,
                 max_events: Optional[int],
                 max_wall_seconds: Optional[float]) -> None:
        """Dispatch heap entries, merging the virtual per-link streams.

        Before popping a heap entry, every virtual packet-chain step
        that precedes the heap head's ``(time, seq)`` key is executed
        by the burst drain (a tight loop in :mod:`repro.net.link`).
        The drain re-reads ``heap[0]`` on every step, so a push landing
        mid-burst — a new timer, a zero-delay callback — immediately
        bounds the burst: interruption/re-split needs no explicit event
        surgery.  Virtual steps consume sequence numbers at exactly the
        per-event program points, so the global ``(time, seq)`` dispatch
        order is bit-identical to burst-off runs.  With bursting off
        ``sim._vheap`` stays empty and this is the plain pop loop.
        """
        sim = self.sim
        drain = sim._burst_drain
        vheap = sim._vheap
        popped = 0
        dispatched = 0
        try:
            heap = self._heap
            pop = _heappop
            push = _heappush
            now = sim._now
            while True:
                if vheap:
                    dispatched = drain(sim, heap, horizon, limit, dispatched)
                    now = sim._now
                    if limit and dispatched == limit:
                        raise SimulationStalledError(
                            f"watchdog: event budget of {max_events} "
                            f"exhausted at t={now:.6f} "
                            f"({len(heap)} events still queued)"
                        )
                    if (wall_deadline
                            and _wallclock.monotonic() > wall_deadline):
                        raise SimulationStalledError(
                            f"watchdog: wall-clock budget of "
                            f"{max_wall_seconds:.1f}s exhausted at "
                            f"t={now:.6f} after {dispatched} events"
                        )
                if not heap:
                    break
                # Pop first, push back at the horizon: the give-back
                # happens at most once per run() call, which is cheaper
                # than peeking heap[0][0] on every iteration.
                item = pop(heap)
                time = item[0]
                if time > horizon:
                    push(heap, item)
                    break
                event = item[2]
                callback = event.callback
                if callback is None:
                    continue
                etime = event.time
                if etime > time:
                    # Lazily-deferred timer: re-key at its real deadline,
                    # under the seq its last re-arm drew.  Not a dispatch
                    # — the clock does not advance and the event/watchdog
                    # counters are untouched, so optimized runs process
                    # exactly the same events as unoptimized ones.
                    push(heap, (etime, event._seq, event))
                    continue
                if time < now:
                    raise InvariantViolation(
                        f"virtual clock moved backwards: popped event at "
                        f"t={time:.9f} with clock at t={now:.9f}"
                    )
                sim._now = now = time
                event.callback = None  # mark as consumed
                sim._live -= 1
                dispatched += 1
                popped += 1
                callback(*event.args)
                if dispatched == limit:
                    raise SimulationStalledError(
                        f"watchdog: event budget of {max_events} exhausted at "
                        f"t={now:.6f} ({len(heap)} events still queued)"
                    )
                if (not dispatched & 4095 and wall_deadline
                        and _wallclock.monotonic() > wall_deadline):
                    raise SimulationStalledError(
                        f"watchdog: wall-clock budget of {max_wall_seconds:.1f}s "
                        f"exhausted at t={now:.6f} after {dispatched} events"
                    )
        finally:
            # The drain accounts its own steps (events_processed and
            # burst_steps) so the totals stay exact even if a callback
            # raises mid-burst; only real pops are added here.
            sim.events_processed += popped


class _CalendarScheduler:
    """Calendar-queue backend: bucket wheel plus overflow ladder.

    The wheel covers absolute bucket indices ``[_limit - _nbuckets,
    _limit)``; an event keyed at ``t`` lands in bucket ``floor(t /
    width) % _nbuckets``.  Entries beyond the window spill to the
    ladder — a plain heap — and are redistributed when the wheel
    rotates past its limit (rebasing jumps straight to the ladder's
    minimum, so idle gaps cost nothing).

    Buckets are plain Python lists used as append arrays.  Only the
    bucket the cursor is draining (``_active``) is heap-ordered; a
    zero-delay insert during its dispatch uses ``heappush``, every
    other insert is an O(1) ``append``.  Entries are the same ``(time,
    seq, event)`` tuples as the heap backend with a globally allocated
    ``seq``, so the total order — and therefore FIFO tie-breaks and the
    lazy-timer re-key moments — is identical between backends.

    Invariants:

    * every wheel entry's bucket index lies in ``[_cursor, _limit)``
      (entries are only inserted at or after the current time, and a
      bucket is fully drained before the cursor advances);
    * ``_wheel_count`` counts entries resident in buckets (dead ones
      included), ``_size`` additionally counts the ladder.
    """

    kind = "calendar"

    __slots__ = ("sim", "_seq", "_width", "_inv_width", "_nbuckets",
                 "_buckets", "_cursor", "_limit", "_active", "_overflow",
                 "_wheel_count", "_size", "_compact_min",
                 "peak_size", "compactions", "ladder_spills",
                 "peak_bucket_occupancy", "_pushes", "fallback_triggered")

    def __init__(self, sim: "Simulator", compact_min: int,
                 bucket_width: float, wheel_buckets: int) -> None:
        if not (bucket_width > 0.0 and math.isfinite(bucket_width)):
            raise ConfigurationError(
                f"bucket_width must be a positive finite number of seconds, "
                f"got {bucket_width!r}")
        if wheel_buckets < 8:
            raise ConfigurationError(
                f"wheel_buckets must be >= 8, got {wheel_buckets}")
        self.sim = sim
        self._seq = itertools.count()
        self._width = bucket_width
        self._inv_width = 1.0 / bucket_width
        self._nbuckets = wheel_buckets
        self._buckets: List[List[_Entry]] = [[] for _ in range(wheel_buckets)]
        self._cursor = _floor(sim._now * self._inv_width)
        self._limit = self._cursor + wheel_buckets
        self._active = False
        self._overflow: List[_Entry] = []
        self._wheel_count = 0
        self._size = 0
        self._compact_min = compact_min
        self.peak_size = 0
        self.compactions = 0
        #: Inserts that landed beyond the wheel window (ladder pushes).
        self.ladder_spills = 0
        #: Largest single-bucket entry count ever observed.
        self.peak_bucket_occupancy = 0
        #: Total inserts, the denominator of the spill rate.
        self._pushes = 0
        #: Set by the run loop when the spill rate crosses the fallback
        #: threshold; Simulator.run() migrates to the heap backend.
        self.fallback_triggered = False

    # -- queue contract -------------------------------------------------
    def push(self, time: float, event: Event) -> None:
        """Insert ``event`` keyed at ``time`` (callers maintain ``_live``)."""
        self._place((time, next(self._seq), event))

    def _place(self, entry: _Entry) -> None:
        """Insert a keyed entry: a new one, or a deferred timer's re-key."""
        idx = _floor(entry[0] * self._inv_width)
        if idx >= self._limit:
            _heappush(self._overflow, entry)
            self.ladder_spills += 1
        else:
            if idx < self._cursor:
                # Burst mode runs virtual packet events (whose callbacks
                # push real events) while the cursor may have already
                # skipped ahead over empty buckets; clamp the placement
                # so the entry stays ahead of the cursor.  The key is
                # untouched, so pop order is unchanged.
                idx = self._cursor
            bucket = self._buckets[idx % self._nbuckets]
            if self._active and idx == self._cursor:
                # Zero-delay insert into the bucket being drained: it
                # is heap-ordered right now, so keep it a heap.
                _heappush(bucket, entry)
            else:
                bucket.append(entry)
            self._wheel_count += 1
            blen = len(bucket)
            if blen > self.peak_bucket_occupancy:
                self.peak_bucket_occupancy = blen
        self._pushes += 1
        size = self._size = self._size + 1
        if size > self.peak_size:
            self.peak_size = size

    @property
    def size(self) -> int:
        """Raw entry count, dead entries included (wheel + ladder)."""
        return self._size

    def note_cancel(self, live: int) -> None:
        """Compact when dead entries outnumber live ones (past the floor)."""
        n = self._size
        if n - live > live and n >= self._compact_min:
            self.compact()

    def compact(self) -> None:
        """Drop dead entries from every bucket and the ladder, in place.

        Keys are preserved and the active bucket is re-heapified, so pop
        order is unchanged; bucket list identities are stable for the
        run loop's cached references.
        """
        wheel_count = 0
        for bucket in self._buckets:
            if bucket:
                bucket[:] = [e for e in bucket if e[2].callback is not None]
                wheel_count += len(bucket)
        self._wheel_count = wheel_count
        if self._active:
            bucket = self._buckets[self._cursor % self._nbuckets]
            if len(bucket) > 1:
                _heapify(bucket)
        overflow = self._overflow
        overflow[:] = [e for e in overflow if e[2].callback is not None]
        _heapify(overflow)
        self._size = wheel_count + len(overflow)
        self.compactions += 1

    def entries(self) -> Iterator[_Entry]:
        """Every raw entry, in no particular order (the heap migration)."""
        for bucket in self._buckets:
            yield from bucket
        yield from self._overflow

    # -- wheel mechanics ------------------------------------------------
    def _rebase(self, start_idx: int) -> None:
        """Rotate the window to start at ``start_idx``; drain the ladder.

        Only called with an empty wheel, so jumping the cursor forward
        skips idle gaps in O(ladder drain) instead of O(gap / width).
        Redistributed entries keep their original ``(time, seq)`` keys;
        placement uses the *key* time (not the authoritative
        ``event.time``) so a stale timer surfaces — and re-keys — at
        exactly the same point in the global order as it would in the
        heap backend.
        """
        self._cursor = start_idx
        self._limit = limit = start_idx + self._nbuckets
        overflow = self._overflow
        buckets = self._buckets
        n = self._nbuckets
        inv = self._inv_width
        moved = 0
        while overflow and _floor(overflow[0][0] * inv) < limit:
            entry = _heappop(overflow)
            buckets[_floor(entry[0] * inv) % n].append(entry)
            moved += 1
        self._wheel_count += moved

    def _activate_next(self) -> bool:
        """Advance the cursor to the next non-empty bucket and heapify it.

        Returns False when the backend is completely empty.  An empty
        wheel with a non-empty ladder rebases to the ladder's minimum
        key, which is guaranteed to land one entry in the new window.
        """
        if self._wheel_count == 0:
            if not self._overflow:
                return False
            self._rebase(_floor(self._overflow[0][0] * self._inv_width))
        buckets = self._buckets
        n = self._nbuckets
        cursor = self._cursor
        while not buckets[cursor % n]:
            cursor += 1
        self._cursor = cursor
        bucket = buckets[cursor % n]
        if len(bucket) > 1:
            _heapify(bucket)
        self._active = True
        return True

    # -- execution ------------------------------------------------------
    def run_loop(self, horizon: float, limit: int, wall_deadline: float,
                 max_events: Optional[int],
                 max_wall_seconds: Optional[float]) -> None:
        """Dispatch wheel entries, merging the virtual per-link streams
        (see the heap backend's counterpart).

        The drain's bound is the active bucket's head key: entries in
        later buckets and the ladder are keyed past the active bucket's
        end, so the head is a conservative-correct lower bound for every
        real event, and zero-delay inserts into the active bucket use
        ``heappush`` (it is heap-ordered) so they surface at ``bucket[0]``
        mid-drain.  With the backend empty, the drain runs against the
        horizon and returns as soon as a virtual step pushes a real
        event (``_size`` changed), letting this loop re-establish the
        cursor.
        """
        sim = self.sim
        drain = sim._burst_drain
        vheap = sim._vheap
        popped = 0
        dispatched = 0
        try:
            buckets = self._buckets
            n = self._nbuckets
            pop = _heappop
            now = sim._now
            while True:
                if not self._active and not self._activate_next():
                    if not vheap:
                        break
                    size0 = self._size
                    dispatched = drain(sim, None, horizon, limit,
                                       dispatched, self)
                    now = sim._now
                    if limit and dispatched == limit:
                        raise SimulationStalledError(
                            f"watchdog: event budget of {max_events} "
                            f"exhausted at t={now:.6f} "
                            f"({sim._live} events still queued)"
                        )
                    if (wall_deadline
                            and _wallclock.monotonic() > wall_deadline):
                        raise SimulationStalledError(
                            f"watchdog: wall-clock budget of "
                            f"{max_wall_seconds:.1f}s exhausted at "
                            f"t={now:.6f} after {dispatched} events"
                        )
                    if self._size == size0:
                        break
                    continue
                bucket = buckets[self._cursor % n]
                if not bucket:
                    self._active = False
                    self._cursor += 1
                    continue
                if vheap:
                    dispatched = drain(sim, bucket, horizon, limit,
                                       dispatched, self)
                    now = sim._now
                    if limit and dispatched == limit:
                        raise SimulationStalledError(
                            f"watchdog: event budget of {max_events} "
                            f"exhausted at t={now:.6f} "
                            f"({sim._live} events still queued)"
                        )
                    if (wall_deadline
                            and _wallclock.monotonic() > wall_deadline):
                        raise SimulationStalledError(
                            f"watchdog: wall-clock budget of "
                            f"{max_wall_seconds:.1f}s exhausted at "
                            f"t={now:.6f} after {dispatched} events"
                        )
                    if not bucket:
                        # Compaction emptied the active bucket mid-burst.
                        self._active = False
                        self._cursor += 1
                        continue
                time = bucket[0][0]
                if time > horizon:
                    # Unlike the heap loop there is nothing to give
                    # back: the head entry was only peeked.
                    break
                item = pop(bucket)
                self._wheel_count -= 1
                self._size -= 1
                event = item[2]
                callback = event.callback
                if callback is None:
                    continue
                etime = event.time
                if etime > time:
                    # Lazily-deferred timer: re-key at its real deadline.
                    # Not a dispatch (see the heap loop).
                    self._place((etime, event._seq, event))
                    continue
                if time < now:
                    raise InvariantViolation(
                        f"virtual clock moved backwards: popped event at "
                        f"t={time:.9f} with clock at t={now:.9f}"
                    )
                sim._now = now = time
                event.callback = None  # mark as consumed
                sim._live -= 1
                dispatched += 1
                popped += 1
                callback(*event.args)
                if dispatched == limit:
                    raise SimulationStalledError(
                        f"watchdog: event budget of {max_events} exhausted at "
                        f"t={now:.6f} ({sim._live} events still queued)"
                    )
                if not dispatched & 4095:
                    if (self.ladder_spills > 256
                            and self.ladder_spills * 8 > self._pushes):
                        # Spill rate past 12.5%: the bucket width does
                        # not fit this workload, and every spilled
                        # entry pays heap cost twice (ladder push +
                        # redistribution).  Hand the run to the heap
                        # backend instead of limping on.
                        self.fallback_triggered = True
                        break
                    if (wall_deadline
                            and _wallclock.monotonic() > wall_deadline):
                        raise SimulationStalledError(
                            f"watchdog: wall-clock budget of "
                            f"{max_wall_seconds:.1f}s exhausted at "
                            f"t={now:.6f} after {dispatched} events"
                        )
        finally:
            sim.events_processed += popped


class Simulator:
    """Discrete-event simulator: virtual clock plus a pluggable queue.

    Parameters
    ----------
    start_time:
        Initial clock value in seconds (default 0.0).
    lazy_timers:
        Allow :class:`Timer` to defer re-arms in place (default True).
        ``False`` restores cancel-plus-push on every re-arm.
    compaction:
        Rebuild the queue dropping dead entries once they outnumber live
        ones (default True).  Never changes results: compaction keeps
        entry keys intact, so pop order is unaffected.
    compact_min:
        Minimum queue length before compaction is considered.
    scheduler:
        Queue backend: ``"heap"`` (default, the reference binary heap)
        or ``"calendar"`` (bucket wheel + overflow ladder; O(1)
        amortized when ``bucket_width`` matches the dominant inter-event
        quantum).  Both produce bit-identical results.
    bucket_width:
        Calendar bucket width in seconds.  Size it to the bottleneck
        link's serialization time (``packet_bytes * 8 / rate``) — the
        experiment runners do this automatically.  Default 1 ms.
    wheel_buckets:
        Calendar wheel size (default 1024 buckets).  Events beyond
        ``bucket_width * wheel_buckets`` ahead spill to the ladder.
    fastpath:
        Enable the structural shortcuts in :mod:`repro.net`: cut-through
        enqueue and back-to-back serialization.  ``False`` routes every packet
        through the canonical call chain (``Queue.enqueue`` →
        ``Link.transmit`` → ``Node.receive``) — the oracle the
        equivalence tests and the benchmark's reference run compare
        against.  Either way every link event is scheduled through
        :meth:`schedule`; only ``burst`` bypasses it.  Results are
        bit-identical either way (test-enforced).
    burst:
        Enable the burst-mode departure fast path (default False; the
        experiment runners turn it on with ``optimize=True``).  This is
        the one fast engine path; with it off the network layer runs
        per-event through :meth:`schedule`, the reference path.
        Per-link serialization-end and delivery events are kept as
        virtual array-backed streams — one ``(time, seq, payload)``
        record each instead of an Event plus a queue insert — and the
        run loop drains every virtual step that precedes the next real
        event's ``(time, seq)`` key in a tight loop.  The burst window
        is therefore implicitly "until the next externally visible
        deadline": a timer, probe tick, fault transition, or any other
        scheduled callback bounds the burst, and a push landing
        mid-burst re-splits it on the next drain step.  Virtual records
        consume sequence numbers at exactly the program points their
        per-event twins would, so results are bit-identical with
        bursting on or off (test- and bench-enforced on every backend).
        Requires ``fastpath=True``.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (1.5, ['hello'])
    """

    def __init__(self, start_time: float = 0.0, *, lazy_timers: bool = True,
                 compaction: bool = True, compact_min: int = 512,
                 scheduler: str = "heap",
                 bucket_width: Optional[float] = None,
                 wheel_buckets: int = 1024,
                 fastpath: bool = True,
                 burst: bool = False) -> None:
        self._now = float(start_time)
        self._running = False
        self._lazy_timers = bool(lazy_timers)
        self._compaction = bool(compaction)
        self._fastpath = bool(fastpath)
        self._burst = bool(burst)
        if self._burst and not self._fastpath:
            raise ConfigurationError(
                "burst=True requires fastpath=True: the burst drain is "
                "an extension of the inlined packet chain")
        # Sentinel trick: with compaction off the threshold is pushed
        # beyond any reachable queue size, so the hot path tests a
        # single integer instead of also loading the _compaction flag.
        effective_min = int(compact_min) if compaction else (1 << 62)
        #: Calendar bucket width actually chosen (None on heap); kept on
        #: the Simulator so the obs snapshot can report it even after a
        #: fallback migration discards the calendar backend.
        self.bucket_width: Optional[float] = None
        if scheduler == "heap":
            if bucket_width is not None:
                raise ConfigurationError(
                    "bucket_width only applies to scheduler='calendar'")
            self._sched: Any = _HeapScheduler(self, effective_min)
        elif scheduler == "calendar":
            width = 1e-3 if bucket_width is None else float(bucket_width)
            self._sched = _CalendarScheduler(
                self, effective_min, width, int(wheel_buckets))
            self.bucket_width = width
        else:
            raise ConfigurationError(
                f"unknown scheduler {scheduler!r}; expected 'heap' or "
                f"'calendar'")
        #: Bound backend insert: every newly scheduled entry arrives
        #: through it, from :meth:`schedule` / :meth:`call_at` (and so
        #: :class:`Timer`); only stale-timer re-keys bypass it.
        self._push: Callable[[float, Event], None] = self._sched.push
        #: Pending (scheduled, neither cancelled nor dispatched) events.
        self._live = 0
        self.events_processed = 0
        #: Timer re-arms satisfied by an in-place deadline move (no
        #: push).  Read by repro.obs as ``timer.lazy_deferrals``.
        self.lazy_deferrals = 0
        #: Virtual packet-chain steps executed by the burst drain (each
        #: one replaces a heap/calendar pop); 0 with bursting off.
        self.burst_steps = 0
        #: True once a calendar run fell back to the heap backend.
        self.calendar_fallback = False
        self._migrated_ladder_spills = 0
        self._migrated_peak_bucket = 0
        #: Merge heap of virtual stream heads: ``(time, seq, link)``,
        #: at most one live entry per per-link stream (serialization and
        #: propagation), stale entries discarded lazily by seq check.
        self._vheap: List[Any] = []
        #: The backend's sequence counter, shared so virtual records
        #: allocate from the same stream as real entries (and survive a
        #: calendar-to-heap migration, which hands over the counter).
        self._seq_alloc: Iterator[int] = self._sched._seq
        # Deferred import: repro.net imports this module.  Bound even
        # with bursting off (nothing then enters _vheap, so it is never
        # called) so the run loops need no Optional narrowing.
        from repro.net.link import _drain_burst
        self._burst_drain: Callable[..., int] = _drain_burst

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event` handle.  ``delay`` must be finite and
        non-negative; zero-delay events run after all events already
        scheduled for the current instant (FIFO tie-break).
        """
        # Single range test: NaN fails both comparisons, inf fails the
        # right-hand one, negatives fail the left — one branch on the
        # hot path instead of two plus a math.isfinite call.
        if not 0.0 <= delay < _INF:
            if delay < 0:
                raise SchedulingError(
                    f"cannot schedule {delay!r}s into the past "
                    f"(clock at t={self._now:.9f}); delays must be >= 0"
                )
            # NaN compares false against everything, so without this
            # guard a NaN timestamp would silently corrupt queue order.
            raise SchedulingError(f"delay must be finite, got {delay!r}")
        time = self._now + delay
        # Inlined Event construction: this is the single hottest
        # allocation site in a packet-level run, and skipping the
        # __init__ frame is measurable at millions of events.
        event = _new_event(Event)
        event.time = time
        event.callback = callback
        event.args = args
        event._sim = self
        event._cancelled = False
        self._push(time, event)
        self._live += 1
        return event

    def call_at(self, time: float, callback: Callable[..., Any],
                *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``.

        ``time`` must be finite and must not lie strictly before the
        current clock; both violations raise :class:`SchedulingError`.
        """
        if not math.isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at t={time:.9f}, clock already at t={self._now:.9f}"
            )
        event = Event(time, callback, args, self)
        self._push(time, event)
        self._live += 1
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        max_wall_seconds: Optional[float] = None,
    ) -> None:
        """Dispatch events in order until exhaustion or ``until``.

        Parameters
        ----------
        until:
            Optional horizon (absolute virtual time).  Events at exactly
            ``until`` are executed; later events remain queued and the
            clock is advanced to ``until``.
        max_events:
            Watchdog budget: abort with :class:`SimulationStalledError`
            after this many events dispatched *by this call*.  Guards
            against zero-delay event storms that never advance the clock.
        max_wall_seconds:
            Watchdog budget on real elapsed time for this call (checked
            every 4096 events, so overshoot is bounded by one batch).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if max_events is not None and max_events < 1:
            raise SimulationError(f"max_events must be >= 1, got {max_events}")
        check_wall_budget(max_wall_seconds)
        self._running = True
        # Hot-loop precomputation: the horizon becomes a plain float
        # compare (inf = no horizon), the event budget a plain equality
        # (0 = unlimited; dispatched starts at 1 so 0 never matches),
        # and the wall budget an absolute deadline checked every 4096
        # events.  The loop itself lives in the backend so each can
        # cache its own storage in locals.
        horizon = _INF if until is None else until
        limit = 0 if max_events is None else max_events
        wall_deadline = (_wallclock.monotonic() + max_wall_seconds
                         if max_wall_seconds is not None else 0.0)
        try:
            while True:
                events_before = self.events_processed
                self._sched.run_loop(horizon, limit, wall_deadline,
                                     max_events, max_wall_seconds)
                if not getattr(self._sched, "fallback_triggered", False):
                    break
                # Calendar spill-rate fallback: migrate every queued
                # entry (keys intact, so pop order is unchanged) to a
                # heap backend and resume with the remaining budget.
                if limit:
                    limit -= self.events_processed - events_before
                self._migrate_to_heap()
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def _migrate_to_heap(self) -> None:
        """Swap the calendar backend for a heap mid-run.

        Entries keep their ``(time, seq)`` keys and the sequence counter
        object is handed over, so the dispatch order from here on is
        exactly what either backend would have produced — the fallback
        changes throughput, never results.
        """
        cal = self._sched
        heap_sched = _HeapScheduler(self, cal._compact_min)
        entries: List[_Entry] = list(cal.entries())
        _heapify(entries)
        heap_sched._heap = entries
        heap_sched._seq = cal._seq
        heap_sched.peak_size = cal.peak_size
        heap_sched.compactions = cal.compactions
        self.calendar_fallback = True
        self._migrated_ladder_spills = cal.ladder_spills
        self._migrated_peak_bucket = cal.peak_bucket_occupancy
        self._sched = heap_sched
        self._push = heap_sched.push
        self._seq_alloc = heap_sched._seq

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of queued, non-cancelled events.

        O(1): maintained on schedule/cancel/dispatch instead of scanning
        the queue (which is dominated by dead entries under timer churn).
        """
        return self._live

    @property
    def scheduler(self) -> str:
        """Active backend name: ``"heap"`` or ``"calendar"``."""
        return str(self._sched.kind)

    @property
    def heap_size(self) -> int:
        """Raw queue length, dead entries included (diagnostics).

        The name predates the pluggable backend; for the calendar
        backend this is the total resident entry count (wheel + ladder).
        """
        return int(self._sched.size)

    @property
    def dead_fraction(self) -> float:
        """Fraction of queued entries that are cancelled/stale (diagnostics).

        Clamped at 0: in burst mode ``_live`` also counts virtual
        records that never touch the backend queue.
        """
        n = int(self._sched.size)
        if not n:
            return 0.0
        dead = n - self._live
        return dead / n if dead > 0 else 0.0

    @property
    def peak_heap_size(self) -> int:
        """Largest raw queue length ever observed (dead entries included)."""
        return int(self._sched.peak_size)

    @property
    def compactions(self) -> int:
        """Number of dead-entry compaction passes performed."""
        return int(self._sched.compactions)

    @property
    def ladder_spills(self) -> int:
        """Calendar-backend inserts that overflowed to the ladder (0 on heap).

        Preserved across a spill-rate fallback migration so diagnostics
        still show what drove the calendar off the run.
        """
        return int(getattr(self._sched, "ladder_spills",
                           self._migrated_ladder_spills))

    @property
    def peak_bucket_occupancy(self) -> int:
        """Largest calendar bucket ever observed (0 on heap)."""
        return int(getattr(self._sched, "peak_bucket_occupancy",
                           self._migrated_peak_bucket))

    @property
    def events_popped(self) -> int:
        """Events that went through the real queue backend.

        ``events_processed`` counts every dispatched unit of work —
        including virtual packet-chain steps — so it is comparable
        across burst on/off; this subtracts the coalesced steps to give
        the actual pop count (the denominator of the coalescing ratio).
        """
        return self.events_processed - self.burst_steps
