"""Discrete-event bookkeeping primitives for the timing simulator.

The simulator advances per-core local clocks and lets cores reserve shared
resources (PM controller bandwidth, write-queue slots, media banks) on
timelines.  Cores are stepped in minimum-local-clock order by the machine
(:mod:`repro.sim.machine`), so reservations arrive approximately in global
time order and simple earliest-available timelines model contention well.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.tracer import Tracer


class BandwidthResource:
    """A server that accepts at most ``capacity`` requests per ``interval``.

    Implemented as windowed capacity accounting so that reservations may
    arrive in any time order: a core that computed a *future* issue time
    (e.g. a CLWB chained behind a persist barrier) must not block another
    core's earlier request — the bandwidth in between is still available.

    Two resource-scaling properties hold at paper-length runs:

    * **Bounded memory** — the window map grows one entry per interval
      for the whole run unless pruned.  :meth:`prune` drops every window
      below a caller-supplied low-water mark (the minimum of all core
      clocks, below which no reservation can ever arrive again); the
      machine stepper calls it periodically so multi-million-cycle runs
      hold a working set, not a history.
    * **O(1) amortised saturation** — under sustained back-pressure the
      naive "next window" scan walks every full window on every reserve
      (O(windows) per call, quadratic per run).  Full windows instead
      carry a path-compressed skip pointer straight to the next
      candidate window, so saturated reservation stays amortised
      near-constant.
    """

    def __init__(self, interval: float, capacity: int = 1) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.interval = interval
        self.capacity = capacity
        self._windows: Dict[int, int] = {}
        #: full window -> next candidate window (union-find style skip
        #: chain; path-compressed on traversal).
        self._skip: Dict[int, int] = {}
        #: everything below this window index has been pruned.
        self._floor = 0

    def reserve(self, t: float) -> float:
        """Reserve a slot at or after ``t``; returns the grant time."""
        window = int(max(t, 0.0) / self.interval)
        skip = self._skip
        nxt = skip.get(window)
        if nxt is not None:
            # Jump over the saturated run: chase the skip chain to the
            # first window that was not full when last updated...
            root = nxt
            while True:
                hop = skip.get(root)
                if hop is None:
                    break
                root = hop
            # ...and point every window on the walked chain straight at
            # it, so the next saturated reserve is O(1).
            w = window
            while True:
                hop = skip.get(w)
                if hop is None or hop == root:
                    break
                skip[w] = root
                w = hop
            window = root
        windows = self._windows
        count = windows.get(window, 0) + 1
        windows[window] = count
        if count >= self.capacity:
            skip[window] = window + 1
        return max(t, window * self.interval)

    def prune(self, low_water: float) -> None:
        """Forget windows that can never be queried again.

        ``low_water`` must not exceed the minimum time any future
        :meth:`reserve` can be called with (the machine uses the minimum
        of all core clocks).  Reservations only ever inspect windows at
        or after ``int(t / interval)``, so windows strictly below the
        low-water window are unreachable and carry no information.
        """
        w_min = int(max(low_water, 0.0) / self.interval)
        if w_min <= self._floor:
            return
        windows = self._windows
        for w in [w for w in windows if w < w_min]:
            del windows[w]
        skip = self._skip
        for w in [w for w in skip if w < w_min]:
            del skip[w]
        self._floor = w_min

    @property
    def n_windows(self) -> int:
        """Live window-map entries (resource-bound regression tests)."""
        return len(self._windows)


class BankedResource:
    """``n_banks`` parallel servers, each busy ``service`` cycles per job.

    Used for PM media writes: the controller drains its write queue into
    a small number of concurrently writable banks.
    """

    def __init__(self, n_banks: int, service: float) -> None:
        if n_banks <= 0:
            raise ValueError("need at least one bank")
        self.service = service
        self._free_at: List[float] = [0.0] * n_banks
        heapq.heapify(self._free_at)

    def reserve(self, t: float) -> float:
        """Run one job starting at or after ``t``; returns completion time."""
        earliest = heapq.heappop(self._free_at)
        start = max(t, earliest)
        done = start + self.service
        heapq.heappush(self._free_at, done)
        return done


class SlottedQueue:
    """A queue with ``capacity`` slots; a slot is held until a deadline.

    ``admit`` returns the time the request actually enters the queue: if
    all slots are occupied at ``t``, entry is delayed until the earliest
    occupant leaves.  This models back-pressure from bounded hardware
    queues (PM write queue, persist buffers).

    ``occupancy_at`` is exact for any query time only when the queue was
    built with ``retain_history=True``: the live heap drops departures as
    admissions drain it, so without history a query earlier than the
    last drain undercounts (crash-image snapshots ask about the crash
    cycle, which precedes later admissions).  History retention keeps
    one ``(entry, departure)`` pair per admission and answers any ``t``
    exactly; leave it off for pure forward-timing uses.
    """

    #: instrumentation is opt-in; the class default keeps the hot path to
    #: one attribute check when no tracer was attached.
    _tracer: Optional[Tracer] = None

    def __init__(self, capacity: int, retain_history: bool = False) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._departures: List[float] = []
        #: (entry, departure) per admission when retain_history is set.
        self._history: Optional[List[Tuple[float, float]]] = (
            [] if retain_history else None
        )

    def instrument(self, tracer: Tracer, track: str, name: str) -> None:
        """Attach a tracer: each admission emits an occupancy counter
        sample on ``track`` and feeds the ``<name>/occupancy`` histogram."""
        self._tracer = tracer
        self._track = track
        self._name = name

    def occupancy_at(self, t: float) -> int:
        """Entries resident at time ``t``.

        Exact for arbitrary ``t`` when history is retained; otherwise
        exact only for ``t`` at or after the last internal drain (the
        live heap has already forgotten earlier departures).
        """
        history = self._history
        if history is not None:
            return sum(1 for entry, dep in history if entry <= t < dep)
        return sum(1 for d in self._departures if d > t)

    def earliest_admission(self, t: float) -> float:
        self._drain(t)
        if len(self._departures) < self.capacity:
            return t
        return self._departures[0]

    def admit(self, t: float, departure: float) -> float:
        """Admit a request at or after ``t``, holding a slot until
        ``departure`` (if departure precedes admission, the slot is held
        for zero time).  Returns the admission time."""
        entry = self.earliest_admission(t)
        self._drain(entry)
        if len(self._departures) >= self.capacity:
            # earliest_admission guaranteed a free slot at `entry`.
            heapq.heappop(self._departures)
        heapq.heappush(self._departures, max(departure, entry))
        if self._history is not None:
            self._history.append((entry, max(departure, entry)))
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            occ = len(self._departures)
            tracer.counter(self._name, self._track, entry, occ)
            tracer.metrics.histogram(f"{self._track}/occupancy").observe(occ)
            if entry > t:
                tracer.span(f"{self._name}:backpressure", self._track, t, entry - t)
        return entry

    def _drain(self, t: float) -> None:
        while self._departures and self._departures[0] <= t:
            heapq.heappop(self._departures)


class InOrderQueue:
    """A FIFO whose entries *retire in order*; capacity-limited.

    Models the store queue: an entry may be individually "ready" early but
    cannot leave before its elders.  ``push`` returns the time the new
    entry will retire; dispatch must stall when the queue is full.
    """

    #: see :meth:`SlottedQueue.instrument`; default keeps the path free.
    _tracer: Optional[Tracer] = None

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        # monotone non-decreasing, oldest first; deque so the per-retire
        # pop is O(1) instead of list.pop(0)'s O(n).
        self._retire_times: Deque[float] = deque()
        self._last_retire = 0.0

    def instrument(self, tracer: Tracer, track: str, name: str) -> None:
        """Attach a tracer: each push samples occupancy on ``track`` and
        feeds the ``<name>/occupancy`` histogram."""
        self._tracer = tracer
        self._track = track
        self._name = name

    def earliest_slot(self, t: float) -> float:
        """When a new entry could be inserted (full queue delays insert)."""
        self._drain(t)
        if len(self._retire_times) < self.capacity:
            return t
        return self._retire_times[len(self._retire_times) - self.capacity]

    def push(self, t: float, ready: float) -> float:
        """Insert at or after ``t`` an entry that is ready at ``ready``.

        Returns the entry's retire time (in-order: >= all elder retires).
        """
        entry_t = self.earliest_slot(t)
        retire = max(ready, self._last_retire, entry_t)
        self._retire_times.append(retire)
        self._last_retire = retire
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            occ = len(self._retire_times)
            tracer.counter(self._name, self._track, entry_t, occ)
            tracer.metrics.histogram(f"{self._track}/occupancy").observe(occ)
        return retire

    def drain_time(self, t: float) -> float:
        """Time when everything currently queued has retired."""
        return max(t, self._last_retire)

    def _drain(self, t: float) -> None:
        while self._retire_times and self._retire_times[0] <= t:
            self._retire_times.popleft()
