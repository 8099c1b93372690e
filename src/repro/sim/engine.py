"""Discrete-event bookkeeping primitives for the timing simulator.

The simulator advances per-core local clocks and lets cores reserve shared
resources (PM controller bandwidth, store-queue slots, media banks) on
timelines.  Cores are stepped in minimum-local-clock order by the machine
(:mod:`repro.sim.machine`), so reservations arrive approximately in global
time order and simple earliest-available timelines model contention well.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

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


class InOrderQueue:
    """A FIFO whose entries *retire in order*; capacity-limited.

    Models the store queue: an entry may be individually "ready" early but
    cannot leave before its elders.  ``push`` returns the time the new
    entry will retire; dispatch must stall when the queue is full.
    """

    #: instrumentation is opt-in; the class default keeps the hot path to
    #: one attribute check when no tracer was attached.
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
        """Attach a tracer: each push samples the occupancy as a ``name``
        counter on ``track``."""
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
            tracer.counter(self._name, self._track, entry_t, len(self._retire_times))
        return retire

    def drain_time(self, t: float) -> float:
        """Time when everything currently queued has retired."""
        return max(t, self._last_retire)

    def _drain(self, t: float) -> None:
        while self._retire_times and self._retire_times[0] <= t:
            self._retire_times.popleft()
