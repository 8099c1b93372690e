"""Event tracer for the timing simulator.

The simulator is instrumented at every point the paper's evaluation
reasons about — dispatch, persist-order stalls (with the ``stall_*``
cause taxonomy of Figure 8), persist-queue push/retire, strand-buffer
alloc/rotate, PM write-queue admit/drain, CLWB issue/ack and lock
acquire/release.  Each instrumentation site follows one convention::

    if tracer.enabled:
        tracer.span("stall:fence", track, start, duration)

so with the default :data:`NULL_TRACER` the entire layer costs a single
attribute check per site and *cannot* change simulated timing: tracing is
observation-only by construction (no tracer method returns a time).

Tracks are plain strings.  Per-core activity goes on ``core<tid>``;
shared resources use slash-separated names (``pm/write-queue``,
``pm/media``).  The Perfetto exporter (:mod:`repro.obs.perfetto`) maps
each track to one timeline row.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional


def core_track(tid: int) -> str:
    """Canonical track name for core ``tid``."""
    return f"core{tid}"


class TraceEvent(NamedTuple):
    """One trace record.  ``ph`` follows the Chrome trace-event phases we
    emit: ``"X"`` (complete span), ``"i"`` (instant), ``"C"`` (counter)."""

    name: str
    track: str
    ts: float
    dur: float
    ph: str
    args: Optional[Dict[str, object]]


class Tracer:
    """Collects :class:`TraceEvent` records during one machine run.

    ``mode="unbounded"`` keeps every event; ``mode="ring"`` keeps the most
    recent ``capacity`` events (the steady-state tail of a long run) and
    counts the rest in :attr:`dropped`, so a ring-mode tracer holds at
    most ``capacity`` events however long the run.
    """

    MODES = ("unbounded", "ring")

    def __init__(self, mode: str = "unbounded", capacity: int = 1 << 16) -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.enabled = True
        self.mode = mode
        self.capacity = capacity
        self.dropped = 0
        self._events: List[TraceEvent] = []
        self._head = 0  # ring mode: index of the oldest retained event

    # -- emission ----------------------------------------------------------

    def _append(self, event: TraceEvent) -> None:
        if self.mode == "ring" and len(self._events) >= self.capacity:
            self._events[self._head] = event
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1
        else:
            self._events.append(event)

    def instant(self, name: str, track: str, ts: float, **args: object) -> None:
        """A point-in-time marker (e.g. ``pq.push``, ``lock.acquire``)."""
        self._append(TraceEvent(name, track, ts, 0.0, "i", args or None))

    def span(self, name: str, track: str, ts: float, dur: float, **args: object) -> None:
        """A duration on a track; zero/negative durations collapse to an
        instant so cause markers are never lost."""
        if dur <= 0.0:
            self._append(TraceEvent(name, track, ts, 0.0, "i", args or None))
            return
        self._append(TraceEvent(name, track, ts, dur, "X", args or None))

    def counter(self, name: str, track: str, ts: float, value: float) -> None:
        """A sampled counter series (queue occupancy over time)."""
        self._append(TraceEvent(name, track, ts, 0.0, "C", {"value": value}))

    def stall(self, cause: str, track: str, ts: float, dur: float, **args: object) -> None:
        """A dispatch stall attributed to ``cause`` — one of the
        ``stall_*`` taxonomy buckets, with the prefix stripped."""
        if cause.startswith("stall_"):
            cause = cause[len("stall_"):]
        self.span(f"stall:{cause}", track, ts, dur, cause=cause, **args)

    # -- inspection --------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first (ring order is unwrapped)."""
        if self._head:
            return self._events[self._head:] + self._events[: self._head]
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class NullTracer:
    """The disabled tracer: every method is a no-op, :attr:`enabled` is
    False so guarded hot paths skip even argument construction."""

    enabled = False
    mode = "off"
    dropped = 0

    def instant(self, name: str, track: str, ts: float, **args: object) -> None:
        pass

    def span(self, name: str, track: str, ts: float, dur: float, **args: object) -> None:
        pass

    def counter(self, name: str, track: str, ts: float, value: float) -> None:
        pass

    def stall(self, cause: str, track: str, ts: float, dur: float, **args: object) -> None:
        pass

    def events(self) -> List[TraceEvent]:
        return []

    def __len__(self) -> int:
        return 0


#: process-wide disabled tracer; the default everywhere.
NULL_TRACER = NullTracer()
