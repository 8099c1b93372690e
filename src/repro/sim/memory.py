"""Persistent-memory controller timing model.

The PM controller is ADR-protected (Section IV, "PM controller"): a write
is *persistent* once the controller accepts it, so a CLWB acknowledges
``write_to_controller`` cycles after acceptance.  Acceptance contends on
the controller's front-end bandwidth, and — when the bounded write queue
backs up behind the media's write bandwidth — acceptance itself is
delayed, which is the back-pressure write-heavy workloads (N-Store
wr-heavy) feel in Table II.

All shared resources use windowed capacity accounting
(:class:`~repro.sim.engine.BandwidthResource`) so that cores reserving at
out-of-order times cannot steal bandwidth from each other's past.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.config import PMConfig
from repro.sim.engine import BandwidthResource

if TYPE_CHECKING:  # no runtime import: faults is an optional layer
    from repro.faults.model import MediaFaultModel

#: Perfetto track names of the controller's shared resources.
WRITE_QUEUE_TRACK = "pm/write-queue"
MEDIA_TRACK = "pm/media"


@dataclass
class WriteTicket:
    """Timing of one line write through the PM controller."""

    accepted: float  #: entered the write queue (ADR domain)
    acked: float  #: acknowledgement back to the CPU — the persist point
    media_done: float  #: line written to the PM media


class PMController:
    """Shared PM controller: acceptance bandwidth, write queue, media.

    When a :class:`~repro.faults.MediaFaultModel` is attached the
    controller additionally runs its resilience policy: transient media
    write failures are retried with exponential backoff (each retry
    consumes a real media slot, so retries back-pressure the write queue
    and surface as persist stalls), and a line that exhausts its retry
    budget — or proves ECC-uncorrectable — is remapped into the spare
    region, degrading the device once spares run out.  Without a model
    every fault path is dead code and timing is bit-identical to the
    fault-free build.  The native replay core (``_fastcore.c``) ports
    this policy draw for draw, so a change to which draws are made, or
    in what order, must be made there too.
    """

    def __init__(
        self,
        cfg: PMConfig,
        tracer: Tracer = NULL_TRACER,
        faults: Optional["MediaFaultModel"] = None,
    ) -> None:
        self.cfg = cfg
        self.tracer = tracer
        self.faults = faults if faults is not None and faults.enabled else None
        self._accept = BandwidthResource(cfg.accept_interval)
        #: media sustains one line per this many cycles.
        self._media_interval = cfg.write_to_media / cfg.media_banks
        self._media = BandwidthResource(self._media_interval)
        self._read_bw = BandwidthResource(max(1, cfg.accept_interval // 2))
        #: line -> media start time of its most recent queued write, for
        #: write combining inside the controller's queue.
        self._queued_line: dict = {}
        self.coalesced = 0

    def write(self, t: float, line: int = -1) -> WriteTicket:
        """Issue one line write (CLWB or write-back) arriving at ``t``.

        Writes to a line that is still sitting in the write queue (its
        media write has not started) are *coalesced*: the controller
        updates the queued entry in place and acknowledges immediately,
        consuming no extra media bandwidth.  Optane's controller combines
        writes the same way in its write-pending queue, and persistency
        is unaffected — the queue is inside the ADR domain.
        """
        tracer = self.tracer
        grant = self._accept.reserve(t)
        if line >= 0 and self.cfg.coalesce_writes:
            pending = self._queued_line.get(line)
            if pending is not None and pending > grant:
                self.coalesced += 1
                acked = grant + self.cfg.write_to_controller
                if tracer.enabled:
                    tracer.instant("pm.coalesce", WRITE_QUEUE_TRACK, grant, line=line)
                return WriteTicket(
                    accepted=grant, acked=acked, media_done=pending + self.cfg.write_to_media
                )
        media_start, media_done = self._media_write(grant, line)
        # Back-pressure: the write queue holds a line from acceptance to
        # the start of its media write.  When the backlog exceeds what the
        # queue can hold, acceptance is delayed accordingly.
        max_backlog = self.cfg.write_queue_entries * self._media_interval
        accepted = grant
        if media_start - grant > max_backlog:
            accepted = media_start - max_backlog
        acked = accepted + self.cfg.write_to_controller
        if line >= 0:
            self._queued_line[line] = media_start
        if tracer.enabled:
            # Queue depth ahead of this write, in media-service units.
            backlog = max(0, int(round((media_start - accepted) / self._media_interval)))
            tracer.instant("pm.admit", WRITE_QUEUE_TRACK, accepted, line=line)
            tracer.counter("pm.wq_depth", WRITE_QUEUE_TRACK, accepted, backlog)
            tracer.span("pm.drain", MEDIA_TRACK, media_start, media_done - media_start,
                        line=line)
        return WriteTicket(accepted=accepted, acked=acked, media_done=media_done)

    def _media_write(self, grant: float, line: int) -> "tuple[float, float]":
        """Issue the media write for one line, applying the fault policy.

        Returns ``(media_start, media_done)`` of the attempt that finally
        stuck.  Every failed attempt consumed a real media slot, so
        retries back-pressure later writes exactly like extra traffic.
        """
        media_start = self._media.reserve(grant)
        media_done = media_start + self.cfg.write_to_media
        faults = self.faults
        if faults is None or line < 0:
            return media_start, media_done
        # Wear-out: the line is uncorrectable — no retry can help, the
        # controller goes straight to the spare region.
        if faults.write_uncorrectable(line):
            faults.ecc_uncorrectable += 1
            return self._remap_write(media_done, line)
        attempt = 1
        while faults.write_fails(line):
            faults.write_faults += 1
            if attempt > self.cfg.max_write_retries:
                faults.exhausted_retries += 1
                return self._remap_write(media_done, line)
            backoff = self.cfg.retry_backoff_base * (
                self.cfg.retry_backoff_mult ** (attempt - 1)
            )
            faults.retries += 1
            faults.backoff_cycles += backoff
            if self.tracer.enabled:
                self.tracer.span(
                    "pm.retry", MEDIA_TRACK, media_done, backoff,
                    line=line, attempt=attempt,
                )
            media_start = self._media.reserve(media_done + backoff)
            media_done = media_start + self.cfg.write_to_media
            attempt += 1
        return media_start, media_done

    def _remap_write(self, t: float, line: int) -> "tuple[float, float]":
        """Redirect ``line`` into the spare region and write it there.

        When the spare region is exhausted the device is worn: the write
        still completes (the media eventually absorbs it) but the model
        records the denial, and the line keeps faulting on later writes.
        """
        assert self.faults is not None
        remapped = self.faults.remap(line, self.cfg.spare_lines)
        media_start = self._media.reserve(t + self.cfg.remap_latency)
        media_done = media_start + self.cfg.write_to_media
        if self.tracer.enabled:
            self.tracer.instant(
                "pm.remap" if remapped else "pm.remap-denied",
                MEDIA_TRACK, media_start, line=line,
            )
        return media_start, media_done

    def prune(self, low_water: float) -> None:
        """Drop accounting that no future request can observe.

        Safe only when every later ``write``/``read`` arrives at or
        after ``low_water`` (the machine passes the minimum of all core
        clocks): bandwidth windows below the mark are unreachable, and a
        queued line whose media write started at or before the mark can
        never satisfy the coalescing test ``pending > grant`` again.
        """
        self._accept.prune(low_water)
        self._media.prune(low_water)
        self._read_bw.prune(low_water)
        queued = self._queued_line
        stale = [line for line, start in queued.items() if start <= low_water]
        for line in stale:
            del queued[line]

    def read(self, t: float, line: int = -1) -> float:
        """Issue one line read at ``t``; returns data-return time.

        Under a fault model, a correctable ECC error on the line adds
        the correction penalty to the data-return path.
        """
        grant = self._read_bw.reserve(t)
        done = grant + self.cfg.read_latency
        faults = self.faults
        if faults is not None and line >= 0 and faults.read_correctable(line):
            faults.ecc_corrected += 1
            done += self.cfg.ecc_penalty
            if self.tracer.enabled:
                self.tracer.instant("pm.ecc-correct", MEDIA_TRACK, grant, line=line)
        return done
