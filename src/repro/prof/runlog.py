"""Campaign telemetry: the ``repro.runlog/1`` JSONL run log.

Long-running ``sweep`` and ``soak`` campaigns need observability while
they run, not just a result document afterwards.  A :class:`RunLog`
appends one self-describing JSON object per line:

* ``start``       — campaign kind, total work items, invocation metadata;
* ``cell-start``  — a work item was handed to a worker;
* ``cell-finish`` — it completed: wall time, ok/failed, result source
  (``run``/``cache``/``memo``), worker pid;
* ``heartbeat``   — periodic liveness: items done, ETA;
* ``finish``      — totals: elapsed wall time, summed busy time, errors.

Every line carries the schema tag, so a consumer can tail the file, and
logs from several workers or campaigns can be concatenated and still be
parsed line-by-line.  Timestamps are wall-clock (``time.time``); the
run log is *telemetry*, deliberately non-deterministic — which is why
``--deterministic`` sweeps must never write one (the CLI enforces this,
see ``tests/prof/test_runlog.py``).

:class:`Progress` is the matching ``--progress`` live line: one
carriage-returned status line on stderr with done/total, percentage,
rate and ETA.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List, Optional, TextIO

RUNLOG_SCHEMA = "repro.runlog/1"

#: minimum seconds between heartbeat records.
HEARTBEAT_INTERVAL_S = 5.0


class RunLog:
    """Append-only JSONL writer for one campaign run."""

    def __init__(self, path: str, kind: str, total: int,
                 meta: Optional[Dict[str, object]] = None) -> None:
        self.path = path
        self.kind = kind
        self.total = total
        self._fh: Optional[TextIO] = open(path, "w", encoding="utf-8")
        self._t0 = time.time()
        self._last_heartbeat = self._t0
        self.events_written = 0
        self.event("start", total=total, meta=dict(meta or {}))

    # -- low-level ---------------------------------------------------------

    def event(self, event: str, **fields: object) -> None:
        """Write one record; a closed log silently drops (idempotent
        shutdown beats losing the campaign to a logging error)."""
        fh = self._fh
        if fh is None:
            return
        record: Dict[str, object] = {
            "schema": RUNLOG_SCHEMA,
            "kind": self.kind,
            "event": event,
            "ts": round(time.time(), 6),
        }
        record.update(fields)
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        self.events_written += 1

    # -- campaign vocabulary -----------------------------------------------

    def cell_start(self, label: str, index: int, **fields: object) -> None:
        self.event("cell-start", cell=label, index=index, **fields)

    def cell_finish(
        self,
        label: str,
        index: int,
        ok: bool,
        wall_time_s: float,
        source: str = "run",
        worker: Optional[int] = None,
        **fields: object,
    ) -> None:
        self.event(
            "cell-finish",
            cell=label,
            index=index,
            ok=ok,
            wall_time_s=round(wall_time_s, 6),
            source=source,
            worker=worker,
            **fields,
        )

    def maybe_heartbeat(self, done: int) -> None:
        """Emit a heartbeat if enough time has passed since the last."""
        now = time.time()
        if now - self._last_heartbeat < HEARTBEAT_INTERVAL_S:
            return
        self._last_heartbeat = now
        elapsed = now - self._t0
        eta = (self.total - done) * (elapsed / done) if done else None
        self.event(
            "heartbeat",
            done=done,
            total=self.total,
            elapsed_s=round(elapsed, 3),
            eta_s=None if eta is None else round(eta, 3),
        )

    def finish(self, done: int, errors: int, busy_time_s: float,
               **fields: object) -> None:
        self.event(
            "finish",
            done=done,
            total=self.total,
            errors=errors,
            wall_time_s=round(time.time() - self._t0, 6),
            busy_time_s=round(busy_time_s, 6),
            **fields,
        )
        self.close()

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()


def read_runlog(path: str) -> List[Dict[str, object]]:
    """Parse a run log, tolerating a torn tail.

    A truncated *final* line — a live campaign mid-append, or what a
    ``kill -9`` left behind — is dropped and the parsed prefix returned.
    A malformed or non-runlog line anywhere before the tail is real
    corruption and raises ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    records: List[Dict[str, object]] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                break  # torn tail of a live log
            raise ValueError(f"{path}:{lineno}: malformed runlog line")
        if not isinstance(record, dict) or record.get("schema") != RUNLOG_SCHEMA:
            got = record.get("schema") if isinstance(record, dict) else record
            raise ValueError(
                f"{path}:{lineno}: expected schema {RUNLOG_SCHEMA!r}, got {got!r}"
            )
        records.append(record)
    return records


class Progress:
    """A live single-line progress display (``--progress``)."""

    def __init__(self, total: int, label: str = "sweep",
                 stream: Optional[TextIO] = None) -> None:
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self._t0 = time.perf_counter()
        self._done = 0

    def update(self, done: int) -> None:
        self._done = done
        elapsed = time.perf_counter() - self._t0
        rate = done / elapsed if elapsed > 0 else 0.0
        eta = (self.total - done) / rate if rate > 0 else float("nan")
        pct = 100.0 * done / self.total if self.total else 100.0
        line = (
            f"\r[{self.label}] {done}/{self.total} ({pct:5.1f}%)  "
            f"{rate:6.2f} cells/s  eta {eta:6.1f}s"
        )
        self.stream.write(line)
        self.stream.flush()

    def close(self) -> None:
        if self._done or self.total:
            self.stream.write("\n")
            self.stream.flush()
