"""``repro.prof`` — performance tracking for the simulator itself.

* :mod:`repro.prof.bench` — the perf trajectory store (``repro bench
  --record`` / ``--baseline``).
* :mod:`repro.prof.runlog` — the ``repro.runlog/1`` campaign telemetry
  behind ``sweep``/``soak`` ``--progress``.

Only the dependency-free :mod:`repro.prof.runlog` is re-exported here:
importing :mod:`repro.prof.bench` at package level would recurse into
the harness.  Import it directly.
"""

from repro.prof.runlog import (
    RUNLOG_SCHEMA,
    Progress,
    RunLog,
    read_runlog,
)

__all__ = [
    "Progress",
    "RUNLOG_SCHEMA",
    "RunLog",
    "read_runlog",
]
