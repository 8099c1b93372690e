"""Observability layer: event tracing and exporters.

Zero-dependency instrumentation for the timing simulator.  The default
:data:`~repro.obs.tracer.NULL_TRACER` makes every instrumentation site a
single attribute check, so tier-1 timing results are unchanged unless a
:class:`~repro.obs.tracer.Tracer` is explicitly passed to
:class:`~repro.sim.machine.Machine`.

See README.md ("Tracing") for the Perfetto walkthrough.
"""

from repro.obs.export import (
    STATS_SCHEMA,
    SWEEP_SCHEMA,
    load_sweep_json,
    stats_to_json,
    sweep_to_json,
    write_stats_json,
    write_sweep_json,
)
from repro.obs.perfetto import to_perfetto, write_trace
from repro.obs.tracer import NULL_TRACER, NullTracer, TraceEvent, Tracer, core_track

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "STATS_SCHEMA",
    "SWEEP_SCHEMA",
    "TraceEvent",
    "Tracer",
    "core_track",
    "load_sweep_json",
    "stats_to_json",
    "sweep_to_json",
    "to_perfetto",
    "write_stats_json",
    "write_sweep_json",
    "write_trace",
]
