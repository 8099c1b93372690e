"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: ``name``, ``start``/``end`` (seconds on
``time.perf_counter``), the index of the span that caused it
(``parent``, -1 for the root), the cell or case it served (``label``,
inherited from the parent when the call names none) and free-form
``attrs`` (ops emitted, RSS retained, first replay of a program).
Spans are kept in a list while the unit runs and written out once at
the end, so recording costs one ``perf_counter`` pair per call.

Spans are opened by :func:`patched`, which swaps a module or class
attribute for a wrapper while a traced unit runs, so the traced unit
drives the same entry points (``run_sweep``, ``run_soak``) as the
untraced one.  No file of the program under test changes.

A layer's *self time* is its span's duration minus the durations of its
direct children.  Children never overlap (one thread), so self time is
never negative; :func:`check_nesting` asserts that.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Union

#: spans that only group work: their self time is benchmark bookkeeping
#: and counts as unattributed.
STRUCTURAL = ("run", "cell")

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Resident set size of this process now (not the peak)."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


class SpanRecorder:
    """Collects nested spans and named counters for one traced unit."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, label: str = "", rss: bool = False) -> Iterator[Dict]:
        """Time the body as one span; ``rss`` also records the RSS it kept."""
        parent = self._stack[-1] if self._stack else -1
        rec: Dict[str, object] = {
            "name": name,
            "parent": parent,
            "label": label or (self.spans[parent]["label"] if parent >= 0 else ""),
            "attrs": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rss0 = rss_bytes() if rss else 0
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if rss:
                rec["attrs"]["rss_bytes"] = rss_bytes() - rss0
            self._stack.pop()

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


@contextmanager
def patched(
    recorder: SpanRecorder,
    owner: object,
    attr: str,
    name: Union[str, Callable[..., str]],
    label: Optional[Callable[..., str]] = None,
    after: Optional[Callable[..., None]] = None,
    rss: bool = False,
) -> Iterator[None]:
    """Run the body with ``owner.attr`` wrapped in a span.

    ``name`` is the span name, or a function of the call's arguments
    that returns it; ``label`` is a function of the call's arguments
    naming the cell or case.  ``after(attrs, result, *args, **kwargs)``
    records attributes of the call outside the timed region.  The
    original attribute is restored on exit.
    """
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        span_name = name if isinstance(name, str) else name(*args, **kwargs)
        span_label = label(*args, **kwargs) if label is not None else ""
        with recorder.span(span_name, span_label, rss=rss) as rec:
            result = original(*args, **kwargs)
        if after is not None:
            after(rec["attrs"], result, *args, **kwargs)
        return result

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def self_times(spans: List[Dict]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [float(s["end"]) - float(s["start"]) for s in spans]
    for s in spans:
        parent = int(s["parent"])
        if parent >= 0:
            out[parent] -= float(s["end"]) - float(s["start"])
    return out


def check_nesting(spans: List[Dict]) -> None:
    """Raise ``ValueError`` unless every child lies inside its parent and
    every self time is non-negative."""
    for i, s in enumerate(spans):
        parent = int(s["parent"])
        if parent >= i:
            raise ValueError(f"span {i} ({s['name']}) opened before its parent")
        if parent >= 0:
            p = spans[parent]
            if s["start"] < p["start"] or s["end"] > p["end"]:
                raise ValueError(
                    f"span {i} ({s['name']}) leaves its parent {parent} ({p['name']})"
                )
    for i, t in enumerate(self_times(spans)):
        if t < 0:
            raise ValueError(f"span {i} ({spans[i]['name']}) has self time {t:g} s")


#: layers reported by the traced run, in pipeline order.  Each gets
#: ``<layer>.calls`` and ``<layer>.share`` (self time / traced wall).
LAYERS = (
    "workloads.generate",
    "lang.specialize",
    "sim.replay",
    "sim.reference",
    "chaos.harness",
    "chaos.case",
    "chaos.image",
    "lang.recovery",
    "analysis.lint",
    "core.model.dag",
    "harness.cachedir.lookup",
    "harness.cachedir.store",
)


def layer_metrics(spans: List[Dict], counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced unit (the root span is ``spans[0]``)."""
    selfs = self_times(spans)
    wall = float(spans[0]["end"]) - float(spans[0]["start"])
    calls = {name: 0 for name in LAYERS}
    self_s = {name: 0.0 for name in LAYERS}
    attr_sum: Dict[str, float] = {}
    first_replay_s = 0.0
    for s, t in zip(spans, selfs):
        name = str(s["name"])
        if name in STRUCTURAL:
            continue
        calls[name] += 1
        self_s[name] += t
        for key, value in s["attrs"].items():
            if key == "first":
                first_replay_s += t if value else 0.0
            else:
                attr_sum[f"{name}.{key}"] = attr_sum.get(f"{name}.{key}", 0.0) + value
    out: Dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.share"] = self_s[name] / wall
    mib = 1024.0 * 1024.0
    gen_s = self_s["workloads.generate"]
    out["workloads.generate.s"] = gen_s
    out["workloads.generate.kops_per_s"] = (
        attr_sum.get("workloads.generate.ops", 0.0) / gen_s / 1e3 if gen_s else 0.0
    )
    out["workloads.generate.rss_mb"] = attr_sum.get("workloads.generate.rss_bytes", 0.0) / mib
    out["lang.specialize.rss_mb"] = attr_sum.get("lang.specialize.rss_bytes", 0.0) / mib
    replay_s = self_s["sim.replay"]
    out["sim.replay.s"] = replay_s
    out["sim.replay.first_s"] = first_replay_s
    out["sim.replay.mops_per_s"] = (
        attr_sum.get("sim.replay.ops", 0.0) / replay_s / 1e6 if replay_s else 0.0
    )
    out["sim.native.declines"] = counters.get("sim.native.declines", 0)
    out["harness.cachedir.bytes"] = attr_sum.get("harness.cachedir.store.bytes", 0.0)
    attributed = sum(self_s.values())
    out["trace.layer_s"] = attributed
    out["trace.unattributed_s"] = wall - attributed
    out["trace.wall_s"] = wall
    return out
