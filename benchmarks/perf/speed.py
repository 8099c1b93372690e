"""Host-speed probe: scales measured times to the reference host's speed.

The reference host is a 2-vCPU share of a machine whose other tenants
slow a vCPU by up to 2x, in spells of seconds to minutes.  The operating
system does not see it (no steal time; CPU time equals wall time), and a
probe on the other vCPU does not follow it, but a fixed piece of work
run by the thread doing the work, just before the work, does.

A :class:`SpeedLog` swaps a function of the program (one sweep cell, one
soak case) for a wrapper that runs :func:`probe`, then times the call.
The unit's *slowdown* is the time its calls took over the time they
would have taken at probe time :data:`REFERENCE_PROBE_S`, each call
scaled by the probe just before it.  Dividing a time by the slowdown
gives it at the reference speed, so a spell of contention no longer
moves it, while a change to the program still moves it one for one: the
probe runs no code of the program.  The probe frees all it allocates
before it stops the clock and pauses the garbage collector, so how much
memory the program holds does not change what the probe measures.

The probe is a table loop followed by an allocation phase (about 30%
of its time).  Contention slows code that allocates more than a tight
loop: with the loop alone, a spell that slowed the probe by s slowed
``soak`` units by about s**1.2 on the reference host, so their scaled
times still followed the host.  With the allocation phase the exponent
is about 1.07 for ``soak`` and 0.86-0.88 for the sweep workloads, and
the times of units with one input vary by 3-5% (coefficient of
variation) once scaled, against 15-19% unscaled.
"""

from __future__ import annotations

import functools
import gc
import os
import time
from contextlib import contextmanager
from typing import Iterator, List, Tuple

#: seconds :func:`probe` takes on the reference host when no other
#: tenant slows its vCPU (the 5th percentile of 90 s of probes).
REFERENCE_PROBE_S = 1.2e-3

PROBE_ROUNDS = 4000
PROBE_OBJECTS = 750
_TABLE = {key: (key * 7919) % 1013 for key in range(512)}


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


_PAIRS = [_Pair(key, value) for key, value in _TABLE.items()]


def probe() -> float:
    """Seconds a fixed piece of interpreter work takes now on this thread:
    a loop over a small table, then building and dropping a dict of
    small objects."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_ROUNDS):
            pair = _PAIRS[(i + acc) & 511]
            acc = (acc + _TABLE[pair.a] * pair.b + (i ^ acc)) & 0xFFFF
        made = {}
        for i in range(PROBE_OBJECTS):
            pair = _Pair(i, _TABLE[i & 511])
            made[(pair.b, i)] = pair
        del made
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class SpeedLog:
    """Per-call (probe seconds, call seconds) of a wrapped function.

    Records go to one file per process under ``directory``, so calls
    made in forked pool workers are logged as well as those made here.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory

    @contextmanager
    def wrapping(self, owner: object, attr: str) -> Iterator[None]:
        """Probe before every call of ``owner.attr`` while the body runs.

        The wrapper keeps the original's name and module, so a process
        pool still pickles it by reference.
        """
        original = getattr(owner, attr)
        directory = self.directory

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            probe_s = probe()
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            call_s = time.perf_counter() - t0
            path = os.path.join(directory, f"speed-{os.getpid()}.txt")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{probe_s!r} {call_s!r}\n")
            return result

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def records(self) -> List[Tuple[float, float]]:
        out = []
        for name in sorted(os.listdir(self.directory)):
            with open(os.path.join(self.directory, name), encoding="utf-8") as fh:
                out += [tuple(map(float, line.split())) for line in fh]
        return out


def slowdown(records: List[Tuple[float, float]]) -> float:
    """How much slower than the reference host the logged calls ran."""
    if not records:
        raise ValueError("no call was probed: the wrapped function never ran here")
    at_reference = sum(call * REFERENCE_PROBE_S / p for p, call in records)
    return sum(call for _, call in records) / at_reference
