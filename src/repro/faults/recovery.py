"""Crash injection *inside* recovery: ordered writers and torn images.

Recovery is a program too: its repairs are PM stores that persist in
whatever order the hardware allows unless recovery orders them.  To test
that :func:`repro.lang.recovery.recover` survives a second power failure
mid-flight, its writes go through a writer object with two operations:

* ``write(addr, data)`` — issue one PM store;
* ``fence()`` — order point: everything written before the fence is
  durable before anything after it.

:class:`DirectWriter` is the production path — writes land immediately,
fences are free — and is byte-identical to recovery writing the image
directly.  :class:`CrashingRecoveryWriter` is the chaos path: it stops
the pass by raising :class:`RecoveryCrashed` once a seeded write budget
is spent, and :meth:`CrashingRecoveryWriter.materialise_crash` rebuilds
the image a real power failure would leave — every fenced epoch intact,
the unfenced tail reduced to a seeded subset (unordered persists may or
may not have left the fill buffers).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.pmem.space import PersistentMemory


class RecoveryCrashed(Exception):
    """A simulated power failure interrupted a recovery pass."""


class DirectWriter:
    """Fault-free writer: recovery's writes land immediately."""

    def __init__(self, image: PersistentMemory) -> None:
        self._image = image
        self.writes = 0

    def write(self, addr: int, data: bytes) -> None:
        self.writes += 1
        self._image.write(addr, data)

    def fence(self) -> None:
        pass


class CrashingRecoveryWriter:
    """Crash a recovery pass after ``after_writes`` stores.

    The writer applies stores to the live image so the pass behaves
    normally until the crash point; it journals the current epoch's
    stores with the bytes each one overwrote, so a fence costs nothing
    and a crash undoes only the epoch.  When the budget is hit the pass
    dies with :class:`RecoveryCrashed`, and :meth:`materialise_crash`
    rewinds the image to the last fence plus a seeded subset of the
    unfenced tail — the states an unordered persist pipeline admits.
    ``drop_prob`` is the chance each unfenced store is still in flight
    when power fails.
    """

    def __init__(
        self,
        image: PersistentMemory,
        after_writes: int,
        seed: int = 0,
        drop_prob: float = 0.5,
    ) -> None:
        if after_writes < 0:
            raise ValueError(f"after_writes must be >= 0, got {after_writes}")
        self._image = image
        self.after_writes = after_writes
        self.drop_prob = drop_prob
        self._rng = random.Random(seed)
        #: (addr, overwritten bytes, written bytes) of each unfenced store.
        self._epoch: List[Tuple[int, bytes, bytes]] = []
        self.writes = 0
        self.crashed = False

    def write(self, addr: int, data: bytes) -> None:
        if self.writes >= self.after_writes:
            self.crashed = True
            raise RecoveryCrashed(
                f"recovery pass crashed after {self.writes} writes "
                f"(budget {self.after_writes})"
            )
        self.writes += 1
        self._epoch.append((addr, self._image.read(addr, len(data)), bytes(data)))
        self._image.write(addr, data)

    def fence(self) -> None:
        self._epoch = []

    def materialise_crash(self) -> int:
        """Rewind the image to what actually persisted; returns how many
        unfenced stores survived."""
        if not self.crashed:
            raise RuntimeError("materialise_crash() before any crash")
        for addr, old, _data in reversed(self._epoch):
            self._image.write(addr, old)
        survived = 0
        for addr, _old, data in self._epoch:
            if self._rng.random() >= self.drop_prob:
                self._image.write(addr, data)
                survived += 1
        self._epoch = []
        return survived
