"""Functional persistent-memory address space.

:class:`PersistentMemory` holds the *architectural* contents of PM — the
values the program observes through its loads.  It also keeps a snapshot of
the last known-durable baseline so that crash images can be materialised:
a crash image is the baseline plus an arbitrary **consistent cut** of the
persist DAG (see :mod:`repro.core.crash`), applied in visibility order.

Addresses are plain integers; accessors exist for the common word sizes
used by the persistent data structures in :mod:`repro.workloads`.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from repro.core.ops import Op, OpKind

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


class PmError(Exception):
    """Raised on out-of-range or malformed PM accesses."""


class PersistentMemory:
    """A flat, byte-addressable persistent memory image."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise PmError(f"PM size must be positive, got {size}")
        self.size = size
        self._bytes = bytearray(size)
        self._baseline = bytes(size)

    # -- bounds ---------------------------------------------------------

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise PmError(f"access [{addr:#x}, {addr + size:#x}) outside PM of {self.size:#x}")

    # -- raw access -----------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        return bytes(self._bytes[addr : addr + size])

    def write(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self._bytes[addr : addr + len(data)] = data

    # -- typed access ---------------------------------------------------

    def read_u64(self, addr: int) -> int:
        self._check(addr, 8)
        return _U64.unpack_from(self._bytes, addr)[0]

    def write_u64(self, addr: int, value: int) -> None:
        self._check(addr, 8)
        _U64.pack_into(self._bytes, addr, value & 0xFFFFFFFFFFFFFFFF)

    def read_u32(self, addr: int) -> int:
        self._check(addr, 4)
        return _U32.unpack_from(self._bytes, addr)[0]

    def write_u32(self, addr: int, value: int) -> None:
        self._check(addr, 4)
        _U32.pack_into(self._bytes, addr, value & 0xFFFFFFFF)

    # -- durability baseline -------------------------------------------

    def mark_clean(self) -> None:
        """Snapshot current contents as the durable pre-run baseline.

        Workload setup (allocation, initial data-structure population)
        runs before measurement and is considered fully persisted, exactly
        as the paper's benchmarks persist their initial state before the
        timed phase.
        """
        self._baseline = bytes(self._bytes)

    def baseline_image(self) -> bytearray:
        """A fresh mutable copy of the durable baseline."""
        return bytearray(self._baseline)

    def crash_image(self, persists: Sequence[Op]) -> "PersistentMemory":
        """Materialise the PM contents a crash could expose.

        Args:
            persists: PM stores forming a consistent cut of the persist
                DAG, in any order; they are applied in visibility order.

        Returns:
            A new :class:`PersistentMemory` whose contents are the
            baseline plus exactly the given persists.
        """
        image = PersistentMemory(self.size)
        image._bytes = self.baseline_image()
        for op in sorted(persists, key=lambda o: o.gseq):
            if op.kind is not OpKind.STORE:
                raise PmError(f"crash image can only apply STOREs, got {op!r}")
            image.write(op.addr, op.data)
        image._baseline = bytes(image._bytes)
        return image

    # -- helpers --------------------------------------------------------

    def snapshot(self) -> bytes:
        return bytes(self._bytes)

    def restore(self, snapshot: bytes) -> None:
        if len(snapshot) != self.size:
            raise PmError("snapshot size mismatch")
        self._bytes = bytearray(snapshot)

    def diff_lines(self, other: "PersistentMemory", line: int = 64) -> List[int]:
        """Cache-line indices whose contents differ from ``other``."""
        if other.size != self.size:
            raise PmError("cannot diff PM images of different sizes")
        out = []
        for start in range(0, self.size, line):
            if self._bytes[start : start + line] != other._bytes[start : start + line]:
                out.append(start // line)
        return out
