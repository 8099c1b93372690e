"""Functional persistent-memory address space.

:class:`PersistentMemory` holds the *architectural* contents of PM — the
values the program observes through its loads.  It also keeps a snapshot of
the last known-durable baseline so that crash images can be materialised:
a crash image is the baseline plus an arbitrary **consistent cut** of the
persist DAG (see :mod:`repro.core.crash`), applied in visibility order.

The image is sparse: a map from page number to one :data:`PAGE_SIZE`-byte
page, holding only pages that were written with something other than
zeros.  An absent page reads as zeros, so the size of the address space
costs nothing; construction, :meth:`~PersistentMemory.mark_clean`,
:meth:`~PersistentMemory.crash_image` and
:meth:`~PersistentMemory.snapshot`/:meth:`~PersistentMemory.restore` cost
O(pages touched).  Accesses that stay inside one page — nearly all of
them — take a fast path with one page lookup.

Addresses are plain integers; accessors exist for the common word sizes
used by the persistent data structures in :mod:`repro.workloads`.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from repro.core.ops import Op, OpKind

#: bytes per page of the sparse image.
PAGE_SIZE = 4096
_PAGE_SHIFT = 12
_PAGE_MASK = PAGE_SIZE - 1
#: compared against instead of scanning for a non-zero byte.
_ZERO_PAGE = bytes(PAGE_SIZE)

_U64 = struct.Struct("<Q")

#: page number -> page contents; absent pages are all zeros.
Snapshot = Dict[int, bytes]


class PmError(Exception):
    """Raised on out-of-range or malformed PM accesses."""


def _spans(addr: int, size: int) -> Iterator[Tuple[int, int, int, int]]:
    """``(page, offset in page, offset in the access, length)`` of each
    page piece of the access ``[addr, addr + size)``."""
    pos = 0
    while pos < size:
        off = (addr + pos) & _PAGE_MASK
        n = min(PAGE_SIZE - off, size - pos)
        yield (addr + pos) >> _PAGE_SHIFT, off, pos, n
        pos += n


def _nonzero(pages: Mapping[int, bytearray]) -> Snapshot:
    """Immutable copies of the pages holding a non-zero byte."""
    return {pno: bytes(page) for pno, page in pages.items() if page != _ZERO_PAGE}


class PersistentMemory:
    """A byte-addressable persistent memory image, stored as sparse pages."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise PmError(f"PM size must be positive, got {size}")
        self.size = size
        self._pages: Dict[int, bytearray] = {}
        self._baseline: Snapshot = {}

    # -- bounds ---------------------------------------------------------

    def _outside(self, addr: int, size: int) -> PmError:
        return PmError(f"access [{addr:#x}, {addr + size:#x}) outside PM of {self.size:#x}")

    # -- raw access -----------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise self._outside(addr, size)
        off = addr & _PAGE_MASK
        if off + size <= PAGE_SIZE:
            page = self._pages.get(addr >> _PAGE_SHIFT)
            return bytes(size) if page is None else bytes(page[off : off + size])
        out = bytearray(size)
        for pno, off, pos, n in _spans(addr, size):
            page = self._pages.get(pno)
            if page is not None:
                out[pos : pos + n] = memoryview(page)[off : off + n]
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        size = len(data)
        if addr < 0 or addr + size > self.size:
            raise self._outside(addr, size)
        off = addr & _PAGE_MASK
        if off + size <= PAGE_SIZE:
            page = self._pages.get(addr >> _PAGE_SHIFT)
            if page is None:
                if _ZERO_PAGE.startswith(data):
                    return
                page = self._pages[addr >> _PAGE_SHIFT] = bytearray(PAGE_SIZE)
            page[off : off + size] = data
            return
        view = memoryview(data)
        for pno, off, pos, n in _spans(addr, size):
            piece = view[pos : pos + n]
            page = self._pages.get(pno)
            if page is None:
                if _ZERO_PAGE.startswith(piece):
                    continue
                page = self._pages[pno] = bytearray(PAGE_SIZE)
            page[off : off + n] = piece

    # -- typed access ---------------------------------------------------

    def read_u64(self, addr: int) -> int:
        if addr < 0 or addr + 8 > self.size:
            raise self._outside(addr, 8)
        off = addr & _PAGE_MASK
        if off <= PAGE_SIZE - 8:
            page = self._pages.get(addr >> _PAGE_SHIFT)
            return 0 if page is None else _U64.unpack_from(page, off)[0]
        return _U64.unpack(self.read(addr, 8))[0]

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, _U64.pack(value & 0xFFFFFFFFFFFFFFFF))

    # -- durability baseline -------------------------------------------

    def mark_clean(self) -> None:
        """Snapshot current contents as the durable pre-run baseline.

        Workload setup (allocation, initial data-structure population)
        runs before measurement and is considered fully persisted, exactly
        as the paper's benchmarks persist their initial state before the
        timed phase.
        """
        self._baseline = _nonzero(self._pages)

    def baseline_image(self) -> "PersistentMemory":
        """A fresh image holding the durable baseline (its own baseline too)."""
        image = PersistentMemory(self.size)
        image._pages = {pno: bytearray(page) for pno, page in self._baseline.items()}
        image._baseline = self._baseline
        return image

    def crash_image(self, persists: Sequence[Op]) -> "PersistentMemory":
        """Materialise the PM contents a crash could expose.

        Args:
            persists: PM stores forming a consistent cut of the persist
                DAG, in any order; they are applied in visibility order.

        Returns:
            A new :class:`PersistentMemory` whose contents are the
            baseline plus exactly the given persists.
        """
        image = self.baseline_image()
        for op in sorted(persists, key=lambda o: o.gseq):
            if op.kind is not OpKind.STORE:
                raise PmError(f"crash image can only apply STOREs, got {op!r}")
            image.write(op.addr, op.data)
        image.mark_clean()
        return image

    # -- helpers --------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The current contents; equal snapshots mean equal contents."""
        return _nonzero(self._pages)

    def restore(self, snapshot: Snapshot) -> None:
        last = (self.size - 1) >> _PAGE_SHIFT
        if any(not 0 <= pno <= last for pno in snapshot):
            raise PmError("snapshot does not fit this PM")
        self._pages = {pno: bytearray(page) for pno, page in snapshot.items()}
