"""Per-thread circular undo log in persistent memory (Section V).

Log layout in PM, per thread::

    +0    header line (64 B): head index (u64), capacity (u64),
          retired sequence watermark (u64)
    +64   entry 0 (64 B)
    +128  entry 1 (64 B)
    ...

Entry layout (64 bytes, cache-line aligned, written as one persist)::

    +0   u8   type        (FREE/STORE/ACQUIRE/RELEASE/TX_BEGIN/TX_END)
    +1   u8   valid
    +2   u8   commit      (commit-intent marker, Fig. 6)
    +3   u8   size        (bytes of old value, <= 40)
    +4   u32  tid
    +8   u64  addr        (address of the update for STORE entries)
    +16  40B  value       (old value / happens-before metadata)
    +56  u64  seq         (global creation sequence — our stand-in for the
                           happens-before metadata of ATLAS/SFR logs)

The paper stores happens-before relations for synchronization entries; we
record a single global creation sequence number in every entry, which
gives recovery the same reverse-creation-order rollback the paper's
metadata enables (see DESIGN.md deviations).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List

from repro.pmem.space import PersistentMemory

ENTRY_SIZE = 64
HEADER_SIZE = 64
MAX_VALUE = 40

# Entry types.
FREE = 0
STORE = 1
ACQUIRE = 2
RELEASE = 3
TX_BEGIN = 4
TX_END = 5
REDO = 6  #: redo-log entry: ``value`` holds the NEW data to replay

TYPE_NAMES = {
    FREE: "free",
    STORE: "store",
    ACQUIRE: "acquire",
    RELEASE: "release",
    TX_BEGIN: "tx_begin",
    TX_END: "tx_end",
    REDO: "redo",
}

#: ``log:<type>`` label of every entry type's log-entry store.
ENTRY_LABELS = {type_: f"log:{name}" for type_, name in TYPE_NAMES.items()}

_HEAD = struct.Struct("<QQQ")
#: type, valid, commit, size, tid, addr, value, seq: one whole entry.
_ENTRY = struct.Struct(f"<BBBBIQ{MAX_VALUE}sQ")
_STATE = struct.Struct("<Q")
#: the three fields that tell a written slot from a never-written one.
_SLOT_KEY = struct.Struct("<BB54xQ")  # type, valid, seq
#: ``LogLayout.scan`` passes over all-zero runs of this many slots whole.
_SCAN_BLOCK = bytes(64 * ENTRY_SIZE)

#: recovery-progress phases persisted in the recovery-state word (bytes
#: 24..32 of thread 0's header line — spare space, so the layout
#: geometry and every entry address are unchanged).
RECOVERY_IDLE = 0  #: no recovery in flight (the all-zero initial state)
#: data repairs (redo replay + undo rollback) are durable; the log sweep
#: (entry invalidation + head reset) may be anywhere between untouched
#: and complete, so the surviving entries are garbage and must only be
#: swept, never re-applied.  ASCII "SWEP" with a high tag byte.
RECOVERY_SWEEPING = 0x52_53574550


class LogError(Exception):
    """Raised on log-space exhaustion or malformed log regions."""


@dataclass
class LogEntry:
    """Decoded view of one log entry."""

    slot: int
    type: int
    valid: bool
    commit: bool
    size: int
    tid: int
    addr: int
    value: bytes
    seq: int

    @property
    def type_name(self) -> str:
        return TYPE_NAMES.get(self.type, f"?{self.type}")


def encode_entry(
    type_: int, tid: int, addr: int, value: bytes, seq: int, commit: bool = False
) -> bytes:
    """Serialise an entry to its 64-byte PM representation."""
    if len(value) > MAX_VALUE:
        raise LogError(f"old value of {len(value)} bytes exceeds {MAX_VALUE}-byte field")
    return _ENTRY.pack(type_, 1, 1 if commit else 0, len(value), tid, addr, value, seq)


def decode_entry(raw: bytes, slot: int) -> LogEntry:
    type_, valid, commit, size, tid, addr, value, seq = _ENTRY.unpack_from(raw, 0)
    value = value[: min(size, MAX_VALUE)]
    return LogEntry(
        slot=slot,
        type=type_,
        valid=bool(valid),
        commit=bool(commit),
        size=size,
        tid=tid,
        addr=addr,
        value=value,
        seq=seq,
    )


@dataclass(frozen=True)
class LogLayout:
    """Placement of all per-thread log regions inside the PM space."""

    base: int
    capacity: int  #: entries per thread
    n_threads: int

    def __post_init__(self) -> None:
        # Every entry fills one cache line, so it is one persist.
        if self.base % ENTRY_SIZE:
            raise LogError(f"log base {self.base:#x} is not {ENTRY_SIZE}-byte aligned")

    @property
    def region_size(self) -> int:
        return HEADER_SIZE + self.capacity * ENTRY_SIZE

    def region_base(self, tid: int) -> int:
        return self.base + tid * self.region_size

    def header_addr(self, tid: int) -> int:
        return self.region_base(tid)

    def entry_addr(self, tid: int, slot: int) -> int:
        if not 0 <= slot < self.capacity:
            raise LogError(f"slot {slot} outside capacity {self.capacity}")
        return self.region_base(tid) + HEADER_SIZE + slot * ENTRY_SIZE

    @property
    def end(self) -> int:
        return self.base + self.n_threads * self.region_size

    # -- functional access (used by setup and recovery) -------------------

    def init_region(self, space: PersistentMemory, tid: int) -> None:
        """Zero the region and write an initial header (head = 0).

        Zeros written over untouched PM create no pages, so on a fresh
        image only the header's page is filled in, not the whole log.
        """
        space.write(self.region_base(tid), bytes(self.region_size))
        space.write(self.header_addr(tid), _HEAD.pack(0, self.capacity, 0))

    def read_head(self, space: PersistentMemory, tid: int) -> int:
        head, _cap, _ret = _HEAD.unpack(space.read(self.header_addr(tid), 24))
        return head

    def read_retired(self, space: PersistentMemory, tid: int) -> int:
        """Retired-sequence watermark: entries at or below it are already
        durably applied in place and must never be replayed."""
        _head, _cap, retired = _HEAD.unpack(space.read(self.header_addr(tid), 24))
        return retired

    def encode_head(self, head: int, retired: int = 0) -> bytes:
        return _HEAD.pack(head, self.capacity, retired)

    # -- recovery-state word (crash-safe re-entrant recovery) -------------

    @property
    def recovery_state_addr(self) -> int:
        """Address of the 8-byte recovery-progress word.

        It lives in the spare bytes after thread 0's ``(head, capacity,
        retired)`` header triple: a single aligned word the recovery
        protocol can flip atomically, without moving any existing log
        address.  ``init_region(space, 0)`` zeroes it (= RECOVERY_IDLE).
        """
        return self.header_addr(0) + _HEAD.size

    def read_recovery_state(self, space: PersistentMemory) -> int:
        return _STATE.unpack(space.read(self.recovery_state_addr, 8))[0]

    @staticmethod
    def encode_recovery_state(state: int) -> bytes:
        return _STATE.pack(state)

    def read_entry(self, space: PersistentMemory, tid: int, slot: int) -> LogEntry:
        raw = space.read(self.entry_addr(tid, slot), ENTRY_SIZE)
        return decode_entry(raw, slot)

    def scan(self, space: PersistentMemory, tid: int) -> List[LogEntry]:
        """Decode every written slot of a thread's log region.

        A slot counts as written when its type, valid flag or sequence is
        non-zero.  The region is read once and only written slots are
        decoded: a recovery pass scans every thread's log, and most of a
        log is free.  A block of 64 slots whose bytes are all zero holds
        no written slot, so it is skipped whole; only the slots of the
        other blocks are tested.
        """
        raw = space.read(self.region_base(tid) + HEADER_SIZE, self.capacity * ENTRY_SIZE)
        step = len(_SCAN_BLOCK)
        entries: List[LogEntry] = []
        for start in range(0, len(raw), step):
            block = raw[start : start + step]
            if block == _SCAN_BLOCK[: len(block)]:
                continue
            first = start // ENTRY_SIZE
            entries += [
                decode_entry(block[i * ENTRY_SIZE : (i + 1) * ENTRY_SIZE], first + i)
                for i, (type_, valid, seq) in enumerate(_SLOT_KEY.iter_unpack(block))
                if type_ or valid or seq
            ]
        return entries
