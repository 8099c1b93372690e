"""Cache hierarchy timing model: per-core L1-D, shared L2, coherence.

Tag-only set-associative caches with LRU replacement.  The hierarchy
answers two questions for the core model:

* how long does this load/store take (L1 / L2 / PM service), and
* which accesses cross cores (dirty-ownership transfers), because those
  are where StrandWeaver's snoop-buffer drain rule applies
  (Section IV, "Enabling inter-thread persist order").

Dirty evictions from the L2 to PM consume controller write bandwidth, so
cache pressure feeds back into persist timing as in the real system.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.durability import NULL_DURABILITY, SOURCE_WRITEBACK
from repro.sim.memory import PMController


class TagCache:
    """One set-associative, write-back, LRU tag array."""

    def __init__(self, cfg: CacheConfig) -> None:
        self.cfg = cfg
        self.n_sets = cfg.n_sets
        # set index -> OrderedDict[line -> dirty]; LRU order = insertion order.
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}
        self.hits = 0
        self.misses = 0

    def _set_for(self, line: int) -> "OrderedDict[int, bool]":
        idx = line % self.n_sets
        bucket = self._sets.get(idx)
        if bucket is None:
            bucket = OrderedDict()
            self._sets[idx] = bucket
        return bucket

    def lookup(self, line: int, touch: bool = True) -> Optional[bool]:
        """Return the line's dirty bit on hit (refreshing LRU), else None."""
        bucket = self._set_for(line)
        if line not in bucket:
            return None
        if touch:
            bucket.move_to_end(line)
        return bucket[line]

    def fill(self, line: int, dirty: bool) -> Optional[Tuple[int, bool]]:
        """Insert ``line``; returns ``(victim_line, victim_dirty)`` if one
        was evicted."""
        bucket = self._set_for(line)
        if line in bucket:
            bucket[line] = bucket[line] or dirty
            bucket.move_to_end(line)
            return None
        victim = None
        if len(bucket) >= self.cfg.assoc:
            victim = bucket.popitem(last=False)
        bucket[line] = dirty
        return victim

    def set_dirty(self, line: int) -> None:
        bucket = self._set_for(line)
        if line in bucket:
            bucket[line] = True
            bucket.move_to_end(line)

    def clean(self, line: int) -> bool:
        """Clear the dirty bit (CLWB semantics); returns prior dirtiness."""
        bucket = self._set_for(line)
        if line not in bucket:
            return False
        was_dirty = bucket[line]
        bucket[line] = False
        return was_dirty

    def invalidate(self, line: int) -> bool:
        """Drop the line; returns whether it was dirty."""
        bucket = self._set_for(line)
        if line not in bucket:
            return False
        return bucket.pop(line)


#: Hook type: (owner_tid, line, time) -> time after owner's strand buffers
#: drained past the recorded tail index (StrandWeaver snoop-stall rule).
DrainHook = Callable[[int, int, float], float]


class CacheHierarchy:
    """Per-core L1s over a shared L2 over PM."""

    def __init__(self, cfg: MachineConfig, pm: PMController) -> None:
        self.cfg = cfg
        self.pm = pm
        self.l1 = [TagCache(cfg.l1d) for _ in range(cfg.n_cores)]
        self.l2 = TagCache(cfg.l2)
        #: last core to write each line while it may still be dirty in L1.
        self._dirty_owner: Dict[int, int] = {}
        #: StrandWeaver installs a drain hook per core; other designs None.
        self.drain_hooks: List[Optional[DrainHook]] = [None] * cfg.n_cores
        self.coherence_transfers = 0
        #: durability tracker for crash injection; natural dirty evictions
        #: reach PM too and so extend the durable frontier (marked with
        #: their "writeback" source so the chaos layer can reason about
        #: them separately from explicit CLWBs).
        self.durability = NULL_DURABILITY

    # -- internal helpers -------------------------------------------------

    def _writeback_victim(self, victim: Optional[Tuple[int, bool]], t: float) -> None:
        """Handle an L2 eviction: a dirty line is written back to PM."""
        if victim is None:
            return
        line, dirty = victim
        if not dirty:
            return
        ticket = self.pm.write(t, line)
        self.durability.line_persisted(
            line, t, ticket.accepted, source=SOURCE_WRITEBACK
        )

    def _steal_if_remote_dirty(self, tid: int, line: int, t: float) -> float:
        """Resolve cross-core dirty ownership; returns post-transfer time."""
        owner = self._dirty_owner.get(line)
        if owner is None or owner == tid:
            return t
        owner_l1 = self.l1[owner]
        state = owner_l1.lookup(line, touch=False)
        if state:  # dirty in the owner's L1
            hook = self.drain_hooks[owner]
            if hook is not None:
                # Read-exclusive reply stalls until the owner's strand
                # buffers drain to the recorded tail index.
                t = hook(owner, line, t)
            dirty = owner_l1.invalidate(line)
            victim = self.l2.fill(line, dirty)
            self._writeback_victim(victim, t)
            self.coherence_transfers += 1
            t += self.cfg.coherence_transfer
        self._dirty_owner.pop(line, None)
        return t

    # -- public API --------------------------------------------------------

    def warm(self, lines) -> None:
        """Pre-fill the shared L2 with clean copies of ``lines``.

        Models measurement at steady state (the paper times 50K operations
        on long-lived structures whose working set is L2-resident; CLWB is
        non-invalidating, so flushed lines stay cached).
        """
        for line in lines:
            self.l2.fill(line, dirty=False)

    def access(self, tid: int, line: int, is_write: bool, t: float) -> Tuple[float, str]:
        """Service a load/store for core ``tid``.

        Returns ``(completion_time, served_by)`` where ``served_by`` is one
        of ``"l1"``, ``"l2"``, ``"pm"``.
        """
        l1 = self.l1[tid]
        t = self._steal_if_remote_dirty(tid, line, t)
        state = l1.lookup(line)
        if state is not None:
            l1.hits += 1
            if is_write:
                l1.set_dirty(line)
                self._dirty_owner[line] = tid
            return t + self.cfg.l1d.hit_latency, "l1"

        l1.misses += 1
        t_l1 = t + self.cfg.l1d.hit_latency  # tag check before going down
        l2_state = self.l2.lookup(line)
        if l2_state is not None:
            self.l2.hits += 1
            done = t_l1 + self.cfg.l2.hit_latency
            served = "l2"
        else:
            self.l2.misses += 1
            done = self.pm.read(t_l1 + self.cfg.l2.hit_latency, line)
            served = "pm"
            victim = self.l2.fill(line, dirty=False)
            self._writeback_victim(victim, done)

        victim = l1.fill(line, dirty=is_write)
        if victim is not None:
            v_line, v_dirty = victim
            l2_victim = self.l2.fill(v_line, v_dirty)
            self._writeback_victim(l2_victim, done)
        if is_write:
            self._dirty_owner[line] = tid
        return done, served

    def flush(self, tid: int, line: int, t: float) -> float:
        """CLWB front half: look up and clean the line in the hierarchy.

        Returns the time the flush request leaves for the PM controller.
        The caller then books the controller write itself (designs differ
        in who tracks the acknowledgement).
        """
        t = self._steal_if_remote_dirty(tid, line, t)
        l1 = self.l1[tid]
        if l1.lookup(line, touch=False) is not None:
            l1.clean(line)
            self._dirty_owner.pop(line, None)
            return t + self.cfg.l1d.hit_latency
        if self.l2.lookup(line, touch=False) is not None:
            self.l2.clean(line)
            return t + self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency
        return t + self.cfg.l1d.hit_latency
