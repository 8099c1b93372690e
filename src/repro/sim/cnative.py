"""ctypes loader for the native replay core (``_fastcore.c``).

The simulator has two replay tiers:

``native C core`` -> ``reference per-op engine``

:meth:`repro.sim.machine.Machine.run` tries the C core on every run
without a tracer.  That includes runs under media faults: the core
applies the PM controller's fault policy, drawing from the fault model's
own generator state, and on success leaves the model as the reference
would.  It includes crash runs under a fault plan, with or without media
faults, whose program's STOREs each lie inside one cache line (every
generated program's do): the core stops at the plan's trigger and
records what the durability tracker (:mod:`repro.sim.durability`)
records, and :func:`run_native` returns the cut run's stats with its
:class:`CrashState`.  Everything else — a tracer,
``REPRO_SIM_REFERENCE``, a crash run of a program with a line-crossing
or empty STORE — and every run the core declines, replays on the
reference engine (:mod:`repro.sim.cpu` plus the persistency domains and
:mod:`repro.sim.memory`), which the C core ports.  Bit-identity between
the two, crash states and fault models included, is pinned by
``tests/sim/test_fastcore_identity.py`` and the engine-identity pins.

The core is compiled on demand from the single-file source next to
this module with whatever C compiler the host provides (``cc``/``gcc``/
``clang``), cached by a hash of the source and the build flags under
``_build/`` (or the directory named by ``REPRO_CC_CACHE``), and loaded
with ctypes — no CPython headers, no third-party packages.  A build
into ``_build/`` removes that directory's older builds; a
``REPRO_CC_CACHE`` directory is never swept.  If the core cannot be
built or loaded, the first attempt emits one
``RuntimeWarning`` per process naming the reason (no compiler on PATH,
the compiler's exit status and first stderr line, or the ctypes load
error) and every run replays on the reference engine: the same
results, one to two orders of magnitude slower.

Streams: a sealed program's per-thread columns are concatenated into
C-ready arrays once, and it keeps them (:func:`_program_streams`).
Lines travel as 4-byte dense ids, each op's line's index in
``program.touched_lines()``; the core keys all line state by arrays
sized to that set.

Determinism: the build uses ``-ffp-contract=off`` so no FMA contraction
changes double rounding, and the core itself mirrors the reference
engine's arithmetic operation-for-operation (see the C file header).

Error protocol: the core returns non-zero for *anything* it does not
model (replay deadlock, a fence foreign to the design, a retry past the
backoff table, a negative line, allocation failure) and
:func:`run_native` then returns ``None``, silently, with any fault
model untouched — the reference engine re-runs the program from the
same fault stream and raises the exact exception, or produces the
result.  A line missing from ``touched_lines()`` breaks a program
invariant instead, and raises ``RuntimeError``.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import subprocess
import tempfile
import threading
import warnings
from array import array
from bisect import bisect_right
from itertools import compress
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional

from repro.core.ops import OpKind, Program, kind_bytes
from repro.sim.config import MachineConfig
from repro.sim.durability import (
    SOURCE_CLWB, SOURCE_WRITEBACK, CrashState, CrashTrigger, StoreRecord,
)
from repro.sim.stats import CoreStats, MachineStats

if TYPE_CHECKING:  # no runtime import: faults is an optional layer
    from repro.faults.model import MediaFaultModel

#: environment variable: override the shared-library build directory.
BUILD_DIR_ENV = "REPRO_CC_CACHE"

#: design name -> the C core's design id.
DESIGN_IDS = {
    "intel-x86": 0,
    "hops": 1,
    "no-persist-queue": 2,
    "strandweaver": 3,
    "non-atomic": 4,
}

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_fastcore.c")

_lib = None
_lib_failed = False
#: the core keeps scratch between runs and ctypes drops the GIL while it
#: runs, so concurrent callers take turns.
_run_lock = threading.Lock()

_OUT_STRIDE = 9  # per-core stats slots (see _fastcore.c)

#: compiler flags of the shared library; they are part of its cache key.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


class _Crash(ctypes.Structure):
    """The C core's ``Crash`` block: a crash run's trigger in, and what
    the durability tracker would record out (see _fastcore.c)."""

    _fields_ = [
        ("kind", ctypes.c_int64),
        ("at", ctypes.c_double),
        ("cap", ctypes.c_int64),
        ("rec_op", ctypes.POINTER(ctypes.c_int64)),
        ("rec_retire", ctypes.POINTER(ctypes.c_double)),
        ("rec_durable", ctypes.POINTER(ctypes.c_double)),
        ("rec_src", ctypes.POINTER(ctypes.c_int8)),
        ("cycle", ctypes.c_double),
        ("n_rec", ctypes.c_int64),
    ]


#: the C core's trigger kinds, and its record sources: SRC_CLWB (0),
#: SRC_WRITEBACK (1), and SRC_NONE (-1), an uncovered store, which reads
#: as a CLWB like a tracker's record does.
_TRIGGER_KINDS = {"cycle": 0, "ops": 1}
_SOURCES = (SOURCE_CLWB, SOURCE_WRITEBACK, SOURCE_CLWB)


#: MediaFaultModel's integer counters, in the C core's F_* order.
_FAULT_COUNTERS = (
    "write_faults", "retries", "ecc_corrected", "ecc_uncorrectable",
    "remaps", "remap_denied", "exhausted_retries",
)

#: retries the backoff table covers; a write that fails more often than
#: this (and has retries left) makes the core decline.
MAX_BACKOFF_ATTEMPTS = 64


class _Media(ctypes.Structure):
    """The C core's ``Media`` block: a media-fault model's probabilities,
    controller policy and generator state in, its advanced state and
    counters out (see _fastcore.c)."""

    _fields_ = [
        ("p_fail", ctypes.c_double),
        ("p_corr", ctypes.c_double),
        ("p_unc", ctypes.c_double),
        ("w2m", ctypes.c_double),
        ("remap_lat", ctypes.c_double),
        ("ecc_pen", ctypes.c_double),
        ("max_retries", ctypes.c_int64),
        ("spare_lines", ctypes.c_int64),
        ("n_backoff", ctypes.c_int64),
        ("backoff", ctypes.POINTER(ctypes.c_double)),
        ("mt", ctypes.POINTER(ctypes.c_uint32)),
        ("mti", ctypes.c_int64),
        ("remapped", ctypes.POINTER(ctypes.c_int64)),
        ("n_remapped", ctypes.c_int64),
        ("cap_new", ctypes.c_int64),
        ("new_lines", ctypes.POINTER(ctypes.c_int64)),
        ("n_new", ctypes.c_int64),
        ("count", ctypes.c_int64 * len(_FAULT_COUNTERS)),
        ("backoff_cycles", ctypes.c_double),
    ]


def _build_dir() -> str:
    override = os.environ.get(BUILD_DIR_ENV)
    if override:
        return override
    return os.path.join(os.path.dirname(_SRC), "_build")


def _drop_stale_builds(keep: str) -> None:
    """Remove every other ``_fastcore-*.so`` of ``keep``'s directory: the
    builds of earlier sources or flags, which nothing loads again."""
    for path in glob.glob(os.path.join(os.path.dirname(keep), "_fastcore-*.so")):
        if path != keep:
            try:
                os.unlink(path)
            except OSError:
                pass


def _find_cc() -> Optional[str]:
    from shutil import which

    for cand in ("cc", "gcc", "clang"):
        path = which(cand)
        if path:
            return path
    return None


def _compile(src: str, out: str) -> Optional[str]:
    """Build ``src`` into the shared library ``out``; None on success,
    else the reason it could not."""
    cc = _find_cc()
    if cc is None:
        return "no C compiler (cc, gcc or clang) on PATH"
    tmp = out + f".tmp{os.getpid()}"
    cmd = [cc, *_CFLAGS, "-o", tmp, src, "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"{cc} could not run: {exc}"
    if proc.returncode != 0:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        stderr = proc.stderr.decode(errors="replace").strip()
        first = stderr.splitlines()[0] if stderr else "no output"
        return f"{cc} exited with status {proc.returncode}: {first}"
    os.replace(tmp, out)  # atomic: concurrent builders race benignly
    return None


def _load():
    """Compile (if needed) and load the shared library; None on failure,
    after warning once per process why."""
    global _lib, _lib_failed
    if _lib is not None:
        return _lib
    if _lib_failed:
        return None
    so_path = None
    try:
        with open(_SRC, "rb") as fh:
            src_bytes = fh.read()
        tag = hashlib.sha256(src_bytes + " ".join(_CFLAGS).encode()).hexdigest()[:16]
        build_dir = _build_dir()
        so_path = os.path.join(build_dir, f"_fastcore-{tag}.so")
        if not os.path.exists(so_path):
            # Only the checkout's own _build/ is swept after a build:
            # other checkouts may share a REPRO_CC_CACHE or the temp-dir
            # fallback, and a build that vanishes before its CDLL leaves
            # that process on the reference engine.
            sweep = not os.environ.get(BUILD_DIR_ENV)
            try:
                os.makedirs(build_dir, exist_ok=True)
            except OSError:
                sweep = False
                build_dir = tempfile.gettempdir()
                so_path = os.path.join(build_dir, f"repro-fastcore-{tag}.so")
            if not os.path.exists(so_path):
                reason = _compile(_SRC, so_path)
                if reason is not None:
                    return _unavailable(reason)
                if sweep:
                    _drop_stale_builds(so_path)
        lib = ctypes.CDLL(so_path)
        lib.rs_run.restype = ctypes.c_int
        lib.rs_run.argtypes = [
            ctypes.POINTER(ctypes.c_double),   # fcfg
            ctypes.POINTER(ctypes.c_int64),    # icfg
            ctypes.POINTER(ctypes.c_int32),    # kinds
            ctypes.POINTER(ctypes.c_int32),    # ids
            ctypes.POINTER(ctypes.c_int32),    # cycles
            ctypes.POINTER(ctypes.c_int32),    # lockids
            ctypes.POINTER(ctypes.c_int64),    # offs
            ctypes.POINTER(ctypes.c_int32),    # lock_keys
            ctypes.POINTER(ctypes.c_int32),    # lock_offs
            ctypes.POINTER(ctypes.c_int32),    # lock_tids
            ctypes.c_int64,                    # n_locks
            ctypes.POINTER(ctypes.c_int64),    # univ
            ctypes.c_int64,                    # n_univ
            ctypes.c_int,                      # warm
            ctypes.POINTER(ctypes.c_int64),    # out
            ctypes.POINTER(_Crash),            # crash (NULL: a plain run)
            ctypes.POINTER(_Media),            # media (NULL: perfect media)
        ]
        lib.rs_index.restype = ctypes.c_int64
        lib.rs_index.argtypes = [
            ctypes.POINTER(ctypes.c_int32),    # kinds
            ctypes.POINTER(ctypes.c_int64),    # lines
            ctypes.c_int64,                    # n_ops
            ctypes.POINTER(ctypes.c_int64),    # univ
            ctypes.c_int64,                    # n_univ
            ctypes.POINTER(ctypes.c_int32),    # ids (out)
        ]
        _lib = lib
        return lib
    except Exception as exc:
        return _unavailable(f"cannot load {so_path or _SRC}: {exc}")


def _unavailable(reason: str) -> None:
    """Remember that the core cannot be used and say why, once."""
    global _lib_failed
    _lib_failed = True
    warnings.warn(
        f"native replay core unavailable: {reason}. Every run replays on "
        "the reference engine: identical results, far slower.",
        RuntimeWarning,
        stacklevel=4,
    )
    return None


def available() -> bool:
    """True when the native core can be (or already was) loaded."""
    return _load() is not None


def _ptr(arr, ctype):
    """C pointer to an ``array`` module buffer (kept alive by caller)."""
    addr, _ = arr.buffer_info()
    return ctypes.cast(addr, ctypes.POINTER(ctype))


#: kind byte -> 1 for COMPUTE, the one kind whose cycles replay reads.
_COMPUTE_BYTES = bytes(k == OpKind.COMPUTE for k in range(256))


def _op_mix(kinds: array, cycles: array) -> dict:
    """Op-mix totals of the ops of a kinds/cycles column pair, counted at
    C speed: every op dispatched executes exactly once, so the core needs
    no per-op counters."""
    kinds_b = kind_bytes(kinds)
    count = kinds_b.count
    return {
        "stores": count(OpKind.STORE),
        "loads": count(OpKind.LOAD),
        "clwbs": count(OpKind.CLWB),
        "fences": sum(count(k) for k in range(OpKind.SFENCE, OpKind.DFENCE + 1)),
        "compute_cycles": sum(compress(cycles, kinds_b.translate(_COMPUTE_BYTES))),
    }


def _program_streams(program: Program, lib):
    """The sealed program's op streams concatenated across threads as
    C-ready buffers, which it keeps (:meth:`Program.native_streams`):
    kinds, line ids (-1 for an op that addresses no memory), cycles and
    lock ids, the thread offsets, each thread's op-mix totals, and the
    lock order.  An addressed line missing from
    ``program.touched_lines()`` raises ``RuntimeError``."""
    ks = array("i")
    cs = array("i")
    lk = array("i")
    offs = array("q", [0])
    for trace in program.threads:
        ks.extend(trace.kinds)
        cs.extend(trace.cycles)
        lk.extend(trace.lock_ids)
        offs.append(len(ks))
    universe = program.touched_lines()
    ids = array("i", bytes(4 * len(ks)))
    ids_at = ids.buffer_info()[0]
    for tid, trace in enumerate(program.threads):
        missing = lib.rs_index(
            _ptr(trace.kinds, ctypes.c_int32), _ptr(trace.lines, ctypes.c_int64), len(trace),
            _ptr(universe, ctypes.c_int64), len(universe),
            ctypes.cast(ids_at + 4 * offs[tid], ctypes.POINTER(ctypes.c_int32)),
        )
        if missing >= 0:
            raise RuntimeError(
                f"line {trace.lines[missing]} (thread {tid}, op {missing}) is not "
                "among the program's touched lines"
            )
    statics = [_op_mix(trace.kinds, trace.cycles) for trace in program.threads]
    lkeys = array("i")
    loffs = array("i", [0])
    ltids = array("i")
    for lock_id, tids in program.lock_order.items():
        lkeys.append(lock_id)
        ltids.extend(tids)
        loffs.append(len(ltids))
    return (ks, ids, cs, lk, offs, statics, lkeys, loffs, ltids)


def run_native(
    design: str,
    program: Program,
    cfg: MachineConfig,
    warm: bool,
    prune_period: int,
    trigger: Optional[CrashTrigger] = None,
    media: Optional["MediaFaultModel"] = None,
) -> Optional[MachineStats]:
    """Replay ``program`` on the C core; None means "replay it on the
    reference engine".

    With a ``trigger`` the replay stops where the reference engine's would
    under a fault plan with that trigger, and the stats are the cut run's:
    its partial per-core counters and its :class:`CrashState`.  With an
    enabled ``media`` model the PM controller runs its fault policy on
    the model's generator, and on success the model is left as the
    reference engine leaves it (generator state, counters, remapped
    lines) and ``stats.faults`` is its summary; on a decline it is
    untouched, so the reference engine draws the same faults.  The
    caller guarantees the run has no tracer and, under a trigger, that
    every STORE touches one cache line (:meth:`Program.one_line_stores`).
    """
    lib = _load()
    if lib is None:
        return None
    des = DESIGN_IDS.get(design)
    if des is None:
        return None
    n = program.n_threads
    if n == 0 or n > cfg.n_cores:
        return None

    ks, ids, cs, lk, offs, statics, lkeys, loffs, ltids = program.native_streams(
        lambda sealed: _program_streams(sealed, lib)
    )
    universe = program.touched_lines()

    # Resource parameters are read off freshly constructed controller
    # objects so the C core always sees the reference's own arithmetic
    # (e.g. media_interval = write_to_media / media_banks).
    from repro.persistency.intel_x86 import IntelX86Domain
    from repro.persistency.nonatomic import NonAtomicDomain
    from repro.sim.cpu import CoreEngine
    from repro.sim.memory import PMController

    pm = PMController(cfg.pm)
    out_cap = (NonAtomicDomain.CLWB_WINDOW if design == "non-atomic"
               else IntelX86Domain.CLWB_WINDOW)

    icfg = array("q", [
        des,
        n,
        cfg.core.rob_entries,
        cfg.core.store_queue_entries,
        cfg.l1d.n_sets,
        cfg.l1d.assoc,
        cfg.l2.n_sets,
        cfg.l2.assoc,
        out_cap,
        cfg.hops.persist_buffer_entries,
        cfg.strand.n_strand_buffers,
        cfg.strand.strand_buffer_entries,
        cfg.strand.persist_queue_entries,
        prune_period,
        pm._accept.capacity,
        pm._media.capacity,
        pm._read_bw.capacity,
    ])
    fcfg = array("d", [
        CoreEngine.DISPATCH_COST,
        CoreEngine.HIT_COST,
        CoreEngine.LOCK_COST,
        cfg.l1d.hit_latency,
        cfg.l2.hit_latency,
        1.0 - cfg.core.load_overlap,
        pm._accept.interval,
        pm._media.interval,
        pm._read_bw.interval,
        cfg.pm.write_to_controller,
        cfg.pm.write_queue_entries * pm._media_interval,
        cfg.pm.read_latency,
        cfg.coherence_transfer,
        1.0 if cfg.pm.coalesce_writes else 0.0,
    ])

    out = array("q", bytes(8 * n * _OUT_STRIDE))
    crash: Optional[_Crash] = None
    records: tuple = ()
    if trigger is not None:
        cap = sum(static["stores"] for static in statics)
        records = (array("q", [0]) * cap, array("d", [0.0]) * cap,
                   array("d", [0.0]) * cap, array("b", [0]) * cap)
        rec_op, rec_retire, rec_durable, rec_src = records
        crash = _Crash(
            _TRIGGER_KINDS[trigger.kind], float(trigger.at), cap,
            _ptr(rec_op, ctypes.c_int64), _ptr(rec_retire, ctypes.c_double),
            _ptr(rec_durable, ctypes.c_double), _ptr(rec_src, ctypes.c_int8),
        )
    fault_block: Optional[_Media] = None
    if media is not None and media.enabled:
        fault_block = _media_block(media, cfg, len(universe))
        if fault_block is None:
            return None
    with _run_lock:
        rc = lib.rs_run(
            _ptr(fcfg, ctypes.c_double),
            _ptr(icfg, ctypes.c_int64),
            _ptr(ks, ctypes.c_int32),
            _ptr(ids, ctypes.c_int32),
            _ptr(cs, ctypes.c_int32),
            _ptr(lk, ctypes.c_int32),
            _ptr(offs, ctypes.c_int64),
            _ptr(lkeys, ctypes.c_int32),
            _ptr(loffs, ctypes.c_int32),
            _ptr(ltids, ctypes.c_int32),
            len(lkeys),
            _ptr(universe, ctypes.c_int64),
            len(universe),
            int(warm),
            _ptr(out, ctypes.c_int64),
            crash,
            fault_block,
        )
    if rc != 0:
        # Deadlock or unsupported shape: the reference engine reproduces
        # the exact exception/result, so just decline.
        return None

    stats = MachineStats(design=design)
    for t in range(n):
        base = t * _OUT_STRIDE
        ops = out[base + 8]
        static = statics[t]
        if ops < offs[t + 1] - offs[t]:  # a crash cut this core short
            lo = offs[t]
            static = _op_mix(ks[lo:lo + ops], cs[lo:lo + ops])
        core = CoreStats()
        core.cycles = out[base + 0]
        core.ops = ops
        core.stores = static["stores"]
        core.loads = static["loads"]
        core.clwbs = static["clwbs"]
        core.fences = static["fences"]
        core.compute_cycles = static["compute_cycles"]
        core.pm_writes = static["clwbs"]
        core.l1_hits = out[base + 1]
        core.l1_misses = out[base + 2]
        core.pm_reads = out[base + 3]
        core.stall_queue_full = out[base + 4]
        core.stall_fence = out[base + 5]
        core.stall_drain = out[base + 6]
        core.stall_lock = out[base + 7]
        stats.per_core.append(core)
    if crash is not None:
        stats.crash = _crash_state(program, offs, crash.cycle, crash.n_rec, *records)
    if fault_block is not None:
        _commit_media(media, fault_block)
        stats.faults = media.summary()
    return stats


def _media_block(model: "MediaFaultModel", cfg: MachineConfig, n_lines: int):
    """The C core's :class:`_Media` block for ``model`` on ``cfg``'s PM
    controller, whose arrays it keeps alive; None when the core cannot
    take the model.

    The generator is a copy of ``model``'s Mersenne Twister state, and
    the backoff before each retry is computed here with the reference's
    own arithmetic, up to :data:`MAX_BACKOFF_ATTEMPTS` retries (fewer if
    a later one would overflow, as the reference would).  The run can
    remap at most ``n_lines`` lines, the lines its program touches.
    """
    pm = cfg.pm
    state = model._rng.getstate()
    mt = array("I", state[1][:624])
    if mt.itemsize != 4:
        return None
    backoff = array("d")
    for attempt in range(1, min(pm.max_write_retries, MAX_BACKOFF_ATTEMPTS) + 1):
        try:
            backoff.append(pm.retry_backoff_base * (pm.retry_backoff_mult ** (attempt - 1)))
        except OverflowError:
            break
    remapped = array("q", model.remapped_lines)
    new_lines = array("q", bytes(8 * max(0, min(pm.spare_lines - len(remapped), n_lines))))
    block = _Media(
        p_fail=float(model.cfg.write_fail_prob),
        p_corr=float(model.cfg.ecc_correctable_prob),
        p_unc=float(model.cfg.ecc_uncorrectable_prob),
        w2m=pm.write_to_media, remap_lat=pm.remap_latency, ecc_pen=pm.ecc_penalty,
        max_retries=pm.max_write_retries, spare_lines=pm.spare_lines,
        n_backoff=len(backoff), backoff=_ptr(backoff, ctypes.c_double),
        mt=_ptr(mt, ctypes.c_uint32), mti=state[1][624],
        remapped=_ptr(remapped, ctypes.c_int64), n_remapped=len(remapped),
        cap_new=len(new_lines), new_lines=_ptr(new_lines, ctypes.c_int64),
        count=tuple(getattr(model, name) for name in _FAULT_COUNTERS),
        backoff_cycles=model.backoff_cycles,
    )
    block.keep = (state, mt, backoff, remapped, new_lines)
    return block


def _commit_media(model: "MediaFaultModel", block: _Media) -> None:
    """Leave ``model`` as the reference engine's controller would after
    the run the core just made: the generator where the core left it,
    every counter, and the lines remapped, in the order it remapped them."""
    (version, _, gauss), mt, _, _, new_lines = block.keep
    model._rng.setstate((version, tuple(mt) + (block.mti,), gauss))
    for name, value in zip(_FAULT_COUNTERS, block.count):
        setattr(model, name, value)
    model.backoff_cycles = block.backoff_cycles
    model.remapped_lines.update(new_lines[:block.n_new])


def _crash_state(
    program: Program, offs: array, cycle: float, n_rec: int,
    rec_op: array, rec_retire: array, rec_durable: array, rec_src: array,
) -> CrashState:
    """The :class:`CrashState` of a native crash run: of the first
    ``n_rec`` store records, those durable by ``cycle`` and those retired
    by then but not durable, each list in gseq order, as
    :meth:`DurabilityTracker.frontier` and ``in_flight`` select them."""
    durable: List[StoreRecord] = []
    in_flight: List[StoreRecord] = []
    ops = [trace.ops for trace in program.threads]
    records = zip(rec_op[:n_rec], rec_retire[:n_rec], rec_durable[:n_rec], rec_src[:n_rec])
    for flat, retire, when, source in records:
        if when <= cycle:
            into = durable
        elif retire <= cycle:
            into = in_flight
        else:
            continue
        tid = bisect_right(offs, flat) - 1
        into.append(StoreRecord(
            ops[tid][flat - offs[tid]], retire, when, _SOURCES[source]
        ))
    durable.sort(key=_BY_GSEQ)
    in_flight.sort(key=_BY_GSEQ)
    return CrashState(cycle=cycle, durable=durable, in_flight=in_flight)


_BY_GSEQ = attrgetter("op.gseq")

