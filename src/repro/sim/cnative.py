"""ctypes loader for the native replay core (``_fastcore.c``).

The C core is the third tier of the engine fallback chain:

``native C`` -> ``Python fastcore`` -> ``reference per-op engine``

It is compiled on demand from the single-file source next to this
module with whatever C compiler the host provides (``cc``/``gcc``/
``clang``), cached by source hash under ``_build/``, and loaded with
ctypes — no CPython headers, no third-party packages.  Hosts without a
compiler simply run the Python fast path; behaviour is identical
because the C core is a literal port of it (bit-identity is pinned by
``tests/sim/test_fastcore_identity.py`` and the engine-identity pins).

Determinism: the build uses ``-ffp-contract=off`` so no FMA contraction
changes double rounding, and the core itself mirrors the reference
engine's arithmetic operation-for-operation (see the C file header).

Error protocol: the core returns non-zero for *anything* it does not
model (replay deadlock, unknown fence-design pairing, allocation
failure) and :func:`run_native` then returns ``None`` — the machine
falls through to the Python engines, which reproduce the exact
exception or result.  Set ``REPRO_SIM_NO_C=1`` to disable the C core
outright (the identity property tests use this to diff the tiers).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from array import array
from typing import List, Optional

from repro.core.ops import ColumnTrace, OpKind, Program, ThreadTrace
from repro.sim.config import MachineConfig
from repro.sim.stats import CoreStats

#: environment variable: any non-empty value disables the native core.
NO_C_ENV = "REPRO_SIM_NO_C"

#: environment variable: override the shared-library build directory.
BUILD_DIR_ENV = "REPRO_CC_CACHE"

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_fastcore.c")

_lib = None
_lib_failed = False

_OUT_STRIDE = 8  # per-core dynamic stats slots (see _fastcore.c)


def _build_dir() -> str:
    override = os.environ.get(BUILD_DIR_ENV)
    if override:
        return override
    return os.path.join(os.path.dirname(_SRC), "_build")


def _find_cc() -> Optional[str]:
    from shutil import which

    for cand in ("cc", "gcc", "clang"):
        path = which(cand)
        if path:
            return path
    return None


def _compile(src: str, out: str) -> bool:
    cc = _find_cc()
    if cc is None:
        return False
    tmp = out + f".tmp{os.getpid()}"
    cmd = [
        cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
        "-o", tmp, src, "-lm",
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
    except Exception:
        return False
    if proc.returncode != 0:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    os.replace(tmp, out)  # atomic: concurrent builders race benignly
    return True


def _load():
    """Compile (if needed) and load the shared library; None on failure."""
    global _lib, _lib_failed
    if os.environ.get(NO_C_ENV):  # honored even once loaded
        return None
    if _lib is not None:
        return _lib
    if _lib_failed:
        return None
    try:
        with open(_SRC, "rb") as fh:
            src_bytes = fh.read()
        tag = hashlib.sha256(src_bytes).hexdigest()[:16]
        build_dir = _build_dir()
        so_path = os.path.join(build_dir, f"_fastcore-{tag}.so")
        if not os.path.exists(so_path):
            try:
                os.makedirs(build_dir, exist_ok=True)
            except OSError:
                build_dir = tempfile.gettempdir()
                so_path = os.path.join(build_dir, f"repro-fastcore-{tag}.so")
            if not os.path.exists(so_path) and not _compile(_SRC, so_path):
                _lib_failed = True
                return None
        lib = ctypes.CDLL(so_path)
        lib.rs_run.restype = ctypes.c_int
        lib.rs_run.argtypes = [
            ctypes.POINTER(ctypes.c_double),   # fcfg
            ctypes.POINTER(ctypes.c_int64),    # icfg
            ctypes.POINTER(ctypes.c_int32),    # kinds
            ctypes.POINTER(ctypes.c_int64),    # lines
            ctypes.POINTER(ctypes.c_int32),    # cycles
            ctypes.POINTER(ctypes.c_int32),    # lockids
            ctypes.POINTER(ctypes.c_int64),    # offs
            ctypes.POINTER(ctypes.c_int32),    # lock_keys
            ctypes.POINTER(ctypes.c_int32),    # lock_offs
            ctypes.POINTER(ctypes.c_int32),    # lock_tids
            ctypes.c_int64,                    # n_locks
            ctypes.POINTER(ctypes.c_int64),    # warm_lines
            ctypes.c_int64,                    # n_warm
            ctypes.POINTER(ctypes.c_int64),    # out
        ]
        _lib = lib
        return lib
    except Exception:
        _lib_failed = True
        return None


def available() -> bool:
    """True when the native core can be (or already was) loaded."""
    return _load() is not None


def _ptr(arr, ctype):
    """C pointer to an ``array`` module buffer (kept alive by caller)."""
    addr, _ = arr.buffer_info()
    return ctypes.cast(addr, ctypes.POINTER(ctype))


def _op_mix(trace: ColumnTrace) -> dict:
    """Replay-invariant op-mix totals of one thread, counted at C speed
    (every op executes exactly once, so the core needs no per-op
    counters); equal to the ``static`` of
    :func:`repro.sim.fastcore.compile_trace`."""
    count = trace.kind_bytes().count
    return {
        "stores": count(OpKind.STORE) + count(OpKind.VSTORE),
        "loads": count(OpKind.LOAD) + count(OpKind.VLOAD),
        "clwbs": count(OpKind.CLWB),
        "fences": sum(count(k) for k in range(OpKind.SFENCE, OpKind.DFENCE + 1)),
        "strand_marks": count(OpKind.PERSIST_BARRIER) + count(OpKind.NEW_STRAND),
        "compute_cycles": sum(trace.cycles),  # only COMPUTE ops carry cycles
    }


def trace_columns(trace: ThreadTrace):
    """C-ready ``(kinds, lines, cycles, lock_ids, static)`` of one thread,
    cached on the trace (traces are immutable once replayed).

    A generated :class:`ColumnTrace` is replayed from the columns it was
    born as, without building an op; a hand-built op list is compiled
    once by :func:`repro.sim.fastcore.compile_trace`.
    """
    cached = getattr(trace, "_replay_columns", None)
    if cached is None:
        if isinstance(trace, ColumnTrace):
            cached = (
                trace.kinds, trace.lines, trace.cycles, trace.lock_ids, _op_mix(trace)
            )
        else:
            from repro.sim.fastcore import compile_trace

            kinds, lines, cycles, lock_ids, static = compile_trace(trace)
            cached = (
                array("i", kinds),
                array("q", lines),
                array("i", cycles),
                array("i", lock_ids),
                static,
            )
        trace._replay_columns = cached
    return cached


def _program_streams(program: Program):
    """Concatenated per-thread op streams as C-ready buffers, cached on
    the program (programs are immutable once generated)."""
    cached = getattr(program, "_c_streams", None)
    if cached is not None:
        return cached
    ks = array("i")
    ls = array("q")
    cs = array("i")
    lk = array("i")
    offs = array("q", [0])
    statics = []
    for trace in program.threads:
        ka, la, ca, lka, static = trace_columns(trace)
        ks.extend(ka)
        ls.extend(la)
        cs.extend(ca)
        lk.extend(lka)
        offs.append(len(ks))
        statics.append(static)
    lkeys = array("i")
    loffs = array("i", [0])
    ltids = array("i")
    for lock_id, tids in program.lock_order.items():
        lkeys.append(lock_id)
        ltids.extend(tids)
        loffs.append(len(ltids))
    streams = (ks, ls, cs, lk, offs, statics, lkeys, loffs, ltids)
    program._c_streams = streams
    return streams


def run_native(
    design: str,
    program: Program,
    cfg: MachineConfig,
    warm: bool,
    prune_period: int,
) -> Optional[List[CoreStats]]:
    """Replay ``program`` on the C core; None means "use the Python path".

    Caller guarantees the run is uninstrumented (no tracer, profiler,
    fault plan, or media faults — the same gate as the Python fast path).
    """
    lib = _load()
    if lib is None:
        return None
    from repro.sim import fastcore

    if fastcore.TRACE is not None:  # debug per-op trace needs Python
        return None
    des = fastcore.DESIGN_IDS.get(design)
    if des is None:
        return None
    n = program.n_threads
    if n == 0 or n > cfg.n_cores:
        return None

    ks, ls, cs, lk, offs, statics, lkeys, loffs, ltids = (
        _program_streams(program)
    )
    warm_arr = program.touched_lines() if warm else array("q")

    # Resource parameters are read off freshly constructed controller
    # objects so the C core always sees the reference's own arithmetic
    # (e.g. media_interval = write_to_media / media_banks).
    from repro.persistency.intel_x86 import IntelX86Domain
    from repro.persistency.nonatomic import NonAtomicDomain
    from repro.sim.cpu import CoreEngine
    from repro.sim.memory import DRAMController, PMController

    pm = PMController(cfg.pm)
    dram = DRAMController()
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
        dram._bw.capacity,
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
        dram._bw.interval,
        cfg.pm.write_to_controller,
        cfg.pm.write_queue_entries * pm._media_interval,
        cfg.pm.read_latency,
        dram.latency,
        cfg.coherence_transfer,
        1.0 if cfg.pm.coalesce_writes else 0.0,
    ])

    out = array("q", bytes(8 * n * _OUT_STRIDE))
    rc = lib.rs_run(
        _ptr(fcfg, ctypes.c_double),
        _ptr(icfg, ctypes.c_int64),
        _ptr(ks, ctypes.c_int32),
        _ptr(ls, ctypes.c_int64),
        _ptr(cs, ctypes.c_int32),
        _ptr(lk, ctypes.c_int32),
        _ptr(offs, ctypes.c_int64),
        _ptr(lkeys, ctypes.c_int32),
        _ptr(loffs, ctypes.c_int32),
        _ptr(ltids, ctypes.c_int32),
        len(lkeys),
        _ptr(warm_arr, ctypes.c_int64),
        len(warm_arr),
        _ptr(out, ctypes.c_int64),
    )
    if rc != 0:
        # Deadlock or unsupported shape: the Python engines reproduce
        # the exact exception/result, so just decline.
        return None

    per_core: List[CoreStats] = []
    for t in range(n):
        static = statics[t]
        stats = CoreStats()
        base = t * _OUT_STRIDE
        stats.cycles = out[base + 0]
        stats.ops = offs[t + 1] - offs[t]
        stats.stores = static["stores"]
        stats.loads = static["loads"]
        stats.clwbs = static["clwbs"]
        stats.fences = static["fences"]
        stats.compute_cycles = static["compute_cycles"]
        stats.pm_writes = static["clwbs"]
        stats.l1_hits = out[base + 1]
        stats.l1_misses = out[base + 2]
        stats.pm_reads = out[base + 3]
        stats.stall_queue_full = out[base + 4]
        stats.stall_fence = out[base + 5]
        stats.stall_drain = out[base + 6]
        stats.stall_lock = out[base + 7]
        per_core.append(stats)
    return per_core
