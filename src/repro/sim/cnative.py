"""ctypes loader for the native replay core (``_fastcore.c``).

The simulator has two replay tiers:

``native C core`` -> ``reference per-op engine``

:meth:`repro.sim.machine.Machine.run` tries the C core on every
uninstrumented run (no tracer, fault plan or media faults).
Everything else, and every run the core declines, replays on the
reference engine (:mod:`repro.sim.cpu` plus the persistency domains),
which the C core ports.  Bit-identity between the two is pinned by
``tests/sim/test_fastcore_identity.py`` and the engine-identity pins.

The core is compiled on demand from the single-file source next to
this module with whatever C compiler the host provides (``cc``/``gcc``/
``clang``), cached by source hash under ``_build/`` (or the directory
named by ``REPRO_CC_CACHE``), and loaded with ctypes — no CPython
headers, no third-party packages.  If it cannot be built or loaded, the
first attempt emits one ``RuntimeWarning`` per process naming the
reason (no compiler on PATH, the compiler's exit status and first
stderr line, or the ctypes load error) and every run replays on the
reference engine: the same results, one to two orders of magnitude
slower.

Determinism: the build uses ``-ffp-contract=off`` so no FMA contraction
changes double rounding, and the core itself mirrors the reference
engine's arithmetic operation-for-operation (see the C file header).

Error protocol: the core returns non-zero for *anything* it does not
model (replay deadlock, a fence foreign to the design, allocation
failure) and :func:`run_native` then returns ``None``, silently — the
reference engine re-runs the program and raises the exact exception,
or produces the result.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
import warnings
from array import array
from typing import List, Optional

from repro.core.ops import CACHE_LINE, ColumnTrace, OpKind, Program, ThreadTrace
from repro.sim.config import MachineConfig
from repro.sim.stats import CoreStats

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


def _compile(src: str, out: str) -> Optional[str]:
    """Build ``src`` into the shared library ``out``; None on success,
    else the reason it could not."""
    cc = _find_cc()
    if cc is None:
        return "no C compiler (cc, gcc or clang) on PATH"
    tmp = out + f".tmp{os.getpid()}"
    cmd = [
        cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
        "-o", tmp, src, "-lm",
    ]
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
        tag = hashlib.sha256(src_bytes).hexdigest()[:16]
        build_dir = _build_dir()
        so_path = os.path.join(build_dir, f"_fastcore-{tag}.so")
        if not os.path.exists(so_path):
            try:
                os.makedirs(build_dir, exist_ok=True)
            except OSError:
                build_dir = tempfile.gettempdir()
                so_path = os.path.join(build_dir, f"repro-fastcore-{tag}.so")
            if not os.path.exists(so_path):
                reason = _compile(_SRC, so_path)
                if reason is not None:
                    return _unavailable(reason)
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


def _op_mix(trace: ColumnTrace) -> dict:
    """Replay-invariant op-mix totals of one thread, counted at C speed
    (every op executes exactly once, so the core needs no per-op
    counters); equal to the ``static`` of :func:`compile_trace`."""
    count = trace.kind_bytes().count
    return {
        "stores": count(OpKind.STORE) + count(OpKind.VSTORE),
        "loads": count(OpKind.LOAD) + count(OpKind.VLOAD),
        "clwbs": count(OpKind.CLWB),
        "fences": sum(count(k) for k in range(OpKind.SFENCE, OpKind.DFENCE + 1)),
        "compute_cycles": sum(trace.cycles),  # only COMPUTE ops carry cycles
    }


#: op kinds by the op-mix total they count towards.
_MIX_OF = {
    OpKind.STORE: "stores", OpKind.VSTORE: "stores",
    OpKind.LOAD: "loads", OpKind.VLOAD: "loads",
    OpKind.CLWB: "clwbs",
    **{k: "fences" for k in OpKind if OpKind.SFENCE <= k <= OpKind.DFENCE},
}


def compile_trace(trace: ThreadTrace):
    """Replay columns ``(kinds, lines, cycles, lock_ids, static)`` of a
    hand-built op-list trace (litmus cases, repairs, tests), with the
    op-mix totals ``static`` counted op by op."""
    ops = trace.ops
    static = dict.fromkeys(("stores", "loads", "clwbs", "fences"), 0)
    compute_cycles = 0
    for op in ops:
        mix = _MIX_OF.get(op.kind)
        if mix is not None:
            static[mix] += 1
        elif op.kind is OpKind.COMPUTE:
            compute_cycles += op.cycles
    static["compute_cycles"] = compute_cycles
    return (
        array("i", [int(op.kind) for op in ops]),
        array("q", [op.addr // CACHE_LINE for op in ops]),
        array("i", [op.cycles for op in ops]),
        array("i", [op.lock_id for op in ops]),
        static,
    )


def trace_columns(trace: ThreadTrace):
    """C-ready ``(kinds, lines, cycles, lock_ids, static)`` of one thread,
    cached on the trace (traces are immutable once replayed).

    A generated :class:`ColumnTrace` is replayed from the columns it was
    born as, without building an op; a hand-built op list is compiled
    once by :func:`compile_trace`.
    """
    cached = getattr(trace, "_replay_columns", None)
    if cached is None:
        if isinstance(trace, ColumnTrace):
            cached = (
                trace.kinds, trace.lines, trace.cycles, trace.lock_ids, _op_mix(trace)
            )
        else:
            cached = compile_trace(trace)
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
    """Replay ``program`` on the C core; None means "replay it on the
    reference engine".

    Caller guarantees the run is uninstrumented (no tracer, fault plan,
    or media faults).
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
    with _run_lock:
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
        # Deadlock or unsupported shape: the reference engine reproduces
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
