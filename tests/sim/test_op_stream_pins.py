"""Op-stream pins: every generated program, digested field by field.

``tests/sim/data/pinned_op_streams.json`` holds, per generated program, a
sha256 of every :class:`~repro.core.ops.Op` field of each thread plus the
lock order and the global visibility counter.  It was recorded before
trace generation learned to emit straight into replay columns, so it
pins the op stream itself.  The specialize-vs-direct identity suite
(``test_fastcore_identity.py``) cannot catch a change that both paths
share; these digests can.

Coverage: all 8 benchmarks x {txn, atlas, sfr with 1 and 4 ops per SFR,
redo-txn} x {the marker program, strand, x86, hops, non-atomic}.  Each
concrete dialect is checked twice: generated directly and specialized
from the marker program.

``pinned_wrap_op_streams.json`` pins, in the same format, runs whose
circular undo log wraps: 8 benchmarks x {txn, sfr with 4 ops per SFR},
each with a per-thread log just large enough for its peak of live
entries, so every thread's tail passes the end of its log at least twice
and none raises ``LogError``.  No other pinned or benchmark scale wraps
a log (the first wrap comes at 1,024 ops per thread).

Re-record (only for a deliberate change to the generated traces)::

    PYTHONPATH=src python tests/sim/test_op_stream_pins.py --record
"""

import hashlib
import json
import os
import sys
from array import array
from dataclasses import replace

import pytest

from repro.core.ops import CACHE_LINE, OpKind
from repro.harness.experiment import default_config
from repro.lang.dialect import DIALECTS
from repro.lang.specialize import MARK_PREFIX
from repro.sim import cnative
from repro.workloads import WORKLOADS
from repro.workloads.base import generate, generate_canonical, make_model, specialize_run

DATA = os.path.join(os.path.dirname(__file__), "data", "pinned_op_streams.json")
WRAP_DATA = os.path.join(
    os.path.dirname(__file__), "data", "pinned_wrap_op_streams.json"
)

OPS_PER_THREAD = 4

#: (variant name, model name, ops per failure-atomic region)
MODELS = (
    ("txn", "txn", 1),
    ("atlas", "atlas", 1),
    ("sfr1", "sfr", 1),
    ("sfr4", "sfr", 4),
    ("redo-txn", "redo-txn", 1),
)

#: dialect name -> a design replaying its traces (specialize_run's key).
DIALECT_DESIGNS = {
    "strand": "strandweaver",
    "x86": "intel-x86",
    "hops": "hops",
    "non-atomic": "non-atomic",
}


#: wrap variant -> (model name, ops per region, ops per thread)
WRAP_MODELS = {
    "txn": ("txn", 1, 16),
    "sfr4": ("sfr", 4, 48),
}

#: (benchmark, wrap variant) -> per-thread log entries: the run's peak
#: of live entries in one thread, so the fullest log fills exactly.
WRAP_LOG_ENTRIES = {
    ("queue", "txn"): 6, ("queue", "sfr4"): 66,
    ("hashmap", "txn"): 5, ("hashmap", "sfr4"): 29,
    ("arrayswap", "txn"): 4, ("arrayswap", "sfr4"): 24,
    ("rbtree", "txn"): 24, ("rbtree", "sfr4"): 204,
    ("tpcc", "txn"): 17, ("tpcc", "sfr4"): 82,
    ("nstore-rd", "txn"): 3, ("nstore-rd", "sfr4"): 17,
    ("nstore-bal", "txn"): 3, ("nstore-bal", "sfr4"): 19,
    ("nstore-wr", "txn"): 3, ("nstore-wr", "sfr4"): 22,
}


def program_digest(program) -> dict:
    """sha256 of every op field per thread, plus lock order and gseq."""
    threads = []
    for trace in program.threads:
        h = hashlib.sha256()
        for op in trace.ops:
            h.update(
                repr(
                    (
                        int(op.kind), op.addr, op.size, op.data, op.lock_id,
                        op.cycles, op.tid, op.seq, op.gseq, op.region, op.label,
                    )
                ).encode()
            )
            h.update(b"\n")
        threads.append(h.hexdigest())
    lock_order = hashlib.sha256(
        repr(list(program.lock_order.items())).encode()
    ).hexdigest()
    return {
        "threads": threads,
        "lock_order": lock_order,
        "next_gseq": program._next_gseq,
    }


def assert_columns_match_ops(trace):
    """``trace``'s replay columns and op-mix totals equal those built here,
    op by op, from its built ops."""
    ops = trace.ops
    kinds = [op.kind for op in ops]
    fences = range(OpKind.SFENCE, OpKind.DFENCE + 1)
    columns = (trace.kinds, trace.lines, trace.cycles, trace.lock_ids)
    assert (*columns, cnative._op_mix(trace.kinds, trace.cycles)) == (
        array("i", kinds),
        array("q", [op.addr // CACHE_LINE for op in ops]),
        array("i", [op.cycles for op in ops]),
        array("i", [op.lock_id for op in ops]),
        {
            "stores": kinds.count(OpKind.STORE),
            "loads": kinds.count(OpKind.LOAD),
            "clwbs": kinds.count(OpKind.CLWB),
            "fences": sum(kind in fences for kind in kinds),
            "compute_cycles": sum(
                op.cycles for op in ops if op.kind is OpKind.COMPUTE
            ),
        },
    )


def _cfg(ops_per_region):
    return default_config(
        ops_per_thread=OPS_PER_THREAD, ops_per_region=ops_per_region
    )


def _cases():
    for bench in WORKLOADS:
        for variant, _model, _opr in MODELS:
            yield bench, variant


def _model_of(variant):
    for name, model, opr in MODELS:
        if name == variant:
            return model, opr
    raise KeyError(variant)


def _wrap_cfg(bench, variant):
    _model, opr, ops = WRAP_MODELS[variant]
    return replace(
        default_config(ops_per_thread=ops, ops_per_region=opr),
        log_entries=WRAP_LOG_ENTRIES[bench, variant],
    )


def _record_cases(cases, cfg_of, model_of) -> dict:
    out = {}
    for bench, variant in cases:
        model, cfg = model_of(variant), cfg_of(bench, variant)
        canonical = generate_canonical(WORKLOADS[bench], cfg, model)
        out[f"{bench}/{variant}/marker"] = program_digest(canonical.program)
        for dialect in DIALECT_DESIGNS:
            direct = generate(
                WORKLOADS[bench], cfg, DIALECTS[dialect](), make_model(model)
            )
            out[f"{bench}/{variant}/{dialect}"] = program_digest(direct.program)
    return out


def record() -> dict:
    return _record_cases(
        _cases(),
        lambda _bench, variant: _cfg(_model_of(variant)[1]),
        lambda variant: _model_of(variant)[0],
    )


def record_wrap() -> dict:
    return _record_cases(
        WRAP_LOG_ENTRIES, _wrap_cfg, lambda variant: WRAP_MODELS[variant][0]
    )


@pytest.fixture(scope="module")
def pinned():
    with open(DATA, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pinned_wrap():
    with open(WRAP_DATA, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("bench,variant", list(_cases()))
def test_op_streams_match_pins(pinned, bench, variant):
    """Marker program, direct generation and specialization all
    reproduce the pinned op streams field for field; every trace's
    born or derived replay columns equal a compile of its built ops,
    and the marker sites recorded at emission equal a label scan."""
    model, opr = _model_of(variant)
    cfg = _cfg(opr)
    canonical = generate_canonical(WORKLOADS[bench], cfg, model)
    key = f"{bench}/{variant}"
    assert program_digest(canonical.program) == pinned[f"{key}/marker"], key
    for trace in canonical.program.threads:
        assert_columns_match_ops(trace)
        assert trace.marker_sites == [
            (i, op.label)
            for i, op in enumerate(trace.ops)
            if op.label.startswith(MARK_PREFIX)
        ]
    for dialect, design in DIALECT_DESIGNS.items():
        want = pinned[f"{key}/{dialect}"]
        direct = generate(
            WORKLOADS[bench], cfg, DIALECTS[dialect](), make_model(model)
        )
        assert program_digest(direct.program) == want, f"{key}/{dialect} direct"
        spec = specialize_run(canonical, design)
        assert program_digest(spec.program) == want, f"{key}/{dialect} specialized"
        for trace in direct.program.threads + spec.program.threads:
            assert_columns_match_ops(trace)


@pytest.mark.parametrize("bench,variant", list(WRAP_LOG_ENTRIES))
def test_wrapping_log_op_streams_match_pins(pinned_wrap, bench, variant):
    """With a log sized to the run's peak of live entries, every thread
    writes more than twice its capacity of log entries, and the marker
    program, direct generation and specialization reproduce the pins."""
    model = WRAP_MODELS[variant][0]
    cfg = _wrap_cfg(bench, variant)
    canonical = generate_canonical(WORKLOADS[bench], cfg, model)
    key = f"{bench}/{variant}"
    for trace in canonical.program.threads:
        entries = sum(
            1 for op in trace.ops
            if op.kind is OpKind.STORE and op.label.startswith("log:")
        )
        assert entries > 2 * cfg.log_entries, (key, trace.tid, entries)
    assert program_digest(canonical.program) == pinned_wrap[f"{key}/marker"], key
    for dialect, design in DIALECT_DESIGNS.items():
        want = pinned_wrap[f"{key}/{dialect}"]
        direct = generate(
            WORKLOADS[bench], cfg, DIALECTS[dialect](), make_model(model)
        )
        assert program_digest(direct.program) == want, f"{key}/{dialect} direct"
        spec = specialize_run(canonical, design)
        assert program_digest(spec.program) == want, f"{key}/{dialect} specialized"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_op_stream_pins.py --record")
    for path, digests in ((DATA, record()), (WRAP_DATA, record_wrap())):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
