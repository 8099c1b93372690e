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

Re-record (only for a deliberate change to the generated traces)::

    PYTHONPATH=src python tests/sim/test_op_stream_pins.py --record
"""

import hashlib
import json
import os
import sys

import pytest

from repro.harness.experiment import default_config
from repro.lang.dialect import DIALECTS
from repro.lang.specialize import MARK_PREFIX
from repro.sim import cnative
from repro.sim.fastcore import compile_trace
from repro.workloads import WORKLOADS
from repro.workloads.base import generate, generate_canonical, make_model, specialize_run

DATA = os.path.join(os.path.dirname(__file__), "data", "pinned_op_streams.json")

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
    """``trace``'s replay columns and op-mix totals equal
    :func:`compile_trace` of its built ops."""
    ka, la, ca, lka, static = cnative.trace_columns(trace)
    kinds, lines, cycles, lock_ids, fresh_static = compile_trace(
        type("T", (), {"ops": trace.ops, "_compiled": None})()
    )
    assert list(ka) == kinds
    assert list(la) == lines
    assert list(ca) == cycles
    assert list(lka) == lock_ids
    assert static == fresh_static


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


def record() -> dict:
    out = {}
    for bench, variant in _cases():
        model, opr = _model_of(variant)
        cfg = _cfg(opr)
        canonical = generate_canonical(WORKLOADS[bench], cfg, model)
        out[f"{bench}/{variant}/marker"] = program_digest(canonical.program)
        for dialect in DIALECT_DESIGNS:
            direct = generate(
                WORKLOADS[bench], cfg, DIALECTS[dialect](), make_model(model)
            )
            out[f"{bench}/{variant}/{dialect}"] = program_digest(direct.program)
    return out


@pytest.fixture(scope="module")
def pinned():
    with open(DATA, "r", encoding="utf-8") as fh:
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_op_stream_pins.py --record")
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
