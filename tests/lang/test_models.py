"""Language-model region semantics: ATLAS nesting, SFR boundaries."""

import pytest

from repro.core.ops import OpKind
from repro.lang.atlas import AtlasModel
from repro.lang.dialect import StrandDialect
from repro.lang.logbuf import LogLayout
from repro.lang.runtime import PmRuntime
from repro.lang.sfr import SfrModel
from repro.pmem.space import PersistentMemory


def make_runtime(model):
    layout = LogLayout(base=64, capacity=128, n_threads=1)
    space = PersistentMemory(layout.end + 4096)
    return PmRuntime(space, layout, StrandDialect(), model, 1), space, layout


def heap(layout):
    return (layout.end + 63) & ~63


def entry_types(space, layout):
    return [e.type_name for e in layout.scan(space, 0)]


class TestAtlas:
    def test_outermost_critical_section_is_one_region(self):
        rt, space, layout = make_runtime(AtlasModel(durable_commit=True))
        addr = heap(layout)
        rt.lock(0, 1)
        rt.lock(0, 2)  # nested: same region
        rt.store(0, addr, b"\x01" * 8)
        rt.unlock(0, 2)
        rt.store(0, addr + 8, b"\x01" * 8)
        rt.unlock(0, 1)  # outermost release commits
        assert len(rt.committed_regions(0)) == 1

    def test_nested_sync_ops_are_logged(self):
        rt, space, layout = make_runtime(AtlasModel())
        addr = heap(layout)
        rt.lock(0, 1)
        rt.lock(0, 2)
        rt.store(0, addr, b"\x01" * 8)
        rt.unlock(0, 2)
        rt.unlock(0, 1)
        types = entry_types(space, layout)
        assert types.count("acquire") >= 2  # outermost + nested
        assert types.count("release") >= 2

    def test_atlas_adds_sync_compute(self):
        rt, _, layout = make_runtime(AtlasModel())
        rt.lock(0, 1)
        rt.unlock(0, 1)
        computes = [
            op for op in rt.program.threads[0].ops if op.kind is OpKind.COMPUTE
        ]
        assert sum(op.cycles for op in computes) >= 2 * AtlasModel.SYNC_COMPUTE


class TestSfr:
    def test_nested_lock_splits_sfrs(self):
        rt, space, layout = make_runtime(SfrModel(commit_batch=100))
        addr = heap(layout)
        rt.lock(0, 1)
        rt.store(0, addr, b"\x01" * 8)
        rt.lock(0, 2)  # sync op: ends the first SFR, begins another
        rt.store(0, addr + 8, b"\x01" * 8)
        rt.unlock(0, 2)
        rt.unlock(0, 1)
        rt.finish(0)
        # Two SFRs (plus log entries) committed.
        assert len(rt.committed_regions(0)) >= 2

    def test_sfr_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            SfrModel(commit_batch=0)
