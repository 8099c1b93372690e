"""Crash-state generation: cut enumeration, sampling, materialisation."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.crash import (
    enumerate_cuts,
    frontier_cut,
    materialise,
    prefix_cut,
    random_cut,
)
from repro.core.model import PersistDag
from repro.core.ops import Program, TraceCursor
from repro.pmem.space import PersistentMemory


def chain_program(n=4, barrier=True):
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    for i in range(n):
        cur.store(i * 64, bytes([i + 1]) + b"\x00" * 7, label=f"S{i}")
        if barrier and i < n - 1:
            cur.persist_barrier()
    return prog


def test_enumerate_cuts_chain_count():
    # A fully ordered chain of n stores has exactly n+1 cuts.
    dag = PersistDag(chain_program(4, barrier=True))
    cuts = list(enumerate_cuts(dag))
    assert len(cuts) == 5


def test_enumerate_cuts_deeper_than_the_recursion_limit():
    # The search keeps its own stack: a chain DAG deeper than Python's
    # recursion limit still yields its first cut, the empty set.
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    for i in range(sys.getrecursionlimit() + 200):
        cur.store(i * 64, b"\x01" * 8)
        cur.persist_barrier()
    dag = PersistDag(prog)
    assert len(dag) > sys.getrecursionlimit()
    assert next(enumerate_cuts(dag)) == set()


def test_enumerate_cuts_independent_count():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    for i in range(3):
        cur.store(i * 64, bytes([1] * 8))
        cur.new_strand()
    dag = PersistDag(prog)
    assert len(list(enumerate_cuts(dag))) == 8


def test_enumerate_cuts_limit():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    for i in range(20):
        cur.store(i * 64, b"\x01" * 8)
        cur.new_strand()
    dag = PersistDag(prog)
    with pytest.raises(ValueError):
        list(enumerate_cuts(dag, limit=100))


def test_prefix_cut_is_consistent():
    dag = PersistDag(chain_program(4))
    for k in range(len(dag) + 1):
        assert dag.is_consistent_cut(prefix_cut(dag, k))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_random_cut_always_consistent(seed, density):
    dag = PersistDag(chain_program(5))
    cut = random_cut(dag, random.Random(seed), density)
    assert dag.is_consistent_cut(cut)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(0.0, 0.9))
@settings(max_examples=40, deadline=None)
def test_frontier_cut_always_consistent(seed, drop):
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    for i in range(6):
        cur.store((i % 3) * 64, bytes([i + 1]) + b"\x00" * 7)
        if i % 2:
            cur.persist_barrier()
        else:
            cur.new_strand()
    dag = PersistDag(prog)
    cut = frontier_cut(dag, random.Random(seed), drop)
    assert dag.is_consistent_cut(cut)


def test_materialise_applies_in_visibility_order():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    cur.store(0, b"\x01" + b"\x00" * 7, label="first")
    cur.persist_barrier()
    cur.store(0, b"\x02" + b"\x00" * 7, label="second")
    dag = PersistDag(prog)
    pm = PersistentMemory(4096)
    pm.mark_clean()
    img = materialise(dag, {0, 1}, pm)
    assert img.read_u64(0) == 2
    img = materialise(dag, {0}, pm)
    assert img.read_u64(0) == 1


def test_materialise_ignores_virtual_nodes():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    cur.store(0, b"\x01" + b"\x00" * 7)
    cur.join_strand()
    cur.store(64, b"\x01" + b"\x00" * 7)
    dag = PersistDag(prog)
    pm = PersistentMemory(4096)
    pm.mark_clean()
    full = materialise(dag, set(range(len(dag))), pm)
    assert full.read_u64(0) == 1 and full.read_u64(64) == 1


def test_materialise_does_not_mutate_source():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    cur.store(0, b"\xff" * 8)
    dag = PersistDag(prog)
    pm = PersistentMemory(4096)
    pm.mark_clean()
    materialise(dag, {0}, pm)
    assert pm.read_u64(0) == 0
