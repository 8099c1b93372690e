"""YCSB key-generator tests."""

import random
from collections import Counter

import pytest

from repro.workloads.ycsb import (
    ScrambledZipfianGenerator,
    ZipfianGenerator,
    fnv1a_64,
)


def test_zipfian_in_range():
    gen = ZipfianGenerator(100, random.Random(1))
    assert all(0 <= gen.next() < 100 for _ in range(500))


def test_zipfian_is_skewed():
    gen = ZipfianGenerator(1000, random.Random(2))
    counts = Counter(gen.next() for _ in range(5000))
    top = counts.most_common(10)
    assert sum(c for _, c in top) > 5000 * 0.3  # heavy head


def test_scrambled_zipfian_spreads_hot_keys():
    gen = ScrambledZipfianGenerator(1000, random.Random(3))
    counts = Counter(gen.next() for _ in range(5000))
    hottest = counts.most_common(5)
    keys = [k for k, _ in hottest]
    assert max(keys) - min(keys) > 50  # not clustered at 0..4


def test_fnv_hash_deterministic():
    assert fnv1a_64(42) == fnv1a_64(42)
    assert fnv1a_64(42) != fnv1a_64(43)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        ZipfianGenerator(0, random.Random(0))
    with pytest.raises(ValueError):
        ZipfianGenerator(10, random.Random(0), theta=1.5)
