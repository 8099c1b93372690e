"""The native core's build cache keeps one build per checkout.

A build into the checkout's own ``_build/`` removes the older
``_fastcore-*.so`` files there, which only earlier sources or flags
produced.  A ``REPRO_CC_CACHE`` directory may be shared with other
checkouts, so a build there removes nothing.  Each test compiles the
core once, from a copy of its source under ``tmp_path``.
"""

import shutil

import pytest

from repro.sim import cnative

pytestmark = pytest.mark.skipif(
    cnative._find_cc() is None, reason="no C compiler on PATH"
)


@pytest.fixture
def source_copy(monkeypatch, tmp_path):
    """A copy of the C source, so a load builds into ``<copy>/_build``."""
    src = tmp_path / "sim" / "_fastcore.c"
    src.parent.mkdir()
    shutil.copy(cnative._SRC, src)
    monkeypatch.setattr(cnative, "_SRC", str(src))
    monkeypatch.setattr(cnative, "_lib", None)
    monkeypatch.setattr(cnative, "_lib_failed", False)
    monkeypatch.delenv(cnative.BUILD_DIR_ENV, raising=False)
    return src.parent


def _plant(directory):
    """An older build, another process's unfinished build and a file
    that is no build at all."""
    directory.mkdir(parents=True, exist_ok=True)
    planted = {
        "stale": directory / "_fastcore-0123456789abcdef.so",
        "building": directory / "_fastcore-fedcba9876543210.so.tmp99",
        "unrelated": directory / "notes.txt",
    }
    for path in planted.values():
        path.write_bytes(b"not the current build")
    return planted


def _builds(directory):
    return sorted(path.name for path in directory.glob("_fastcore-*.so"))


def test_a_build_drops_the_checkouts_older_builds(source_copy):
    build_dir = source_copy / "_build"
    planted = _plant(build_dir)
    assert cnative._load() is not None
    assert not planted["stale"].exists()
    assert planted["building"].exists() and planted["unrelated"].exists()
    assert len(_builds(build_dir)) == 1


def test_a_build_into_a_shared_cache_removes_nothing(source_copy, monkeypatch, tmp_path):
    cache = tmp_path / "cache"
    planted = _plant(cache)
    monkeypatch.setenv(cnative.BUILD_DIR_ENV, str(cache))
    assert cnative._load() is not None
    assert all(path.exists() for path in planted.values())
    assert len(_builds(cache)) == 2
    assert not (source_copy / "_build").exists()
