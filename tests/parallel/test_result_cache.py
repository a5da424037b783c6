"""Content-addressed result cache: round trips and short-circuiting."""

from __future__ import annotations

import os
import stat

from helpers import small_config

from repro.harness.experiment import run_matrix, sweep_session
from repro.parallel import cells
from repro.parallel.cache import ResultCache, cache_key
from repro.parallel.cells import Cell

WORKLOAD = "bfs"


def _cell(**overrides) -> Cell:
    defaults = dict(
        label="tiny", workload=WORKLOAD, config=small_config(), miss_scale=1.0
    )
    defaults.update(overrides)
    return Cell(**defaults)


def test_cache_key_is_content_addressed_not_label_addressed():
    # Two series labels over the identical machine share one entry;
    # any config difference splits them.
    assert cache_key(_cell(label="a")) == cache_key(_cell(label="b"))
    assert cache_key(_cell()) != cache_key(
        _cell(config=small_config(warmup_instructions=7))
    )
    assert cache_key(_cell()) != cache_key(_cell(workload="kmeans"))
    assert cache_key(_cell()) != cache_key(_cell(miss_scale=2.0))


def test_round_trip_is_byte_identical(tmp_path):
    cache = ResultCache(str(tmp_path))
    cell = _cell()
    result = cells.simulate_cell(cell)
    cache.put(cell, result)
    restored = cache.get(cell)
    assert restored is not None
    assert restored.canonical_json() == result.canonical_json()
    assert cache.hits == 1 and cache.stores == 1 and len(cache) == 1


def test_put_fsyncs_the_entry_before_the_rename_and_the_dir_after(
    tmp_path, monkeypatch
):
    # Durability: the entry's bytes reach the disk before its name
    # does, and the name itself (the directory) after the rename.
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        calls.append(kind)
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    cache = ResultCache(str(tmp_path))
    cell = _cell()
    result = cells.simulate_cell(cell)
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    cache.put(cell, result)
    assert calls == ["file", "replace", "dir"]
    assert cache.get(cell).canonical_json() == result.canonical_json()


def test_corrupt_entry_degrades_to_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    cell = _cell()
    cache.put(cell, cells.simulate_cell(cell))
    key = cache_key(cell)
    path = os.path.join(cache.root, key[:2], f"{key}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{torn")
    assert cache.get(cell) is None
    assert cache.misses == 1


def test_cache_hit_short_circuits_simulation(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    configs = {"tiny": lambda: small_config()}
    with sweep_session(cache_dir=cache_dir):
        first = run_matrix(configs, workloads=[WORKLOAD])

    def _boom(*args, **kwargs):
        raise AssertionError("cell was re-simulated despite cache entry")

    monkeypatch.setattr(cells, "simulate_cell", _boom)
    with sweep_session(cache_dir=cache_dir):
        second = run_matrix(configs, workloads=[WORKLOAD])
    a = first["tiny"][WORKLOAD]
    b = second["tiny"][WORKLOAD]
    assert a.canonical_json() == b.canonical_json()


def test_cache_is_shared_across_series_labels(tmp_path, monkeypatch):
    # A second sweep running the same machine under a different label
    # reuses the entry: content addressing, not label addressing.
    cache_dir = str(tmp_path / "cache")
    with sweep_session(cache_dir=cache_dir):
        run_matrix({"first": lambda: small_config()}, workloads=[WORKLOAD])

    def _boom(*args, **kwargs):
        raise AssertionError("identical machine re-simulated")

    monkeypatch.setattr(cells, "simulate_cell", _boom)
    with sweep_session(cache_dir=cache_dir):
        renamed = run_matrix(
            {"second": lambda: small_config()}, workloads=[WORKLOAD]
        )
    assert renamed["second"][WORKLOAD].cycles > 0
