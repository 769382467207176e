"""Columnar backbone benchmarks: store v1 vs v2, pack and index build.

Measures, at the scale set by ``REPRO_BENCH_SCALE``:

* **build** — assembling the columnar ``GroupedDataset`` from a dict of
  per-group arrays;
* **save/load, v1 vs v2** — the legacy one-member-per-group archive against
  the columnar single-matrix + offsets layout (v2 loads are ``mmap``-backed
  and must be **≥5× faster**, the headline claim of the format change);
* **peak memory** of the two load paths (tracemalloc, python-side);
* **index build** — ``FlatRTree.bulk_load_points`` straight from the corner
  matrix vs from corners gathered per ``Group`` object (identical output
  asserted);
* **pool pack** — ``ship_groups`` buffer handoff from columnar views vs the
  re-flatten fallback for standalone groups.

A summary table is written to ``benchmarks/results/columnar_<scale>.txt``;
run via ``make columnar-bench``.
"""

from __future__ import annotations

import os
import resource
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.groups import Group, GroupedDataset
from repro.data.store import load_grouped, save_grouped
from repro.index.rtree import FlatRTree
from repro.parallel.shm import ShmArena, _contiguous_block, ship_groups

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")

#: Number of groups per scale.  The acceptance claim is pinned at the
#: 50k-group size of the paper's Figure 12/13 sweeps.
GROUPS = {"smoke": 50_000, "small": 50_000, "paper": 200_000}

MIN_LOAD_SPEEDUP = 5.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _peak_traced(fn):
    tracemalloc.start()
    try:
        result, elapsed = _timed(fn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, elapsed, peak


@pytest.fixture(scope="module")
def raw_groups():
    count = GROUPS.get(BENCH_SCALE, GROUPS["smoke"])
    rng = np.random.default_rng(7)
    return {f"g{i}": rng.random((1 + (i % 3), 4)) for i in range(count)}


@pytest.fixture(scope="module")
def report_lines():
    lines: list = []
    yield lines
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"columnar_{BENCH_SCALE}.txt"
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append(f"process peak RSS: {rss_mb:.1f} MB")
    out.write_text("\n".join(str(line) for line in lines) + "\n")


def test_store_v1_vs_v2(tmp_path_factory, raw_groups, report_lines):
    tmp = tmp_path_factory.mktemp("columnar")
    dataset, build_s = _timed(lambda: GroupedDataset(raw_groups))
    report_lines.append(
        f"groups={len(dataset)} records={dataset.total_records} "
        f"d={dataset.dimensions} scale={BENCH_SCALE}"
    )
    report_lines.append(f"columnar build: {build_s:.3f}s")

    v1 = tmp / "v1.npz"
    v2 = tmp / "v2.npz"
    _, save_v1 = _timed(lambda: save_grouped(dataset, v1, version=1))
    _, save_v2 = _timed(lambda: save_grouped(dataset, v2, version=2))
    loaded_v1, load_v1, peak_v1 = _peak_traced(lambda: load_grouped(v1))
    loaded_v2, load_v2, peak_v2 = _peak_traced(lambda: load_grouped(v2))

    report_lines.append(
        f"v1 save: {save_v1:.3f}s  load: {load_v1:.3f}s  "
        f"load peak: {peak_v1 / 1e6:.1f}MB  size: {v1.stat().st_size / 1e6:.1f}MB"
    )
    report_lines.append(
        f"v2 save: {save_v2:.3f}s  load: {load_v2:.3f}s  "
        f"load peak: {peak_v2 / 1e6:.1f}MB  size: {v2.stat().st_size / 1e6:.1f}MB"
    )
    speedup = load_v1 / max(load_v2, 1e-9)
    report_lines.append(f"v2 load speedup over v1: {speedup:.1f}x")

    assert loaded_v1.fingerprint() == dataset.fingerprint()
    assert loaded_v2.fingerprint() == dataset.fingerprint()
    assert speedup >= MIN_LOAD_SPEEDUP, (
        f"v2 load only {speedup:.1f}x faster than v1 "
        f"(required >= {MIN_LOAD_SPEEDUP}x)"
    )


def test_index_build_from_corners(raw_groups, report_lines):
    dataset = GroupedDataset(raw_groups)
    corners = dataset.max_corners

    direct, direct_s = _timed(lambda: FlatRTree.bulk_load_points(corners))

    groups = dataset.groups
    objects, object_s = _timed(
        lambda: FlatRTree.bulk_load_points(
            np.array([group.bbox.max_corner for group in groups]),
            np.array([group.index for group in groups], dtype=np.int64),
        )
    )
    report_lines.append(
        f"index build: corners {direct_s:.3f}s vs objects {object_s:.3f}s "
        f"({object_s / max(direct_s, 1e-9):.1f}x)"
    )
    for name in FlatRTree._ARRAY_FIELDS:
        assert np.array_equal(getattr(direct, name), getattr(objects, name))


def test_pool_pack_handoff(raw_groups, report_lines):
    dataset = GroupedDataset(raw_groups)
    columnar_views = dataset.groups
    assert _contiguous_block(columnar_views) is not None
    standalone = [
        Group(group.key, np.array(group.values), index=group.index)
        for group in columnar_views
    ]
    assert _contiguous_block(standalone) is None

    with ShmArena() as arena:
        _, fast_s = _timed(lambda: ship_groups(columnar_views, arena))
    with ShmArena() as arena:
        _, slow_s = _timed(lambda: ship_groups(standalone, arena))
    report_lines.append(
        f"pool pack: columnar handoff {fast_s:.3f}s vs re-flatten "
        f"{slow_s:.3f}s ({slow_s / max(fast_s, 1e-9):.1f}x)"
    )
