"""Ablations: each optimisation toggle measured in isolation (DESIGN.md §6).

Not a paper figure, but the per-optimisation accounting behind Section 3.5's
summary of improvements: stopping rule, bounding-box counting, sort key
and pruning policy.
"""

import pytest
from conftest import BENCH_SCALE, make_workload, regenerate

from repro.core.algorithms import make_algorithm


def test_ablations_regenerate(benchmark):
    report = regenerate(benchmark, "ablations")
    timings = {r.algorithm: r for r in report.results}

    stop_on = timings["NL / stop rule ON"]
    stop_off = timings["NL / stop rule OFF"]
    assert stop_on.record_pairs <= stop_off.record_pairs

    bbox_on = timings["IN / bbox counting ON"]
    bbox_off = timings["IN / r-tree"]
    assert bbox_on.record_pairs <= bbox_off.record_pairs

    paper = timings["TR / paper pruning"]
    safe = timings["TR / safe pruning"]
    assert paper.group_comparisons <= safe.group_comparisons
    # On this workload the pruning policies agree on the result.
    assert paper.skyline_keys == safe.skyline_keys


@pytest.mark.parametrize(
    "label,algorithm,options",
    [
        ("stop-rule-off", "NL", {"use_stopping_rule": False}),
        ("stop-rule-on", "NL", {}),
        ("bbox-off", "IN", {}),
        ("bbox-on", "IN", {"use_bbox": True}),
        ("prune-paper", "TR", {"prune_policy": "paper"}),
        ("prune-safe", "TR", {"prune_policy": "safe"}),
        ("sort-size-corner", "SI", {"sort_key": "size_corner"}),
        ("sort-corner-distance", "SI", {"sort_key": "corner_distance"}),
    ],
)
def test_bench_ablation_variants(benchmark, label, algorithm, options):
    dataset = make_workload(BENCH_SCALE)
    engine = make_algorithm(algorithm, 0.5, **options)
    result = benchmark.pedantic(
        engine.compute, args=(dataset,), iterations=1, rounds=3
    )
    assert len(result) >= 1
