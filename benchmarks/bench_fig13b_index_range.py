"""Figure 13(b): the index-based methods over a wider record range.

Paper shape: IN and LO scale smoothly across the extended range, LO at or
below IN (the bounding-box pre-counting only removes record comparisons).
"""

import pytest
from conftest import BENCH_SCALE, make_workload, regenerate

from repro.core.algorithms import make_algorithm


def test_fig13b_regenerate(benchmark):
    report = regenerate(benchmark, "fig13b")
    algorithms = {r.algorithm for r in report.results}
    assert algorithms == {"IN", "LO"}
    # LO examines no more record pairs than IN at every sweep point.
    by_point = {}
    for r in report.results:
        by_point.setdefault(r.params["n_records"], {})[r.algorithm] = r
    for n, point in by_point.items():
        assert (
            point["LO"].record_pairs <= point["IN"].record_pairs
        ), n


@pytest.mark.parametrize("algorithm", ["IN", "LO"])
def test_bench_fig13b_backends(benchmark, algorithm):
    """Index-method cost on the packed R-tree."""
    dataset = make_workload(BENCH_SCALE)
    engine = make_algorithm(algorithm, 0.5)
    result = benchmark.pedantic(
        engine.compute, args=(dataset,), iterations=1, rounds=3
    )
    assert len(result) >= 1
