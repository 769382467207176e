"""Serial-vs-parallel speedup of the pooled algorithms.

Two workloads, two claims:

* **PAR on anti-correlated** — regenerates the ``parallel`` comparison
  table (NL baseline vs ``PAR`` at 1/2/4 workers) and asserts the
  two-phase determinism contract: every configuration returns the same
  skyline and does exactly the same number of record-pair probes.
* **IN on Zipfian group sizes** — the guided-chunk showcase.  The same
  indexed computation runs at 1/2/4 workers under both schedulers; the
  independent-candidate discipline means results *and* counters match
  the inline (``workers=1``) kernel bit-for-bit, while the stealing
  scheduler's shrinking chunks rebalance the skewed slabs.  Chunk
  counts and per-config timings are written to ``benchmarks/results/``.

Wall-clock speedup assertions are gated on the host actually having the
cores — on a 1-core container the pool can only add overhead, which the
saved results record honestly.
"""

import os
import time

import pytest
from conftest import BENCH_SCALE, RESULTS_DIR, make_workload, regenerate

from repro import ExecutionConfig
from repro.core.algorithms import make_algorithm

MIN_CORES_FOR_SPEEDUP = 4
EXPECTED_SPEEDUP = 1.5
SCHEDULERS = ("static", "stealing")


def _times_by_workers(report):
    """{workers: elapsed} — the NL baseline is recorded as workers=0."""
    return {
        int(r.params["workers"]): r.elapsed_seconds for r in report.results
    }


# ----------------------------------------------------------------------
# PAR on anti-correlated: the two-phase determinism contract
# ----------------------------------------------------------------------


def test_parallel_regenerate(benchmark):
    report = regenerate(benchmark, "parallel")
    assert "results identical across worker counts: yes" in report.text

    skylines = {r.skyline_keys for r in report.results}
    assert len(skylines) == 1
    pair_counts = {r.record_pairs for r in report.results}
    assert len(pair_counts) == 1  # two-phase PAR does exactly NL's work

    # The workload must be wide enough for the claim to mean something.
    assert all(
        len(r.skyline_keys) <= r.params["groups"] for r in report.results
    )
    assert report.results[0].params["groups"] >= 200

    times = _times_by_workers(report)
    if (os.cpu_count() or 1) >= MIN_CORES_FOR_SPEEDUP:
        speedup = times[0] / times[4]
        assert speedup >= EXPECTED_SPEEDUP, (
            f"PAR at 4 workers only {speedup:.2f}x over serial NL"
        )


@pytest.fixture(scope="module")
def workload():
    return make_workload(BENCH_SCALE, dimensions=3, seed=17)


@pytest.fixture(scope="module")
def reference(workload):
    return make_algorithm("NL", 0.5).compute(workload)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bench_par_by_worker_count(
    benchmark, workload, reference, workers, scheduler
):
    engine = make_algorithm(
        "PAR",
        0.5,
        execution=ExecutionConfig(workers=workers, scheduler=scheduler),
    )
    result = benchmark.pedantic(
        engine.compute, args=(workload,), iterations=1, rounds=2
    )
    assert result.as_set() == reference.as_set()
    assert (
        result.stats.record_pairs_examined
        == reference.stats.record_pairs_examined
    )
    run = getattr(engine, "last_pool_run", None)
    if run is not None:
        benchmark.extra_info["chunks"] = len(run.outcomes)


def test_bench_nl_baseline(benchmark, workload, reference):
    engine = make_algorithm("NL", 0.5)
    result = benchmark.pedantic(
        engine.compute, args=(workload,), iterations=1, rounds=2
    )
    assert result.as_set() == reference.as_set()


# ----------------------------------------------------------------------
# IN on Zipfian group sizes: guided chunks on skewed slabs
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def zipf_workload():
    return make_workload(
        BENCH_SCALE, dimensions=3, size_distribution="zipf", seed=23
    )


@pytest.fixture(scope="module")
def zipf_inline(zipf_workload):
    """The workers=1 inline kernel: the determinism-contract baseline."""
    return make_algorithm(
        "IN", 0.5, execution=ExecutionConfig(workers=1)
    ).compute(zipf_workload)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bench_in_zipf_by_worker_count(
    benchmark, zipf_workload, zipf_inline, workers, scheduler
):
    engine = make_algorithm(
        "IN",
        0.5,
        execution=ExecutionConfig(workers=workers, scheduler=scheduler),
    )
    result = benchmark.pedantic(
        engine.compute, args=(zipf_workload,), iterations=1, rounds=2
    )
    # independent-candidate discipline: identical skyline AND counters
    # for any worker count / scheduler.
    assert result.as_set() == zipf_inline.as_set()
    assert (
        result.stats.record_pairs_examined
        == zipf_inline.stats.record_pairs_examined
    )
    assert (
        result.stats.group_comparisons == zipf_inline.stats.group_comparisons
    )
    run = getattr(engine, "last_pool_run", None)
    if run is not None:
        benchmark.extra_info["chunks"] = len(run.outcomes)


def test_in_zipf_speedup_report(zipf_workload, zipf_inline):
    """Time serial IN vs the pool under both schedulers; save the table.

    The >= 1.5x assertion for 4 workers under stealing is gated on
    ``os.cpu_count() >= 4`` — anything smaller and the pool is pure
    overhead, which the saved report records honestly.
    """
    rows = []

    start = time.perf_counter()
    serial = make_algorithm("IN", 0.5).compute(zipf_workload)
    serial_t = time.perf_counter() - start
    assert serial.as_set() == zipf_inline.as_set()
    rows.append(("serial", "-", serial_t, 0))

    stealing_4 = None
    for scheduler in SCHEDULERS:
        for workers in (1, 2, 4):
            engine = make_algorithm(
                "IN",
                0.5,
                execution=ExecutionConfig(
                    workers=workers, scheduler=scheduler
                ),
            )
            start = time.perf_counter()
            result = engine.compute(zipf_workload)
            elapsed = time.perf_counter() - start
            assert result.as_set() == zipf_inline.as_set()
            run = getattr(engine, "last_pool_run", None)
            chunks = len(run.outcomes) if run is not None else 0
            rows.append((f"workers={workers}", scheduler, elapsed, chunks))
            if scheduler == "stealing" and workers == 4:
                stealing_4 = elapsed

    lines = [
        f"IN on Zipfian group sizes (scale={BENCH_SCALE}, "
        f"cpus={os.cpu_count()})",
        f"{'config':<12} {'scheduler':<10} {'seconds':>9} "
        f"{'chunks':>7}",
    ]
    for config, scheduler, elapsed, chunks in rows:
        lines.append(
            f"{config:<12} {scheduler:<10} {elapsed:>9.4f} {chunks:>7}"
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / f"parallel_in_zipf_{BENCH_SCALE}.txt"
    out_path.write_text("\n".join(lines) + "\n")

    if (os.cpu_count() or 1) >= MIN_CORES_FOR_SPEEDUP:
        assert stealing_4 is not None
        speedup = serial_t / stealing_4
        assert speedup >= EXPECTED_SPEEDUP, (
            f"IN at 4 workers (stealing) only {speedup:.2f}x over serial"
        )
