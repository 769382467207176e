"""A persistent skyline session: attach once, query many times, survive
a worker crash.

The :class:`repro.SkylineEngine` owns a resident worker pool.  This demo

1. attaches a dataset once (shared-memory shipping, R-tree pre-pinned),
2. arms the fault-injection harness (:mod:`repro.parallel.faults`) so
   one resident worker SIGKILLs itself mid-chunk during the first query,
3. runs a mixed batch of warm queries — different gammas, algorithms and
   a ``dims`` projection — through the crash: the engine respawns only
   the dead slot (the surviving worker keeps its pid and its pinned
   data), and every result still matches the cold one-shot path
   bit-for-bit (skyline *and* work counters).

Run:  python examples/engine_session_demo.py   (or ``make engine-demo``)
"""

import dataclasses
import io
import json
import time

from repro import ExecutionConfig, SkylineEngine, aggregate_skyline
from repro.data.synthetic import SyntheticSpec, generate_grouped
from repro.obs import runlog
from repro.parallel.faults import FaultSpec


def stats_dict(result):
    payload = dataclasses.asdict(result.stats)
    payload.pop("elapsed_seconds")
    return payload


def check_against_cold(result, dataset, **query):
    cold = aggregate_skyline(dataset, **query)
    assert result.keys == cold.keys
    assert stats_dict(result) == stats_dict(cold)


def main() -> None:
    dataset = generate_grouped(
        SyntheticSpec(
            n_records=3_000,
            avg_group_size=6,
            dimensions=3,
            distribution="anticorrelated",
            seed=29,
        )
    )
    execution = ExecutionConfig(
        workers=2, scheduler="stealing", on_failure="retry", max_retries=2
    )
    log_buffer = io.StringIO()
    with runlog.use_runlog(runlog.RunLog(log_buffer)):
        # One worker will SIGKILL itself on its first chunk (max_fires=1,
        # so exactly one slot dies across the whole session).
        with SkylineEngine(
            execution, faults=FaultSpec("crash", at_chunk=0)
        ) as engine:
            started = time.perf_counter()
            handle = engine.attach(dataset)
            attach_t = time.perf_counter() - started
            print(
                f"attached {len(dataset)} groups"
                f" ({dataset.total_records} records) in {attach_t:.3f}s;"
                f" via_shm={handle.via_shm}; workers={engine.worker_pids}"
            )

            pids_before = list(engine.worker_pids)
            batch = [
                {"gamma": 0.5, "algorithm": "LO"},
                {"gamma": 0.6, "algorithm": "PAR"},
                {"gamma": 0.5, "algorithm": "IN"},
                {"gamma": 0.55, "algorithm": "LO", "dims": (0, 2)},
            ]
            started = time.perf_counter()
            results = engine.submit_batch(handle, batch)
            batch_t = time.perf_counter() - started
            for spec, result in zip(batch, results):
                dims = spec.get("dims")
                data = (
                    dataset
                    if dims is None
                    else {
                        g.key: g.values[:, dims] for g in dataset.groups
                    }
                )
                check_against_cold(
                    result,
                    data,
                    gamma=spec["gamma"],
                    algorithm=spec["algorithm"],
                    execution=execution,
                )
                print(
                    f"  [{spec['algorithm']}] gamma={spec['gamma']}"
                    f"{f' dims={dims}' if dims else ''}:"
                    f" {len(result)} groups (matches cold run exactly)"
                )
            print(
                f"batch of {len(batch)} queries in {batch_t:.3f}s on the"
                " resident pool"
            )

            # The injected crash fired during the first query; exactly one
            # slot was respawned, the other kept its pid and pinned data.
            pids_after = list(engine.worker_pids)
            assert engine.pool.total_respawns == 1
            survivors = set(pids_before) & set(pids_after)
            assert len(survivors) == len(pids_before) - 1
            (crashed,) = set(pids_before) - survivors
            print(
                f"injected crash killed worker {crashed}; engine respawned"
                f" only that slot ({pids_before} -> {pids_after}), every"
                " result still bit-identical to the cold runs"
            )
            s = engine.stats
            print(
                f"session stats: queries={s.queries}"
                f" (warm={s.warm_queries}, cold={s.cold_queries}),"
                f" attaches={s.attaches},"
                f" slot_respawns={engine.pool.total_respawns}"
            )

    print("\nengine run-log events:")
    for line in log_buffer.getvalue().splitlines():
        event = json.loads(line)
        if event["event"] in (
            "pool_start", "attach", "slot_respawn", "engine_end"
        ):
            keys = (
                "event", "workers", "pids", "groups", "via_shm", "slot",
                "old_pid", "new_pid", "queries", "warm_queries",
                "slot_respawns",
            )
            shown = {key: event[key] for key in keys if key in event}
            print(f"  {shown}")


if __name__ == "__main__":
    main()
