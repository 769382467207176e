"""Watching a pooled skyline run survive a worker crash.

The fault-injection harness (``repro.parallel.faults``) SIGKILLs one
pool worker on its first chunk — injected through the same
``REPRO_FAULTS`` environment variable an operator would use.  With
``on_failure="retry"`` the pool detects the dead worker within a
liveness-poll interval, respawns that one slot, re-runs exactly the
chunks it held, and the recovered result is bit-identical to an
unfaulted run — same skyline, same work counters.  The run-log events
printed at the end show the pool's life and the respawn.

Run:  python examples/fault_tolerance_demo.py   (or ``make faults-demo``)
"""

import io
import json
import os
import time

from repro.core.algorithms import make_algorithm
from repro.core.execution import ExecutionConfig
from repro.data.synthetic import SyntheticSpec, generate_grouped
from repro.obs import runlog
from repro.parallel import FAULTS_ENV_VAR


def main() -> None:
    dataset = generate_grouped(
        SyntheticSpec(
            n_records=2_000,
            avg_group_size=25,
            dimensions=3,
            distribution="independent",
            seed=11,
        )
    )
    execution = ExecutionConfig(workers=2, on_failure="retry", max_retries=2)
    print(
        f"workload: {dataset.total_records} records, {len(dataset)} groups;"
        f" execution: workers={execution.workers},"
        f" on_failure={execution.on_failure!r}"
    )

    baseline = make_algorithm("PAR", gamma=0.5, execution=execution)
    expected = baseline.compute(dataset)

    # Same run, but one worker is SIGKILLed on its first chunk.  The
    # pool detects the crash, respawns the slot, re-runs its chunks, and the
    # result must match the unfaulted run bit for bit.
    log_buffer = io.StringIO()
    os.environ[FAULTS_ENV_VAR] = "crash@0"
    try:
        with runlog.use_runlog(runlog.RunLog(log_buffer)):
            faulted = make_algorithm("PAR", gamma=0.5, execution=execution)
            started = time.perf_counter()
            result = faulted.compute(dataset)
            elapsed = time.perf_counter() - started
    finally:
        del os.environ[FAULTS_ENV_VAR]

    assert result.as_set() == expected.as_set()
    assert (
        result.stats.group_comparisons == expected.stats.group_comparisons
    ), "recovered counters must reconcile with the unfaulted run"
    print(
        f"recovered in {elapsed:.2f}s: {len(result)} skyline groups,"
        f" {result.stats.group_comparisons} comparisons"
        " (bit-identical to the unfaulted run)"
    )

    print("\nfault-tolerance run-log events:")
    for line in log_buffer.getvalue().splitlines():
        event = json.loads(line)
        if event["event"] in ("pool_start", "slot_respawn", "pool_end"):
            keys = (
                "event",
                "workers",
                "old_pid",
                "signal",
                "new_pid",
                "reclaimed",
                "respawns",
            )
            shown = {key: event[key] for key in keys if key in event}
            print(f"  {shown}")


if __name__ == "__main__":
    main()
