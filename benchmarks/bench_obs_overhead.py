"""Price of the disabled telemetry hooks next to one NL run.

``tests/test_obs_telemetry.py::TestDisabledObsOverhead`` counts the
telemetry hooks one NL ``compute()`` on the smoke workload calls while
run log, tracing and detailed metrics are all disabled, and holds the
count to a budget of 1,000 calls.  This module checks that the budget is
cheap: 1,000 no-op hook calls (a run-log enabled check, a span open and
close, a trace-context snapshot each) must cost under 3% of that NL run.
Both sides are the minimum of several timings to shrug off scheduler
noise, but they are still wall-clock times, which is why this lives
with the benchmarks and not in the test suite.

Run it with ``python -m pytest benchmarks/bench_obs_overhead.py``.
"""

import time

from repro.core.algorithms import make_algorithm
from repro.data.workloads import load_workload
from repro.obs import metrics as obs_metrics
from repro.obs import runlog as obs_runlog
from repro.obs import tracing as obs_tracing

#: The hook-call budget the test suite holds one NL compute() to.
HOOK_CALL_BUDGET = 1000

#: Share of the NL run the budgeted hook calls may cost.
MAX_OVERHEAD = 0.03

REPEATS = 5


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_noop_hook_budget_is_cheap_relative_to_nl_smoke():
    dataset = load_workload("paper-default", scale=0.05)
    algorithm = make_algorithm("NL", 0.5)
    log = obs_runlog.get_runlog()
    tracer = obs_tracing.get_tracer()
    assert not log.enabled
    assert not tracer.enabled
    assert not obs_metrics.is_enabled()

    run_seconds = min(
        _timed(lambda: algorithm.compute(dataset)) for _ in range(REPEATS)
    )

    def hooks():
        for _ in range(HOOK_CALL_BUDGET):
            if log.enabled:
                log.emit("never")
            with tracer.span("noop", a=1):
                pass
            obs_tracing.current_trace_context()

    hook_seconds = min(_timed(hooks) for _ in range(REPEATS))
    print(
        f"{HOOK_CALL_BUDGET} disabled hook calls: {hook_seconds * 1e3:.3f} ms;"
        f" NL smoke run: {run_seconds * 1e3:.3f} ms"
        f" ({hook_seconds / run_seconds:.2%})"
    )
    assert hook_seconds < MAX_OVERHEAD * run_seconds, (
        f"disabled-obs hooks cost {hook_seconds:.6f}s vs"
        f" {run_seconds:.6f}s NL smoke run (>{MAX_OVERHEAD:.0%})"
    )
