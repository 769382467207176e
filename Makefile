# Convenience targets for the aggregate-skyline reproduction.

PYTHON ?= python
SCALE ?= smoke

.PHONY: install test bench bench-small bench-paper examples figures metrics-demo parallel-demo parallel-bench columnar-bench perf-smoke faults-demo faults-test engine-demo engine-test engine-bench planner-demo planner-test net-demo net-test net-bench clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	REPRO_BENCH_SCALE=$(SCALE) $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-small:
	REPRO_BENCH_SCALE=small $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-paper:
	REPRO_BENCH_SCALE=paper $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran"

figures:
	@for fig in table2 fig8 fig10 fig11 fig12 fig13a fig13b fig13c fig14 ablations extensions; do \
		$(PYTHON) -m repro experiment $$fig --scale $(SCALE); \
	done

# Run a tiny workload and dump the metrics registry (docs/observability.md).
metrics-demo:
	$(PYTHON) -m repro metrics --demo

# Inject a SIGKILL into a pooled run and watch the retry recover it
# bit-identically (REPRO_FAULTS; docs/parallel.md fault tolerance).
faults-demo:
	$(PYTHON) examples/fault_tolerance_demo.py

# The fault-injection test matrix (crash/hang/exception under fork and
# spawn); CI runs this leg with REPRO_START_METHOD=spawn on top.
faults-test:
	$(PYTHON) -m pytest tests/test_fault_tolerance.py

# Persistent-session walkthrough: attach once, batch of warm queries,
# injected crash -> single-slot respawn (docs/engine.md).
engine-demo:
	$(PYTHON) examples/engine_session_demo.py

# The engine test matrix (warm parity, crash respawn, lifecycle) —
# CI runs this leg with REPRO_START_METHOD=spawn on top.
engine-test:
	$(PYTHON) -m pytest tests/test_engine.py

# Warm-reuse figure: cold one-shot vs warm repeat queries; appends to
# the BENCH_$(SCALE).json perf history (docs/engine.md).
engine-bench:
	REPRO_BENCH_SCALE=$(SCALE) $(PYTHON) -m pytest \
		benchmarks/bench_engine_reuse.py

# Plan optimizer walkthrough on the NBA dataset: EXPLAIN from the CLI
# (candidate costs + keep/reject reasons), then the auto run and the SQL
# EXPLAIN of the same query (docs/planner.md).
planner-demo:
	$(PYTHON) -m repro nba --rows 3000 --out /tmp/planner_demo_nba.csv
	$(PYTHON) -m repro skyline --csv /tmp/planner_demo_nba.csv \
		--group-by player --of pts:max,reb:max,ast:max \
		--algorithm auto --explain
	$(PYTHON) -m repro skyline --csv /tmp/planner_demo_nba.csv \
		--group-by player --of pts:max,reb:max,ast:max \
		--algorithm auto
	$(PYTHON) -m repro query --table nba=/tmp/planner_demo_nba.csv \
		--explain "SELECT player FROM nba GROUP BY player \
		SKYLINE OF pts MAX, reb MAX USING ALGORITHM AUTO"

# The planner test matrix (auto/explicit parity, plan cache, EXPLAIN
# surfaces) — CI runs this leg with REPRO_START_METHOD=spawn on top.
planner-test:
	$(PYTHON) -m pytest tests/test_planner.py

# Network front-end walkthrough on the NBA dataset: TCP server + two
# concurrent clients with interleaved sweeps, bit-identity checked
# against sequential engine.query(), deadline timeout, HTTP shim,
# graceful drain (docs/engine.md "Serving over the network").
net-demo:
	$(PYTHON) examples/net_demo.py

# The network/admission test matrix plus the serve error-path suite —
# CI runs this leg with REPRO_START_METHOD=spawn on top.
net-test:
	$(PYTHON) -m pytest tests/test_net.py tests/test_serve_errors.py

# Sequential vs concurrent submit_batch vs two TCP clients on one pool;
# appends to the BENCH_$(SCALE).json perf history (docs/engine.md).
net-bench:
	REPRO_BENCH_SCALE=$(SCALE) $(PYTHON) -m pytest \
		benchmarks/bench_net_admission.py

# Serial-vs-parallel comparison table on a pool of 2 (docs/parallel.md).
parallel-demo:
	$(PYTHON) -m repro experiment parallel --scale $(SCALE) --workers 2

# PAR + parallel-IN speedup benchmarks: both schedulers, chunk counts
# (benchmarks/results/parallel_in_zipf_$(SCALE).txt; docs/parallel.md).
parallel-bench:
	REPRO_BENCH_SCALE=$(SCALE) $(PYTHON) -m pytest \
		benchmarks/bench_parallel_speedup.py

# Columnar backbone benchmarks: store v1 vs v2 load, index build from
# corner matrices, shm pool pack handoff
# (benchmarks/results/columnar_$(SCALE).txt; docs/data-model.md).
columnar-bench:
	REPRO_BENCH_SCALE=$(SCALE) $(PYTHON) -m pytest \
		benchmarks/bench_columnar.py

# Perf-regression smoke: record a small fixed matrix of (workload,
# algorithm, execution) points into BENCH_smoke.json, then flag any
# latency/counter regression over the rolling baseline
# (docs/benchmarking.md; the nightly perf-smoke CI job runs this).
PERF_HISTORY ?= BENCH_smoke.json
perf-smoke:
	$(PYTHON) -m repro perf record --history $(PERF_HISTORY) \
		--workload paper-default --scale 0.05 --algorithm NL --repeat 3
	$(PYTHON) -m repro perf record --history $(PERF_HISTORY) \
		--workload paper-default --scale 0.05 --algorithm LO --repeat 3
	$(PYTHON) -m repro perf record --history $(PERF_HISTORY) \
		--workload zipf-heavy --scale 0.05 --algorithm IN --repeat 3
	$(PYTHON) -m repro perf record --history $(PERF_HISTORY) \
		--workload zipf-heavy --scale 0.05 --algorithm IN --repeat 3 \
		--execution workers=2,scheduler=stealing
	$(PYTHON) -m repro perf report --history $(PERF_HISTORY)

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
