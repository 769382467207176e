"""Tests for the unified execution API (repro.core.execution).

Covers the frozen :class:`ExecutionConfig` dataclass (validation,
serialisation, spec parsing), the options normalizer (did-you-mean
rejection of unknown options; execution settings passed as options are
pointed at ``execution=``), the ``make_algorithm`` gate (only pool-backed algorithms take
an execution config), and the end-to-end threading through the harness
runner, persistence and the SQL query executor.
"""

from __future__ import annotations

import warnings

import pytest

from repro import ExecutionConfig, aggregate_skyline, make_algorithm
from repro.cli import main
from repro.core.algorithms.indexed import IndexedAlgorithm
from repro.core.algorithms.parallel import ParallelSkylineAlgorithm
from repro.core.execution import coerce_execution, normalize_options, suggest
from repro.data.synthetic import SyntheticSpec, generate_grouped
from repro.harness.persistence import results_from_json, results_to_json
from repro.harness.runner import run_algorithms
from repro.query.executor import execute
from repro.relational.table import Table


@pytest.fixture(scope="module")
def dataset():
    return generate_grouped(
        SyntheticSpec(n_records=240, avg_group_size=12, dimensions=3, seed=9)
    )


# ---------------------------------------------------------------------------
# ExecutionConfig construction + validation
# ---------------------------------------------------------------------------


class TestExecutionConfig:
    def test_defaults_mean_serial(self):
        config = ExecutionConfig()
        assert config.workers is None
        assert config.scheduler == "static"
        assert config.shm is None
        assert config.pool_timeout == 300.0
        assert not config.parallel

    def test_workers_makes_it_parallel(self):
        assert ExecutionConfig(workers=1).parallel
        assert ExecutionConfig(workers=4).parallel

    def test_frozen(self):
        config = ExecutionConfig()
        with pytest.raises(Exception):
            config.workers = 2  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -1},
            {"workers": True},
            {"workers": 2.0},
            {"max_retries": -1},
            {"max_retries": 1.5},
            {"workers": "2"},
            {"max_retries": True},
            {"pool_timeout": 0.0},
            {"pool_timeout": -3},
            {"shm": "yes"},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionConfig(**kwargs)

    def test_scheduler_typo_gets_a_suggestion(self):
        with pytest.raises(ValueError, match="stealing"):
            ExecutionConfig(scheduler="staeling")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"max_retries": True},
            {"max_retries": 1.5},
            {"max_retries": "2"},
            {"on_failure": "panic"},
        ],
    )
    def test_bad_fault_tolerance_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionConfig(**kwargs)

    def test_on_failure_typo_gets_a_suggestion(self):
        with pytest.raises(ValueError, match="serial"):
            ExecutionConfig(on_failure="seral")

    def test_fault_tolerance_defaults(self):
        config = ExecutionConfig()
        assert config.max_retries == 2
        assert config.on_failure == "raise"
        # A respawn does not wait: there is no backoff to configure.
        with pytest.raises(ValueError, match="retry_backoff"):
            ExecutionConfig.from_dict({"retry_backoff": 0.1})

    def test_fault_tolerance_round_trip(self):
        config = ExecutionConfig(workers=4, on_failure="serial", max_retries=3)
        assert ExecutionConfig.from_dict(config.to_dict()) == config
        assert ExecutionConfig.from_spec(
            "workers=4,on_failure=serial,max_retries=3"
        ) == config

    def test_replace_revalidates(self):
        config = ExecutionConfig(workers=2)
        assert config.replace(scheduler="stealing").scheduler == "stealing"
        with pytest.raises(ValueError):
            config.replace(workers=0)

    def test_to_dict_omits_defaults(self):
        assert ExecutionConfig().to_dict() == {}
        assert ExecutionConfig(workers=2).to_dict() == {"workers": 2}
        full = ExecutionConfig(
            workers=3, scheduler="stealing", shm=True, max_retries=7
        )
        assert full.to_dict() == {
            "workers": 3,
            "scheduler": "stealing",
            "shm": True,
            "max_retries": 7,
        }

    def test_dict_round_trip(self):
        config = ExecutionConfig(workers=2, scheduler="stealing", shm=False)
        assert ExecutionConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionConfig.from_dict({"wokers": 2})

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("", ExecutionConfig()),
            ("workers=4", ExecutionConfig(workers=4)),
            (
                "workers=2, scheduler=stealing",
                ExecutionConfig(workers=2, scheduler="stealing"),
            ),
            ("shm=auto", ExecutionConfig(shm=None)),
            ("shm=true", ExecutionConfig(shm=True)),
            ("shm=off", ExecutionConfig(shm=False)),
            ("max_retries=16,pool_timeout=5.5",
             ExecutionConfig(max_retries=16, pool_timeout=5.5)),
        ],
    )
    def test_from_spec(self, spec, expected):
        assert ExecutionConfig.from_spec(spec) == expected

    def test_removed_chunk_size_is_an_unknown_option(self):
        # The stealing scheduler's minimum chunk is fixed (docs/parallel.md).
        with pytest.raises(TypeError, match="chunk_size"):
            ExecutionConfig(chunk_size=16)  # type: ignore[call-arg]
        with pytest.raises(ValueError, match="unknown execution option 'chunk_size'"):
            ExecutionConfig.from_dict({"chunk_size": 16})
        with pytest.raises(ValueError, match="unknown execution option 'chunk_size'"):
            ExecutionConfig.from_spec("workers=2,chunk_size=16")

    def test_removed_exchange_interval_is_an_unknown_option(self, tmp_path):
        # PAR's pruning exchange is gone; so is its interval, on every
        # surface that took it.
        with pytest.raises(TypeError, match="exchange_interval"):
            ExecutionConfig(exchange_interval=4)  # type: ignore[call-arg]
        unknown = "unknown execution option 'exchange_interval'"
        for shape in ({"exchange_interval": 4}, "workers=2,exchange_interval=4"):
            with pytest.raises(ValueError, match=unknown):
                coerce_execution(shape)
        with pytest.raises(ValueError, match=unknown):
            ExecutionConfig.from_dict({"exchange_interval": 4})
        with pytest.raises(ValueError, match=unknown):
            ExecutionConfig.from_spec("exchange_interval=4")
        csv = tmp_path / "t.csv"
        csv.write_text("g,a\nx,1\ny,2\n")
        with pytest.raises(ValueError, match=unknown):
            main(
                [
                    "skyline", "--csv", str(csv), "--group-by", "g",
                    "--of", "a:max", "--algorithm", "PAR",
                    "--execution", "exchange_interval=4",
                ]
            )
        with pytest.raises(
            TypeError, match="unknown option 'exchange_interval' for algorithm 'PAR'"
        ) as raised:
            make_algorithm("PAR", 0.5, exchange_interval=4)
        assert "execution=" not in str(raised.value)

    def test_from_spec_rejects_malformed_items(self):
        with pytest.raises(ValueError):
            ExecutionConfig.from_spec("workers")
        with pytest.raises(ValueError):
            ExecutionConfig.from_spec("shm=maybe")

    def test_coerce_accepts_all_shapes(self):
        config = ExecutionConfig(workers=2)
        assert coerce_execution(None) is None
        assert coerce_execution(config) is config
        assert coerce_execution("workers=2") == config
        assert coerce_execution({"workers": 2}) == config
        with pytest.raises(TypeError):
            coerce_execution(3)

    def test_suggest_cutoff(self):
        assert "static" in suggest("sttaic", ("static", "stealing"))
        assert suggest("zzz", ("static", "stealing")) == ""


# ---------------------------------------------------------------------------
# normalize_options: unknown-option rejection
# ---------------------------------------------------------------------------

#: The execution settings algorithm options accepted until 2.0.
REMOVED_EXECUTION_OPTIONS = {
    "workers": 2,
    "scheduler": "stealing",
    "shm": False,
    "max_retries": 4,
    "pool_timeout": 60.0,
}


class TestNormalizeOptions:
    @pytest.mark.parametrize("key", sorted(REMOVED_EXECUTION_OPTIONS))
    def test_execution_settings_point_at_execution(self, key):
        value = REMOVED_EXECUTION_OPTIONS[key]
        with pytest.raises(TypeError, match=rf"execution=ExecutionConfig\({key}="):
            normalize_options(
                "PAR", ParallelSkylineAlgorithm, {key: value, "prune_policy": "safe"}
            )
        with pytest.raises(TypeError, match="execution="):
            make_algorithm("PAR", 0.5, **{key: value})

    @pytest.mark.parametrize("key", ["chunk_size", "chunks_per_worker"])
    def test_removed_chunk_knobs_are_unknown_options(self, key):
        # Neither is an execution setting, so nothing points at
        # execution=: the unknown-option message, as for any typo.
        with pytest.raises(TypeError, match=f"unknown option '{key}' for algorithm 'PAR'") as raised:
            make_algorithm("PAR", 0.5, **{key: 4})
        assert "execution=" not in str(raised.value)

    def test_serial_algorithms_name_the_pooled_ones(self):
        # NL has no execution= to point at.
        with pytest.raises(TypeError, match="only PAR, IN and LO"):
            make_algorithm("NL", 0.5, workers=2)

    def test_explicit_execution_plus_a_setting_is_rejected(self):
        # Until 2.0 the option filled gaps in the explicit config.
        with pytest.raises(TypeError, match="execution="):
            make_algorithm(
                "PAR", execution=ExecutionConfig(workers=4), scheduler="stealing"
            )

    def test_unknown_option_raises_with_suggestion(self):
        with pytest.raises(TypeError, match="sort_key"):
            normalize_options(
                "IN", IndexedAlgorithm, {"sort_kye": "size_corner"}
            )

    def test_no_warning_without_legacy_keys(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            options = normalize_options("IN", IndexedAlgorithm, {"sort_key": "size"})
        assert not caught
        assert options == {"sort_key": "size"}


# ---------------------------------------------------------------------------
# make_algorithm gate
# ---------------------------------------------------------------------------


class TestMakeAlgorithmGate:
    def test_unknown_algorithm_suggests(self):
        with pytest.raises(ValueError, match="LO"):
            make_algorithm("LQ")

    def test_serial_algorithms_reject_execution(self):
        for name in ("NL", "TR", "SI", "SQL"):
            with pytest.raises(ValueError, match="does not accept"):
                make_algorithm(name, execution=ExecutionConfig(workers=2))

    @pytest.mark.parametrize("name", ["PAR", "IN", "LO"])
    def test_pooled_algorithms_accept_execution(self, name):
        engine = make_algorithm(name, execution=ExecutionConfig(workers=1))
        assert engine.execution == ExecutionConfig(workers=1)

    def test_spec_string_and_mapping_coerced(self):
        engine = make_algorithm("IN", execution="workers=1,scheduler=stealing")
        assert engine.execution.scheduler == "stealing"
        engine = make_algorithm("LO", execution={"workers": 1})
        assert engine.execution.workers == 1

    @pytest.mark.parametrize(
        "key,value",
        [("workers", 1), ("max_retries", 4), ("pool_timeout", 60.0)],
    )
    def test_par_execution_kwargs_raise(self, key, value):
        with pytest.raises(TypeError, match="execution="):
            make_algorithm("PAR", 0.5, **{key: value})
        with pytest.raises(TypeError, match=key):
            ParallelSkylineAlgorithm(0.5, **{key: value})
        engine = make_algorithm("PAR", 0.5, execution={key: value})
        assert getattr(engine.execution, key) == value


# ---------------------------------------------------------------------------
# end-to-end threading: api, runner, persistence, SQL
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_aggregate_skyline_execution_matches_serial(self, dataset):
        serial = aggregate_skyline(dataset, algorithm="IN")
        pooled = aggregate_skyline(
            dataset,
            algorithm="IN",
            execution=ExecutionConfig(workers=1, scheduler="stealing"),
        )
        assert pooled.as_set() == serial.as_set()

    def test_runner_threads_execution_to_supporting_algorithms(self, dataset):
        results = run_algorithms(
            dataset,
            algorithms=("NL", "IN", "PAR"),
            execution=ExecutionConfig(workers=1),
        )
        by = {r.algorithm: r for r in results}
        assert by["NL"].execution is None and by["NL"].workers is None
        assert by["IN"].execution == {"workers": 1}
        assert by["IN"].workers == 1
        assert by["PAR"].execution == {"workers": 1}
        assert by["NL"].skyline_keys == by["PAR"].skyline_keys

    def test_runner_workers_kwarg_raises(self, dataset):
        with pytest.raises(TypeError, match="execution="):
            run_algorithms(dataset, algorithms=("NL", "PAR"), workers=1)
        # execution settings in algorithm_options are rejected the same way
        with pytest.raises(TypeError, match="execution="):
            run_algorithms(
                dataset,
                algorithms=("PAR",),
                algorithm_options={"PAR": {"workers": 1}},
            )

    def test_persistence_round_trips_execution_block(self, dataset):
        results = run_algorithms(
            dataset,
            algorithms=("NL", "IN"),
            execution=ExecutionConfig(workers=1, scheduler="stealing"),
        )
        text = results_to_json(results, include_obs=False)
        loaded = results_from_json(text)
        by = {r.algorithm: r for r in loaded}
        assert by["IN"].execution == {"workers": 1, "scheduler": "stealing"}
        assert by["NL"].execution is None
        # serial records keep the pre-ExecutionConfig shape on disk
        nl_only = results_to_json([by["NL"]], include_obs=False)
        assert '"execution"' not in nl_only

    def test_query_executor_accepts_execution(self):
        rows = [
            ["a", 5.0, 4.0],
            ["a", 4.0, 5.0],
            ["b", 1.0, 1.0],
            ["c", 5.0, 5.0],
        ]
        catalog = {"t": Table(["g", "x", "y"], rows)}
        sql = (
            "SELECT g FROM t GROUP BY g"
            " SKYLINE OF x MAX, y MAX USING ALGORITHM IN"
        )
        serial = execute(sql, catalog)
        pooled = execute(sql, catalog, execution="workers=1")
        assert sorted(map(tuple, serial.table.rows)) == sorted(
            map(tuple, pooled.table.rows)
        )
