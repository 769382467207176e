"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.relational.csvio import load_csv, save_csv
from repro.relational.table import Table


@pytest.fixture
def movies_csv(tmp_path):
    table = Table(
        ["title", "director", "pop", "qual"],
        [
            ("Pulp Fiction", "Tarantino", 557, 9.0),
            ("Kill Bill", "Tarantino", 313, 8.2),
            ("The Room", "Wiseau", 10, 3.2),
            ("The Godfather", "Coppola", 531, 9.2),
        ],
    )
    path = tmp_path / "movies.csv"
    save_csv(table, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "x.csv"])
        assert args.records == 10_000
        assert args.distribution == "independent"

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestQueryCommand:
    def test_aggregate_skyline_query(self, movies_csv, capsys):
        code = main(
            [
                "query",
                "--table",
                f"movies={movies_csv}",
                "SELECT director FROM movies GROUP BY director"
                " SKYLINE OF pop MAX, qual MAX",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Tarantino" in out and "Coppola" in out
        assert "Wiseau" not in out.replace("groups in the skyline", "")
        assert "group comparisons" in out

    def test_plain_query(self, movies_csv, capsys):
        code = main(
            [
                "query",
                "--table",
                f"movies={movies_csv}",
                "SELECT title FROM movies WHERE qual > 9.0",
            ]
        )
        assert code == 0
        assert "The Godfather" in capsys.readouterr().out

    def test_bad_table_binding(self, capsys):
        code = main(["query", "--table", "oops", "SELECT * FROM t"])
        assert code == 2
        assert "NAME=CSV" in capsys.readouterr().err


class TestSkylineCommand:
    def test_basic(self, movies_csv, capsys):
        code = main(
            [
                "skyline",
                "--csv", movies_csv,
                "--group-by", "director",
                "--of", "pop:max,qual:max",
                "--algorithm", "NL",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Tarantino" in out
        assert "gamma=0.5" in out

    def test_min_direction(self, movies_csv, capsys):
        code = main(
            [
                "skyline",
                "--csv", movies_csv,
                "--group-by", "director",
                "--of", "pop:min",
            ]
        )
        assert code == 0
        assert "Wiseau" in capsys.readouterr().out

    def test_execution_runs_the_pooled_algorithm(self, movies_csv, capsys):
        code = main(
            [
                "skyline",
                "--csv", movies_csv,
                "--group-by", "director",
                "--of", "pop:max,qual:max",
                "--algorithm", "PAR",
                "--execution", "workers=1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[PAR]" in out
        assert "Tarantino" in out and "Coppola" in out

    def test_workers_flag_is_rejected(self, movies_csv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "skyline",
                    "--csv", movies_csv,
                    "--group-by", "director",
                    "--of", "pop:max,qual:max",
                    "--workers", "1",
                ]
            )
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestGenerateCommands:
    def test_generate(self, tmp_path, capsys):
        out_path = tmp_path / "data.csv"
        code = main(
            [
                "generate",
                "--records", "60",
                "--dims", "3",
                "--group-size", "20",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        table = load_csv(out_path)
        assert table.columns == ("group", "a0", "a1", "a2")
        assert len(table) == 60
        assert "wrote 60 records in 3 groups" in capsys.readouterr().out

    def test_nba(self, tmp_path, capsys):
        out_path = tmp_path / "nba.csv"
        code = main(["nba", "--rows", "120", "--out", str(out_path)])
        assert code == 0
        table = load_csv(out_path)
        assert len(table) == 120
        assert "player" in table.columns

    def test_generated_csv_feeds_skyline_command(self, tmp_path, capsys):
        out_path = tmp_path / "data.csv"
        main(
            [
                "generate", "--records", "40", "--dims", "2",
                "--group-size", "10", "--out", str(out_path),
            ]
        )
        code = main(
            [
                "skyline",
                "--csv", str(out_path),
                "--group-by", "group",
                "--of", "a0:max,a1:max",
            ]
        )
        assert code == 0
        assert "groups survive" in capsys.readouterr().out


class TestExperimentCommand:
    def test_table2(self, capsys):
        code = main(["experiment", "table2", "--scale", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.94" in out and "0.68" in out


class TestRankCommand:
    def test_rank(self, movies_csv, capsys):
        code = main(
            [
                "rank",
                "--csv", movies_csv,
                "--group-by", "director",
                "--of", "pop:max,qual:max",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "minimal gamma" in out
        assert "never" in out          # Wiseau is totally dominated

    def test_rank_limit(self, movies_csv, capsys):
        code = main(
            [
                "rank",
                "--csv", movies_csv,
                "--group-by", "director",
                "--of", "pop:max",
                "--limit", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("\n") <= 4    # header + rule + one row


class TestCompareCommand:
    def _write_results(self, path, elapsed):
        from repro.harness.persistence import save_results
        from repro.harness.runner import RunResult

        save_results(
            [
                RunResult("figX", {"n": 10}, "LO", elapsed, 1, 1, 1),
            ],
            path,
        )

    def test_compare(self, tmp_path, capsys):
        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        self._write_results(before, 1.0)
        self._write_results(after, 0.25)
        code = main(["compare", str(before), str(after)])
        assert code == 0
        out = capsys.readouterr().out
        assert "speed-up" in out
        assert "0.25" in out
        last_row = out.strip().splitlines()[-1].split()
        assert last_row[-1] == "4"

    def test_compare_disjoint(self, tmp_path, capsys):
        from repro.harness.persistence import save_results
        from repro.harness.runner import RunResult

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_results([RunResult("x", {"n": 1}, "NL", 1.0, 1, 1, 1)], a)
        save_results([RunResult("y", {"n": 2}, "LO", 1.0, 1, 1, 1)], b)
        code = main(["compare", str(a), str(b)])
        assert code == 1
        assert "no overlapping" in capsys.readouterr().out


class TestObsFlags:
    def test_log_json_writes_correlated_events(self, movies_csv, tmp_path):
        log_path = tmp_path / "run.jsonl"
        code = main(
            [
                "skyline",
                "--csv", movies_csv,
                "--group-by", "director",
                "--of", "pop:max,qual:max",
                f"--trace={tmp_path / 'trace.jsonl'}",
                "--log-json", str(log_path),
            ]
        )
        assert code == 0
        from repro.obs.runlog import read_events
        from repro.obs.tracing import read_jsonl

        events = read_events(log_path)
        names = [e["event"] for e in events]
        assert names[0] == "cli_start" and names[-1] == "cli_end"
        assert "run_start" in names and "run_end" in names
        (trace,) = read_jsonl(tmp_path / "trace.jsonl")
        run_events = [e for e in events if "trace_id" in e]
        assert run_events
        assert {e["trace_id"] for e in run_events} == {trace["trace_id"]}

    def test_metrics_openmetrics_format(self, capsys):
        code = main(["metrics", "--demo", "--format", "openmetrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE skyline_runs counter" in out
        assert "skyline_runs_total{" in out
        assert out.rstrip().endswith("# EOF")

    def test_progress_with_execution_uses_pooled_engine(
        self, tmp_path, capsys
    ):
        data = tmp_path / "data.csv"
        main(
            [
                "generate", "--records", "400", "--dims", "3",
                "--group-size", "20", "--sizes", "zipf", "--out", str(data),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "skyline",
                "--csv", str(data),
                "--group-by", "group",
                "--of", "a0:max,a1:max,a2:max",
                "--algorithm", "IN",
                "--execution", "workers=2",
                "--progress",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "[IN]" in captured.out        # pooled engine, not anytime
        assert "chunks" in captured.err      # chunk heartbeat on stderr

    def test_progress_without_execution_uses_anytime_engine(
        self, movies_csv, capsys
    ):
        code = main(
            [
                "skyline",
                "--csv", movies_csv,
                "--group-by", "director",
                "--of", "pop:max,qual:max",
                "--progress",
            ]
        )
        assert code == 0
        assert "[anytime]" in capsys.readouterr().out
