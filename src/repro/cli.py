"""Command-line interface: ``aggskyline`` (or ``python -m repro``).

Subcommands
-----------
``query``      Run a SKYLINE-extended SQL query over CSV tables.
``skyline``    Aggregate skyline of a CSV without writing SQL.
``rank``       Rank groups by the smallest gamma admitting them.
``stats``      Dataset shape statistics + algorithm suggestion.
``shell``      Interactive SQL shell (DDL/DML + SKYLINE queries).
``generate``   Emit a synthetic grouped workload as CSV.
``nba``        Emit the synthetic NBA player-season table as CSV.
``experiment`` Regenerate one of the paper's figures/tables.
``compare``    Diff two saved benchmark result files (wall-clock *and*
               work-counter deltas).
``metrics``    Dump the process metrics registry (Prometheus, OpenMetrics
               or JSON).
``perf``       Benchmark time series: ``record`` a run into a
               ``BENCH_*.json`` file, ``report`` its series, ``check`` the
               latest runs against a rolling baseline.

Observability flags (``query``, ``skyline``, ``experiment``)
------------------------------------------------------------
``--trace[=FILE]``
    Record per-phase spans.  Bare ``--trace`` prints a human-readable span
    tree after the result; ``--trace=trace.jsonl`` appends one JSON span
    tree per root span instead.  (Use the ``=`` form for files — argparse
    would otherwise swallow the next positional argument.)
``--metrics[=FILE]``
    Collect the metrics registry for this invocation.  ``--metrics`` or
    ``--metrics -`` prints Prometheus text exposition; ``--metrics=m.json``
    writes JSON, any other path writes Prometheus text.
``--log-json PATH``
    Append structured JSONL run-log events (run/phase/pool/cache/error,
    correlated with trace IDs when ``--trace`` is also on) to ``PATH``.
``--progress`` (``skyline`` only)
    Heartbeat lines on stderr: the anytime engine with a pair-budget ETA
    for serial runs, or — with ``--execution workers=N`` — the pooled
    algorithm with a chunk-claim ETA.

Examples::

    aggskyline generate --records 2000 --dims 3 --out data.csv
    aggskyline skyline --csv data.csv --group-by group \
        --of a0:max,a1:max,a2:max --gamma 0.5 --algorithm LO
    aggskyline skyline --csv data.csv --group-by group --of a0:max \
        --trace --metrics -
    aggskyline query --table movies=movies.csv \
        "SELECT director FROM movies GROUP BY director SKYLINE OF pop MAX, qual MAX"
    aggskyline experiment fig10 --scale smoke
    aggskyline metrics --demo --format prometheus
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from . import obs
from .core.api import aggregate_skyline
from .core.dominance import Direction
from .core.execution import ExecutionConfig
from .data.nba import nba_table
from .data.synthetic import SyntheticSpec, generate_grouped
from .data.workloads import load_workload, workload_names
from .obs.perfhistory import DEFAULT_BASELINE_WINDOW
from .harness.experiments import FIGURES, SCALES, run_figure
from .query.executor import execute
from .relational.csvio import load_csv, save_csv
from .relational.operators import grouped_dataset_from_table
from .relational.table import Table

__all__ = ["main", "build_parser"]


def _add_obs_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="record spans; bare flag prints a tree, --trace=FILE writes"
        " JSONL (use the = form for files)",
    )
    subparser.add_argument(
        "--metrics",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="collect metrics; '-' prints Prometheus text, *.json writes"
        " JSON, other paths write Prometheus text",
    )
    subparser.add_argument(
        "--log-json",
        dest="log_json",
        default=None,
        metavar="PATH",
        help="append structured JSONL run-log events to PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggskyline",
        description="Aggregate skyline queries (EDBT 2013 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="run a SKYLINE SQL query")
    _add_obs_flags(query)
    query.add_argument("sql", help="the query text")
    query.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=CSV",
        help="bind a table name to a CSV file (repeatable)",
    )
    query.add_argument("--max-rows", type=int, default=None)
    query.add_argument(
        "--execution",
        default=None,
        metavar="SPEC",
        help="execution config as 'key=value,...' (e.g."
        " 'workers=4,scheduler=stealing,on_failure=retry'); applies to"
        " the pooled USING ALGORITHM engines (PAR, IN, LO)",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the plan tree (with optimizer cost estimates) instead"
        " of executing; same as prefixing the query with EXPLAIN",
    )

    sky = commands.add_parser("skyline", help="aggregate skyline of a CSV")
    sky.add_argument("--csv", required=True, help="input CSV file")
    sky.add_argument(
        "--group-by", required=True, help="comma-separated grouping columns"
    )
    sky.add_argument(
        "--of",
        required=True,
        help="skyline dimensions, e.g. 'pop:max,qual:min'",
    )
    sky.add_argument("--gamma", type=float, default=0.5)
    sky.add_argument("--algorithm", default="LO")
    sky.add_argument(
        "--execution",
        default=None,
        metavar="SPEC",
        help="execution config as 'key=value,...' (e.g."
        " 'workers=4,scheduler=stealing,on_failure=serial'); applies"
        " to the pooled algorithms (PAR, IN, LO)",
    )
    sky.add_argument(
        "--progress",
        action="store_true",
        help="run the anytime engine with heartbeat lines on stderr",
    )
    sky.add_argument(
        "--explain",
        action="store_true",
        help="print the plan tree (with optimizer cost estimates) instead"
        " of computing the skyline",
    )
    _add_obs_flags(sky)

    rank = commands.add_parser(
        "rank", help="rank groups by minimal admitting gamma"
    )
    rank.add_argument("--csv", required=True, help="input CSV file")
    rank.add_argument(
        "--group-by", required=True, help="comma-separated grouping columns"
    )
    rank.add_argument(
        "--of",
        required=True,
        help="skyline dimensions, e.g. 'pop:max,qual:min'",
    )
    rank.add_argument("--limit", type=int, default=None)

    gen = commands.add_parser("generate", help="synthetic grouped CSV")
    gen.add_argument("--records", type=int, default=10_000)
    gen.add_argument("--dims", type=int, default=5)
    gen.add_argument("--group-size", type=int, default=100)
    gen.add_argument(
        "--distribution",
        default="independent",
        choices=("independent", "correlated", "anticorrelated"),
    )
    gen.add_argument("--spread", type=float, default=0.2)
    gen.add_argument(
        "--sizes", default="uniform", choices=("uniform", "zipf")
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    nba = commands.add_parser("nba", help="synthetic NBA table as CSV")
    nba.add_argument("--rows", type=int, default=15_000)
    nba.add_argument("--seed", type=int, default=7)
    nba.add_argument("--out", required=True)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper figure"
    )
    experiment.add_argument("figure", choices=sorted(FIGURES))
    experiment.add_argument(
        "--scale", default="small", choices=sorted(SCALES)
    )
    experiment.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker-pool size for worker-aware figures (e.g. 'parallel');"
        " other figures ignore it",
    )
    _add_obs_flags(experiment)

    metrics = commands.add_parser(
        "metrics", help="dump the process metrics registry"
    )
    metrics.add_argument(
        "--format",
        dest="format",
        default="prometheus",
        choices=("prometheus", "openmetrics", "json"),
    )
    metrics.add_argument(
        "--demo",
        action="store_true",
        help="run a small synthetic workload first so the dump is non-empty",
    )
    metrics.add_argument(
        "--out", default="-", help="output path ('-' for stdout)"
    )

    compare = commands.add_parser(
        "compare", help="compare two saved benchmark result files"
    )
    compare.add_argument("baseline", help="JSON results (before)")
    compare.add_argument("contender", help="JSON results (after)")

    perf = commands.add_parser(
        "perf", help="benchmark time series with regression checking"
    )
    perf_commands = perf.add_subparsers(dest="perf_command", required=True)

    def _add_history(sub):
        sub.add_argument(
            "--history",
            default="BENCH_local.json",
            metavar="FILE",
            help="benchmark time-series file (default: BENCH_local.json)",
        )

    record = perf_commands.add_parser(
        "record", help="benchmark a workload and append an entry"
    )
    _add_history(record)
    record.add_argument(
        "--workload",
        default="zipf-heavy",
        choices=workload_names(),
        help="named synthetic workload to benchmark",
    )
    record.add_argument(
        "--scale", type=float, default=0.1,
        help="workload scale (1.0 = paper size)",
    )
    record.add_argument("--algorithm", default="LO")
    record.add_argument("--gamma", type=float, default=0.5)
    record.add_argument(
        "--execution",
        default=None,
        metavar="SPEC",
        help="execution config as 'key=value,...' for PAR/IN/LO"
        " (incl. on_failure/max_retries)",
    )
    record.add_argument(
        "--repeat", type=int, default=1,
        help="run N times and record the best wall-clock (default: 1)",
    )
    record.add_argument(
        "--label", default="",
        help="free-form tag stored with the entry (git SHA, CI run id, ...)",
    )

    report = perf_commands.add_parser(
        "report", help="print the per-series summary of a history file"
    )
    _add_history(report)

    check = perf_commands.add_parser(
        "check", help="flag regressions against the rolling baseline"
    )
    _add_history(check)
    check.add_argument(
        "--threshold",
        default="20%",
        help="regression threshold: '20%%', 20 or 0.2 (default: 20%%)",
    )
    check.add_argument(
        "--window",
        type=int,
        default=DEFAULT_BASELINE_WINDOW,
        help="rolling-baseline width (median of up to N prior runs)",
    )

    shell = commands.add_parser(
        "shell", help="interactive SKYLINE SQL shell"
    )
    shell.add_argument(
        "--open", dest="open_dir", default=None,
        help="load a database directory on startup",
    )
    shell.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=CSV",
        help="preload a CSV as a table (repeatable)",
    )

    dataset = commands.add_parser(
        "dataset", help="inspect / convert grouped-dataset npz archives"
    )
    dataset_commands = dataset.add_subparsers(
        dest="dataset_command", required=True
    )
    convert = dataset_commands.add_parser(
        "convert",
        help="migrate an archive between store format v1 and v2",
    )
    convert.add_argument("source", help="input .npz archive (v1 or v2)")
    convert.add_argument("destination", help="output .npz archive")
    convert.add_argument(
        "--to",
        dest="target_version",
        type=int,
        default=2,
        choices=(1, 2),
        help="target store format version (default: 2, columnar)",
    )
    convert.add_argument(
        "--no-check",
        action="store_true",
        help="skip the round-trip verification of the written archive",
    )
    info = dataset_commands.add_parser(
        "info", help="print an archive's format version and shape"
    )
    info.add_argument("path", help=".npz archive to inspect")

    serve = commands.add_parser(
        "serve",
        help="persistent skyline session: attach a CSV once, run many"
        " queries (REPL or --batch)",
    )
    serve.add_argument("--csv", required=True, help="input CSV file")
    serve.add_argument(
        "--group-by", required=True, help="comma-separated grouping columns"
    )
    serve.add_argument(
        "--of",
        required=True,
        help="skyline dimensions, e.g. 'pop:max,qual:min'",
    )
    serve.add_argument(
        "--execution",
        default=None,
        metavar="SPEC",
        help="session execution config as 'key=value,...' (sizes the"
        " persistent pool; e.g. 'workers=4,scheduler=stealing')",
    )
    serve.add_argument(
        "--batch",
        default=None,
        metavar="FILE",
        help="run query specs from a JSONL file (one JSON object of"
        " query keywords per line; '-' reads stdin) instead of the REPL",
    )
    serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve the attached dataset over TCP (JSONL protocol plus"
        " an HTTP/1.1 POST shim on the same port) instead of the REPL;"
        " port 0 picks a free port",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        metavar="N",
        help="(--listen) queries executing concurrently on the pool"
        " (default: 4)",
    )
    serve.add_argument(
        "--max-waiting",
        type=int,
        default=32,
        metavar="N",
        help="(--listen) queries allowed to wait for a slot before the"
        " server sheds load with an 'overloaded' frame (default: 32)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        metavar="MS",
        help="(--listen) default per-request deadline; expiry returns a"
        " 'timeout' error frame (default: none)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="(--listen) how long SIGTERM/SIGINT waits for in-flight"
        " queries before force-closing (default: 10)",
    )
    _add_obs_flags(serve)

    stats = commands.add_parser(
        "stats", help="shape statistics + algorithm suggestion for a CSV"
    )
    stats.add_argument("--csv", required=True, help="input CSV file")
    stats.add_argument(
        "--group-by", required=True, help="comma-separated grouping columns"
    )
    stats.add_argument(
        "--of",
        required=True,
        help="skyline dimensions, e.g. 'pop:max,qual:min'",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "query": _cmd_query,
        "skyline": _cmd_skyline,
        "rank": _cmd_rank,
        "generate": _cmd_generate,
        "nba": _cmd_nba,
        "experiment": _cmd_experiment,
        "compare": _cmd_compare,
        "stats": _cmd_stats,
        "shell": _cmd_shell,
        "metrics": _cmd_metrics,
        "dataset": _cmd_dataset,
        "perf": _cmd_perf,
        "serve": _cmd_serve,
    }[args.command]
    obs_state = _setup_obs(args)
    try:
        return handler(args)
    finally:
        _emit_obs(args, obs_state)


# ----------------------------------------------------------------------
# observability plumbing (--trace / --metrics)
# ----------------------------------------------------------------------


def _setup_obs(args):
    """Enable tracing/metrics/run-log for this invocation when requested."""
    trace_target = getattr(args, "trace", None)
    metrics_target = getattr(args, "metrics", None)
    log_target = getattr(args, "log_json", None)
    sink = None
    if trace_target is not None:
        sink = obs.InMemorySink(capacity=256)
        obs.enable_tracing(sink)
    if metrics_target is not None:
        obs.enable_metrics(obs.MetricsRegistry())
    if log_target is not None:
        runlog = obs.enable_runlog(log_target)
        runlog.emit("cli_start", command=args.command)
    return sink


def _emit_obs(args, sink) -> None:
    trace_target = getattr(args, "trace", None)
    metrics_target = getattr(args, "metrics", None)
    log_target = getattr(args, "log_json", None)
    if log_target is not None:
        obs.get_runlog().emit("cli_end", command=args.command)
        obs.disable_runlog()
    if trace_target is not None and sink is not None:
        if trace_target == "-":
            for span in sink.traces:
                print("\n" + obs.render_trace(span))
        else:
            jsonl = obs.JsonlSink(trace_target)
            try:
                for span in sink.traces:
                    jsonl.emit(span)
            finally:
                jsonl.close()
            print(
                f"wrote {len(sink.traces)} trace(s) to {trace_target}",
                file=sys.stderr,
            )
        obs.disable_tracing()
    if metrics_target is not None:
        registry = obs.get_registry()
        if metrics_target == "-":
            print("\n" + registry.to_prometheus(), end="")
        elif metrics_target.endswith(".json"):
            with open(metrics_target, "w", encoding="utf-8") as handle:
                handle.write(registry.to_json() + "\n")
        else:
            with open(metrics_target, "w", encoding="utf-8") as handle:
                handle.write(registry.to_prometheus())
        obs.disable_metrics()


def _cmd_query(args) -> int:
    catalog = {}
    for binding in args.table:
        name, _, path = binding.partition("=")
        if not path:
            print(f"error: --table expects NAME=CSV, got {binding!r}",
                  file=sys.stderr)
            return 2
        catalog[name] = load_csv(path)
    if args.explain:
        result = execute(
            args.sql, catalog, execution=args.execution, explain=True
        )
        for row in result.table.rows:
            print(row[0])
        return 0
    result = execute(args.sql, catalog, execution=args.execution)
    print(result.to_text(max_rows=args.max_rows))
    if result.skyline_result is not None:
        stats = result.skyline_result.stats
        print(
            f"\n[{stats.algorithm}] {len(result.skyline_result)} groups in"
            f" the skyline; {stats.group_comparisons} group comparisons,"
            f" {stats.record_pairs_examined} record pairs"
        )
    return 0


def _cmd_skyline(args) -> int:
    table = load_csv(args.csv)
    keys = [c.strip() for c in args.group_by.split(",") if c.strip()]
    measures, directions = _parse_measures(args.of)
    dataset = grouped_dataset_from_table(table, keys, measures, directions)
    execution = (
        ExecutionConfig.from_spec(args.execution) if args.execution else None
    )
    if args.explain:
        from .plan import explain_dataset

        print(
            explain_dataset(
                dataset,
                gamma=args.gamma,
                algorithm=args.algorithm,
                execution=execution,
                measures=measures,
            )
        )
        return 0
    if args.progress:
        return _skyline_with_progress(args, dataset)
    result = aggregate_skyline(
        dataset, gamma=args.gamma, algorithm=args.algorithm, execution=execution
    )
    out = Table(["group"], [[_render_key(k)] for k in result.keys])
    print(out.to_text())
    stats = result.stats
    print(
        f"\n[{stats.algorithm}] gamma={result.gamma:g};"
        f" {len(result)}/{len(dataset)} groups survive;"
        f" {stats.group_comparisons} group comparisons,"
        f" {stats.record_pairs_examined} record pairs"
    )
    return 0


def _skyline_with_progress(args, dataset) -> int:
    """Heartbeat lines on stderr while the skyline is computed.

    Serial invocations use the anytime engine (exact Definition-2 result,
    pair-budget ETA).  With ``--execution workers=N`` the chosen pooled
    algorithm runs instead and the reporter is fed the pool's chunk-claim
    telemetry, so the ETA comes from the chunk rate
    (:func:`repro.obs.progress.eta_from_chunks`).
    """
    reporter = obs.ProgressReporter(
        lambda event: print(event.describe(), file=sys.stderr),
        min_interval=0.5,
    )
    execution = (
        ExecutionConfig.from_spec(args.execution) if args.execution else None
    )
    if execution is not None and execution.parallel:
        return _pooled_skyline_with_progress(
            args, dataset, execution, reporter
        )
    from .core.anytime import AnytimeAggregateSkyline

    engine = AnytimeAggregateSkyline(dataset, gamma=args.gamma)
    confirmed = engine.run(progress=reporter)
    out = Table(["group"], [[_render_key(k)] for k in confirmed])
    print(out.to_text())
    print(
        f"\n[anytime] gamma={args.gamma:g};"
        f" {len(confirmed)}/{len(dataset)} groups survive;"
        f" {engine.pairs_examined} record pairs"
        f" (budget {engine.pair_budget})"
    )
    return 0


def _pooled_skyline_with_progress(args, dataset, execution, reporter) -> int:
    """Pooled algorithm with chunk-claim heartbeats (same output shape)."""
    from .core.algorithms import make_algorithm

    engine = make_algorithm(args.algorithm, gamma=args.gamma, execution=execution)
    engine.progress_reporter = reporter
    result = engine.compute(dataset)
    out = Table(["group"], [[_render_key(k)] for k in result.keys])
    print(out.to_text())
    stats = result.stats
    print(
        f"\n[{stats.algorithm}] gamma={result.gamma:g};"
        f" {len(result)}/{len(dataset)} groups survive;"
        f" {stats.group_comparisons} group comparisons,"
        f" {stats.record_pairs_examined} record pairs"
    )
    return 0


def _cmd_perf(args) -> int:
    history = obs.PerfHistory(args.history)
    if args.perf_command == "record":
        dataset = load_workload(args.workload, scale=args.scale)
        execution = (
            ExecutionConfig.from_spec(args.execution)
            if args.execution
            else None
        )
        repeat = max(1, args.repeat)
        best = None
        for _ in range(repeat):
            result = aggregate_skyline(
                dataset,
                gamma=args.gamma,
                algorithm=args.algorithm,
                execution=execution,
            )
            if best is None or (
                result.stats.elapsed_seconds < best.stats.elapsed_seconds
            ):
                best = result
        stats = best.stats
        entry = history.record(
            dataset.fingerprint(),
            stats.algorithm,
            stats.elapsed_seconds,
            execution=execution.to_dict() if execution is not None else {},
            counters={
                "group_comparisons": stats.group_comparisons,
                "record_pairs_examined": stats.record_pairs_examined,
            },
            label=args.label or os.environ.get("REPRO_PERF_LABEL", ""),
        )
        print(
            f"recorded {entry.algorithm} [{entry.fingerprint[:12]}]"
            f" {entry.elapsed_seconds:.6g}s"
            f" (best of {repeat}) into {history.path}"
        )
        return 0
    if args.perf_command == "report":
        print(history.describe())
        return 0
    # check
    report = history.check(
        threshold=args.threshold, baseline_window=args.window
    )
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_metrics(args) -> int:
    registry = obs.get_registry()
    if args.demo:
        # Exercise the engine so the dump shows real series.
        spec = SyntheticSpec(
            n_records=400, avg_group_size=20, dimensions=3, seed=11
        )
        dataset = generate_grouped(spec)
        obs.enable_metrics(registry)
        try:
            for name in ("NL", "LO"):
                aggregate_skyline(dataset, gamma=0.5, algorithm=name)
        finally:
            obs.disable_metrics()
    if args.format == "json":
        text = registry.to_json() + "\n"
    elif args.format == "openmetrics":
        text = registry.to_openmetrics()
    else:
        text = registry.to_prometheus()
    if args.out == "-":
        print(text, end="")
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _parse_measures(spec: str):
    measures = []
    directions = []
    for piece in spec.split(","):
        column, _, direction = piece.strip().partition(":")
        measures.append(column)
        directions.append(Direction.from_any(direction or "max"))
    return measures, directions


def _cmd_rank(args) -> int:
    from .core.ranking import compute_gamma_profile

    table = load_csv(args.csv)
    keys = [c.strip() for c in args.group_by.split(",") if c.strip()]
    measures, directions = _parse_measures(args.of)
    dataset = grouped_dataset_from_table(table, keys, measures, directions)
    profile = compute_gamma_profile(dataset)
    ranking = profile.ranked()
    if args.limit is not None:
        ranking = ranking[: args.limit]
    rows = [
        (
            _render_key(key),
            "never" if gamma is None else f"{float(gamma):.4f}",
        )
        for key, gamma in ranking
    ]
    print(Table(["group", "minimal gamma"], rows).to_text())
    return 0


def _cmd_shell(args) -> int:
    from .query.shell import Shell
    from .relational.database import Database

    if args.open_dir:
        database = Database.load(args.open_dir)
    else:
        database = Database()
    for binding in args.table:
        name, _, path = binding.partition("=")
        if not path:
            print(f"error: --table expects NAME=CSV, got {binding!r}",
                  file=sys.stderr)
            return 2
        database.register(name, load_csv(path))
    return Shell(database=database).run()


def _serve_parse_line(line: str):
    """Parse one REPL line into query() keywords, or a command string.

    ``gamma=0.6 algorithm=PAR dims=0,1`` → kwargs; bare words like
    ``stats`` / ``quit`` are session commands.  ``explain [key=value...]``
    renders the plan the optimizer would pick, without executing.
    """
    tokens = line.split()
    if tokens and tokens[0].lower() == "explain":
        return "explain", _serve_parse_kwargs(tokens[1:])
    if len(tokens) == 1 and "=" not in tokens[0]:
        return tokens[0].lower(), None
    return None, _serve_parse_kwargs(tokens)


def _serve_parse_kwargs(tokens):
    from .core.execution import suggest

    kwargs = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(
                f"expected key=value, got {token!r} (example: gamma=0.6)"
            )
        if key == "gamma":
            try:
                kwargs["gamma"] = float(value)
            except ValueError:
                raise ValueError(
                    f"gamma expects a number in [0.5, 1], got {value!r}"
                    " (example: gamma=0.6)"
                ) from None
        elif key == "algorithm":
            kwargs["algorithm"] = value
        elif key == "dims":
            try:
                kwargs["dims"] = [int(d) for d in value.split(",") if d]
            except ValueError:
                raise ValueError(
                    f"dims expects comma-separated column indices, got"
                    f" {value!r} (example: dims=0,1)"
                ) from None
        elif key == "execution":
            kwargs["execution"] = value.replace(";", ",")
        else:
            keywords = ("algorithm", "dims", "execution", "gamma")
            raise ValueError(
                f"unknown query keyword {key!r}; expected one of"
                f" {list(keywords)}" + suggest(key, keywords)
            )
    return kwargs


def _serve_run_one(engine, handle, kwargs) -> None:
    warm_before = engine.stats.warm_queries
    started = time.perf_counter()
    result = engine.query(handle, **kwargs)
    elapsed = time.perf_counter() - started
    mode = "warm" if engine.stats.warm_queries > warm_before else "cold"
    stats = result.stats
    keys = ", ".join(_render_key(k) for k in result.keys[:8])
    if len(result.keys) > 8:
        keys += f", ... (+{len(result.keys) - 8})"
    print(
        f"[{stats.algorithm} {mode}] gamma={result.gamma:g};"
        f" {len(result)} groups in {elapsed:.3f}s:"
        f" {keys or '(empty)'}"
    )


def _serve_load_batch(stream):
    """Validate a JSONL spec stream line by line.

    Returns ``(entries, failures)``: entries are ``(lineno, kwargs)``
    for every valid spec, failures are ``(lineno, message)`` for every
    line that is not valid JSON, not an object, mistypes a known key,
    or names an unknown one — validated up front so a bad line is
    reported and skipped instead of crashing the batch mid-stream.
    """
    from .net import protocol as net_protocol

    entries, failures = [], []
    for lineno, line in enumerate(stream, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            frame = net_protocol.decode_frame(line)
            entries.append((lineno, net_protocol.validate_spec(frame)))
        except net_protocol.SpecError as exc:
            failures.append((lineno, str(exc)))
    return entries, failures


def _serve_print_result(result) -> None:
    stats = result.stats
    print(
        f"[{stats.algorithm}] gamma={result.gamma:g};"
        f" {len(result)} groups:"
        f" {', '.join(_render_key(k) for k in result.keys)}"
    )


def _serve_batch(args, engine, handle) -> int:
    if args.batch == "-":
        entries, failures = _serve_load_batch(sys.stdin)
    else:
        with open(args.batch, encoding="utf-8") as stream:
            entries, failures = _serve_load_batch(stream)
    for lineno, message in failures:
        print(f"error: line {lineno}: {message}", file=sys.stderr)
    if not entries:
        if not failures:
            print("batch contained no query specs", file=sys.stderr)
            return 0
        return 1
    if any(spec.get("explain") for _, spec in entries):
        # Mixed batches run sequentially so explain lines land in
        # order; pure-query batches keep the pipelined fast path.
        for lineno, spec in entries:
            spec = dict(spec)
            if spec.pop("explain", False):
                print(engine.explain(handle, **spec))
                continue
            _serve_print_result(engine.query(handle, **spec))
    else:
        for result in engine.submit_batch(
            handle, [spec for _, spec in entries]
        ):
            _serve_print_result(result)
    return 1 if failures else 0


def _serve_listen(args, engine, handle) -> int:
    from .net import SkylineServer

    host, _, port_text = args.listen.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(
            f"error: --listen expects HOST:PORT, got {args.listen!r}"
            " (example: --listen 127.0.0.1:7007)",
            file=sys.stderr,
        )
        return 2
    server = SkylineServer(
        engine,
        handle,
        host=host or "127.0.0.1",
        port=port,
        max_inflight=args.max_inflight,
        max_waiting=args.max_waiting,
        default_deadline_ms=args.deadline_ms,
        drain_timeout=args.drain_timeout,
    )
    server.install_signal_handlers()
    bound_host, bound_port = server.address
    print(
        f"listening on {bound_host}:{bound_port} (JSONL + HTTP POST;"
        f" max_inflight={args.max_inflight},"
        f" max_waiting={args.max_waiting}) —"
        " SIGTERM/Ctrl-C drains in-flight queries and exits",
        file=sys.stderr,
    )
    server.serve_forever()
    return 0


def _cmd_serve(args) -> int:
    from .engine import SkylineEngine

    table = load_csv(args.csv)
    keys = [c.strip() for c in args.group_by.split(",") if c.strip()]
    measures, directions = _parse_measures(args.of)
    dataset = grouped_dataset_from_table(table, keys, measures, directions)
    with SkylineEngine(execution=args.execution) as engine:
        handle = engine.attach(dataset)
        pids = engine.worker_pids
        print(
            f"attached {len(dataset)} groups"
            f" ({dataset.total_records} records,"
            f" {'shm' if handle.via_shm else 'pickled'});"
            f" pool: {len(pids)} workers {pids or '(serial)'}",
            file=sys.stderr,
        )
        if args.listen is not None:
            return _serve_listen(args, engine, handle)
        if args.batch is not None:
            return _serve_batch(args, engine, handle)
        print(
            "query: gamma=0.6 [algorithm=LO] [dims=0,1] — commands:"
            " explain [key=value...], stats, pids, quit",
            file=sys.stderr,
        )
        while True:
            try:
                line = input("skyline> ").strip()
            except EOFError:
                print(file=sys.stderr)
                break
            if not line:
                continue
            try:
                command, kwargs = _serve_parse_line(line)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                continue
            if command in ("quit", "exit"):
                break
            if command == "explain":
                try:
                    print(engine.explain(handle, **kwargs))
                except Exception as exc:
                    print(f"error: {exc}", file=sys.stderr)
                continue
            if command == "pids":
                print(engine.worker_pids)
                continue
            if command == "stats":
                s = engine.stats
                print(
                    f"queries={s.queries} (warm={s.warm_queries},"
                    f" cold={s.cold_queries}) attaches={s.attaches}"
                    f" batches={s.batches} slot_respawns={s.slot_respawns}"
                )
                continue
            if command is not None:
                print(f"error: unknown command {command!r}", file=sys.stderr)
                continue
            try:
                _serve_run_one(engine, handle, kwargs)
            except Exception as exc:
                print(f"error: {exc}", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    from .core.diagnostics import serial_plan
    from .plan.stats import describe_statistics

    table = load_csv(args.csv)
    keys = [c.strip() for c in args.group_by.split(",") if c.strip()]
    measures, directions = _parse_measures(args.of)
    dataset = grouped_dataset_from_table(table, keys, measures, directions)
    decision = serial_plan(dataset)
    print(describe_statistics(decision.statistics))
    print(f"suggested algorithm: {decision.algorithm}")
    return 0


def _render_key(key) -> str:
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def _cmd_generate(args) -> int:
    spec = SyntheticSpec(
        n_records=args.records,
        avg_group_size=args.group_size,
        dimensions=args.dims,
        distribution=args.distribution,
        group_spread=args.spread,
        size_distribution=args.sizes,
        seed=args.seed,
    )
    dataset = generate_grouped(spec)
    columns = ["group", *(f"a{i}" for i in range(spec.dimensions))]
    rows = [
        [group.key, *(float(v) for v in record)]
        for group in dataset
        for record in group.values
    ]
    save_csv(Table(columns, rows), args.out)
    print(
        f"wrote {len(rows)} records in {len(dataset)} groups to {args.out}"
    )
    return 0


def _cmd_nba(args) -> int:
    table = nba_table(seed=args.seed, target_rows=args.rows)
    save_csv(table, args.out)
    print(f"wrote {len(table)} player-seasons to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    report = run_figure(args.figure, scale=args.scale, workers=args.workers)
    print(report.text)
    return 0


def _cmd_compare(args) -> int:
    from .harness.persistence import load_results

    baseline = load_results(args.baseline)
    contender = load_results(args.contender)

    def key_of(result):
        return (
            result.experiment,
            tuple(sorted((k, str(v)) for k, v in result.params.items())),
            result.algorithm,
        )

    contenders = {key_of(r): r for r in contender}
    rows = []
    for before in baseline:
        after = contenders.get(key_of(before))
        if after is None or after.elapsed_seconds == 0:
            continue
        rows.append(
            (
                before.experiment,
                before.algorithm,
                _render_key(tuple(f"{k}={v}" for k, v in before.params.items())),
                round(before.elapsed_seconds, 4),
                round(after.elapsed_seconds, 4),
                round(before.elapsed_seconds / after.elapsed_seconds, 2),
            )
        )
    if not rows:
        print("no overlapping measurements between the two files")
        return 1
    print(
        Table(
            ["experiment", "algorithm", "params",
             "before (s)", "after (s)", "speed-up"],
            rows,
        ).to_text()
    )
    # Work-counter deltas (only shown when some counter actually moved):
    # a genuine perf win reduces comparisons/pairs, not just wall-clock.
    from .harness.reporting import counter_delta_table

    deltas = counter_delta_table(baseline, contender)
    if len(deltas):
        print("\nwork-counter deltas:")
        print(deltas.to_text())
    return 0


def _cmd_dataset(args) -> int:
    from .data.store import load_grouped, read_manifest, save_grouped

    if args.dataset_command == "info":
        manifest = read_manifest(args.path)
        dataset = load_grouped(args.path)
        print(f"format version : {manifest.get('version')}")
        print(f"groups         : {len(dataset)}")
        print(f"records        : {dataset.total_records}")
        print(f"dimensions     : {dataset.dimensions}")
        print(
            "directions     : "
            + ",".join(d.value for d in dataset.directions)
        )
        print(f"fingerprint    : {dataset.fingerprint()}")
        return 0

    # convert
    source_version = read_manifest(args.source).get("version")
    # mmap=False: the conversion reads everything once anyway, and an
    # eager load keeps the destination independent of the source file.
    dataset = load_grouped(args.source, mmap=False)
    save_grouped(dataset, args.destination, version=args.target_version)
    if not args.no_check:
        back = load_grouped(args.destination, mmap=False)
        if back.fingerprint() != dataset.fingerprint():
            print(
                "round-trip check FAILED: converted archive does not"
                " reproduce the source dataset",
                file=sys.stderr,
            )
            return 1
    print(
        f"converted {args.source} (v{source_version}) -> "
        f"{args.destination} (v{args.target_version}): "
        f"{len(dataset)} groups, {dataset.total_records} records"
        + ("" if args.no_check else " [round-trip OK]")
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
