"""One function per paper figure/table: the reproduction experiments.

Each ``figure_*`` function builds the workloads of one figure of the
evaluation section, runs the paper's algorithms, and returns a
:class:`FigureReport` holding the raw measurements plus a self-describing
text report (series tables in the figure's layout and the paper-expected
shape).  The ``benchmarks/`` suite and the CLI both dispatch through the
:data:`FIGURES` registry.

Workload sizes honour the paper's defaults (10 000 records, 100 records per
class, spread 20 %, d=5, γ=.5) at ``scale="paper"`` and shrink
proportionally at ``"small"`` (default) and ``"smoke"`` so the whole suite
runs in minutes on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from ..core.execution import ExecutionConfig
from ..core.gamma import dominance_probability
from ..data.movies import directors_dataset
from ..data.nba import STAT_COLUMNS, nba_table
from ..data.synthetic import SyntheticSpec, generate_grouped
from ..relational.operators import grouped_dataset_from_table
from ..relational.table import Table
from .plotting import chart_from_results
from .reporting import format_figure, series_table, speedup_table
from .runner import RunResult, run_algorithms, sweep

__all__ = ["FigureReport", "FIGURES", "SCALES", "run_figure"]

#: Scale factors applied to the paper's workload sizes.
SCALES: Dict[str, float] = {"smoke": 0.04, "small": 0.2, "paper": 1.0}

MAIN_ALGORITHMS = ("NL", "TR", "SI", "IN", "LO")
DISTRIBUTION_PANELS = ("anticorrelated", "independent", "correlated")


@dataclass
class FigureReport:
    """Measurements and rendered report for one figure."""

    figure_id: str
    caption: str
    expectation: str
    results: List[RunResult] = field(default_factory=list)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def _factor(scale: str) -> float:
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None


def _scaled(value: int, factor: float, minimum: int = 1) -> int:
    return max(minimum, int(round(value * factor)))


def _synthetic(
    n_records: int,
    distribution: str,
    dimensions: int = 5,
    avg_group_size: int = 100,
    group_spread: float = 0.2,
    size_distribution: str = "uniform",
    seed: int = 0,
) -> "SyntheticSpec":
    return SyntheticSpec(
        n_records=n_records,
        avg_group_size=avg_group_size,
        dimensions=dimensions,
        distribution=distribution,
        group_spread=group_spread,
        size_distribution=size_distribution,
        seed=seed,
    )




class _TextBlock:
    """Adapts pre-rendered text (e.g. an ASCII chart) to the report layout."""

    def __init__(self, text: str):
        self._text = text

    def to_text(self) -> str:
        return self._text


def _chart_table(results, parameter: str) -> "_TextBlock":
    return _TextBlock(chart_from_results(results, parameter))


def _distribution_panels(
    figure_id: str,
    caption: str,
    expectation: str,
    parameter: str,
    values: Sequence,
    spec_for: Callable[[str, object], SyntheticSpec],
    algorithms: Sequence[str] = MAIN_ALGORITHMS,
) -> FigureReport:
    """Shared driver for the three-panel figures (10, 11, 12)."""
    all_results: List[RunResult] = []
    tables: List[Tuple[str, Table]] = []
    for distribution in DISTRIBUTION_PANELS:
        results = sweep(
            experiment=figure_id,
            parameter=parameter,
            values=values,
            dataset_factory=lambda v, d=distribution: generate_grouped(
                spec_for(d, v)
            ),
            algorithms=algorithms,
            extra_params={"distribution": distribution},
        )
        all_results.extend(results)
        tables.append((distribution, series_table(results, parameter)))
        tables.append(
            (f"{distribution} (chart)", _chart_table(results, parameter))
        )
    report = FigureReport(figure_id, caption, expectation, all_results)
    report.text = format_figure(figure_id, caption, expectation, tables)
    return report


# ----------------------------------------------------------------------
# Table 2 (the motivating probabilities)
# ----------------------------------------------------------------------


def table2(scale: str = "small") -> FigureReport:
    """Table 2: p(S > R) for the director examples of Figure 5."""
    del scale  # the curated dataset has one size
    dataset = directors_dataset()
    pairs = [
        ("Tarantino", "Wiseau"),
        ("Tarantino", "Fleischer"),
        ("Tarantino", "Jackson"),
        ("Wiseau", "Tarantino"),
        ("Fleischer", "Tarantino"),
        ("Jackson", "Tarantino"),
    ]
    rows = []
    for s, r in pairs:
        p = dominance_probability(dataset[s], dataset[r])
        rows.append((s, r, f"{float(p):.2f}", f"{p.numerator}/{p.denominator}"))
    table = Table(["S", "R", "p(S>R)", "exact"], rows)
    caption = "p(S>R) for the Figure-5 director examples"
    expectation = "1.00 / .94 / .68 / .00 / .06 / .26"
    report = FigureReport("table2", caption, expectation)
    report.text = format_figure("table2", caption, expectation, [("", table)])
    return report


# ----------------------------------------------------------------------
# Figure 8: SQL scalability
# ----------------------------------------------------------------------


def figure8(scale: str = "small") -> FigureReport:
    """Figure 8: scalability of the direct SQL implementation (sqlite)."""
    factor = _factor(scale)
    ns = [_scaled(n, factor, 100) for n in (1000, 2000, 4000, 8000)]
    results = sweep(
        experiment="fig8",
        parameter="n_records",
        values=ns,
        dataset_factory=lambda n: generate_grouped(
            _synthetic(n, "independent", dimensions=2, avg_group_size=50)
        ),
        algorithms=("SQL", "NL", "LO"),
    )
    caption = "run time vs. number of records, Algorithm-1 SQL on sqlite"
    expectation = (
        "SQL grows super-linearly (quadratic self-join); the native"
        " algorithms beat it by 1-2 orders of magnitude"
    )
    tables = [
        ("run time (s)", series_table(results, "n_records")),
        ("speed-up over SQL", speedup_table(results, "n_records", "SQL")),
        ("chart", _chart_table(results, "n_records")),
    ]
    report = FigureReport("fig8", caption, expectation, results)
    report.text = format_figure("fig8", caption, expectation, tables)
    return report


# ----------------------------------------------------------------------
# Figure 10: dimensionality
# ----------------------------------------------------------------------


def figure10(scale: str = "small") -> FigureReport:
    factor = _factor(scale)
    n = _scaled(10_000, factor, 400)
    group_size = _scaled(100, max(factor, 0.2), 10)
    return _distribution_panels(
        figure_id="fig10",
        caption="run time vs. dimensionality (three data distributions)",
        expectation=(
            "index-based IN/LO consistently fastest, biggest gap on"
            " anti-correlated data; TR/SI also improve on independent and"
            " correlated data; NL slowest"
        ),
        parameter="dimensions",
        values=[2, 3, 4, 5, 6, 7],
        spec_for=lambda dist, d: _synthetic(
            n, dist, dimensions=int(d), avg_group_size=group_size
        ),
    )


# ----------------------------------------------------------------------
# Figure 11: group overlap
# ----------------------------------------------------------------------


def figure11(scale: str = "small") -> FigureReport:
    factor = _factor(scale)
    n = _scaled(10_000, factor, 400)
    group_size = _scaled(100, max(factor, 0.2), 10)
    return _distribution_panels(
        figure_id="fig11",
        caption="run time vs. group spread/overlap (three distributions)",
        expectation=(
            "with large overlap the window query returns almost all groups"
            " and pure indexing (IN) loses its edge, possibly falling behind"
            " NL; LO stays competitive thanks to the bbox pre-counting"
        ),
        parameter="group_spread",
        values=[0.1, 0.2, 0.4, 0.6, 0.8],
        spec_for=lambda dist, spread: _synthetic(
            n, dist, avg_group_size=group_size, group_spread=float(spread)
        ),
    )


# ----------------------------------------------------------------------
# Figure 12: scalability in the number of records
# ----------------------------------------------------------------------


def figure12(scale: str = "small") -> FigureReport:
    factor = _factor(scale)
    ns = [_scaled(n, factor, 200) for n in (2_500, 5_000, 10_000, 20_000)]
    group_size = _scaled(100, max(factor, 0.2), 10)
    return _distribution_panels(
        figure_id="fig12",
        caption="run time vs. number of records (three distributions)",
        expectation=(
            "index methods outperform the rest on anti-correlated data;"
            " the gap narrows on independent and correlated data"
        ),
        parameter="n_records",
        values=ns,
        spec_for=lambda dist, n: _synthetic(
            int(n), dist, avg_group_size=group_size
        ),
    )


# ----------------------------------------------------------------------
# Figure 13: Zipfian sizes, index range, records per class
# ----------------------------------------------------------------------


def figure13a(scale: str = "small") -> FigureReport:
    factor = _factor(scale)
    ns = [_scaled(n, factor, 200) for n in (2_500, 5_000, 10_000, 20_000)]
    group_size = _scaled(100, max(factor, 0.2), 10)
    results = sweep(
        experiment="fig13a",
        parameter="n_records",
        values=ns,
        dataset_factory=lambda n: generate_grouped(
            _synthetic(
                int(n),
                "anticorrelated",
                avg_group_size=group_size,
                size_distribution="zipf",
            )
        ),
        algorithms=MAIN_ALGORITHMS,
    )
    caption = "scalability with Zipfian records-per-class, anti-correlated"
    expectation = (
        "the sort-based method (small-groups-first global optimisation)"
        " improves under heavy-tailed group sizes but stays behind the"
        " index-based methods"
    )
    report = FigureReport("fig13a", caption, expectation, results)
    report.text = format_figure(
        "fig13a", caption, expectation,
        [
            ("run time (s)", series_table(results, "n_records")),
            ("chart", _chart_table(results, "n_records")),
        ],
    )
    return report


def figure13b(scale: str = "small") -> FigureReport:
    factor = _factor(scale)
    ns = [_scaled(n, factor, 200) for n in (5_000, 10_000, 20_000, 40_000)]
    group_size = _scaled(100, max(factor, 0.2), 10)
    results = sweep(
        experiment="fig13b",
        parameter="n_records",
        values=ns,
        dataset_factory=lambda n: generate_grouped(
            _synthetic(int(n), "anticorrelated", avg_group_size=group_size)
        ),
        algorithms=("IN", "LO"),
    )
    caption = "index-based methods over a wider record range, anti-correlated"
    expectation = "IN and LO scale smoothly; LO at or below IN"
    report = FigureReport("fig13b", caption, expectation, results)
    report.text = format_figure(
        "fig13b", caption, expectation,
        [
            ("run time (s)", series_table(results, "n_records")),
            ("chart", _chart_table(results, "n_records")),
        ],
    )
    return report


def figure13c(scale: str = "small") -> FigureReport:
    factor = _factor(scale)
    n = _scaled(10_000, factor, 500)
    sizes = [10, 25, 50, 100, 250]
    results = sweep(
        experiment="fig13c",
        parameter="records_per_class",
        values=sizes,
        dataset_factory=lambda size: generate_grouped(
            _synthetic(n, "anticorrelated", avg_group_size=int(size))
        ),
        algorithms=MAIN_ALGORITHMS,
    )
    caption = "run time vs. records per class (fixed total), anti-correlated"
    expectation = (
        "small classes mean many groups (external cost dominates); large"
        " classes mean quadratic internal cost — the optimised algorithms"
        " flatten the trade-off the baseline cannot"
    )
    report = FigureReport("fig13c", caption, expectation, results)
    report.text = format_figure(
        "fig13c", caption, expectation,
        [
            ("run time (s)", series_table(results, "records_per_class")),
            ("chart", _chart_table(results, "records_per_class")),
        ],
    )
    return report


# ----------------------------------------------------------------------
# Figure 14: NBA data, four grouping granularities
# ----------------------------------------------------------------------

NBA_GROUPINGS: Tuple[Tuple[str, Tuple[str, ...], int], ...] = (
    # (panel name, grouping columns, number of skyline attributes)
    ("by team, 8 attrs", ("team",), 8),
    ("by year, 4 attrs", ("year",), 4),
    ("by team+year, 4 attrs", ("team", "year"), 4),
    ("by player, 8 attrs", ("player",), 8),
)


def figure14(scale: str = "small") -> FigureReport:
    factor = _factor(scale)
    rows = _scaled(15_000, factor, 400)
    table = nba_table(seed=7, target_rows=rows)
    include_sql = rows <= 4_000
    algorithms = (("SQL",) if include_sql else ()) + MAIN_ALGORITHMS
    all_results: List[RunResult] = []
    tables: List[Tuple[str, Table]] = []
    for panel, grouping, attr_count in NBA_GROUPINGS:
        measures = list(STAT_COLUMNS[:attr_count])
        dataset = grouped_dataset_from_table(table, list(grouping), measures)
        results = run_algorithms(
            dataset,
            algorithms=algorithms,
            experiment="fig14",
            params={"grouping": panel, "groups": len(dataset)},
        )
        all_results.extend(results)
        tables.append((panel, series_table(results, "grouping")))
    caption = (
        f"NBA player-season statistics ({rows} rows, synthetic stand-in),"
        " grouped four ways"
    )
    expectation = (
        "coarse groupings (team/year): up to two orders of magnitude over"
        " the baseline; many tiny groups with 8 attributes (player): only"
        " ~15% improvement"
    )
    report = FigureReport("fig14", caption, expectation, all_results)
    report.text = format_figure("fig14", caption, expectation, tables)
    return report


# ----------------------------------------------------------------------
# Ablations (design-choice toggles, DESIGN.md section 6)
# ----------------------------------------------------------------------


def ablations(scale: str = "small") -> FigureReport:
    factor = _factor(scale)
    n = _scaled(6_000, factor, 300)
    group_size = _scaled(60, max(factor, 0.2), 10)
    dataset = generate_grouped(
        _synthetic(n, "anticorrelated", avg_group_size=group_size)
    )
    # A fine block size so the stopping rule has sub-group granularity even
    # on the scaled-down workload (with the default 1024-pair blocks a small
    # group fits in one block and the rule never gets a chance to stop).
    variants: List[Tuple[str, str, Dict]] = [
        ("NL", "NL / stop rule ON", {"block_size": 64}),
        ("NL", "NL / stop rule OFF", {"use_stopping_rule": False}),
        ("TR", "TR / paper pruning", {"prune_policy": "paper"}),
        ("TR", "TR / safe pruning", {"prune_policy": "safe"}),
        ("SI", "SI / size+corner key", {"sort_key": "size_corner"}),
        ("SI", "SI / corner-distance key", {"sort_key": "corner_distance"}),
        ("IN", "IN / r-tree", {}),
        ("IN", "IN / bbox counting ON", {"use_bbox": True}),
        ("LO", "LO (IN + bbox)", {}),
        ("AD", "AD (adaptive dispatch)", {}),
    ]
    results: List[RunResult] = []
    for algorithm, label, options in variants:
        measured = run_algorithms(
            dataset,
            algorithms=(algorithm,),
            experiment="ablations",
            params={"variant": label},
            algorithm_options={algorithm: options},
        )[0]
        measured.algorithm = label
        results.append(measured)
    rows = [
        (
            r.algorithm,
            round(r.elapsed_seconds, 4),
            r.group_comparisons,
            r.record_pairs,
            r.skyline_size,
        )
        for r in results
    ]
    table = Table(
        ["variant", "time (s)", "group cmp", "record pairs", "skyline"], rows
    )
    caption = "optimisation toggles on one anti-correlated workload"
    expectation = (
        "stopping rule and bbox counting cut record pairs; paper pruning"
        " cuts group comparisons; results identical across variants here"
    )
    report = FigureReport("ablations", caption, expectation, results)
    report.text = format_figure(
        "ablations", caption, expectation, [("", table)]
    )
    return report


def extensions(scale: str = "small") -> FigureReport:
    """Extension features timed against the batch LO baseline."""
    factor = _factor(scale)
    n = _scaled(5_000, factor, 300)
    group_size = _scaled(50, max(factor, 0.2), 10)
    dataset = generate_grouped(
        _synthetic(n, "anticorrelated", dimensions=3,
                   avg_group_size=group_size)
    )

    from ..core.anytime import AnytimeAggregateSkyline
    from ..core.layers import skyline_layers
    from ..core.partitioned import partitioned_aggregate_skyline
    from ..core.ranking import compute_gamma_profile
    from ..core.result import Timer
    from ..core.sampling import approximate_aggregate_skyline
    from ..core.algorithms import make_algorithm

    rows = []

    def measure(label, thunk, describe):
        with Timer() as timer:
            value = thunk()
        rows.append((label, round(timer.elapsed, 4), describe(value)))
        return value

    baseline = measure(
        "LO (batch baseline)",
        lambda: make_algorithm("LO", 0.5).compute(dataset),
        lambda r: f"{len(r)} groups",
    )
    measure(
        "anytime (run to exact)",
        lambda: AnytimeAggregateSkyline(dataset, 0.5).run(),
        lambda r: f"{len(r)} groups",
    )
    measure(
        "partitioned (4 parts)",
        lambda: partitioned_aggregate_skyline(dataset, partitions=4),
        lambda r: f"{len(r)} groups",
    )
    measure(
        "sampled (1024/pair)",
        lambda: approximate_aggregate_skyline(dataset, samples=1024),
        lambda r: f"{len(r)} groups (superset)",
    )
    measure(
        "gamma profile (pruned)",
        lambda: compute_gamma_profile(dataset),
        lambda p: f"{len(p)} degrees",
    )
    measure(
        "skyline layers",
        lambda: skyline_layers(dataset),
        lambda l: f"{len(l)} layers",
    )

    table = Table(["feature", "time (s)", "result"], rows)
    caption = (
        f"extension features on one anti-correlated workload"
        f" ({dataset.total_records} records, {len(dataset)} groups)"
    )
    expectation = (
        "anytime/partitioned/sampled reproduce or bound the batch result;"
        " profile and layers add ranking on top"
    )
    report = FigureReport("extensions", caption, expectation)
    report.text = format_figure(
        "extensions", caption, expectation, [("", table)]
    )
    del baseline
    return report


def parallel_scaling(
    scale: str = "small", workers: "int | None" = None
) -> FigureReport:
    """Extension: serial ``NL`` vs ``PAR`` at increasing worker counts.

    A >= 200-group anti-correlated workload is solved once by the serial
    nested loop and once per worker count by the parallel chunked executor
    (deterministic two-phase mode, so every run returns the byte-identical
    skyline and the identical record-pair count — only the wall clock may
    move).  ``workers`` extends the default ``1, 2, 4`` ladder with an
    explicit top rung (``aggskyline experiment parallel --workers 8``).
    """
    from ..relational.table import Table as _Table

    factor = _factor(scale)
    n_records = _scaled(10_000, factor, minimum=4_000)
    group_size = max(10, n_records // 200)  # at least ~200 groups
    spec = _synthetic(
        n_records, "anticorrelated", dimensions=5, avg_group_size=group_size
    )
    dataset = generate_grouped(spec)
    worker_counts = sorted({1, 2, 4} | ({workers} if workers else set()))

    results = run_algorithms(
        dataset,
        algorithms=("NL",),
        experiment="parallel",
        params={"workers": 0, "groups": len(dataset)},
    )
    for count in worker_counts:
        results.extend(
            run_algorithms(
                dataset,
                algorithms=("PAR",),
                experiment="parallel",
                params={"workers": count, "groups": len(dataset)},
                execution=ExecutionConfig(workers=count),
            )
        )

    serial = results[0]
    rows = [["NL (serial)", round(serial.elapsed_seconds, 4),
             serial.record_pairs, serial.skyline_size, 1.0]]
    identical = True
    for measured in results[1:]:
        rows.append(
            [
                f"PAR workers={measured.workers}",
                round(measured.elapsed_seconds, 4),
                measured.record_pairs,
                measured.skyline_size,
                round(serial.elapsed_seconds / measured.elapsed_seconds, 2)
                if measured.elapsed_seconds
                else None,
            ]
        )
        identical = identical and (
            measured.skyline_keys == serial.skyline_keys
            and measured.record_pairs == serial.record_pairs
        )
    table = _Table(
        ["configuration", "time (s)", "record pairs", "skyline", "speed-up"],
        rows,
    )
    caption = (
        f"parallel group-pair execution on {len(dataset)} groups"
        f" ({dataset.total_records} records, anti-correlated)"
    )
    expectation = (
        "identical skylines and record-pair counts at every worker count;"
        " wall-clock drops as workers are added (hardware permitting)"
    )
    report = FigureReport("parallel", caption, expectation, results=results)
    body = [("serial vs parallel", table)]
    report.text = format_figure("parallel", caption, expectation, body)
    report.text += (
        "\nresults identical across worker counts: "
        + ("yes" if identical else "NO (investigate!)")
        + "\n"
    )
    return report


FIGURES: Dict[str, Callable[[str], FigureReport]] = {
    "table2": table2,
    "fig8": figure8,
    "fig10": figure10,
    "fig11": figure11,
    "fig12": figure12,
    "fig13a": figure13a,
    "fig13b": figure13b,
    "fig13c": figure13c,
    "fig14": figure14,
    "ablations": ablations,
    "extensions": extensions,
    "parallel": parallel_scaling,
}

#: Figures whose builder accepts a ``workers`` keyword.
_WORKER_AWARE_FIGURES = frozenset({"parallel"})


def run_figure(
    figure_id: str, scale: str = "small", workers: "int | None" = None
) -> FigureReport:
    """Regenerate one figure by id (see :data:`FIGURES`).

    ``workers`` is forwarded to worker-aware figures (currently
    ``"parallel"``) and ignored by the serial reproductions.
    """
    try:
        builder = FIGURES[figure_id]
    except KeyError:
        raise ValueError(
            f"unknown figure {figure_id!r}; choose from {sorted(FIGURES)}"
        ) from None
    if workers is not None and figure_id in _WORKER_AWARE_FIGURES:
        return builder(scale, workers=workers)
    return builder(scale)
