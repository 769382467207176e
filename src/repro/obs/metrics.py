"""Process-wide metrics registry: counters, gauges and histograms.

The paper argues every algorithmic claim through *work counters* — group
comparisons (Eq. 3), record-pair checks (Eq. 4), stopping-rule and MBB
shortcut savings.  This module gives those counters a first-class home: a
lightweight, thread-safe :class:`MetricsRegistry` with Prometheus-style
instruments and exporters, so a long-running engine can expose the same
numbers the benchmarks print, continuously.

Design notes
------------
* **Labels.**  Instruments are declared with a tuple of label *names*
  (``("algorithm",)``); every write supplies label *values* as keyword
  arguments (``counter.inc(3, algorithm="LO")``).  ``labels(...)`` returns a
  bound child that skips label resolution on the hot path.
* **Histograms** use fixed, monotonically increasing bucket upper bounds.
  Two log-scale presets are provided: :data:`DEFAULT_LATENCY_BUCKETS`
  (powers of ten, 1µs … 100s) and :data:`DEFAULT_COUNT_BUCKETS` (powers of
  four, 1 … ~4M) for pair counts.
* **Exporters.**  :meth:`MetricsRegistry.to_prometheus` emits the text
  exposition format; :meth:`MetricsRegistry.as_dict` /
  :meth:`MetricsRegistry.to_json` a JSON document for benchmark payloads.
* **Global default.**  :func:`get_registry` returns the process-global
  registry; tests and scoped collections swap it with
  :func:`use_registry`.  The cheap end-of-run counter flush (once per
  ``compute()``) is always on; *detailed* per-comparison instruments are
  gated behind :func:`enable` / :func:`is_enabled` so the disabled path
  costs a single ``None`` check.
* **Engine and pool counters.**  The persistent-session layer
  (:mod:`repro.engine`) reports through the same registry: the session's
  ``engine_starts_total``, ``engine_attaches_total`` and
  ``engine_queries_total{mode=warm|cold}``, and the process pool's
  ``pool_slot_crashes_total``, ``pool_slot_respawns_total``,
  ``pool_slots_retired_total`` and ``pool_inline_fallbacks_total``.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "log_buckets",
    "get_registry",
    "set_registry",
    "use_registry",
    "enable",
    "disable",
    "is_enabled",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def log_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` log-scale bucket upper bounds: start, start*factor, ..."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


#: 1µs … 100s in decades — wide enough for a single comparison and a full run.
DEFAULT_LATENCY_BUCKETS = log_buckets(1e-6, 10.0, 9)

#: 1 … ~4.2M in powers of four — record-pair counts per comparison/run.
DEFAULT_COUNT_BUCKETS = log_buckets(1.0, 4.0, 12)


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class _Instrument:
    """Shared machinery: name/help/labelnames plus a locked series map."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames},"
                f" got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def clear(self) -> None:
        with self._lock:
            self._series.clear()

    def series_keys(self) -> List[Tuple[str, ...]]:
        with self._lock:
            return list(self._series)


class _BoundCounter:
    """Label-resolved fast path for a :class:`Counter`."""

    __slots__ = ("_instrument", "_key")

    def __init__(self, instrument: "Counter", key: Tuple[str, ...]):
        self._instrument = instrument
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._instrument._inc_key(self._key, amount)


class Counter(_Instrument):
    """Monotonically increasing value (e.g. record pairs examined)."""

    kind = "counter"

    def _inc_key(self, key: Tuple[str, ...], amount: float) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._series[key] = float(self._series.get(key, 0.0)) + amount

    def inc(self, amount: float = 1.0, **labels) -> None:
        self._inc_key(self._key(labels), amount)

    def labels(self, **labels) -> _BoundCounter:
        return _BoundCounter(self, self._key(labels))

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))


class _BoundGauge:
    __slots__ = ("_instrument", "_key")

    def __init__(self, instrument: "Gauge", key: Tuple[str, ...]):
        self._instrument = instrument
        self._key = key

    def set(self, value: float) -> None:
        self._instrument._set_key(self._key, value)

    def inc(self, amount: float = 1.0) -> None:
        self._instrument._add_key(self._key, amount)

    def dec(self, amount: float = 1.0) -> None:
        self._instrument._add_key(self._key, -amount)


class Gauge(_Instrument):
    """A value that can go up and down (e.g. pair budget of a dataset)."""

    kind = "gauge"

    def _set_key(self, key: Tuple[str, ...], value: float) -> None:
        with self._lock:
            self._series[key] = float(value)

    def _add_key(self, key: Tuple[str, ...], amount: float) -> None:
        with self._lock:
            self._series[key] = float(self._series.get(key, 0.0)) + amount

    def set(self, value: float, **labels) -> None:
        self._set_key(self._key(labels), value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        self._add_key(self._key(labels), amount)

    def dec(self, amount: float = 1.0, **labels) -> None:
        self._add_key(self._key(labels), -amount)

    def labels(self, **labels) -> _BoundGauge:
        return _BoundGauge(self, self._key(labels))

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0


class _BoundHistogram:
    __slots__ = ("_instrument", "_key")

    def __init__(self, instrument: "Histogram", key: Tuple[str, ...]):
        self._instrument = instrument
        self._key = key

    def observe(self, value: float) -> None:
        self._instrument._observe_key(self._key, value)


class Histogram(_Instrument):
    """Fixed-bucket distribution (log-scale presets for latencies/counts).

    ``buckets`` are upper bounds with Prometheus ``le`` semantics: an
    observation lands in the first bucket whose bound is ``>= value``; a
    ``+Inf`` bucket is implicit.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_COUNT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError("buckets must be non-empty and increasing")
        self.buckets = bounds

    def _observe_key(self, key: Tuple[str, ...], value: float) -> None:
        index = bisect_left(self.buckets, float(value))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets))
                self._series[key] = series
            series.counts[index] += 1
            series.sum += float(value)
            series.count += 1

    def observe(self, value: float, **labels) -> None:
        self._observe_key(self._key(labels), value)

    def labels(self, **labels) -> _BoundHistogram:
        return _BoundHistogram(self, self._key(labels))

    def snapshot(self, **labels) -> Dict[str, object]:
        """Per-bucket (non-cumulative) counts plus sum/count."""
        with self._lock:
            series = self._series.get(self._key(labels))
            if series is None:
                return {"buckets": {}, "sum": 0.0, "count": 0}
            uppers = [*self.buckets, float("inf")]
            return {
                "buckets": dict(zip(uppers, list(series.counts))),
                "sum": series.sum,
                "count": series.count,
            }


class MetricsRegistry:
    """Thread-safe, name-keyed collection of instruments.

    Instrument factories are idempotent: asking twice for the same name
    returns the same object; asking with a conflicting kind or label set
    raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    # -- factories ------------------------------------------------------

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as"
                        f" {existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_COUNT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    # -- access ---------------------------------------------------------

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def __iter__(self) -> Iterator[_Instrument]:
        with self._lock:
            return iter(list(self._instruments.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def reset(self) -> None:
        """Clear every series (instrument declarations are kept)."""
        for instrument in self:
            instrument.clear()

    # -- exporters ------------------------------------------------------

    def to_prometheus(self) -> str:
        """Text exposition format (one block per instrument)."""
        lines: List[str] = []
        for instrument in self:
            lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            names = instrument.labelnames
            if isinstance(instrument, Histogram):
                for key in instrument.series_keys():
                    with instrument._lock:
                        series = instrument._series[key]
                        counts = list(series.counts)
                        total, summed = series.count, series.sum
                    cumulative = 0
                    uppers = [*instrument.buckets, float("inf")]
                    for upper, count in zip(uppers, counts):
                        cumulative += count
                        labels = _format_labels(
                            (*names, "le"), (*key, _format_number(upper))
                        )
                        lines.append(
                            f"{instrument.name}_bucket{labels} {cumulative}"
                        )
                    base = _format_labels(names, key)
                    lines.append(
                        f"{instrument.name}_sum{base} {_format_number(summed)}"
                    )
                    lines.append(f"{instrument.name}_count{base} {total}")
            else:
                for key in instrument.series_keys():
                    with instrument._lock:
                        value = instrument._series[key]
                    labels = _format_labels(names, key)
                    lines.append(
                        f"{instrument.name}{labels} {_format_number(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_openmetrics(self) -> str:
        """OpenMetrics 1.0 text exposition.

        Differences from :meth:`to_prometheus`: counter *families* are
        named without the ``_total`` suffix in ``# HELP`` / ``# TYPE``
        (samples keep it), the histogram ``le`` / sample grammar is
        shared, and the output is terminated by the mandatory ``# EOF``
        marker scrapers use to detect truncated exposition.
        """
        lines: List[str] = []
        for instrument in self:
            family = instrument.name
            if instrument.kind == "counter" and family.endswith("_total"):
                family = family[: -len("_total")]
            lines.append(f"# HELP {family} {instrument.help}")
            lines.append(f"# TYPE {family} {instrument.kind}")
            names = instrument.labelnames
            if isinstance(instrument, Histogram):
                for key in instrument.series_keys():
                    with instrument._lock:
                        series = instrument._series[key]
                        counts = list(series.counts)
                        total, summed = series.count, series.sum
                    cumulative = 0
                    uppers = [*instrument.buckets, float("inf")]
                    for upper, count in zip(uppers, counts):
                        cumulative += count
                        labels = _format_labels(
                            (*names, "le"), (*key, _format_number(upper))
                        )
                        lines.append(f"{family}_bucket{labels} {cumulative}")
                    base = _format_labels(names, key)
                    lines.append(
                        f"{family}_sum{base} {_format_number(summed)}"
                    )
                    lines.append(f"{family}_count{base} {total}")
            else:
                suffix = "_total" if instrument.kind == "counter" else ""
                for key in instrument.series_keys():
                    with instrument._lock:
                        value = instrument._series[key]
                    labels = _format_labels(names, key)
                    lines.append(
                        f"{family}{suffix}{labels} {_format_number(value)}"
                    )
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        """JSON-friendly snapshot of every instrument and series."""
        out: Dict[str, dict] = {}
        for instrument in self:
            series: List[dict] = []
            names = instrument.labelnames
            if isinstance(instrument, Histogram):
                for key in instrument.series_keys():
                    with instrument._lock:
                        raw = instrument._series[key]
                        counts = list(raw.counts)
                        total, summed = raw.count, raw.sum
                    uppers = [*instrument.buckets, float("inf")]
                    series.append(
                        {
                            "labels": dict(zip(names, key)),
                            "buckets": {
                                _format_number(u): c
                                for u, c in zip(uppers, counts)
                            },
                            "sum": summed,
                            "count": total,
                        }
                    )
            else:
                for key in instrument.series_keys():
                    with instrument._lock:
                        value = instrument._series[key]
                    series.append(
                        {"labels": dict(zip(names, key)), "value": value}
                    )
            out[instrument.name] = {
                "type": instrument.kind,
                "help": instrument.help,
                "series": series,
            }
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# process-global default registry + enable flag
# ----------------------------------------------------------------------

_default_registry = MetricsRegistry()
_detailed_enabled = False
_state_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the global registry (returns the previous one)."""
    global _default_registry
    with _state_lock:
        previous, _default_registry = _default_registry, registry
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None):
    """Scope the global registry to ``registry`` (a fresh one by default)."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Turn on detailed (per-comparison) instrumentation."""
    global _detailed_enabled
    if registry is not None:
        set_registry(registry)
    _detailed_enabled = True
    return get_registry()


def disable() -> None:
    global _detailed_enabled
    _detailed_enabled = False


def is_enabled() -> bool:
    """Whether detailed per-comparison instruments should be recorded."""
    return _detailed_enabled
