"""Unified execution configuration for parallel-capable algorithms.

This module is the single validation point for everything that controls
*how* an algorithm runs (as opposed to *what* it computes): pool size,
chunk scheduling policy, shared-memory shipping, the pool timeout and
the crash policy.  ``execution=`` is the only way to set them.

The public surface:

* :class:`ExecutionConfig` — a frozen dataclass validated on
  construction, accepted by :func:`repro.core.api.aggregate_skyline`,
  :func:`repro.core.algorithms.make_algorithm`,
  :func:`repro.harness.runner.run_algorithms` / ``sweep`` and the SQL
  ``USING ALGORITHM`` path.
* :func:`coerce_execution` — accept ``None`` / ``ExecutionConfig`` /
  mapping / ``"k=v,k=v"`` spec string and return a validated config.
* :func:`normalize_options` — rejects options an algorithm does not
  take with a did-you-mean suggestion instead of silently dropping them;
  an :class:`ExecutionConfig` field name is pointed at ``execution=``.
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Optional, Tuple

__all__ = [
    "ExecutionConfig",
    "SCHEDULERS",
    "ON_FAILURE_POLICIES",
    "coerce_execution",
    "normalize_options",
    "reject_kwargs",
    "suggest",
]

#: Valid chunk-scheduling policies: how the span space is cut.  The pool
#: hands the chunks out in order to whichever worker frees up either way.
#:
#: * ``"static"`` — near-equal contiguous spans.
#: * ``"stealing"`` — guided decreasing chunk sizes, whose small late
#:   chunks balance the tail of skewed workloads.
SCHEDULERS: Tuple[str, ...] = ("static", "stealing")

#: What a pooled run does when a worker crashes or a chunk raises (the one
#: definition; :func:`repro.parallel.executor.run_spans` checks it too).
#:
#: * ``"raise"`` — fail fast: surface ``WorkerCrashError`` (or the worker
#:   traceback) immediately.
#: * ``"retry"`` — respawn a dead worker slot and re-run exactly the chunks
#:   it held, and re-run a chunk that raised; each slot may do either
#:   ``max_retries`` times, and a slot past its budget is retired.  When
#:   every slot is gone, raise.
#: * ``"serial"`` — like ``"retry"``, but once every slot is gone the
#:   remaining chunks finish inline on the calling thread, so the run
#:   always completes.
ON_FAILURE_POLICIES: Tuple[str, ...] = ("raise", "retry", "serial")

def suggest(name: str, candidates) -> str:
    """Return a did-you-mean suffix for *name* against *candidates*.

    Empty string when nothing is close enough — callers can append the
    result to an error message unconditionally.
    """

    matches = difflib.get_close_matches(str(name), list(candidates), n=1, cutoff=0.6)
    if matches:
        return f" (did you mean {matches[0]!r}?)"
    return ""


@dataclass(frozen=True)
class ExecutionConfig:
    """How a parallel-capable algorithm should execute.

    All fields have conservative defaults; the zero-argument
    ``ExecutionConfig()`` means "serial, but via the unified path".

    Parameters
    ----------
    workers:
        Pool size.  ``None`` keeps the algorithm's serial code path
        untouched (byte-for-byte the pre-parallel behaviour).  ``1``
        runs the same chunks through the same kernel on the calling
        thread (:func:`repro.parallel.executor.run_spans`, no pool) —
        the degenerate case of the determinism contract.  ``>= 2``
        spins up a process pool.
    scheduler:
        ``"static"`` (near-equal contiguous chunks) or ``"stealing"``
        (guided decreasing chunks; see ``docs/parallel.md`` for their
        sizes).
    shm:
        Ship group payloads via ``multiprocessing.shared_memory``.
        ``None`` auto-selects: shm on spawn platforms (where the
        alternative is pickling the payload per worker), plain
        inheritance under fork.  ``True`` / ``False`` force it.
    pool_timeout:
        Seconds to wait for pool results before raising
        :class:`repro.parallel.PoolTimeoutError`.
    max_retries:
        Per-slot budget, consulted when ``on_failure`` is not
        ``"raise"``: how often one worker slot may be respawned after a
        crash, and how many chunks that raised it may re-run.  A
        respawn does not wait.
    on_failure:
        Crash policy — one of :data:`ON_FAILURE_POLICIES`
        (``"raise"`` / ``"retry"`` / ``"serial"``).
    """

    workers: Optional[int] = None
    scheduler: str = "static"
    shm: Optional[bool] = None
    pool_timeout: float = 300.0
    max_retries: int = 2
    on_failure: str = "raise"

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected one of "
                f"{SCHEDULERS}{suggest(self.scheduler, SCHEDULERS)}"
            )
        if self.workers is not None:
            if not isinstance(self.workers, int) or isinstance(self.workers, bool):
                raise ValueError(f"workers must be an int or None, got {self.workers!r}")
            if self.workers < 1:
                raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.pool_timeout > 0:
            raise ValueError(f"pool_timeout must be > 0, got {self.pool_timeout!r}")
        if self.shm is not None and not isinstance(self.shm, bool):
            raise ValueError(f"shm must be a bool or None, got {self.shm!r}")
        if self.on_failure not in ON_FAILURE_POLICIES:
            raise ValueError(
                f"unknown on_failure policy {self.on_failure!r}; expected one"
                f" of {ON_FAILURE_POLICIES}"
                f"{suggest(self.on_failure, ON_FAILURE_POLICIES)}"
            )
        if not isinstance(self.max_retries, int) or isinstance(self.max_retries, bool):
            raise ValueError(
                f"max_retries must be an int, got {self.max_retries!r}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    # ------------------------------------------------------------------
    # derived views

    @property
    def parallel(self) -> bool:
        """True when a pool (or the inline parallel kernel) is requested."""

        return self.workers is not None

    def resolve_workers(self) -> int:
        """Resolve :attr:`workers` through the standard fallback chain.

        Explicit value → ``$REPRO_WORKERS`` → ``min(4, usable CPUs)``,
        where usable CPUs are the ones this process may run on (its
        scheduler affinity, so ``taskset`` and cpusets are respected).
        """

        from ..parallel.executor import resolve_workers

        return resolve_workers(self.workers)

    def replace(self, **changes: Any) -> "ExecutionConfig":
        """Return a copy with *changes* applied (re-validated)."""

        return replace(self, **changes)

    # ------------------------------------------------------------------
    # (de)serialisation

    def to_dict(self) -> dict:
        """Compact dict for persistence: defaults are omitted."""

        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionConfig":
        """Build a config from a mapping, rejecting unknown keys."""

        valid = {f.name for f in fields(cls)}
        kwargs = {}
        for key, value in dict(data).items():
            if key not in valid:
                raise ValueError(
                    f"unknown execution option {key!r}{suggest(key, valid)}"
                )
            kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    def coerce(cls, execution: Any) -> Optional["ExecutionConfig"]:
        """Canonical coercion entry point (see :func:`coerce_execution`).

        Accepts ``None`` / ``ExecutionConfig`` / mapping / ``"k=v,..."``
        spec string — the shape every public entry point
        (``aggregate_skyline``, ``SkylineEngine.query``,
        ``run_algorithms`` / ``sweep``, SQL ``USING``,
        ``partitioned_aggregate_skyline``) funnels through.
        """

        return coerce_execution(execution)

    @classmethod
    def from_spec(cls, spec: str) -> "ExecutionConfig":
        """Parse a CLI-style ``"key=value,key=value"`` spec.

        Values are coerced per-field: ints for ``workers`` /
        ``max_retries``, a float for ``pool_timeout``, bool-ish strings
        for ``shm``; ``on_failure`` stays a string (``raise`` / ``retry``
        / ``serial``).
        """

        data: dict = {}
        spec = spec.strip()
        if not spec:
            return cls()
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(
                    f"bad execution spec item {item!r}; expected key=value"
                )
            key, _, raw = item.partition("=")
            key = key.strip()
            raw = raw.strip()
            data[key] = _coerce_field(key, raw)
        return cls.from_dict(data)


def _coerce_field(key: str, raw: str) -> Any:
    """Coerce a string spec value to the field's type."""

    if key == "workers":
        if raw.lower() in ("none", ""):
            return None
        return int(raw)
    if key == "max_retries":
        return int(raw)
    if key == "pool_timeout":
        return float(raw)
    if key == "shm":
        lowered = raw.lower()
        if lowered in ("none", "auto", ""):
            return None
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"bad boolean for shm: {raw!r}")
    # unknown keys fall through to from_dict's validation with the raw string
    return raw


def coerce_execution(execution: Any) -> Optional[ExecutionConfig]:
    """Accept the various ways callers may hand us an execution config.

    ``None`` → ``None`` (serial legacy path); an :class:`ExecutionConfig`
    passes through; a mapping goes through :meth:`ExecutionConfig.from_dict`;
    a string through :meth:`ExecutionConfig.from_spec`.
    """

    if execution is None:
        return None
    if isinstance(execution, ExecutionConfig):
        return execution
    if isinstance(execution, str):
        return ExecutionConfig.from_spec(execution)
    if isinstance(execution, Mapping):
        return ExecutionConfig.from_dict(execution)
    raise TypeError(
        "execution must be None, an ExecutionConfig, a mapping or a "
        f"'key=value,...' spec string, got {type(execution).__name__}"
    )


def normalize_options(
    name: str,
    cls: type,
    options: Mapping[str, Any],
) -> dict:
    """Validate ``**options`` for algorithm *cls*; returns them as a dict.

    Unknown option names raise :class:`TypeError` (what the constructor
    would have raised) with a did-you-mean suggestion appended; an
    :class:`ExecutionConfig` field name is pointed at ``execution=``
    when *cls* runs on a pool.
    """

    options = dict(options)
    try:
        signature = inspect.signature(cls.__init__)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return options
    params = signature.parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return options
    valid = {
        pname
        for pname, p in params.items()
        if pname != "self"
        and p.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }
    for key in options:
        if key in valid:
            continue
        if key not in {f.name for f in fields(ExecutionConfig)}:
            hint = suggest(key, valid)
        elif getattr(cls, "supports_execution", False):
            hint = f"; pass execution=ExecutionConfig({key}=...) instead"
        else:
            hint = "; it is an execution setting, and only PAR, IN and LO run on a pool"
        raise TypeError(f"unknown option {key!r} for algorithm {name!r}{hint}")
    return options


def reject_kwargs(where: str, kwargs: Mapping[str, Any]) -> None:
    """Raise :class:`TypeError` if *where* got keyword arguments it lacks.

    For entry points whose pool keywords (``processes=``, ``workers=``,
    ``pool_timeout=``) were removed in 2.0: the message names
    ``execution=``, where those settings live now.
    """

    if kwargs:
        raise TypeError(
            f"{where}() got unexpected keyword arguments {sorted(kwargs)};"
            " pool settings are passed as execution=ExecutionConfig(...)"
        )
