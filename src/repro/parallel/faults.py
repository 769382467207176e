"""Fault injection for the worker pool (testing and demos only).

The pool's fault handling (:class:`repro.engine.pool.PersistentPool`) —
crash detection, per-slot respawn, chunk retry, inline fallback — is
only trustworthy if worker failure is reproducible on demand.  This
module provides the injection harness: a :class:`FaultSpec` describing
*what* goes wrong (a SIGKILL-style crash, a hang, a slow chunk, a
raised exception), *when* (at the k-th chunk a worker runs, or with
probability ``p`` per chunk) and *how often* (``max_fires`` across the
whole pool, enforced through a shared counter so respawned workers do
not re-fire an already-spent fault).

Activation is strictly opt-in, through either

* the ``faults=FaultSpec(...)`` argument of
  :func:`repro.parallel.executor.run_spans` (a one-query pool) or of
  :class:`repro.engine.SkylineEngine` (its resident pool — this is how
  the slot-respawn tests kill exactly one resident worker), or
* the ``REPRO_FAULTS`` environment variable, parsed by
  :meth:`FaultSpec.from_env` with the same mini-language as
  :meth:`FaultSpec.from_spec`::

      REPRO_FAULTS="crash@0"              # first chunk of a worker: SIGKILL
      REPRO_FAULTS="exception@2"          # third chunk: raise InjectedFaultError
      REPRO_FAULTS="crash:p=0.5,fires=3"  # each chunk: 50% crash, at most 3 total
      REPRO_FAULTS="hang"                 # first chunk sleeps past pool_timeout
      REPRO_FAULTS="slow@1:delay=0.5"     # second chunk takes an extra 500ms

The armed fault lives in pool *workers* only (armed when a slot process
starts, and fired before each task it runs); the parent process and
the inline code paths never fire, which is what lets a run whose slots
all died still finish correctly inline under ``on_failure="serial"``.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "FAULTS_ENV_VAR",
    "FAULT_KINDS",
    "FaultSpec",
    "ArmedFault",
    "InjectedFaultError",
]

#: Environment variable carrying a fault spec string (see module docstring).
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Supported failure modes.
#:
#: * ``"crash"`` — the worker SIGKILLs itself (``os._exit`` where no
#:   SIGKILL exists): death without cleanup, the OOM-killer/segfault model.
#: * ``"hang"`` — the worker sleeps ``delay`` seconds (default: far past
#:   any sane ``pool_timeout``) while staying alive, the wedged-pool model.
#: * ``"slow"`` — the chunk takes an extra ``delay`` seconds, then
#:   completes normally (straggler model; results stay correct).
#: * ``"exception"`` — the chunk raises :class:`InjectedFaultError`, the
#:   worker-traceback model (the worker itself survives).
FAULT_KINDS = ("crash", "hang", "slow", "exception")

#: Default sleep for ``kind="hang"`` — effectively forever next to any
#: realistic ``pool_timeout``.
HANG_SECONDS = 3600.0


class InjectedFaultError(RuntimeError):
    """Raised inside a worker by ``kind="exception"`` faults."""


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of one injected worker fault.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    at_chunk:
        Fire when a worker process runs its ``at_chunk``-th chunk
        (0-based, counted per worker).  Mutually composable with
        ``probability``: when both are unset the fault arms on every
        chunk (subject to ``max_fires``).
    probability:
        Fire with this per-chunk probability (deterministic given
        ``seed``, the worker pid and the worker-local chunk counter).
    max_fires:
        Total firings across the whole pool, *including respawned
        workers* — enforced via a shared counter the pool creates, so a
        ``max_fires=1`` crash kills one worker and spares its
        replacement.
    delay:
        Sleep seconds for ``slow`` (and override for ``hang``).
    seed:
        Seed for the probabilistic trigger.
    """

    kind: str
    at_chunk: Optional[int] = None
    probability: Optional[float] = None
    max_fires: int = 1
    delay: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at_chunk is not None and self.at_chunk < 0:
            raise ValueError(f"at_chunk must be >= 0, got {self.at_chunk}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.max_fires < 1:
            raise ValueError(f"max_fires must be >= 1, got {self.max_fires}")
        if self.delay is not None and self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")

    # ------------------------------------------------------------------
    # parsing

    @classmethod
    def from_spec(cls, spec: str) -> "FaultSpec":
        """Parse ``kind[@chunk][:key=value,...]`` (see module docstring).

        Keys: ``p``/``probability``, ``fires``/``max_fires``, ``delay``,
        ``seed``.
        """
        spec = spec.strip()
        head, _, options = spec.partition(":")
        kind, _, chunk = head.partition("@")
        kwargs: dict = {"kind": kind.strip()}
        if chunk.strip():
            kwargs["at_chunk"] = int(chunk)
        for item in options.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(
                    f"bad fault spec item {item!r}; expected key=value"
                )
            key, _, raw = item.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key in ("p", "probability"):
                kwargs["probability"] = float(raw)
            elif key in ("fires", "max_fires"):
                kwargs["max_fires"] = int(raw)
            elif key == "delay":
                kwargs["delay"] = float(raw)
            elif key == "seed":
                kwargs["seed"] = int(raw)
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        return cls(**kwargs)

    @classmethod
    def from_env(cls) -> Optional["FaultSpec"]:
        """The ``$REPRO_FAULTS`` fault, or ``None`` when unset/empty."""
        value = os.environ.get(FAULTS_ENV_VAR, "").strip()
        if not value:
            return None
        return cls.from_spec(value)

    # ------------------------------------------------------------------

    def arm(self, state=None) -> "ArmedFault":
        """Bind this spec to a shared fire-budget ``state`` (worker side)."""
        return ArmedFault(self, state)


class ArmedFault:
    """A :class:`FaultSpec` installed in one worker process.

    ``maybe_fire`` is called once per task by the worker loop; the
    worker-local chunk counter lives here, the cross-process fire budget
    in the shared ``state`` (a ``multiprocessing.Value``) the pool
    created.
    """

    def __init__(self, spec: FaultSpec, state=None):
        self.spec = spec
        self._state = state
        self.chunks_seen = 0

    # ------------------------------------------------------------------

    def _triggered(self, chunk_index: int) -> bool:
        spec = self.spec
        if spec.at_chunk is not None and chunk_index != spec.at_chunk:
            return False
        if spec.probability is not None:
            # Deterministic per (seed, pid, chunk): mix into one int, since
            # random.Random only seeds from scalars.
            mixed = (
                spec.seed * 0x9E3779B1
                + os.getpid() * 0x85EBCA77
                + chunk_index
            ) & 0xFFFFFFFF
            return random.Random(mixed).random() < spec.probability
        return True

    def _claim_budget(self) -> bool:
        """Spend one firing from the shared budget (True when granted)."""
        state = self._state
        if state is None:
            return True
        with state.get_lock():
            if state.value >= self.spec.max_fires:
                return False
            state.value += 1
            return True

    def maybe_fire(self) -> None:
        """Fire the fault if this chunk triggers it and budget remains."""
        chunk_index = self.chunks_seen
        self.chunks_seen += 1
        if not self._triggered(chunk_index):
            return
        if not self._claim_budget():
            return
        self._fire(chunk_index)

    # ------------------------------------------------------------------

    def _fire(self, chunk_index: int) -> None:
        spec = self.spec
        if spec.kind == "crash":
            # Die the way an OOM kill or segfault does: no cleanup, no
            # exception machinery, no exit handlers.
            if hasattr(signal, "SIGKILL"):
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(1)  # pragma: no cover - non-POSIX fallback
        if spec.kind == "hang":
            time.sleep(spec.delay if spec.delay is not None else HANG_SECONDS)
            return
        if spec.kind == "slow":
            time.sleep(spec.delay if spec.delay is not None else 0.1)
            return
        raise InjectedFaultError(
            f"injected fault at worker pid {os.getpid()}, chunk {chunk_index}"
        )
