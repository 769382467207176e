"""One workload of the end-to-end benchmark, run in a fresh process.

``run.py`` starts this script once per workload.  The script talks to
the library only through its public calls (``aggregate_skyline``,
``SkylineEngine``, ``SkylineServer``/``SkylineClient``), checks every
result, and prints one JSON object as the last line of its standard
output.  It exits with code 3 when a thread, a child process or a
``/dev/shm`` segment it created outlives the workload.
"""

import time

#: ``import_s`` is measured from here, before ``import repro``.
T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Pool size and client count.  The benchmark host has 2 cores; run.py
#: refuses to start when the process may use fewer.
WORKERS = 2
CLIENTS = 2
EXECUTION = f"workers={WORKERS},scheduler=stealing"

#: engine-rw writes walk a ring of this many pre-generated snapshots.  It
#: is larger than the writes a run makes, so no write re-attaches content
#: whose index is still in the artifact cache.
SNAPSHOTS = 32

#: ``setup_s`` is the median of several bring-ups of a workload's stack in
#: one process.  An engine bring-up takes about 0.17 s, and 0.3 s more to
#: close; it runs this many times before the warm-up, each from a cold
#: artifact cache, and the last one stays up for the workload.  It follows
#: the host's speed less than one for one, so its time is not scaled (see
#: the README).
ENGINE_SETUP_REPEATS = 3

#: Iterations of the calibration loop (see ``calibrate``), and a fixed
#: scale close to its typical time on the 2-vCPU Xeon host the bounds were
#: set on.  A one-shot bring-up is the ingest alone, about 1 ms of pure
#: computation, and follows the host's speed more than one for one: it
#: runs after every timed round, right after the calibration loop, and
#: ``setup_s`` is the median of its time times ``CALIBRATION_REFERENCE_S``
#: over that loop's time, which reads as seconds on such a host.
CALIBRATION_LOOP = 70_000
CALIBRATION_REFERENCE_S = 0.006

#: Input sizes.  ``tiny`` stresses the index walk, ``big`` (the paper's
#: Section 4 defaults) the record-pair kernel.  ``tiny`` has 500 groups, so
#: a read takes about 0.3 s and a run makes dozens: each read then sits
#: between two calibration loops that see the same state of the host.
SIZES = {
    "full": {
        "tiny": dict(n_records=1000, avg_group_size=2, dimensions=3,
                     distribution="anticorrelated"),
        "big": dict(n_records=10_000, avg_group_size=100, dimensions=5,
                    distribution="independent", group_spread=0.2),
    },
    "smoke": {
        "tiny": dict(n_records=400, avg_group_size=2, dimensions=3,
                     distribution="anticorrelated"),
        "big": dict(n_records=1000, avg_group_size=20, dimensions=5,
                    distribution="independent", group_spread=0.2),
    },
}

#: ``AlgorithmStats`` fields a result digest covers (all but the timing).
COUNTERS = (
    "algorithm",
    "group_comparisons",
    "record_pairs_examined",
    "bbox_shortcuts",
    "groups_skipped",
    "index_candidates",
    "stopping_rule_exits",
)


@dataclass(frozen=True)
class Spec:
    """One read: an aggregate-skyline query.  A one-shot workload sends it
    to its input number ``dataset``."""

    algorithm: str
    gamma: float
    dims: Optional[Tuple[int, ...]] = None
    dataset: int = 0

    @property
    def label(self) -> str:
        text = f"{self.algorithm} g={self.gamma}"
        if self.dims is not None:
            text += " dims=" + ",".join(map(str, self.dims))
        return text

    def query_args(self) -> dict:
        args = {"gamma": self.gamma, "algorithm": self.algorithm}
        if self.dims is not None:
            args["dims"] = list(self.dims)
        return args


#: A write: attach the next snapshot, detach the previous one.
WRITE = "write"


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # "tiny" | "big"
    surface: str  # "serial" | "pooled" | "engine" | "tcp"
    cycle: tuple  # Spec or WRITE entries, run in order by every client
    warmup: tuple = (Spec("LO", 0.5),)
    clients: int = 1
    #: Independent inputs generated per run.  How much work a read does
    #: varies between inputs, so spreading the reads over several keeps a
    #: run from measuring one input's luck.  A one-shot read goes to the
    #: input its spec names.
    inputs: int = 1

    @property
    def workers(self) -> int:
        return 1 if self.surface == "serial" else WORKERS

    @property
    def oneshot(self) -> bool:
        return self.surface in ("serial", "pooled")


#: Inputs per run (see ``Workload.inputs``).  Across seeds, the record
#: pairs an IN or LO read of BIG examines vary by 20-30%, and the cost of
#: a pooled read of TINY by about 10%.
INPUTS = 3


def _on_inputs(specs: tuple) -> tuple:
    """``specs`` on input 0, then the same on input 1, and so on."""
    return tuple(replace(spec, dataset=k) for k in range(INPUTS) for spec in specs)


_TINY_CYCLE = _on_inputs((Spec("LO", 0.5), Spec("IN", 0.5), Spec("LO", 0.75), Spec("IN", 0.75)))
_ONESHOT_WARMUP = _on_inputs((Spec("LO", 0.5),))

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("oneshot-tiny", "tiny", "serial", _TINY_CYCLE, _ONESHOT_WARMUP, inputs=INPUTS),
        Workload(
            "oneshot-big", "big", "serial",
            _on_inputs((Spec("NL", 0.5), Spec("IN", 0.5), Spec("LO", 0.5),
                        Spec("IN", 0.75), Spec("LO", 0.75))),
            _ONESHOT_WARMUP, inputs=INPUTS,
        ),
        Workload("oneshot-pooled", "tiny", "pooled", _TINY_CYCLE, _ONESHOT_WARMUP,
                 inputs=INPUTS),
        # Writes cycle through the snapshots of all inputs.
        Workload(
            "engine-rw", "tiny", "engine",
            (WRITE, Spec("LO", 0.5), Spec("auto", 0.5),
             WRITE, Spec("IN", 0.75), Spec("auto", 0.75)),
            inputs=INPUTS,
        ),
        # The server holds one dataset, so this workload has one input.
        Workload(
            "serve-2clients", "tiny", "tcp",
            (Spec("LO", 0.5), Spec("IN", 0.6), Spec("auto", 0.75),
             Spec("LO", 0.9, (0, 1))),
            warmup=(Spec("LO", 0.5), Spec("LO", 0.9, (0, 1))),
            clients=CLIENTS,
        ),
    )
}


# ----------------------------------------------------------------------
# inputs


def import_repro():
    """Import the library from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")
    return repro


def make_inputs(workload: Workload, seed: int, size: str) -> list:
    """The workload's inputs: input 0 is generated from ``seed``, any more
    from seeds derived from it.  A one-shot read goes to the input its spec
    names.  engine-rw starts on input 0 and adds the snapshots its writes
    attach: snapshot k is input k mod ``inputs`` plus one seeded record
    drawn inside one group's bounding box."""
    import numpy as np
    from repro.core.groups import GroupedDataset
    from repro.data.synthetic import SyntheticSpec, generate_grouped

    seeds = [seed] + [int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
                      for k in range(1, workload.inputs)]
    inputs = [generate_grouped(SyntheticSpec(seed=s, **SIZES[size][workload.data]))
              for s in seeds]
    if workload.surface != "engine":
        return inputs
    snapshots = inputs[:1]
    for k in range(1, SNAPSHOTS):
        groups = inputs[k % len(inputs)].groups
        rng = np.random.default_rng([seed, k])
        target = groups[int(rng.integers(len(groups)))]
        record = rng.uniform(target.bbox.min_corner, target.bbox.max_corner)
        values = {group.key: group.values for group in groups}
        values[target.key] = np.vstack([target.values, record])
        snapshots.append(GroupedDataset(values))
    return snapshots


# ----------------------------------------------------------------------
# surfaces: how a workload reaches the library


def _from_stats(stats) -> dict:
    return {name: getattr(stats, name) for name in COUNTERS}


class SerialSurface:
    """``aggregate_skyline`` per read, serial or with a one-shot pool."""

    name = "serial"
    execution: Optional[str] = None

    def __init__(self, repro, snapshots):
        self.repro = repro
        self.snapshots = snapshots
        self.snapshot = 0

    def read(self, spec: Spec, client: int):
        self.snapshot = spec.dataset
        result = self.repro.aggregate_skyline(
            self.snapshots[spec.dataset], execution=self.execution, **spec.query_args()
        )
        return result.keys, _from_stats(result.stats)

    def worker_pids(self) -> List[int]:
        return []

    def close(self) -> None:
        pass


class PooledSurface(SerialSurface):
    name = "pooled"
    execution = EXECUTION


class EngineSurface:
    """A persistent engine with the current snapshot attached."""

    name = "engine"

    def __init__(self, repro, snapshots):
        self.snapshots = snapshots
        self.engine = repro.SkylineEngine(EXECUTION)
        try:
            self.snapshot = 0
            self.handle = self.engine.attach(snapshots[0])
        except BaseException:
            self.engine.close()
            raise

    def read(self, spec: Spec, client: int):
        result = self.engine.query(self.handle, **spec.query_args())
        return result.keys, _from_stats(result.stats)

    def write(self) -> None:
        following = (self.snapshot + 1) % len(self.snapshots)
        handle = self.engine.attach(self.snapshots[following])
        self.engine.detach(self.handle)
        self.handle, self.snapshot = handle, following

    def worker_pids(self) -> List[int]:
        return self.engine.worker_pids

    def close(self) -> None:
        self.engine.close()


class TcpSurface(EngineSurface):
    """The engine behind an in-process server, one client per stream."""

    name = "tcp"

    def __init__(self, repro, snapshots):
        from repro.net import SkylineClient, SkylineServer

        super().__init__(repro, snapshots)
        self.clients = []
        try:
            self.server = SkylineServer(
                self.engine, self.handle, max_inflight=2, max_waiting=8
            ).start()
            host, port = self.server.address
            self.clients = [SkylineClient(host, port) for _ in range(CLIENTS)]
        except BaseException:
            self.close()
            raise

    def read(self, spec: Spec, client: int):
        body = self.clients[client].query(**spec.query_args())
        return body["keys"], {name: body["stats"][name] for name in COUNTERS}

    def close(self) -> None:
        for client in self.clients:
            client.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.shutdown()
        super().close()


SURFACES = {
    "serial": SerialSurface,
    "pooled": PooledSurface,
    "engine": EngineSurface,
    "tcp": TcpSurface,
}


def bring_up(repro, workload: Workload, snapshots: list, repeats: int):
    """Start the workload's stack ``repeats`` times, each time from a cold
    artifact cache: ingest snapshot 0 from its per-group arrays into a
    ``GroupedDataset``, then start the surface on it (engine start, attach
    and pins, server start and client connect).  Returns the last surface,
    left running, and the time of every bring-up."""
    from repro.core import artifacts
    from repro.core.groups import GroupedDataset

    arrays = {group.key: group.values for group in snapshots[0].groups}
    seconds: List[float] = []
    for repeat in range(repeats):
        artifacts.get_cache().clear()
        started = time.perf_counter()
        surface = SURFACES[workload.surface](repro, [GroupedDataset(arrays)] + snapshots[1:])
        seconds.append(time.perf_counter() - started)
        if repeat < repeats - 1:
            surface.close()
    return surface, seconds


def ingest_probe(dataset, samples: List[Tuple[float, float]]):
    """A one-shot bring-up to run between timed rounds: ingest ``dataset``'s
    per-group arrays into a new ``GroupedDataset``.  Called with the time of
    the calibration loop that ran just before it, it appends (its own time,
    that calibration time) to ``samples``.  It leaves the artifact cache
    alone, so the next op stays warm."""
    from repro.core.groups import GroupedDataset

    arrays = {group.key: group.values for group in dataset.groups}

    def probe(calibration: float) -> None:
        started = time.perf_counter()
        GroupedDataset(arrays)
        samples.append((time.perf_counter() - started, calibration))

    return probe


# ----------------------------------------------------------------------
# operations


@dataclass
class Op:
    id: int
    kind: str  # "read" | "write"
    label: str
    snapshot: int
    client: int
    seconds: float
    spec: Optional[Spec] = None
    keys: Tuple[str, ...] = ()
    stats: dict = field(default_factory=dict)
    digest: str = ""
    error: str = ""
    calibration: float = 0.0

    @property
    def check_key(self) -> str:
        return f"s{self.snapshot}|{self.label}"


def result_digest(keys, counters: dict) -> str:
    """sha256 of the sorted keys and every counter but the timing."""
    payload = json.dumps(
        {"keys": sorted(str(key) for key in keys), "stats": counters},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


_op_ids = itertools.count(1)


def run_op(surface, entry, client: int, recorder=None) -> Op:
    op_id = next(_op_ids)
    if recorder is not None:
        recorder.set_op(op_id)
    started = time.perf_counter()
    try:
        if entry == WRITE:
            surface.write()
            outcome = None
        else:
            outcome = surface.read(entry, client)
        error = ""
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    # The snapshot a read saw: no write runs while a read is in flight.
    snapshot = surface.snapshot
    if entry == WRITE:
        return Op(op_id, "write", WRITE, snapshot, client, seconds, error=error)
    op = Op(op_id, "read", entry.label, snapshot, client, seconds, spec=entry, error=error)
    if outcome is not None:
        keys, counters = outcome
        op.keys = tuple(sorted(str(key) for key in keys))
        op.stats = counters
        op.digest = result_digest(keys, counters)
    return op


def run_round(surface, entries: list, recorder) -> List[Op]:
    """Client c sends ``entries[c]``, each client on its own thread when
    there are several; returns when every op has."""
    if len(entries) == 1:
        return [run_op(surface, entries[0], 0, recorder)]
    ops: List[Optional[Op]] = [None] * len(entries)

    def client_main(client: int) -> None:
        ops[client] = run_op(surface, entries[client], client, recorder)

    threads = [
        threading.Thread(target=client_main, args=(c,), name=f"bench-client-{c}")
        for c in range(len(entries))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ops


def run_rounds(surface, cycles: List[tuple], seconds: float, recorder,
               after_round=None) -> Tuple[List[Op], float]:
    """Closed loop in rounds, one client per cycle: in each round every
    client sends the next entry of its cycle, and the next round starts
    when all of them have returned.  No round starts after ``seconds``;
    every cycle runs whole at least once.

    Between two rounds, with no op in flight, the calibration loop runs
    and then ``after_round``, which is passed the loop's time; each op
    records the mean calibration time of the loops just before and just
    after its round.  Returns the ops and the time the rounds took,
    without what ran between them."""
    ops: List[Op] = []
    busy = 0.0
    before = calibrate()
    deadline = time.perf_counter() + seconds
    position = 0
    while position < max(map(len, cycles)) or time.perf_counter() < deadline:
        started = time.perf_counter()
        round_ops = run_round(surface, [c[position % len(c)] for c in cycles], recorder)
        busy += time.perf_counter() - started
        after = calibrate()
        for op in round_ops:
            op.calibration = (before + after) / 2
        ops.extend(round_ops)
        before = after
        position += 1
        if after_round is not None:
            after_round(after)
    return ops, busy


def enumerate_ops(surface, workload: Workload) -> List[Op]:
    """Every (snapshot, read spec) the workload can issue, once each."""
    specs = list(dict.fromkeys(
        entry for entry in workload.warmup + workload.cycle if entry != WRITE
    ))
    rounds = len(surface.snapshots) if workload.surface == "engine" else 1
    ops: List[Op] = []
    for _ in range(rounds):
        ops.extend(run_op(surface, spec, 0) for spec in specs)
        if workload.surface == "engine":
            ops.append(run_op(surface, WRITE, 0))
    return ops


# ----------------------------------------------------------------------
# correctness


def check_ops(ops: List[Op], surface: str, expected: Optional[dict],
              reference: Dict[tuple, Tuple[str, ...]]) -> List[str]:
    """Mark wrong results; returns one message per failed op.

    With golden digests (seed 41) every read must match its digest.  For
    any seed, repeats of one (snapshot, spec) must agree on every counter,
    and every read of one (snapshot, gamma, dims) must return the same
    keys as the serial reference or, without one, as the first such read.
    """
    failures: List[str] = []
    digests: Dict[str, str] = {}
    keys = dict(reference)
    for op in ops:
        where = f"op {op.id} ({op.kind} {op.check_key}, client {op.client})"
        if op.error:
            failures.append(f"{where}: {op.error}")
            continue
        if op.kind == "write":
            continue
        golden_key = f"{op.check_key}|{surface}"
        if expected is not None and expected.get(golden_key) != op.digest:
            failures.append(f"{where}: digest differs from the expected one")
        elif digests.setdefault(op.check_key, op.digest) != op.digest:
            failures.append(f"{where}: counters differ between repeats")
        elif keys.setdefault((op.snapshot, op.spec.gamma, op.spec.dims), op.keys) != op.keys:
            failures.append(f"{where}: keys differ from another algorithm or surface")
    return failures


def load_expected(directory: Path, workload: str, seed: int, size: str) -> Optional[dict]:
    path = directory / f"{workload}.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    if data.get("seed") != seed or data.get("size") != size:
        return None
    return data["digests"]


def serial_reference(repro, workload: Workload, dataset) -> Dict[tuple, Tuple[str, ...]]:
    """Keys of a serial LO run at gamma .5 on snapshot 0, the spec every
    workload warms up with.  The serial workloads are their own
    reference: their cycles already cross-check LO, IN and NL."""
    if workload.surface == "serial":
        return {}
    result = repro.aggregate_skyline(dataset, gamma=0.5, algorithm="LO")
    return {(0, 0.5, None): tuple(sorted(str(key) for key in result.keys))}


# ----------------------------------------------------------------------
# resources and leaks


def shm_segments() -> set:
    """Shared-memory segments of the kind the library creates."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def _processes():
    """(pid, state, parent pid, session id, command line) of every process."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        # The fields after the parenthesised command name.
        state, ppid, _group, session = stat[stat.rindex(b")") + 2:].split()[:4]
        yield int(entry), state.decode(), int(ppid), int(session), cmdline.strip()


def child_processes() -> Dict[int, str]:
    """Live children of this process, pid -> command line."""
    me = os.getpid()
    return {pid: cmdline for pid, _, ppid, _, cmdline in _processes() if ppid == me}


def session_processes(session: int) -> Dict[int, str]:
    """Processes of a session, zombies aside, pid -> command line.  A
    process's children stay in its session after it has exited."""
    return {pid: cmdline for pid, state, _, sid, cmdline in _processes()
            if sid == session and state != "Z"}


def _leftovers(threads: set, shm: set) -> List[str]:
    found = [f"thread {t.name}" for t in threading.enumerate() if t.ident not in threads]
    for pid, cmdline in child_processes().items():
        # multiprocessing's resource tracker is started on the first
        # shared-memory segment and lives until this process exits.
        if "resource_tracker" not in cmdline:
            found.append(f"process {pid} ({cmdline[:80]})")
    found += [f"/dev/shm/{name}" for name in sorted(shm_segments() - shm)]
    return found


def wait_for_leftovers(threads: set, shm: set, grace: float = 5.0) -> List[str]:
    """What the workload left behind, after ``grace`` seconds to wind down."""
    deadline = time.monotonic() + grace
    while True:
        found = _leftovers(threads, shm)
        if not found or time.monotonic() > deadline:
            return found
        time.sleep(0.05)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes, 5-9 ms on the benchmark
    host.  It never touches the library, so it measures only how fast the
    shared host runs at that moment."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - started


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# ----------------------------------------------------------------------
# metrics


def end_to_end(ops: List[Op], stream: float, failed: int, attempted: int,
               worker_rss: float) -> dict:
    reads = [op for op in ops if op.kind == "read" and not op.error]
    writes = [op for op in ops if op.kind == "write" and not op.error]
    by_spec: Dict[str, List[Op]] = {}
    for op in reads:
        by_spec.setdefault(op.label, []).append(op)
    # Both are taken per spec first and then combined with equal weights,
    # so they do not depend on where in its cycle a stream stopped.
    query_p50 = statistics.median(
        statistics.median(op.seconds for op in v) for v in by_spec.values()) if by_spec else 0.0
    # A spec's latency in calibration loops: a slow spell of the shared
    # host stretches both, so it cancels out.
    calibrated = statistics.mean(
        sum(op.seconds for op in v) / sum(op.calibration for op in v)
        for v in by_spec.values()) if by_spec else 0.0
    write_p50 = statistics.median(op.seconds for op in writes) if writes else 0.0
    return {
        "query_cost_calib": (calibrated, "ratio"),
        "query_p50_s": (query_p50, "s"),
        "queries_per_s": (len(reads) / stream, "1/s"),
        "write_p50_s": (write_p50, "s"),
        "failed_ratio": (failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "worker_peak_rss_mb": (worker_rss, "MB"),
        "n_reads": (len(reads), "count"),
        "n_writes": (len(writes), "count"),
        "stream_s": (stream, "s"),
        "calibration_ms": (statistics.median(op.calibration for op in ops) * 1000.0, "ms"),
    }


def cache_counters() -> dict:
    from repro.core import artifacts
    from repro.obs import metrics

    stats = artifacts.get_cache().stats()
    registry = metrics.get_registry()
    counters = {"artifact_hits": stats["hits"], "artifact_misses": stats["misses"]}
    for name in ("plan_cache_hits_total", "plan_cache_misses_total"):
        instrument = registry.get(name)
        counters[name] = instrument.value() if instrument is not None else 0.0
    return counters


# ----------------------------------------------------------------------
# main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--expected", type=Path, required=True)
    parser.add_argument("--write-expected", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    threads = {t.ident for t in threading.enumerate()}
    shm = shm_segments()
    repro = import_repro()
    import_seconds = time.perf_counter() - T0
    recorder = None
    if args.trace:
        import layers

        recorder = layers.SpanRecorder()
        recorder.install()

    snapshots = make_inputs(workload, args.seed, args.size)
    # A traced run reports no set-up time, the digests need one stack, and
    # a one-shot workload times its set-up between the timed rounds.
    repeats = 1 if args.trace or args.write_expected or workload.oneshot else ENGINE_SETUP_REPEATS
    surface, setup_seconds = bring_up(repro, workload, snapshots, repeats)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "size": args.size,
        "inputs": snapshots[0].fingerprint(),
        "import_s": import_seconds,
        "setup_samples_s": setup_seconds,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "start_method": repro.parallel.executor.preferred_start_method(),
    }
    try:
        if args.write_expected:
            write_expected(workload, surface, args, report)
        else:
            run_workload(repro, workload, surface, snapshots, args, recorder, report)
    finally:
        surface.close()
    report["leaks"] = wait_for_leftovers(threads, shm)
    print(json.dumps(report))
    return 3 if report["leaks"] else 0


def write_expected(workload, surface, args, report) -> None:
    ops = enumerate_ops(surface, workload)
    report["attempted"] = len(ops)
    report["failures"] = check_ops(ops, surface.name, None, {})
    digests = {f"{op.check_key}|{surface.name}": op.digest
               for op in ops if op.kind == "read" and not op.error}
    args.expected.mkdir(parents=True, exist_ok=True)
    (args.expected / f"{workload.name}.json").write_text(json.dumps(
        {"seed": args.seed, "size": args.size, "digests": digests},
        indent=1, sort_keys=True) + "\n")


def run_workload(repro, workload, surface, snapshots, args, recorder, report) -> None:
    # Warm-up specs run once each: in turn with one client, or in one round
    # of one per client.  In the timed rounds client c starts its cycle
    # rotated by 2 * c, so the two clients of serve-2clients never send the
    # same spec at the same time.
    warm = ([workload.warmup] if workload.clients == 1
            else [(spec,) for spec in workload.warmup])
    started = time.perf_counter()
    ops, _ = run_rounds(surface, warm, 0.0, recorder)
    warmup = time.perf_counter() - started

    cycles = [workload.cycle[2 * c:] + workload.cycle[:2 * c] for c in range(workload.clients)]
    probes: List[Tuple[float, float]] = []
    probe = ingest_probe(snapshots[0], probes) if workload.oneshot else None
    before = cache_counters()
    started = time.perf_counter()
    timed, stream = run_rounds(surface, cycles, args.seconds, recorder, probe)
    window = (started, time.perf_counter())
    after = cache_counters()
    ops += timed

    if workload.surface == "pooled":
        worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        worker_rss = max(map(vm_hwm_mb, surface.worker_pids()), default=0.0)

    reference = serial_reference(repro, workload, snapshots[0])
    expected = load_expected(args.expected, workload.name, args.seed, args.size)
    failures = check_ops(ops, surface.name, expected, reference)
    report["attempted"] = len(ops)
    report["failures"] = failures
    report["checked_against"] = "expected digests" if expected else "self-consistency"
    report["ops"] = [[op.id, op.label, op.snapshot, op.client, op.seconds, op.calibration,
                      op.stats.get("algorithm")] for op in ops]
    report["ingest_probes"] = probes
    if probes:
        setup_raw = statistics.median(seconds for seconds, _ in probes)
        setup = CALIBRATION_REFERENCE_S * statistics.median(
            seconds / calibration for seconds, calibration in probes)
    else:
        setup = setup_raw = statistics.median(report["setup_samples_s"])
    report["metrics"] = {
        "setup_s": (setup, "s"),
        "setup_raw_s": (setup_raw, "s"),
        **end_to_end(timed, stream, len(failures), len(ops), worker_rss),
        "import_s": (report["import_s"], "s"),
        "warmup_s": (warmup, "s"),
    }
    if recorder is not None:
        import layers

        counters = {name: after[name] - before[name] for name in after}
        report["layers"] = layers.layer_metrics(
            recorder.spans, window, timed, counters, WORKERS
        )
        recorder.write_jsonl(args.out / f"{workload.name}.trace.jsonl")


if __name__ == "__main__":
    sys.exit(main())
