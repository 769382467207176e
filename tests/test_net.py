"""The network front-end's contract (see ``docs/engine.md``).

* **Concurrent bit-identity** — two clients submitting interleaved
  batches over TCP receive skylines *and* every ``AlgorithmStats``
  work counter identical to running the same specs sequentially
  through ``engine.query()``, under fork and spawn.
* **Admission** — bounded in-flight queries with FIFO tickets, load
  shedding (``overloaded``) when the waiting queue is full, deadline
  expiry (``timeout``) that never kills the pool.
* **Transport** — JSONL framing, error frames for bad specs, the
  HTTP/1.1 POST shim on the same port, graceful drain on shutdown,
  and the ``net_*`` runlog events / counters.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import random
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import ExecutionConfig, SkylineEngine
from repro.data.synthetic import SyntheticSpec, generate_grouped
from repro.net import (
    AdmissionController,
    AdmissionRejected,
    AdmissionTimeout,
    RequestTimeout,
    ServerError,
    ServerOverloaded,
    SkylineClient,
    SkylineServer,
    SpecError,
    validate_spec,
)
from repro.obs import metrics as obs_metrics
from repro.obs import runlog as obs_runlog

pytestmark = pytest.mark.timeout(300)

START_METHODS = ("fork", "spawn")

#: Work counters covered by the bit-identity contract (wall-clock and
#: the rates derived from it vary run to run by construction).
COUNTER_FIELDS = (
    "algorithm",
    "group_comparisons",
    "record_pairs_examined",
    "bbox_shortcuts",
    "groups_skipped",
    "index_candidates",
    "stopping_rule_exits",
)

SPECS = [
    {"gamma": gamma, "algorithm": algorithm}
    for gamma in (0.5, 0.6, 0.75)
    for algorithm in ("LO", "IN")
]


@pytest.fixture(autouse=True)
def _deadlock_guard():
    """A wedged server/pool fails the test instead of hanging the run."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):  # pragma: no cover - only on deadlock
        raise RuntimeError("net test exceeded the 240s deadlock guard")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(240)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _require_start_method(name: str) -> None:
    if name == "fork" and not hasattr(signal, "SIGALRM"):
        pytest.skip("fork start method requires POSIX")


@pytest.fixture(scope="module")
def dataset():
    return generate_grouped(
        SyntheticSpec(
            n_records=600,
            avg_group_size=6,
            dimensions=3,
            distribution="anticorrelated",
            group_spread=0.4,
            seed=23,
        )
    )


@pytest.fixture(scope="module")
def slow_dataset():
    """Big enough that an NL query does real work on the pool.  Tests
    that need a query to be running hold it with :func:`gated_queries`
    rather than relying on how long it takes."""
    rng = random.Random(29)
    return {
        f"g{index:03d}": [
            [rng.random(), rng.random(), rng.random()] for _ in range(40)
        ]
        for index in range(120)
    }


@contextlib.contextmanager
def gated_queries(engine):
    """Hold every query the server runs on ``engine`` inside the block.

    The server looks ``engine.query`` up per request, so an instance
    attribute shadows the method.  A query that reaches it sets the
    yielded ``entered`` event (by then it holds an admission slot) and
    waits for the block to end before it runs.  Tests wait on
    ``entered`` instead of sleeping and hoping a query is still running.
    Leaving the block releases the held queries and restores the method.
    """
    entered = threading.Event()
    release = threading.Event()
    query = engine.query

    def gated(*args, **kwargs):
        entered.set()
        release.wait()
        return query(*args, **kwargs)

    engine.query = gated
    try:
        yield entered
    finally:
        release.set()
        del engine.query


def counters(stats_dict):
    return {key: stats_dict[key] for key in COUNTER_FIELDS}


def result_counters(result):
    return counters(dataclasses.asdict(result.stats))


def wire_keys(body):
    return [tuple(k) if isinstance(k, list) else k for k in body["keys"]]


# ----------------------------------------------------------------------
# concurrent bit-identity over TCP
# ----------------------------------------------------------------------


@pytest.mark.parametrize("start_method", START_METHODS)
def test_two_clients_bit_identical_to_sequential(dataset, start_method):
    _require_start_method(start_method)
    execution = ExecutionConfig(workers=2, scheduler="stealing")
    with SkylineEngine(execution, start_method=start_method) as engine:
        handle = engine.attach(dataset)
        baseline = [engine.query(handle, **spec) for spec in SPECS]
        with SkylineServer(engine, handle, max_inflight=3) as server:
            host, port = server.address
            outputs = [{}, {}]
            orders = (
                list(range(len(SPECS))),
                list(reversed(range(len(SPECS)))),
            )
            errors = []

            def run_client(slot, order):
                try:
                    with SkylineClient(host, port) as client:
                        for index in order:
                            outputs[slot][index] = client.query(
                                **SPECS[index]
                            )
                except Exception as exc:  # pragma: no cover - test fails
                    errors.append(exc)

            threads = [
                threading.Thread(target=run_client, args=(slot, order))
                for slot, order in enumerate(orders)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            for body_by_index in outputs:
                assert len(body_by_index) == len(SPECS)
                for index, cold in enumerate(baseline):
                    body = body_by_index[index]
                    assert wire_keys(body) == list(cold.keys), index
                    assert counters(body["stats"]) == result_counters(
                        cold
                    ), index


@pytest.mark.parametrize("start_method", START_METHODS)
def test_interleaved_batches_one_connection_each(dataset, start_method):
    """Same contract, driven through the server's admission queue hard:
    a single in-flight slot forces full interleaving of the two
    clients' request streams."""
    _require_start_method(start_method)
    execution = ExecutionConfig(workers=2, scheduler="stealing")
    with SkylineEngine(execution, start_method=start_method) as engine:
        handle = engine.attach(dataset)
        baseline = [engine.query(handle, **spec) for spec in SPECS[:4]]
        with SkylineServer(
            engine, handle, max_inflight=1, max_waiting=16
        ) as server:
            host, port = server.address
            bodies = [None, None]

            def sweep(slot):
                with SkylineClient(host, port) as client:
                    bodies[slot] = [
                        client.query(**spec) for spec in SPECS[:4]
                    ]

            threads = [
                threading.Thread(target=sweep, args=(slot,))
                for slot in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for body_list in bodies:
                assert body_list is not None
                for body, cold in zip(body_list, baseline):
                    assert wire_keys(body) == list(cold.keys)
                    assert counters(body["stats"]) == result_counters(cold)


# ----------------------------------------------------------------------
# admission: deadlines, load shedding, fairness
# ----------------------------------------------------------------------


def test_deadline_expiry_returns_timeout_and_pool_survives(slow_dataset):
    with SkylineEngine(execution="workers=2") as engine:
        handle = engine.attach(slow_dataset)
        with SkylineServer(
            engine, handle, max_inflight=1, max_waiting=4
        ) as server:
            host, port = server.address
            with SkylineClient(host, port) as client:
                with gated_queries(engine) as entered:
                    with pytest.raises(RequestTimeout):
                        client.query(gamma=0.5, algorithm="NL", deadline_ms=50)
                    # The deadline expired while the query was held.
                    assert entered.wait(timeout=60)
                # The abandoned query holds its slot until it finishes;
                # afterwards the same connection and pool keep working.
                deadline = time.monotonic() + 120
                while True:
                    try:
                        body = client.query(gamma=0.6, algorithm="LO")
                        break
                    except (ServerOverloaded, RequestTimeout):
                        assert time.monotonic() < deadline
                        time.sleep(0.1)
                assert len(body["keys"]) > 0
                cold = engine.query(handle, gamma=0.6, algorithm="LO")
                assert wire_keys(body) == list(cold.keys)


def test_overload_rejection_when_queue_full(slow_dataset):
    with SkylineEngine(execution="workers=2") as engine:
        handle = engine.attach(slow_dataset)
        with SkylineServer(
            engine, handle, max_inflight=1, max_waiting=0
        ) as server:
            host, port = server.address
            holder = SkylineClient(host, port)
            try:
                finished = threading.Event()

                def occupy():
                    holder.request("query", gamma=0.5, algorithm="NL")
                    finished.set()

                thread = threading.Thread(target=occupy)
                with gated_queries(engine) as entered:
                    thread.start()
                    # The slow query holds the only slot.
                    assert entered.wait(timeout=60)
                    with SkylineClient(host, port) as client:
                        with pytest.raises(ServerOverloaded):
                            client.query(gamma=0.5, algorithm="LO")
                assert finished.wait(timeout=120)
                thread.join()
                snapshot = server.admission.snapshot()
                assert snapshot["rejected_total"] >= 1
            finally:
                holder.close()


def test_admission_controller_fifo_and_timeout():
    controller = AdmissionController(max_inflight=1, max_waiting=8)
    controller.admit()
    order = []

    def wait_turn(tag):
        controller.admit()
        order.append(tag)
        controller.release()

    def wait_until_waiting(count, timeout=30.0):
        deadline = time.monotonic() + timeout
        while controller.snapshot()["waiting"] < count:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.005)
        return True

    threads = [
        threading.Thread(target=wait_turn, args=(tag,)) for tag in (1, 2)
    ]
    # Start each waiter only once the previous one holds its ticket, so
    # ticket order is tag order however slowly the threads get scheduled.
    for count, thread in enumerate(threads, start=1):
        thread.start()
        assert wait_until_waiting(count)
    with pytest.raises(AdmissionTimeout):
        controller.admit(deadline=time.monotonic() + 0.1)
    controller.release()
    for thread in threads:
        thread.join()
    assert order == [1, 2]


def test_admission_rejects_when_waiting_full():
    controller = AdmissionController(max_inflight=1, max_waiting=0)
    controller.admit()
    with pytest.raises(AdmissionRejected):
        controller.admit()
    controller.release()
    controller.admit()  # slot free again
    controller.release()


# ----------------------------------------------------------------------
# transport: error frames, HTTP shim, drain
# ----------------------------------------------------------------------


def test_error_frames_for_bad_specs(dataset):
    with SkylineEngine() as engine:
        handle = engine.attach(dataset)
        with SkylineServer(engine, handle) as server:
            host, port = server.address
            with SkylineClient(host, port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query(gamma=0.6, bogus=1)
                assert excinfo.value.code == "bad_request"
                assert "bogus" in str(excinfo.value)
                with pytest.raises(ServerError) as excinfo:
                    client.query(gamma=0.6, algorithm="NOPE")
                assert excinfo.value.code == "bad_request"
                with pytest.raises(ServerError) as excinfo:
                    client.request("frobnicate")
                assert "unknown op" in str(excinfo.value)
                # the connection survives every error frame
                assert client.ping()
                plan = client.explain(gamma=0.5)
                assert "aggregate-skyline" in plan
                stats = client.stats()
                assert stats["admission"]["max_inflight"] == 4


def test_http_shim_post_get_and_errors(dataset):
    with SkylineEngine() as engine:
        handle = engine.attach(dataset)
        baseline = engine.query(handle, gamma=0.6, algorithm="LO")
        with SkylineServer(engine, handle) as server:
            host, port = server.address
            base = f"http://{host}:{port}"

            def post(payload):
                request = urllib.request.Request(
                    f"{base}/query",
                    data=json.dumps(payload).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=60) as resp:
                    return json.loads(resp.read())

            body = post({"gamma": 0.6, "algorithm": "LO"})
            assert wire_keys(body) == list(baseline.keys)
            assert counters(body["stats"]) == result_counters(baseline)

            many = post([{"gamma": 0.6}, {"gamma": 0.75}])
            assert len(many["results"]) == 2

            with urllib.request.urlopen(f"{base}/stats", timeout=60) as resp:
                stats = json.loads(resp.read())
            assert stats["engine"]["queries"] >= 3

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post({"gamma": 0.6, "bogus": 1})
            assert excinfo.value.code == 400
            detail = json.loads(excinfo.value.read())
            assert detail["error"]["code"] == "bad_request"


def test_graceful_drain_delivers_in_flight_response(slow_dataset):
    with SkylineEngine(execution="workers=2") as engine:
        handle = engine.attach(slow_dataset)
        server = SkylineServer(
            engine, handle, max_inflight=2, drain_timeout=120.0
        ).start()
        host, port = server.address
        client = SkylineClient(host, port)
        try:
            box = {}

            def go():
                box["body"] = client.request(
                    "query", gamma=0.5, algorithm="NL"
                )

            thread = threading.Thread(target=go)
            # shutdown() drains before closing sockets, so it blocks until
            # the query is released and answered.
            stopper = threading.Thread(target=server.shutdown)
            with gated_queries(engine) as entered:
                thread.start()
                assert entered.wait(timeout=60)  # the query is in flight
                stopper.start()
                deadline = time.monotonic() + 60
                while not server.admission.closed:  # the drain has begun
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                assert server.admission.snapshot()["in_flight"] == 1
                assert "body" not in box
            stopper.join(timeout=120)
            thread.join(timeout=120)
            assert not stopper.is_alive()
            assert "body" in box and box["body"]["keys"]
        finally:
            client.close()


def test_shutdown_rejects_new_queries(dataset):
    with SkylineEngine() as engine:
        handle = engine.attach(dataset)
        server = SkylineServer(engine, handle).start()
        host, port = server.address
        server.shutdown()
        with pytest.raises((ConnectionError, OSError)):
            with SkylineClient(host, port, connect_timeout=2.0) as client:
                client.ping()


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------


def test_net_runlog_events_and_counters(dataset, slow_dataset, tmp_path):
    log_path = tmp_path / "net.jsonl"
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(registry):
        with obs_runlog.use_runlog(obs_runlog.RunLog(log_path)):
            with SkylineEngine(execution="workers=2") as engine:
                handle = engine.attach(slow_dataset)
                with SkylineServer(engine, handle, max_inflight=1) as server:
                    host, port = server.address
                    with SkylineClient(host, port) as client:
                        client.query(gamma=0.6, algorithm="LO")
                        with gated_queries(engine) as entered:
                            with pytest.raises(RequestTimeout):
                                client.query(
                                    gamma=0.5, algorithm="NL", deadline_ms=50
                                )
                            assert entered.wait(timeout=60)
    events = obs_runlog.read_events(log_path)
    names = [event["event"] for event in events]
    assert "net_accept" in names
    assert "net_request" in names
    assert "net_response" in names
    assert "net_timeout" in names
    responses = [e for e in events if e["event"] == "net_response"]
    assert {"ok", "timeout"} <= {e["status"] for e in responses}
    assert registry.get("net_accepts_total") is not None
    assert registry.get("net_requests_total") is not None
    timeout_counter = registry.get("net_timeouts_total")
    assert timeout_counter is not None and timeout_counter.value() >= 1


# ----------------------------------------------------------------------
# spec validation (shared with `repro serve --batch`)
# ----------------------------------------------------------------------


def test_validate_spec_accepts_fraction_strings():
    kwargs = validate_spec({"gamma": "2/3", "dims": [0, 1]})
    assert str(kwargs["gamma"]) == "2/3"
    assert kwargs["dims"] == [0, 1]


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ([1, 2], "must be a JSON object"),
        ({"gamma": "abc"}, "gamma"),
        ({"gamma": True}, "gamma"),
        ({"dims": "0,1"}, "dims"),
        ({"dims": [0, "x"]}, "dims"),
        ({"algorithm": 7}, "algorithm"),
        ({"execution": 4}, "execution"),
        ({"explain": "yes"}, "explain"),
        ({"gama": 0.6}, "did you mean 'gamma'"),
    ],
)
def test_validate_spec_rejections(spec, fragment):
    with pytest.raises(SpecError) as excinfo:
        validate_spec(spec)
    assert fragment in str(excinfo.value)
