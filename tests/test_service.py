"""The service tier, end to end and in process.

The load-bearing gates from the issue:

* **Differential**: one :class:`ExecutionPlan` executed through
  ``SerialExecutor``, ``ParallelExecutor``, and ``RemoteExecutor``
  (two live workers, one of them injecting a transient fault) yields
  byte-identical outcomes and identical :class:`TrialStats`.
* **Dedup**: two concurrent submissions of the same plan produce
  exactly one computation, and both clients receive full results.

Everything runs against real sockets (ephemeral ports, in-process
server threads) but no subprocesses — the subprocess path is covered
by ``repro.service.smoke`` and ``tests/test_service_resume.py``.
"""

import json
import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError, ReproError
from repro.harness.exec import (
    ExecutionPlan,
    OutcomeColumns,
    ResultCache,
    SerialExecutor,
    ParallelExecutor,
    TrialBatch,
    TrialSpec,
    WIRE_VERSION,
    make_executor,
    run_chunk,
    run_chunk_columns,
    spec_from_wire,
)
from repro.harness.exec.columns import (
    pack_document,
    pack_documents,
    unpack_document,
    unpack_documents,
)
from repro.harness.exec.trial import ENGINE_BATCH, ENGINE_FAST, outcomes_digest
from repro.harness.resilience import Fault, FaultPlan, RetryPolicy
from repro.harness.runner import TrialStats
from repro.service import (
    JobManager,
    RemoteExecutor,
    ServerConfig,
    ServerThread,
    ServiceClient,
    SweepServerApp,
    WorkerApp,
)
from repro.service.netio import (
    COLUMNS_CONTENT_TYPE,
    App,
    Response,
    ServiceUnreachable,
    request_json,
)
from repro.service.worker import chunk_document


def fast_spec(**overrides):
    fields = dict(
        protocol="synran",
        adversary="tally-attack",
        n=16,
        t=16,
        inputs="worst",
        engine=ENGINE_FAST,
    )
    fields.update(overrides)
    return TrialSpec(**fields)


def two_batch_plan(trials=10, base_seed=7):
    return ExecutionPlan(
        batches=(
            TrialBatch(
                spec=fast_spec(), trials=trials, base_seed=base_seed,
                label="cell-16",
            ),
            TrialBatch(
                spec=fast_spec(n=32, t=32), trials=trials,
                base_seed=base_seed, label="cell-32",
            ),
        )
    )


@pytest.fixture
def job_gate(monkeypatch):
    """Hold serial job execution until the test sets the returned event.

    A small job can settle before the client's next request arrives;
    tests that must observe an unsettled job hold it with this.
    """
    gate = threading.Event()
    execute = SerialExecutor._execute

    def gated(executor, batch, report):
        gate.wait(10)
        return execute(executor, batch, report)

    monkeypatch.setattr(SerialExecutor, "_execute", gated)
    yield gate
    gate.set()


@pytest.fixture
def worker_fleet():
    """Two live in-process workers, one of them faulty: every chunk it
    serves raises on its first attempt (times=1 makes each fault
    transient, so the retry — on either worker — succeeds)."""
    clean = WorkerApp()
    faulty = WorkerApp(
        fault_plan=FaultPlan(
            tuple(Fault("raise", i, times=1) for i in range(64))
        )
    )
    threads = [ServerThread(clean.app), ServerThread(faulty.app)]
    for t in threads:
        t.start()
    yield [t.url for t in threads]
    for t in threads:
        t.stop()


def run_plan(executor, plan):
    outcomes, stats = [], []
    with executor:
        for batch in plan:
            batch_outcomes = executor.run_outcomes(batch)
            outcomes.append(batch_outcomes)
            stats.append(
                TrialStats.from_outcomes(
                    batch_outcomes,
                    engine_kind=batch.spec.engine,
                    expected_trials=batch.trials,
                )
            )
    return outcomes, stats


class TestRemoteDifferential:
    def test_three_executors_byte_identical_with_fault(
        self, worker_fleet, tmp_path
    ):
        plan = two_batch_plan()
        serial_out, serial_stats = run_plan(SerialExecutor(), plan)
        parallel_out, parallel_stats = run_plan(
            ParallelExecutor(2, chunk_size=3), plan
        )
        remote = RemoteExecutor(
            worker_fleet,
            cache=ResultCache(tmp_path / "cache"),
            chunk_size=3,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        )
        remote_out, remote_stats = run_plan(remote, plan)

        assert serial_out == parallel_out == remote_out
        assert serial_stats == parallel_stats == remote_stats
        # The injected fault actually fired and was absorbed.
        assert sum(r.retries for r in remote.reports) >= 1
        assert all(r.quarantined == 0 for r in remote.reports)
        assert all(s.missing_trials == 0 for s in remote_stats)

    @pytest.mark.parametrize("engine", [ENGINE_FAST, ENGINE_BATCH])
    def test_run_columns_digest_agrees_across_executors(
        self, worker_fleet, tmp_path, engine
    ):
        batch = TrialBatch(
            spec=fast_spec(engine=engine), trials=10, base_seed=9
        )
        reference = outcomes_digest(
            run_chunk(batch.spec, batch.base_seed, range(batch.trials))
        )
        remote = RemoteExecutor(
            worker_fleet,
            cache=ResultCache(tmp_path / "cache"),
            chunk_size=3,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        )
        digests = []
        for executor in (SerialExecutor(), ParallelExecutor(2, chunk_size=3), remote):
            with executor:
                digests.append(executor.run_columns(batch).digest())
        assert digests == [reference] * 3
        # The faulty worker's injected failure fired and was absorbed.
        assert remote.reports[-1].retries >= 1

    def test_dead_endpoint_is_quarantined_not_fatal(
        self, worker_fleet, tmp_path
    ):
        # One live worker, one endpoint nobody listens on: the dead
        # one is quarantined after consecutive failures and the live
        # one absorbs its chunks; results stay byte-identical.
        batch = TrialBatch(spec=fast_spec(), trials=8, base_seed=3)
        remote = RemoteExecutor(
            [worker_fleet[0], "http://127.0.0.1:9"],
            chunk_size=2,
            retry=RetryPolicy(
                max_attempts=6, backoff_base=0.0, pool_failure_limit=2
            ),
        )
        with remote:
            outcomes = remote.run_outcomes(batch)
        assert outcomes == SerialExecutor().run_outcomes(batch)
        summary = remote.worker_summary()
        assert [e["quarantined"] for e in summary] == [False, True]
        assert summary[0]["chunks_completed"] == 4

    def test_whole_fleet_dead_degrades_to_local(self, tmp_path):
        batch = TrialBatch(spec=fast_spec(), trials=6, base_seed=3)
        remote = RemoteExecutor(
            ["http://127.0.0.1:9"],
            cache=ResultCache(tmp_path / "cache"),
            chunk_size=2,
            retry=RetryPolicy(
                max_attempts=4, backoff_base=0.0, pool_failure_limit=1
            ),
        )
        with remote:
            outcomes = remote.run_outcomes(batch)
        assert outcomes == SerialExecutor().run_outcomes(batch)
        assert remote.reports[-1].degraded_to_serial
        assert remote.reports[-1].quarantined == 0

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            RemoteExecutor([])
        with pytest.raises(ConfigurationError):
            RemoteExecutor(["http://x"], chunk_size=0)
        with pytest.raises(ConfigurationError):
            RemoteExecutor(["http://x"], request_timeout=0)


class TestJobDedup:
    def test_concurrent_identical_submissions_compute_once(self, tmp_path):
        computations = []
        gate = threading.Event()

        class CountingExecutor(SerialExecutor):
            def _execute(self, batch, report):
                computations.append(batch.batch_key())
                gate.wait(10)  # hold the first job mid-flight
                return super()._execute(batch, report)

        manager = JobManager(
            lambda cache: CountingExecutor(cache=cache),
            cache_root=str(tmp_path / "cache"),
        )
        plan = two_batch_plan(trials=4)
        first, coalesced_first = manager.submit(plan, label="a")
        assert not coalesced_first
        # Submit the identical plan from several "clients" while the
        # first computation is still in flight.
        seconds = [manager.submit(plan, label="b") for _ in range(4)]
        gate.set()
        assert first.wait(30)
        assert all(job is first for job, _ in seconds)
        assert all(coalesced for _, coalesced in seconds)
        # Exactly one computation per batch, not one per submission.
        assert sorted(computations) == sorted(
            b.batch_key() for b in plan
        )
        doc = first.status_doc()
        assert doc["state"] == "done"
        assert doc["submissions"] == 5
        assert doc["progress"]["completed_trials"] == plan.total_trials()
        assert len(unpack_documents(first.outcomes_doc())) == 2
        manager.shutdown()

    def test_resubmission_after_completion_coalesces(self, tmp_path):
        manager = JobManager(
            lambda cache: SerialExecutor(cache=cache),
            cache_root=str(tmp_path / "cache"),
        )
        plan = two_batch_plan(trials=3)
        job, _ = manager.submit(plan)
        assert job.wait(30)
        again, coalesced = manager.submit(plan)
        assert coalesced and again is job
        # A different base seed is a different computation.
        other, coalesced = manager.submit(two_batch_plan(trials=3, base_seed=8))
        assert not coalesced and other is not job
        assert other.wait(30)
        manager.shutdown()

    def test_outcomes_refused_until_done(self, tmp_path):
        gate = threading.Event()

        class GatedExecutor(SerialExecutor):
            def _execute(self, batch, report):
                gate.wait(10)
                return super()._execute(batch, report)

        manager = JobManager(
            lambda cache: GatedExecutor(cache=cache),
            cache_root=str(tmp_path / "cache"),
        )
        job, _ = manager.submit(two_batch_plan(trials=2))
        with pytest.raises(ConfigurationError, match="not done"):
            job.outcomes_doc()
        gate.set()
        assert job.wait(30)
        job.outcomes_doc()  # now answers
        assert manager.get(job.job_id) is job
        assert manager.get(job.key) is job
        assert manager.get("0" * 16) is None
        manager.shutdown()


class TestHttpService:
    @pytest.fixture
    def service(self, tmp_path):
        app = SweepServerApp(
            ServerConfig(cache_dir=str(tmp_path / "cache"), workers=1)
        )
        thread = ServerThread(app.app)
        thread.start()
        yield ServiceClient(thread.url)
        app.close()
        thread.stop()

    def test_submit_poll_outcomes_and_events(self, service):
        plan = two_batch_plan(trials=4)
        receipt = service.submit(plan, label="http")
        assert not receipt.coalesced
        final = service.wait(receipt.job_id, timeout=60)
        assert final["state"] == "done"
        assert final["progress"]["completed_trials"] == plan.total_trials()
        assert [r["missing_trials"] for r in final["results"]] == [0, 0]
        assert final["cache"] == {"hits": 0, "misses": 2}

        outcomes = service.outcomes(receipt.job_id)
        assert sum(len(b["outcomes"]) for b in outcomes["batches"]) == 8

        # SSE: a settled job's stream is one terminal event.
        events = list(service.events(receipt.job_id))
        assert events and events[-1]["state"] == "done"

        # Identical plan over HTTP coalesces onto the settled job.
        again = service.submit(plan)
        assert again.coalesced and again.job_id == receipt.job_id

    def test_http_error_surfaces(self, service, job_gate):
        with pytest.raises(ReproError, match="404"):
            service.status("no-such-job")
        with pytest.raises(ReproError, match="409"):
            # Submit, then demand outcomes of a job that has not settled.
            receipt = service.submit(two_batch_plan(trials=2), label="racy")
            try:
                service.outcomes(receipt.job_id)
            finally:
                job_gate.set()
                service.wait(receipt.job_id, timeout=60)

    def test_malformed_submission_is_400(self, service):
        status, doc = request_json(
            service.base_url, "POST", "/jobs", {"plan": {"wire": 99}}
        )
        assert status == 400
        assert "wire" in doc["error"]

    def test_unknown_route_is_404(self, service):
        status, _ = request_json(service.base_url, "GET", "/nope")
        assert status == 404


class TestWorkerEndpointContract:
    @pytest.fixture
    def worker_url(self):
        worker = WorkerApp()
        thread = ServerThread(worker.app)
        thread.start()
        yield thread.url
        worker.close()
        thread.stop()

    def test_healthz(self, worker_url):
        status, doc = request_json(worker_url, "GET", "/healthz")
        assert status == 200
        assert doc["role"] == "worker" and doc["ok"]

    @pytest.mark.parametrize(
        "payload",
        [
            "not-an-object",
            {"wire": 99, "spec": {}, "base_seed": 0, "indices": [0]},
            {"wire": WIRE_VERSION, "spec": {"wire": WIRE_VERSION, "kind": "spec"},
             "base_seed": 0, "indices": [0]},
            {"wire": WIRE_VERSION, "base_seed": 0, "indices": [0]},
        ],
    )
    def test_malformed_chunk_requests_are_400(self, worker_url, payload):
        status, doc = request_json(worker_url, "POST", "/chunks", payload)
        assert status == 400
        assert "error" in doc

    def test_empty_indices_rejected(self, worker_url):
        from repro.harness.exec import spec_to_wire

        status, _ = request_json(
            worker_url,
            "POST",
            "/chunks",
            {
                "wire": WIRE_VERSION,
                "spec": spec_to_wire(fast_spec()),
                "base_seed": 0,
                "indices": [],
            },
        )
        assert status == 400

    def test_json_digest_peer_is_refused_by_version(self, worker_url):
        # Wire 1 peers attest chunks with the older JSON-record digest;
        # they are turned away up front, not failed at attestation.
        from repro.harness.exec import spec_to_wire

        spec = dict(spec_to_wire(fast_spec()), wire=1)
        status, doc = request_json(
            worker_url,
            "POST",
            "/chunks",
            {"wire": 1, "spec": spec, "base_seed": 0, "indices": [0]},
        )
        assert status == 400
        assert "unsupported wire version" in doc["error"]

    def test_json_records_peer_is_refused_by_version(self, worker_url):
        # Wire 2 peers expect JSON records back from /chunks; they are
        # turned away up front rather than handed column bytes.
        from repro.harness.exec import spec_to_wire

        spec = dict(spec_to_wire(fast_spec()), wire=2)
        status, doc = request_json(
            worker_url,
            "POST",
            "/chunks",
            {"wire": 2, "spec": spec, "base_seed": 0, "indices": [0]},
        )
        assert status == 400
        assert "unsupported wire version" in doc["error"]

    @pytest.mark.parametrize("engine", [ENGINE_FAST, ENGINE_BATCH])
    @pytest.mark.parametrize(
        "indices",
        [[3, 3], [0, -1], [0, 1.5], ["2"], [True], "0,1", [[0]]],
        ids=["duplicate", "negative", "float", "string", "bool", "not-a-list",
             "nested"],
    )
    def test_bad_indices_are_400(self, worker_url, engine, indices):
        from repro.harness.exec import spec_to_wire

        status, doc = request_json(
            worker_url,
            "POST",
            "/chunks",
            {
                "wire": WIRE_VERSION,
                "spec": spec_to_wire(fast_spec(engine=engine)),
                "base_seed": 0,
                "indices": indices,
            },
        )
        assert status == 400
        assert "error" in doc

    def test_chunk_answer_is_one_attested_column_document(self, worker_url):
        from repro.harness.exec import spec_to_wire

        spec = fast_spec(engine=ENGINE_BATCH)
        status, body = request_json(
            worker_url,
            "POST",
            "/chunks",
            {
                "wire": WIRE_VERSION,
                "spec": spec_to_wire(spec),
                "base_seed": 4,
                "indices": [5, 2, 7],
            },
        )
        assert status == 200 and isinstance(body, bytes)
        header, columns = unpack_document(body)
        expected = run_chunk(spec, 4, [5, 2, 7])
        assert header == {"wire": WIRE_VERSION, "chunk_digest": outcomes_digest(expected)}
        assert columns.to_outcomes() == expected


def _hostile_bodies():
    """Ways a worker's 200 answer to ``/chunks`` can be wrong, by name.

    Each maps the honest answer ``(body, indices, columns)`` to the
    ``(content type, bytes)`` the hostile worker sends instead.
    """

    def columns_doc(header, columns):
        return COLUMNS_CONTENT_TYPE, b"".join(pack_document(header, columns))

    def honest_header(columns):
        return {"wire": WIRE_VERSION, "chunk_digest": columns.digest()}

    def table_past_end(body, indices, columns):
        end = 8 + int.from_bytes(body[:8], "little")
        header = json.loads(body[8:end])
        header["columns"][-1][2] += 50
        raw = json.dumps(header).encode("utf-8")
        return COLUMNS_CONTENT_TYPE, len(raw).to_bytes(8, "little") + raw + body[end:]

    def wrong_index_set(body, indices, columns):
        fewer = columns.take(np.arange(len(columns) - 1))
        return columns_doc(honest_header(fewer), fewer)

    def v2_records(body, indices, columns):
        records = [o.to_jsonable() for o in columns.to_outcomes()]
        return "application/json", json.dumps(
            {"outcomes": records, "chunk_digest": columns.digest()}
        ).encode("utf-8")

    return {
        "truncated": lambda body, indices, columns: (
            COLUMNS_CONTENT_TYPE, body[:-5]
        ),
        "trailing-bytes": lambda body, indices, columns: (
            COLUMNS_CONTENT_TYPE, body + b"\x00\x00"
        ),
        "column-table-past-end": table_past_end,
        "wrong-chunk-digest": lambda body, indices, columns: columns_doc(
            {"wire": WIRE_VERSION, "chunk_digest": "0" * 64}, columns
        ),
        "wrong-index-set": wrong_index_set,
        "v2-json-records": v2_records,
        "json-body": lambda body, indices, columns: (
            "application/json", b'{"ok": true}'
        ),
        "json-under-column-type": lambda body, indices, columns: (
            COLUMNS_CONTENT_TYPE, b'{"outcomes": []}'
        ),
    }


HOSTILE_BODIES = _hostile_bodies()


def _response(content_type, body):
    """Serve ``body`` under ``content_type`` (JSON bodies re-parsed)."""
    if content_type == "application/json":
        return Response(payload=json.loads(body))
    return Response(payload=body, content_type=content_type)


class TestHostileWire:
    """A worker answering 200 with a bad body is an endpoint failure:
    the breaker is charged and the batch completes elsewhere, never a
    crashed job."""

    @staticmethod
    def hostile_worker(damage):
        app = App()

        async def chunks(request):
            doc = request.json()
            spec = spec_from_wire(doc["spec"])
            columns = run_chunk_columns(spec, doc["base_seed"], doc["indices"])
            body = chunk_document(columns)
            content_type, sent = damage(body, doc["indices"], columns)
            return _response(content_type, sent)

        app.add("POST", "/chunks", chunks)
        thread = ServerThread(app)
        thread.start()
        return thread

    @pytest.mark.parametrize("name", sorted(HOSTILE_BODIES))
    def test_bad_body_is_an_endpoint_failure(self, tmp_path, name):
        batch = TrialBatch(spec=fast_spec(engine=ENGINE_BATCH), trials=6, base_seed=3)
        thread = self.hostile_worker(HOSTILE_BODIES[name])
        try:
            remote = RemoteExecutor(
                [thread.url],
                cache=ResultCache(tmp_path / "cache"),
                chunk_size=2,
                retry=RetryPolicy(
                    max_attempts=2, backoff_base=0.0, pool_failure_limit=1
                ),
            )
            with remote:
                outcomes = remote.run_outcomes(batch)
            # Rejected on receipt (not a transport error or a 500).
            probe = RemoteExecutor([thread.url])
            with pytest.raises(
                ServiceUnreachable,
                match="malformed|did not answer|attestation|wrong trial",
            ):
                probe._post_chunk(probe.endpoints[0], batch, [0, 1], 0)
        finally:
            thread.stop()
        assert outcomes == SerialExecutor().run_outcomes(batch)
        summary = remote.worker_summary()
        assert summary[0]["quarantined"] is True
        assert summary[0]["chunks_completed"] == 0
        report = remote.reports[-1]
        assert report.degraded_to_serial and report.quarantined == 0


class TestClientOutcomesBody:
    """A corrupt ``/jobs/<id>/outcomes`` body is a ReproError."""

    @pytest.fixture
    def served(self):
        bodies = {}
        app = App()

        async def outcomes(request):
            return _response(*bodies["next"])

        app.add("GET", "/jobs/{job_id}/outcomes", outcomes)
        thread = ServerThread(app)
        thread.start()
        yield bodies, ServiceClient(thread.url)
        thread.stop()

    @staticmethod
    def good_body(header=None):
        columns = run_chunk_columns(fast_spec(), 1, [0, 1])
        header = header if header is not None else {
            "job_id": "j", "plan_key": "k", "label": "l", "batch_key": "b",
        }
        return pack_documents([b"".join(pack_document(header, columns))])

    def test_good_body_decodes_to_records(self, served):
        bodies, client = served
        bodies["next"] = (COLUMNS_CONTENT_TYPE, self.good_body())
        doc = client.outcomes("j")
        assert doc == {
            "job_id": "j",
            "plan_key": "k",
            "batches": [
                {
                    "label": "l",
                    "batch_key": "b",
                    "outcomes": [o.to_jsonable() for o in run_chunk(fast_spec(), 1, [0, 1])],
                }
            ],
        }

    @pytest.mark.parametrize(
        "make",
        [
            lambda good: (COLUMNS_CONTENT_TYPE, good[:-3]),
            lambda good: (COLUMNS_CONTENT_TYPE, good + b"\x01"),
            lambda good: (COLUMNS_CONTENT_TYPE, b""),
            lambda good: (COLUMNS_CONTENT_TYPE, b"not columns at all"),
            lambda good: ("application/json", b'{"batches": []}'),
            lambda good: (
                COLUMNS_CONTENT_TYPE,
                TestClientOutcomesBody.good_body({"job_id": "j"}),
            ),
        ],
        ids=["truncated", "trailing-byte", "empty", "garbage", "json",
             "header-missing-fields"],
    )
    def test_corrupt_body_raises_repro_error(self, served, make):
        bodies, client = served
        bodies["next"] = make(self.good_body())
        with pytest.raises(ReproError, match="malformed"):
            client.outcomes("j")


class TestCacheLocking:
    def test_concurrent_writers_share_a_cache_dir(self, tmp_path):
        # Many threads hammering the same batch through independent
        # cache handles (as concurrent jobs and remote checkpoints
        # do): the advisory lock keeps the final document and the
        # ledger teardown atomic, so every handle ends up reading the
        # same complete result.
        batch = TrialBatch(spec=fast_spec(), trials=6, base_seed=2)
        outcomes = SerialExecutor().run_outcomes(batch)
        whole = OutcomeColumns.from_outcomes(outcomes)
        head = OutcomeColumns.from_outcomes(outcomes[:3])
        root = tmp_path / "shared-cache"
        errors = []

        def writer():
            try:
                cache = ResultCache(root)
                for _ in range(20):
                    cache.store_chunk(batch, [0, 1, 2], head)
                    cache.store(batch, whole)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        cache = ResultCache(root)
        assert cache.load(batch).to_outcomes() == outcomes
        # A finished document wins over any straggler ledger write.
        assert cache.store_chunk(batch, [0, 1], head) is None

    def test_lock_files_live_beside_documents(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        batch = TrialBatch(spec=fast_spec(), trials=2, base_seed=1)
        lock = cache.lock_path(batch)
        assert lock.parent == cache.path_for(batch).parent
        assert lock.suffix == ".lock"


class TestServeConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(workers=0)
        with pytest.raises(ConfigurationError):
            JobManager(lambda cache: make_executor(1), job_workers=0)

    def test_remote_factory_when_endpoints_given(self, tmp_path):
        config = ServerConfig(worker_endpoints=("http://127.0.0.1:9",))
        executor = config.executor_factory(None)
        assert isinstance(executor, RemoteExecutor)
        executor.close()

    def test_client_wait_times_out(self, tmp_path, job_gate):
        app = SweepServerApp(
            ServerConfig(cache_dir=str(tmp_path / "cache"))
        )
        thread = ServerThread(app.app)
        thread.start()
        client = ServiceClient(thread.url)
        receipt = client.submit(two_batch_plan(trials=2))
        with pytest.raises(ServiceUnreachable):
            client.wait(receipt.job_id, timeout=0.0, poll=0.01)
        job_gate.set()
        client.wait(receipt.job_id, timeout=60)
        app.close()
        thread.stop()
