"""RemoteExecutor: shard a plan's chunks across HTTP worker endpoints.

Implements the existing :class:`~repro.harness.exec.Executor`
interface, so everything that runs on the serial or process-pool
executors — sweeps, experiments, the sweep server's jobs — runs
unchanged across a fleet of :mod:`repro.service.worker` processes.

The determinism contract carries over untouched: a worker executes
exactly :func:`repro.harness.exec.run_chunk_columns` on the wire-decoded spec,
per-trial seeds are pure ``(base_seed, spec_hash, trial_index)``
hashes, and collected outcomes are re-sorted by trial index — so
remote execution is byte-identical to local at any worker count,
endpoint assignment, or chunk geometry (the differential gates in
``tests/test_service.py`` pin this down, faults included).

Failure handling layers three defences on the PR-5 resilience policy:

* **Retry + circuit breakers** — a chunk whose worker fails
  (connection refused, HTTP 5xx, malformed body, bad attestation) is
  charged an attempt under the :class:`RetryPolicy`'s deterministic
  backoff and re-queued for whichever healthy endpoint pulls it next.
  Each endpoint runs a :class:`~repro.harness.resilience.
  CircuitBreaker` instead of a one-way quarantine: enough consecutive
  failures *open* the breaker, the endpoint cools down on the same
  hash-jittered schedule as chunk retries, then *half-opens* for one
  probe chunk — success re-closes it and the worker rejoins the fleet,
  failure re-opens it with a longer cooldown, and only an endpoint
  whose breaker has opened ``pool_failure_limit`` times is permanently
  out.  When every endpoint is permanently out the remaining chunks
  degrade to in-process execution (``BatchReport.degraded_to_serial``).
* **Outcome attestation** — every ``/chunks`` response is one
  outcome-column document whose header carries the worker's
  ``chunk_digest`` (:meth:`~repro.harness.exec.columns.OutcomeColumns.
  digest`); the executor decodes the document, checks its trial
  indices, and recomputes the digest over the received columns, so
  transport corruption, a malformed body, or an *inconsistent* lie is
  rejected on receipt and charged as an ordinary worker failure.  The
  checked columns go to the cache ledger as they are: no
  ``TrialOutcome`` is made on this path.
* **Audit re-execution** — a deterministic, plan-keyed sample of
  completed chunks (:class:`~repro.harness.resilience.audit.
  AuditPolicy`) is recomputed locally; a digest mismatch proves the
  endpoint lied *consistently*.  The endpoint is marked Byzantine
  (terminal — no probation for equivocation), every chunk it completed
  this batch is purged from the results and the cache ledger and
  re-queued for honest endpoints, and the audited chunk settles with
  the locally recomputed truth.  With ``audit_fraction=1.0`` this is a
  proof: the batch's results are byte-identical to a fault-free run no
  matter what any worker returned.

Completed chunks are checkpointed into the (local) cache ledger, so an
interrupted remote run resumes at chunk granularity like any other.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.harness.exec import ResultCache, TrialBatch
from repro.harness.exec.columns import OutcomeColumns, unpack_document
from repro.harness.exec.executor import Executor, _render_error, chunk_indices
from repro.harness.exec.wire import WIRE_VERSION, spec_to_wire
from repro.harness.resilience import (
    BatchReport,
    ChunkFailure,
    CircuitBreaker,
    FaultPlan,
    RetryPolicy,
)
from repro.harness.resilience.audit import AuditPolicy, reexecute_chunk
from repro.service.netio import ServiceUnreachable, request_json

__all__ = ["RemoteExecutor", "WorkerEndpoint"]


class WorkerEndpoint:
    """One worker URL plus its breaker and throughput accounting."""

    def __init__(self, url: str, retry: Optional[RetryPolicy] = None) -> None:
        self.url = url.rstrip("/")
        self.breaker = CircuitBreaker(
            self.url, retry if retry is not None else RetryPolicy()
        )
        self.chunks_completed = 0
        self.chunks_audited = 0

    @property
    def quarantined(self) -> bool:
        """Permanently out: breaker exhausted or proven Byzantine."""
        return self.breaker.permanent

    @property
    def byzantine(self) -> bool:
        """Whether an audit proved this endpoint returned wrong results."""
        return self.breaker.state == CircuitBreaker.BYZANTINE

    def note_success(self) -> None:
        self.breaker.note_success()
        self.chunks_completed += 1

    def note_failure(self) -> None:
        self.breaker.note_failure()


class RemoteExecutor(Executor):
    """Executor that POSTs chunks to ``/chunks`` worker endpoints.

    Args:
        endpoints: Worker base URLs (``http://host:port``); at least
            one.  Chunks are dispatched by one thread per endpoint, so
            a fleet of N workers executes N chunks concurrently.
        cache: Optional shared :class:`ResultCache`; completed chunks
            are checkpointed locally exactly as the other executors do.
        chunk_size: Trials per worker request (default: split each
            batch into roughly ``4 * len(endpoints)`` chunks).
        retry: The shared :class:`RetryPolicy`; ``max_attempts`` and
            the backoff schedule govern chunk re-dispatch, and
            ``pool_failure_limit`` sets both the consecutive-failure
            threshold that opens an endpoint's circuit breaker and the
            number of openings after which the endpoint is permanently
            abandoned.
        request_timeout: Per-request HTTP timeout in seconds; a timed
            out request counts as a worker failure.
        audit_fraction: Fraction of completed chunks re-executed
            locally to cross-check worker attestations (``0.0``
            disables auditing; ``1.0`` audits everything and makes the
            run provably byte-identical to a fault-free one).
        audit_seed: Salt for the deterministic audit selection —
            typically the plan key (the sweep server wires it so), so
            audits are reproducible per job.
        fault_plan: Optional chaos plan (parent-side corruption hooks,
            as in the local executors; worker-side faults are injected
            inside the worker process itself).
    """

    def __init__(
        self,
        endpoints: Sequence[str],
        *,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        request_timeout: float = 300.0,
        audit_fraction: float = 0.0,
        audit_seed: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(cache=cache, retry=retry, fault_plan=fault_plan)
        urls = [url for url in endpoints if url]
        if not urls:
            raise ConfigurationError(
                "RemoteExecutor needs at least one worker endpoint"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if request_timeout <= 0:
            raise ConfigurationError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        self.endpoints = [WorkerEndpoint(url, self.retry) for url in urls]
        self.chunk_size = chunk_size
        self.request_timeout = request_timeout
        # Validates the fraction eagerly (AuditPolicy raises on a bad
        # one) and fixes the selection key for the executor's lifetime.
        self.audit = AuditPolicy(
            fraction=audit_fraction, seed=audit_seed or ""
        )

    # -- one worker round trip ----------------------------------------

    def _post_chunk(
        self,
        endpoint: WorkerEndpoint,
        batch: TrialBatch,
        indices: Sequence[int],
        attempt: int,
    ) -> OutcomeColumns:
        """Execute one chunk on ``endpoint``; raises on any defect."""
        payload = {
            "wire": WIRE_VERSION,
            "spec": spec_to_wire(batch.spec),
            "base_seed": batch.base_seed,
            "indices": list(indices),
            "attempt": attempt,
        }
        status, body = request_json(
            endpoint.url,
            "POST",
            "/chunks",
            payload,
            timeout=self.request_timeout,
        )
        if status != 200:
            detail = body.get("error") if isinstance(body, dict) else body
            raise ServiceUnreachable(
                f"worker {endpoint.url} returned {status}: {detail}"
            )
        if not isinstance(body, bytes):
            raise ServiceUnreachable(
                f"worker {endpoint.url} did not answer with outcome columns"
            )
        try:
            header, columns = unpack_document(body)
        except ConfigurationError as exc:
            raise ServiceUnreachable(
                f"worker {endpoint.url} returned a malformed chunk "
                f"document: {exc}"
            ) from exc
        if header.get("wire") != WIRE_VERSION:
            raise ServiceUnreachable(
                f"worker {endpoint.url} answered in wire version "
                f"{header.get('wire')!r}, not {WIRE_VERSION}"
            )
        if not np.array_equal(
            np.sort(columns.arrays["trial_index"]), sorted(indices)
        ):
            raise ServiceUnreachable(
                f"worker {endpoint.url} returned outcomes for the wrong "
                "trial indices"
            )
        # Receipt-side attestation: the claimed digest must match the
        # columns actually received.  This catches transport
        # corruption and *inconsistent* lies for free; a worker lying
        # consistently (digesting its own lie) passes here and is the
        # audit layer's problem.
        if header.get("chunk_digest") != columns.digest():
            raise ServiceUnreachable(
                f"worker {endpoint.url} attestation failed: chunk_digest "
                "does not match the returned outcomes"
            )
        return columns

    # -- the scheduler -------------------------------------------------

    def _execute(
        self, batch: TrialBatch, report: BatchReport
    ) -> OutcomeColumns:
        salvaged, missing = self._load_partial(batch, report)
        if not missing:
            return salvaged
        chunks = chunk_indices(
            missing, batch.trials, len(self.endpoints), self.chunk_size
        )
        return OutcomeColumns.concat(
            [salvaged] + self._collect(batch, chunks, report)
        )

    def _collect(
        self,
        batch: TrialBatch,
        chunks: List[List[int]],
        report: BatchReport,
    ) -> List[OutcomeColumns]:
        """Dispatch chunks across endpoints until done or degraded.

        One dispatcher thread per endpoint pulls chunk ids off a shared
        queue, so work rebalances onto healthy workers automatically —
        the same straggler behaviour the local pool's oversized chunk
        count buys.  The queue is sentinel-terminated: when the last
        chunk settles, one ``None`` per thread is enqueued, so idle
        dispatchers block in ``get`` instead of polling.  All shared
        state (attempt counts, the report, results, endpoint health) is
        guarded by one lock; HTTP round trips and audit re-executions
        happen outside it.
        """
        retry = self.retry
        key = batch.batch_key()
        attempts = [0] * len(chunks)
        results: Dict[int, OutcomeColumns] = {}
        completed_by: Dict[str, List[int]] = {}
        work: "queue.Queue[Optional[int]]" = queue.Queue()
        for cid in range(len(chunks)):
            work.put(cid)
        state = threading.Lock()
        outstanding = [len(chunks)]  # chunks not yet collected/quarantined

        def settle_one(
            cid: int, chunk_columns: Optional[OutcomeColumns]
        ) -> None:
            """Mark one chunk finished (collected or quarantined).

            Caller holds ``state``.  Settling the last chunk wakes
            every dispatcher with one sentinel each.
            """
            if chunk_columns is not None:
                results[cid] = chunk_columns
            outstanding[0] -= 1
            if outstanding[0] <= 0:
                for _ in threads:
                    work.put(None)

        def purge_endpoint(endpoint: WorkerEndpoint) -> None:
            """Disown every chunk a Byzantine endpoint completed.

            Caller holds ``state``.  The chunks revert to outstanding
            — results dropped, ledger checkpoints expunged, re-queued
            without charging an attempt (the chunks did nothing wrong)
            — so honest endpoints recompute them.
            """
            for cid in completed_by.pop(endpoint.url, []):
                if cid not in results:
                    continue
                del results[cid]
                outstanding[0] += 1
                if self.cache is not None:
                    self.cache.remove_chunk(batch, chunks[cid])
                work.put(cid)

        def dispatch(endpoint: WorkerEndpoint) -> None:
            breaker = endpoint.breaker
            while True:
                with state:
                    if outstanding[0] <= 0:
                        return
                    if breaker.permanent:
                        return
                    cooling = breaker.state == CircuitBreaker.OPEN
                    cooldown = breaker.cooldown
                if cooling:
                    # Cool down holding no work, then admit one probe.
                    if cooldown > 0:
                        time.sleep(cooldown)
                    with state:
                        breaker.begin_probe()
                    continue
                cid = work.get()
                if cid is None:  # sentinel: the batch is settled
                    return
                with state:
                    attempt = attempts[cid]
                if attempt > 0:
                    delay = retry.delay(f"{key}:{chunks[cid][0]}", attempt - 1)
                    if delay > 0:
                        time.sleep(delay)
                try:
                    chunk_columns = self._post_chunk(
                        endpoint, batch, chunks[cid], attempt
                    )
                except Exception as exc:
                    rendered = _render_error(exc)
                    with state:
                        endpoint.note_failure()
                        attempts[cid] += 1
                        if attempts[cid] >= retry.max_attempts:
                            report.record_quarantine(
                                ChunkFailure(
                                    trial_indices=tuple(chunks[cid]),
                                    attempts=attempts[cid],
                                    kind="worker",
                                    error=rendered,
                                )
                            )
                            settle_one(cid, None)
                        else:
                            report.retries += 1
                            work.put(cid)
                        if breaker.permanent:
                            return
                    continue
                if self.audit.selects(key, chunks[cid]):
                    truth = reexecute_chunk(
                        batch.spec, batch.base_seed, chunks[cid]
                    )
                    honest = truth.digest() == chunk_columns.digest()
                    if not honest:
                        # A consistent lie, caught.  Byzantine is
                        # terminal; everything this endpoint produced
                        # is suspect and recomputes elsewhere, while
                        # the audited chunk settles with the locally
                        # recomputed truth.
                        if self.cache is not None:
                            self.cache.store_chunk(batch, chunks[cid], truth)
                        with state:
                            endpoint.chunks_audited += 1
                            report.audited_chunks += 1
                            report.audit_mismatches += 1
                            if endpoint.url not in report.byzantine_endpoints:
                                report.byzantine_endpoints.append(
                                    endpoint.url
                                )
                            breaker.mark_byzantine()
                            purge_endpoint(endpoint)
                            settle_one(cid, truth)
                        return
                    with state:
                        endpoint.chunks_audited += 1
                        report.audited_chunks += 1
                if self.cache is not None:
                    self.cache.store_chunk(batch, chunks[cid], chunk_columns)
                with state:
                    endpoint.note_success()
                    completed_by.setdefault(endpoint.url, []).append(cid)
                    settle_one(cid, chunk_columns)

        threads = [
            threading.Thread(
                target=dispatch, args=(endpoint,), daemon=True
            )
            for endpoint in self.endpoints
            if not endpoint.quarantined
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        collected = list(results.values())

        # Every dispatcher exited.  Any chunk id still queued (skipping
        # the wake-up sentinels) means the whole fleet is permanently
        # out: degrade to in-process execution rather than lose the
        # batch, exactly like the local pool after pool_failure_limit
        # consecutive breaks.
        leftovers: List[int] = []
        while True:
            try:
                item = work.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                leftovers.append(item)
        if leftovers:
            report.degraded_to_serial = True
            for cid in sorted(leftovers):
                collected.append(
                    self._run_with_retry(
                        batch,
                        chunks[cid],
                        report,
                        checkpoint=True,
                        start_attempt=attempts[cid],
                    )
                )
        return collected

    def worker_summary(self) -> List[Dict[str, object]]:
        """Health and throughput per endpoint, for status reporting."""
        return [
            {
                "url": e.url,
                "state": e.breaker.state,
                "quarantined": e.quarantined,
                "byzantine": e.byzantine,
                "chunks_completed": e.chunks_completed,
                "chunks_audited": e.chunks_audited,
            }
            for e in self.endpoints
        ]
