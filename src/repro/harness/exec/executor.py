"""Executors: how an :class:`ExecutionPlan` actually runs.

The :class:`Executor` base class owns everything shared — cache
lookup/stores, hit counters, per-batch :class:`BatchReport`
accounting, aggregation into ``TrialStats`` — and delegates only "run
these trial indices of this batch" to subclasses:

* :class:`SerialExecutor` runs them in-process, in order.
* :class:`ParallelExecutor` fans chunks of indices out to a
  ``concurrent.futures.ProcessPoolExecutor``.

Because every trial's seed is a pure function of ``(base_seed,
spec_hash, trial_index)`` and outcomes are re-sorted by trial index
after collection, the two executors (at any worker count or chunk
size) produce byte-identical outcomes — the invariance the test suite
pins down.

Outcomes stay :class:`~repro.harness.exec.columns.OutcomeColumns`
from the engine to the cache: chunks return columns (pool children
pickle them back), a batch is their concatenation, and the cache
stores exactly those columns.  :meth:`Executor.run_columns` is the one
implementation; :meth:`Executor.run_outcomes` materialises its result
as ``TrialOutcome`` objects, once, for callers that want records.

Execution is *fail-stop tolerant*, mirroring the failure model of the
paper itself: a chunk whose worker crashes, whose pool breaks, or
which stalls past the chunk timeout is retried under a
:class:`~repro.harness.resilience.RetryPolicy` (capped exponential
backoff with deterministic jitter), completed chunks are checkpointed
into the cache's partial ledger so an interrupted batch resumes at
chunk granularity, and a chunk that exhausts its attempts is
quarantined as a structured :class:`ChunkFailure` instead of killing
the run.  After enough consecutive pool failures the parallel
executor degrades to in-process execution rather than give up.

The ledger exists only where a batch runs as more than one chunk.
When the missing indices run as a single chunk (always for the serial
executor), that chunk *is* the batch document, which is written once
on completion.

Only picklable values cross the process boundary: the frozen spec, the
base seed, index lists, and the chunk's retry ordinal on the way out,
outcome columns on the way back.  Workers rebuild live
protocol/adversary objects by name via
:mod:`repro.harness.exec.builders`.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.harness.exec.cache import ResultCache
from repro.harness.exec.columns import OutcomeColumns, TrialOutcome
from repro.harness.exec.spec import ExecutionPlan, TrialBatch, TrialSpec
from repro.harness.exec.trial import run_spec_chunk
from repro.harness.resilience import (
    BatchReport,
    ChunkFailure,
    FaultPlan,
    RetryPolicy,
    apply_corruption,
    inject_chunk_faults,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.harness.runner import TrialStats

__all__ = [
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "chunk_indices",
    "make_executor",
    "run_chunk",
    "run_chunk_columns",
]


def run_chunk_columns(
    spec: TrialSpec,
    base_seed: int,
    indices: Sequence[int],
    attempt: int = 0,
) -> OutcomeColumns:
    """Worker entry point: run a slice of a batch's trial indices.

    Module-level (not a closure or bound method) so the process pool
    can resolve it by import in every worker; the service tier's
    ``/chunks`` handler (:mod:`repro.service.worker`) executes exactly
    this function too, which is what makes remote execution
    byte-identical to local.  Batch-engine specs advance the whole
    slice in one vectorized call; per-trial seeds are pure hashes
    either way, so the two paths chunk identically.  A repeated index
    raises ``ConfigurationError`` on every engine.

    ``attempt`` is the chunk's retry ordinal.  It feeds only the chaos
    hook (so injected faults can be transient) — trial outcomes are
    seeded purely by ``(base_seed, spec_hash, trial_index)`` and never
    depend on it.
    """
    inject_chunk_faults(indices, attempt)
    return run_spec_chunk(spec, indices, base_seed)


def run_chunk(
    spec: TrialSpec,
    base_seed: int,
    indices: Sequence[int],
    attempt: int = 0,
) -> List[TrialOutcome]:
    """:func:`run_chunk_columns` as ``TrialOutcome`` records."""
    return run_chunk_columns(spec, base_seed, indices, attempt).to_outcomes()


def chunk_indices(
    indices: Sequence[int],
    total: int,
    workers: int,
    chunk_size: Optional[int] = None,
) -> List[List[int]]:
    """Split ``indices`` into chunks, sized off the *full* batch.

    ``chunk_size`` trials per chunk, or by default about ``4 *
    workers`` chunks per batch so stragglers rebalance.  Sizing off
    ``total`` (not ``len(indices)``) keeps chunk geometry — and so the
    ledger's document names — identical between a fresh run and a
    resumed one that only recomputes a remainder.
    """
    size = chunk_size
    if size is None:
        size = max(1, -(-total // (workers * 4)))
    ordered = sorted(indices)
    return [ordered[i : i + size] for i in range(0, len(ordered), size)]


def _render_error(exc: BaseException) -> str:
    """Compact one-line rendering for ``ChunkFailure`` records."""
    return f"{type(exc).__name__}: {exc}"


class Executor:
    """Runs batches, consulting an optional :class:`ResultCache`.

    Attributes:
        cache: The result cache, or ``None`` to always recompute.
        cache_hits / cache_misses: Batch-level counters, for resume
            reporting ("12/16 cells served from cache").
        retry: The :class:`RetryPolicy` governing failed chunks.
        fault_plan: Optional explicit :class:`FaultPlan` for chaos
            testing (the ``REPRO_CHAOS`` environment variable reaches
            pool workers; this reaches in-process execution too).
        reports: One :class:`BatchReport` per executed batch, in
            order, carrying ``resumed_chunks``/``retries``/
            ``quarantined`` counters.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        *,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.cache = cache
        self.cache_hits = 0
        self.cache_misses = 0
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.reports: List[BatchReport] = []

    @property
    def last_report(self) -> Optional[BatchReport]:
        """The :class:`BatchReport` of the most recent batch, if any."""
        return self.reports[-1] if self.reports else None

    def resilience_summary(self) -> Dict[str, object]:
        """Aggregate resilience counters across every batch run so far."""
        return {
            "batches": len(self.reports),
            "resumed_chunks": sum(r.resumed_chunks for r in self.reports),
            "retries": sum(r.retries for r in self.reports),
            "quarantined": sum(r.quarantined for r in self.reports),
            "pool_rebuilds": sum(r.pool_rebuilds for r in self.reports),
            "degraded_to_serial": any(
                r.degraded_to_serial for r in self.reports
            ),
            "audited_chunks": sum(r.audited_chunks for r in self.reports),
            "audit_mismatches": sum(
                r.audit_mismatches for r in self.reports
            ),
            "byzantine_endpoints": sorted(
                {
                    url
                    for r in self.reports
                    for url in r.byzantine_endpoints
                }
            ),
        }

    def run_columns(self, batch: TrialBatch) -> OutcomeColumns:
        """All outcomes of ``batch`` in trial order, from cache when possible.

        A quarantined chunk leaves its trials out of the returned
        columns (see the batch's :class:`BatchReport`); only complete
        batches are written to the final cache document.
        """
        report = BatchReport(
            label=batch.label, batch_key=batch.batch_key(), trials=batch.trials
        )
        self.reports.append(report)
        # Chaos hook: corrupt targeted cache documents *before* they
        # are consulted, so the run must absorb the damage.  No-op
        # without an active fault plan.
        apply_corruption(self.cache, batch, self.fault_plan)
        if self.cache is not None:
            cached = self.cache.load(batch)
            if cached is not None:
                self.cache_hits += 1
                return cached
            self.cache_misses += 1
        columns = self._execute(batch, report).sorted()
        if self.cache is not None and len(columns) == batch.trials:
            self.cache.store(batch, columns)
        return columns

    def run_outcomes(self, batch: TrialBatch) -> List[TrialOutcome]:
        """:meth:`run_columns` as ``TrialOutcome`` records."""
        return self.run_columns(batch).to_outcomes()

    def run_batch(self, batch: TrialBatch) -> "TrialStats":
        """Run ``batch`` and aggregate into ``TrialStats``."""
        # Imported here, not at module level: runner imports the spec
        # and trial modules, so a top-level import would be circular.
        from repro.harness.runner import TrialStats

        return TrialStats.from_columns(
            self.run_columns(batch),
            engine_kind=batch.spec.engine,
            expected_trials=batch.trials,
        )

    def run_plan(self, plan: ExecutionPlan) -> List["TrialStats"]:
        """Run every batch of ``plan`` in order."""
        return [self.run_batch(batch) for batch in plan]

    def _execute(
        self, batch: TrialBatch, report: BatchReport
    ) -> OutcomeColumns:
        raise NotImplementedError

    def _load_partial(
        self, batch: TrialBatch, report: BatchReport
    ) -> Tuple[OutcomeColumns, List[int]]:
        """Salvage an interrupted earlier run's ledger.

        Returns ``(salvaged columns, trial indices still missing)``.
        """
        salvaged = OutcomeColumns.empty()
        if self.cache is not None:
            salvaged, valid_docs = self.cache.load_partial(batch)
            report.resumed_chunks += valid_docs
        have = np.zeros(batch.trials, dtype=bool)
        have[salvaged.arrays["trial_index"]] = True
        return salvaged, np.flatnonzero(~have).tolist()

    def _run_with_retry(
        self,
        batch: TrialBatch,
        indices: Sequence[int],
        report: BatchReport,
        *,
        checkpoint: bool = False,
        start_attempt: int = 0,
    ) -> OutcomeColumns:
        """Run one chunk in-process under the retry policy.

        Returns the chunk's columns, or empty ones after quarantining it.
        ``start_attempt`` carries over attempts already charged by a
        pool-side failure (it also keeps already-fired chaos faults
        from re-firing in the parent process).
        """
        indices = sorted(indices)
        if not indices:
            return OutcomeColumns.empty()
        scope = f"{batch.batch_key()}:{indices[0]}"
        attempt = start_attempt
        while True:
            try:
                columns = run_chunk_columns(
                    batch.spec, batch.base_seed, indices, attempt
                )
            except Exception as exc:
                attempt += 1
                if attempt >= self.retry.max_attempts:
                    report.record_quarantine(
                        ChunkFailure(
                            trial_indices=tuple(indices),
                            attempts=attempt,
                            kind="exception",
                            error=_render_error(exc),
                        )
                    )
                    return OutcomeColumns.empty()
                report.retries += 1
                delay = self.retry.delay(scope, attempt - 1)
                if delay > 0:
                    time.sleep(delay)
            else:
                if checkpoint and self.cache is not None:
                    self.cache.store_chunk(batch, indices, columns)
                return columns

    def close(self) -> None:
        """Release any worker resources (no-op for serial execution)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process, in-order execution — the zero-dependency baseline.

    Every missing index runs as one chunk, so there is no ledger
    checkpoint: the chunk *is* the batch, and :meth:`run_columns`
    writes it as the batch document straight after.  (A ledger left by
    an interrupted multi-chunk run is still salvaged.)
    """

    def _execute(
        self, batch: TrialBatch, report: BatchReport
    ) -> OutcomeColumns:
        salvaged, missing = self._load_partial(batch, report)
        if not missing:
            return salvaged
        return OutcomeColumns.concat(
            [salvaged, self._run_with_retry(batch, missing, report)]
        )


class ParallelExecutor(Executor):
    """Process-pool execution over chunks of trial indices.

    Args:
        workers: Pool size (default: CPU count).
        cache: Optional result cache, shared with the serial path.
        chunk_size: Trials per worker task.  Default splits each batch
            into roughly ``4 * workers`` chunks so stragglers rebalance.
            Any value yields identical results; it only affects
            scheduling.
        retry: Per-chunk :class:`RetryPolicy` (default policy if
            omitted).
        chunk_timeout: Stall detector, in seconds: if *no* in-flight
            chunk completes within this window the pool is presumed
            wedged — it is rebuilt and the in-flight chunks are charged
            a ``timeout`` failure and retried.  ``None`` (default)
            waits forever.
        fault_plan: Optional explicit :class:`FaultPlan` for chaos
            testing.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        chunk_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(cache=cache, retry=retry, fault_plan=fault_plan)
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ConfigurationError(
                f"chunk_timeout must be > 0, got {chunk_timeout}"
            )
        self.workers = workers
        self.chunk_size = chunk_size
        self.chunk_timeout = chunk_timeout
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
        return self._pool

    def _rebuild_pool(
        self, report: BatchReport
    ) -> concurrent.futures.ProcessPoolExecutor:
        """Tear down a broken or wedged pool and start a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        report.pool_rebuilds += 1
        return self._ensure_pool()

    def _execute(
        self, batch: TrialBatch, report: BatchReport
    ) -> OutcomeColumns:
        salvaged, missing = self._load_partial(batch, report)
        if not missing:
            return salvaged
        chunks = chunk_indices(
            missing, batch.trials, self.workers, self.chunk_size
        )
        if len(chunks) <= 1:
            # Not worth a round-trip through the pool.  A single chunk
            # is the rest of the batch, so (as in the serial executor)
            # the batch document is its only write.
            computed = [self._run_with_retry(batch, chunks[0], report)]
        else:
            computed = self._collect(batch, chunks, report)
        return OutcomeColumns.concat([salvaged] + computed)

    def _collect(
        self,
        batch: TrialBatch,
        chunks: List[List[int]],
        report: BatchReport,
    ) -> List[OutcomeColumns]:
        """Fan chunks out to the pool and gather them as they finish.

        The event loop: submit every runnable chunk, wait for the
        first completion (bounded by ``chunk_timeout``), then classify
        each settled future — collected and checkpointed on success;
        on failure charged an attempt and resubmitted, or quarantined
        once the policy is exhausted.  A broken pool fails every
        in-flight chunk, is rebuilt, and after ``pool_failure_limit``
        consecutive breaks the remaining work degrades to in-process
        execution.  Any fatal (non-chunk) error cancels outstanding
        futures before propagating, so a failed run does not leak busy
        workers.
        """
        retry = self.retry
        key = batch.batch_key()
        attempts = [0] * len(chunks)
        collected: List[OutcomeColumns] = []
        to_submit = list(range(len(chunks)))
        pending: Dict[concurrent.futures.Future, int] = {}
        pool_failures = 0
        pool = self._ensure_pool()

        def charge(cid: int, kind: str, error: str) -> bool:
            """Charge one failed attempt; True if the chunk re-runs."""
            attempts[cid] += 1
            if attempts[cid] >= retry.max_attempts:
                report.record_quarantine(
                    ChunkFailure(
                        trial_indices=tuple(chunks[cid]),
                        attempts=attempts[cid],
                        kind=kind,
                        error=error,
                    )
                )
                return False
            report.retries += 1
            return True

        try:
            while to_submit or pending:
                retry_wave = [cid for cid in to_submit if attempts[cid] > 0]
                if retry_wave:
                    delay = max(
                        retry.delay(
                            f"{key}:{chunks[cid][0]}", attempts[cid] - 1
                        )
                        for cid in retry_wave
                    )
                    if delay > 0:
                        time.sleep(delay)
                for cid in to_submit:
                    future = pool.submit(
                        run_chunk_columns,
                        batch.spec,
                        batch.base_seed,
                        chunks[cid],
                        attempts[cid],
                    )
                    pending[future] = cid
                to_submit = []
                done, _ = concurrent.futures.wait(
                    set(pending),
                    timeout=self.chunk_timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                if not done:
                    # Stall: nothing finished inside the window.  The
                    # pool may be wedged on a hung chunk; abandon every
                    # in-flight future and start over on a fresh pool.
                    stalled = sorted(pending.values())
                    pending.clear()
                    pool = self._rebuild_pool(report)
                    message = (
                        "no chunk completed within "
                        f"{self.chunk_timeout}s"
                    )
                    to_submit = [
                        cid
                        for cid in stalled
                        if charge(cid, "timeout", message)
                    ]
                    continue
                broken = False
                broken_error = ""
                completed_ok = False
                for future in done:
                    cid = pending.pop(future)
                    try:
                        chunk_columns = future.result()
                    except concurrent.futures.BrokenExecutor as exc:
                        broken = True
                        broken_error = _render_error(exc)
                        if charge(cid, "pool", broken_error):
                            to_submit.append(cid)
                    except Exception as exc:
                        if charge(cid, "exception", _render_error(exc)):
                            to_submit.append(cid)
                    else:
                        completed_ok = True
                        collected.append(chunk_columns)
                        if self.cache is not None:
                            self.cache.store_chunk(
                                batch, chunks[cid], chunk_columns
                            )
                if broken:
                    # The pool died.  Which chunk killed it is
                    # unknowable from here, so every in-flight chunk is
                    # charged a (cheap) pool failure and retried.
                    pool_failures += 1
                    in_flight = sorted(pending.values())
                    pending.clear()
                    for cid in in_flight:
                        if charge(
                            cid, "pool", broken_error or "process pool broke"
                        ):
                            to_submit.append(cid)
                    pool = self._rebuild_pool(report)
                    if pool_failures >= retry.pool_failure_limit:
                        report.degraded_to_serial = True
                        for cid in sorted(to_submit):
                            collected.append(
                                self._run_with_retry(
                                    batch,
                                    chunks[cid],
                                    report,
                                    checkpoint=True,
                                    start_attempt=attempts[cid],
                                )
                            )
                        to_submit = []
                elif completed_ok:
                    pool_failures = 0
        except BaseException:
            for future in pending:
                future.cancel()
            raise
        return collected

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def make_executor(
    workers: int = 1,
    *,
    cache: Optional[ResultCache] = None,
    retry: Optional[RetryPolicy] = None,
    chunk_timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Executor:
    """A :class:`SerialExecutor` for ``workers <= 1``, else parallel."""
    if workers <= 1:
        return SerialExecutor(cache=cache, retry=retry, fault_plan=fault_plan)
    return ParallelExecutor(
        workers,
        cache=cache,
        retry=retry,
        chunk_timeout=chunk_timeout,
        fault_plan=fault_plan,
    )
