"""The chunk worker: a thin ``/chunks`` execution endpoint.

A worker is deliberately dumb: it holds no job state, no cache, and no
plan — it decodes a wire spec, executes exactly
:func:`repro.harness.exec.run_chunk_columns` on the requested trial
indices, and returns the outcome columns.  All scheduling, retry,
checkpointing, and dedup live with the caller
(:class:`~repro.service.remote.RemoteExecutor`), which is what lets a
worker crash, restart, or be replaced mid-batch without losing
anything: per-trial seeds are pure hashes of ``(base_seed, spec_hash,
trial_index)``, so any worker computes the same bytes for the same
request.

Endpoints:

* ``POST /chunks`` — JSON body ``{"wire": 3, "spec": <wire spec>,
  "base_seed": int, "indices": [int, ...], "attempt": int}`` with
  non-empty, distinct, non-negative ``indices`` (else 400); a 200
  answers with one outcome-column document
  (:func:`~repro.harness.exec.columns.pack_document`, content type
  :data:`~repro.service.netio.COLUMNS_CONTENT_TYPE`) whose header is
  ``{"wire": 3, "chunk_digest": <hex sha256>}`` — the digest is the
  outcome attestation (:meth:`OutcomeColumns.digest
  <repro.harness.exec.columns.OutcomeColumns.digest>`) the caller
  recomputes over the columns it receives.  Errors answer JSON
  ``{"error": ...}``.
* ``GET /healthz`` — liveness probe with version info.

Chunks execute off the event loop: inline on a thread (default) or on
a process pool (``processes > 1``), which also isolates the server
from ``kill``-type chaos faults the same way the local
:class:`ParallelExecutor` is isolated from its workers.  The chaos
hook inside ``run_chunk`` honours an explicit :class:`FaultPlan`
passed to :class:`WorkerApp` (used by the differential tests to fault
one worker of a fleet) or, as everywhere else, the ``REPRO_CHAOS``
environment variable inherited by the worker process.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from typing import List, Optional

import repro
from repro.errors import ConfigurationError, ReproError
from repro.harness.exec import run_chunk_columns, spec_from_wire
from repro.harness.exec.columns import OutcomeColumns, pack_document
from repro.harness.exec.spec import TrialSpec
from repro.harness.exec.wire import WIRE_VERSION
from repro.harness.resilience import (
    FaultPlan,
    corrupt_outcomes,
    inject_chunk_faults,
)
from repro.service.netio import (
    COLUMNS_CONTENT_TYPE,
    App,
    HttpError,
    Request,
    Response,
)

__all__ = ["WorkerApp", "chunk_document", "execute_wire_chunk"]


def execute_wire_chunk(
    spec: TrialSpec,
    base_seed: int,
    indices: List[int],
    attempt: int,
    fault_plan: Optional[FaultPlan] = None,
) -> OutcomeColumns:
    """Run one decoded chunk, with optional explicit chaos injection.

    Module-level and picklable-by-name, so the worker's optional
    process pool can resolve it by import — the same discipline as the
    executor's ``run_chunk_columns`` (which this wraps).

    This is also where a ``corrupt-outcomes`` chaos fault bites: the
    chunk computes honestly, then targeted outcomes are falsified on
    the way out — the worker *lies consistently* (its attestation
    digest covers the lie), which is exactly the adversary audit
    re-execution exists to catch.
    """
    if fault_plan is not None:
        inject_chunk_faults(indices, attempt, fault_plan)
    columns = run_chunk_columns(spec, base_seed, indices, attempt)
    return corrupt_outcomes(columns, indices, attempt, fault_plan)


def chunk_document(columns: OutcomeColumns) -> bytes:
    """The body of a 200 ``/chunks`` response for ``columns``.

    One column document whose header carries the wire version and the
    attestation digest over exactly the columns it frames.
    """
    header = {"wire": WIRE_VERSION, "chunk_digest": columns.digest()}
    return b"".join(pack_document(header, columns))


class WorkerApp:
    """Routes plus the execution backend of one worker process.

    Args:
        processes: ``1`` executes chunks on the serving thread pool;
            ``> 1`` fans them out to a ``ProcessPoolExecutor`` of this
            size (rebuilt transparently if it breaks).
        fault_plan: Explicit chaos plan injected into every chunk this
            worker executes (tests fault one worker of a fleet this
            way without touching the environment).
    """

    def __init__(
        self,
        processes: int = 1,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if processes < 1:
            raise ConfigurationError(
                f"processes must be >= 1, got {processes}"
            )
        self.processes = processes
        self.fault_plan = fault_plan
        self.chunks_served = 0
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self.app = App()
        self.app.add("GET", "/healthz", self._healthz)
        self.app.add("POST", "/chunks", self._chunks)

    # -- execution backend --------------------------------------------

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.processes
            )
        return self._pool

    async def _execute(
        self,
        spec: TrialSpec,
        base_seed: int,
        indices: List[int],
        attempt: int,
    ) -> OutcomeColumns:
        loop = asyncio.get_running_loop()
        if self.processes > 1:
            pool = self._ensure_pool()
            try:
                return await asyncio.wrap_future(
                    pool.submit(
                        execute_wire_chunk,
                        spec,
                        base_seed,
                        indices,
                        attempt,
                        self.fault_plan,
                    )
                )
            except concurrent.futures.BrokenExecutor:
                # A dead pool process (OOM, chaos kill).  Drop the
                # pool so the next request gets a fresh one, and fail
                # this chunk to the caller, whose retry policy owns
                # re-dispatch.
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
                raise HttpError(500, "worker process pool broke")
        return await loop.run_in_executor(
            None,
            execute_wire_chunk,
            spec,
            base_seed,
            indices,
            attempt,
            self.fault_plan,
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- handlers ------------------------------------------------------

    async def _healthz(self, request: Request) -> Response:
        return Response(
            payload={
                "ok": True,
                "role": "worker",
                "version": repro.__version__,
                "wire": WIRE_VERSION,
                "processes": self.processes,
                "chunks_served": self.chunks_served,
            }
        )

    async def _chunks(self, request: Request) -> Response:
        doc = request.json()
        if not isinstance(doc, dict):
            raise HttpError(400, "chunk request must be a JSON object")
        if doc.get("wire") != WIRE_VERSION:
            raise HttpError(
                400,
                f"unsupported wire version {doc.get('wire')!r} "
                f"(worker speaks {WIRE_VERSION})",
            )
        try:
            spec = spec_from_wire(doc["spec"])
            base_seed = int(doc["base_seed"])
            indices = doc["indices"]
            attempt = int(doc.get("attempt", 0))
        except ReproError as exc:
            raise HttpError(400, str(exc)) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise HttpError(400, f"malformed chunk request: {exc}") from exc
        if not isinstance(indices, list) or not indices:
            raise HttpError(400, "chunk request has no trial indices")
        if any(type(i) is not int or i < 0 for i in indices):
            raise HttpError(
                400, "chunk trial indices must be non-negative integers"
            )
        if len(set(indices)) != len(indices):
            raise HttpError(400, "chunk request repeats a trial index")
        try:
            columns = await self._execute(spec, base_seed, indices, attempt)
        except HttpError:
            raise
        except Exception as exc:
            # A failed chunk is the caller's retry problem, reported
            # as a structured 500 — the worker itself stays up.
            raise HttpError(
                500, f"chunk execution failed: {type(exc).__name__}: {exc}"
            ) from exc
        self.chunks_served += 1
        return Response(
            payload=chunk_document(columns), content_type=COLUMNS_CONTENT_TYPE
        )
