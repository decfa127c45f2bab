"""Simulation-as-a-service: the sweep server, workers, and clients.

The execution core (:mod:`repro.harness.exec`) already makes every
sweep cell content-addressed — a spec hash plus a base seed fully
determines the bytes of its results.  This package lifts that contract
onto the network:

* :mod:`repro.service.netio` — the stdlib-only asyncio HTTP substrate
  (server, routing, SSE streaming, blocking client helpers).
* :mod:`repro.service.jobs` — :class:`JobManager`: plan-key dedup,
  coalescing of identical in-flight submissions, per-chunk progress
  observation, and bounded admission (oldest-finished eviction, 429
  when saturated).
* :mod:`repro.service.journal` — :class:`JobJournal`: the durable
  jsonl job log the server replays after a crash, so submitted jobs
  survive a SIGKILL and resume via the chunk ledger.
* :mod:`repro.service.server` — :class:`SweepServerApp`: the
  ``POST /jobs`` / ``GET /jobs/<id>`` / SSE front end.
* :mod:`repro.service.worker` — :class:`WorkerApp`: the thin
  ``POST /chunks`` execution endpoint.
* :mod:`repro.service.remote` — :class:`RemoteExecutor`: the
  :class:`~repro.harness.exec.Executor` that shards chunks across a
  worker fleet, byte-identical to local execution.
* :mod:`repro.service.client` — :class:`ServiceClient`: the blocking
  client ``repro submit`` is built on.
* :mod:`repro.service.smoke` — the end-to-end smoke scenario CI runs
  (``make serve-smoke``).

``repro serve`` / ``repro worker`` / ``repro submit`` are the CLI
entry points (see :mod:`repro.cli`).
"""

from repro.service.client import ServiceClient, SubmitReceipt
from repro.service.jobs import JOB_STATES, Job, JobManager, ServiceSaturated
from repro.service.journal import JobJournal
from repro.service.netio import (
    HttpError,
    HttpServer,
    ServerThread,
    ServiceUnreachable,
    request_json,
    stream_lines,
)
from repro.service.remote import RemoteExecutor, WorkerEndpoint
from repro.service.server import ServerConfig, SweepServerApp
from repro.service.worker import WorkerApp

__all__ = [
    "HttpError",
    "HttpServer",
    "JOB_STATES",
    "Job",
    "JobJournal",
    "JobManager",
    "RemoteExecutor",
    "ServiceSaturated",
    "ServerConfig",
    "ServerThread",
    "ServiceClient",
    "ServiceUnreachable",
    "SubmitReceipt",
    "SweepServerApp",
    "WorkerApp",
    "WorkerEndpoint",
    "request_json",
    "stream_lines",
]
