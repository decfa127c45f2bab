"""ServiceClient: the blocking client side of the sweep server.

A thin, dependency-free wrapper over the endpoints of
:mod:`repro.service.server` — submit a plan, poll or stream its
progress, and fetch results (decoded from the server's outcome
columns into plain records).  ``repro submit`` is built on this, and
the differential tests drive servers through it.

The client is deliberately stateless: every method takes the job id
returned by :meth:`ServiceClient.submit`, so one client object can
track any number of jobs (or none — ids are just strings and survive
process boundaries).
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Iterator, Optional

from repro.errors import ConfigurationError, ReproError
from repro.harness.exec import ExecutionPlan, plan_to_wire
from repro.harness.exec.columns import unpack_documents
from repro.service.netio import ServiceUnreachable, request_json, stream_lines

__all__ = ["ServiceClient", "SubmitReceipt"]


class SubmitReceipt:
    """What ``POST /jobs`` came back with."""

    def __init__(self, doc: Dict[str, Any]) -> None:
        self.job_id: str = doc["job_id"]
        self.plan_key: str = doc["plan_key"]
        self.coalesced: bool = bool(doc["coalesced"])
        self.state: str = doc["state"]
        self.total_trials: int = doc["total_trials"]


class ServiceClient:
    """Blocking HTTP client for one sweep server.

    Args:
        base_url: The server's base URL (``http://host:port``).
        timeout: Per-request timeout in seconds for the plain requests
            (streaming uses its own, much longer, read timeout).
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _get(self, path: str) -> Any:
        status, doc = request_json(
            self.base_url, "GET", path, timeout=self.timeout
        )
        if status != 200:
            detail = doc.get("error") if isinstance(doc, dict) else doc
            raise ReproError(f"GET {path} returned {status}: {detail}")
        return doc

    def healthz(self) -> Dict[str, Any]:
        """The server's liveness document."""
        return self._get("/healthz")

    def submit(
        self, plan: ExecutionPlan, label: str = ""
    ) -> SubmitReceipt:
        """Submit ``plan``; identical plans coalesce server-side."""
        status, doc = request_json(
            self.base_url,
            "POST",
            "/jobs",
            {"plan": plan_to_wire(plan), "label": label},
            timeout=self.timeout,
        )
        if status != 202:
            detail = doc.get("error") if isinstance(doc, dict) else doc
            raise ReproError(f"submission rejected ({status}): {detail}")
        return SubmitReceipt(doc)

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's current status document."""
        return self._get(f"/jobs/{job_id}")

    def outcomes(self, job_id: str) -> Dict[str, Any]:
        """Full per-trial outcomes of a finished job.

        Returns ``{"job_id", "plan_key", "batches": [{"label",
        "batch_key", "outcomes": [record, ...]}, ...]}`` with one
        :meth:`TrialOutcome.to_jsonable
        <repro.harness.exec.columns.TrialOutcome.to_jsonable>` record
        per trial, decoded from the server's column documents.  A body
        that does not decode raises :class:`ReproError`.
        """
        body = self._get(f"/jobs/{job_id}/outcomes")
        try:
            if not isinstance(body, bytes):
                raise ConfigurationError("not an outcome-columns body")
            documents = unpack_documents(body)
            if not documents:
                raise ConfigurationError("no batch documents")
            first = documents[0][0]
            return {
                "job_id": first["job_id"],
                "plan_key": first["plan_key"],
                "batches": [
                    {
                        "label": header["label"],
                        "batch_key": header["batch_key"],
                        "outcomes": [o.to_jsonable() for o in columns.to_outcomes()],
                    }
                    for header, columns in documents
                ],
            }
        except (ConfigurationError, KeyError) as exc:
            raise ReproError(
                f"job {job_id} outcomes body is malformed: {exc}"
            ) from exc

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream the job's SSE progress events as parsed documents.

        Yields each status document the server pushes; the stream ends
        (and so does this iterator) once the job settles.
        """
        for line in stream_lines(
            self.base_url, f"/jobs/{job_id}/events", timeout=self.timeout * 10
        ):
            if line.startswith("data: "):
                yield json.loads(line[len("data: ") :])

    def wait(
        self, job_id: str, timeout: Optional[float] = None, poll: float = 0.1
    ) -> Dict[str, Any]:
        """Poll until the job settles; returns its final status document.

        Raises :class:`ServiceUnreachable` after ``timeout`` seconds of
        the job staying unsettled (``None`` = wait forever).
        """
        waited = 0.0
        while True:
            doc = self.status(job_id)
            if doc["state"] in ("done", "failed"):
                return doc
            if timeout is not None and waited >= timeout:
                raise ServiceUnreachable(
                    f"job {job_id} still {doc['state']} after {timeout:.0f}s"
                )
            time.sleep(poll)
            waited += poll
