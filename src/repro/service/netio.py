"""Minimal stdlib HTTP plumbing for the service tier.

The sweep server and the chunk workers speak plain HTTP/1.1, but the
repo takes no new dependency for it: this module is a deliberately
small asyncio server framework (request parsing, pattern routing, JSON
responses, close-delimited SSE streams) plus the blocking
``http.client``-based helpers the CLI, the :class:`RemoteExecutor`,
and the tests use to talk to it.

Scope is exactly what :mod:`repro.service` needs — JSON request/
response bodies sized by ``Content-Length``, binary outcome-column
bodies (:data:`COLUMNS_CONTENT_TYPE`) passed through as raw bytes, one
request per connection (``Connection: close``), and
``text/event-stream`` responses written incrementally from an async
iterator.  It is not a general web framework and does not try to be
one.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import re
import threading
import urllib.parse
from dataclasses import dataclass, field
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import ReproError

__all__ = [
    "App",
    "COLUMNS_CONTENT_TYPE",
    "HttpError",
    "Request",
    "Response",
    "ServerThread",
    "ServiceUnreachable",
    "request_json",
    "stream_lines",
]

#: Content type of a body holding packed outcome-column documents
#: (:mod:`repro.harness.exec.columns`) rather than JSON.
COLUMNS_CONTENT_TYPE = "application/x-repro-columns"

#: Upper bound on request head + body sizes the server will accept.
_MAX_HEAD_BYTES = 64 * 1024
_MAX_BODY_BYTES = 256 * 1024 * 1024

_STATUS_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceUnreachable(ReproError):
    """A peer could not be reached or returned an unusable response."""


class HttpError(ReproError):
    """Raise inside a handler to produce a structured error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request as handlers see it."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    params: Dict[str, str] = field(default_factory=dict)

    def json(self) -> Any:
        """The body parsed as JSON; 400 on malformed input."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HttpError(400, f"malformed JSON body: {exc}") from exc


@dataclass
class Response:
    """What a handler returns.

    ``payload`` (a JSON-able value) is the common case; with any
    other ``content_type`` it is written as is when it is ``bytes``
    (column documents) and as text otherwise.  ``stream`` is an async
    iterator of already-formatted SSE strings, written incrementally
    on a close-delimited ``text/event-stream`` response.
    """

    status: int = 200
    payload: Any = None
    stream: Optional[AsyncIterator[str]] = None
    content_type: str = "application/json"


Handler = Callable[[Request], Awaitable[Response]]


def _compile(pattern: str) -> "re.Pattern[str]":
    """Turn ``/jobs/{job_id}/events`` into an anchored regex."""
    parts = [
        f"(?P<{seg[1:-1]}>[^/]+)"
        if seg.startswith("{") and seg.endswith("}")
        else re.escape(seg)
        for seg in pattern.strip("/").split("/")
    ]
    return re.compile("^/" + "/".join(parts) + "$")


class App:
    """Pattern-routed request dispatcher shared by server and worker."""

    def __init__(self) -> None:
        self._routes: List[Tuple[str, "re.Pattern[str]", Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        self._routes.append((method.upper(), _compile(pattern), handler))

    async def dispatch(self, request: Request) -> Response:
        path_matched = False
        for method, regex, handler in self._routes:
            match = regex.match(request.path)
            if match is None:
                continue
            path_matched = True
            if method != request.method:
                continue
            request.params = match.groupdict()
            return await handler(request)
        if path_matched:
            raise HttpError(405, f"method {request.method} not allowed")
        raise HttpError(404, f"no such endpoint: {request.path}")


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request from the stream; ``None`` on a closed socket."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError:
        return None
    except asyncio.LimitOverrunError as exc:
        raise HttpError(400, f"request head too large: {exc}") from exc
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise HttpError(400, f"malformed request line: {lines[0]!r}") from exc
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    parsed = urllib.parse.urlsplit(target)
    query = {
        k: v[-1]
        for k, v in urllib.parse.parse_qs(parsed.query).items()
    }
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError as exc:
        raise HttpError(400, "malformed Content-Length") from exc
    if not 0 <= length <= _MAX_BODY_BYTES:
        raise HttpError(400, f"unacceptable Content-Length {length}")
    body = await reader.readexactly(length) if length else b""
    return Request(
        method=method.upper(),
        path=parsed.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


def _head_bytes(status: int, content_type: str, length: Optional[int]) -> bytes:
    reason = _STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        "Connection: close",
        "Cache-Control: no-store",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _write_response(
    writer: asyncio.StreamWriter, response: Response
) -> None:
    if response.stream is not None:
        writer.write(_head_bytes(response.status, "text/event-stream", None))
        await writer.drain()
        async for event in response.stream:
            writer.write(event.encode("utf-8"))
            await writer.drain()
        return
    if response.content_type == "application/json":
        body = json.dumps(response.payload, sort_keys=True).encode("utf-8")
    elif isinstance(response.payload, bytes):
        body = response.payload
    else:
        body = str(response.payload).encode("utf-8")
    writer.write(_head_bytes(response.status, response.content_type, len(body)))
    writer.write(body)
    await writer.drain()


class HttpServer:
    """One asyncio HTTP server bound to an :class:`App`."""

    def __init__(
        self, app: App, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> int:
        """Bind and start serving; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=_MAX_HEAD_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await _read_request(reader)
                if request is None:
                    return
                response = await self.app.dispatch(request)
            except HttpError as exc:
                response = Response(
                    status=exc.status, payload={"error": exc.message}
                )
            except Exception as exc:  # handler bug: report, don't die
                response = Response(
                    status=500,
                    payload={"error": f"{type(exc).__name__}: {exc}"},
                )
            await _write_response(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass  # peer went away mid-write; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class ServerThread:
    """Run an :class:`HttpServer` on its own event loop in a thread.

    The synchronous world's handle on the async server: tests,
    benchmarks, and the in-process smoke path start servers with
    ``start()`` (which returns the bound port) and tear them down with
    ``stop()``; the CLI's blocking ``serve``/``worker`` commands use
    :func:`asyncio.run` directly instead.
    """

    def __init__(
        self, app: App, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.server = HttpServer(app, host, port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def start(self, timeout: float = 10.0) -> int:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServiceUnreachable("server thread failed to start")
        return self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
            self._started.set()
            loop.run_forever()
        finally:
            self._started.set()  # unblock start() even on bind failure
            try:
                loop.run_until_complete(self.server.stop())
            finally:
                loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)
        self._loop = None
        self._thread = None


def _split_base(base_url: str) -> Tuple[str, int]:
    parsed = urllib.parse.urlsplit(base_url)
    if parsed.scheme not in ("http", ""):
        raise ServiceUnreachable(
            f"only http:// endpoints are supported, got {base_url!r}"
        )
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    return host, port


def request_json(
    base_url: str,
    method: str,
    path: str,
    payload: Any = None,
    timeout: float = 30.0,
) -> Tuple[int, Any]:
    """Blocking round trip to ``base_url`` + ``path``; the request is JSON.

    Returns ``(status, parsed body)``, or ``(status, raw bytes)`` when
    the response is a :data:`COLUMNS_CONTENT_TYPE` body (decoding
    those is the caller's job).  Transport-level failures (refused
    connection, timeout, a body that is neither JSON nor columns)
    raise :class:`ServiceUnreachable`; HTTP-level errors are returned
    as their status code so callers can distinguish "worker said no"
    from "worker is gone".
    """
    host, port = _split_base(base_url)
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None
        headers = {"Accept": f"application/json, {COLUMNS_CONTENT_TYPE}"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceUnreachable(
                f"{method} {base_url}{path} failed: {exc}"
            ) from exc
        if response.getheader("Content-Type") == COLUMNS_CONTENT_TYPE:
            return response.status, raw
        if not raw:
            return response.status, None
        try:
            return response.status, json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceUnreachable(
                f"{method} {base_url}{path} returned a non-JSON body"
            ) from exc
    finally:
        conn.close()


def stream_lines(
    base_url: str, path: str, timeout: float = 300.0
) -> Iterator[str]:
    """Yield decoded lines of a close-delimited streaming response.

    Used to consume the server's SSE endpoints: each yielded value is
    one line (newline stripped); the stream ends when the server
    closes the connection.
    """
    host, port = _split_base(base_url)
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        try:
            conn.request("GET", path, headers={"Accept": "text/event-stream"})
            response = conn.getresponse()
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceUnreachable(
                f"GET {base_url}{path} failed: {exc}"
            ) from exc
        if response.status != 200:
            raise ServiceUnreachable(
                f"GET {base_url}{path} returned {response.status}"
            )
        while True:
            try:
                line = response.readline()
            except (OSError, http.client.HTTPException):
                return
            if not line:
                return
            yield line.decode("utf-8").rstrip("\r\n")
    finally:
        conn.close()
