"""Span tracing for the benchmark's traced run, recorded from outside ``src/``.

:func:`install` wraps the public functions and methods through which
each layer of the pipeline is entered (spec, engine, trial, cache,
executor, wire, netio, remote, worker, jobs) so that every call
records a span: process, id, name, start, end, parent span, thread and
an optional numeric value.  Spans stay in memory while the run lasts
and are written out once at the end (:meth:`Recorder.dump`).

Process-pool children cannot append to the parent's memory, so the
executor's chunk entry point is replaced by :func:`traced_run_chunk`, a
module-level function the pool can pickle by name.  Under the ``fork``
start method a child inherits the installed wrappers; it records its
own spans and spools them to a file after each chunk, which the parent
merges (:meth:`Recorder.collect_spool`).  Under other start methods the
children run untraced.

Nothing here feeds a value back into the program: wrappers return
exactly what the wrapped call returned, and timings only reach the
recorder.
"""

from __future__ import annotations

import functools
import http.client
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from measure import interval_union

__all__ = [
    "LAYERS",
    "Recorder",
    "Span",
    "breakdown",
    "install",
    "layer_metrics",
    "self_times",
    "traced_run_chunk",
]

#: The layers spans are grouped into; a span's layer is its name up to
#: the first dot.  ``bench`` spans are the benchmark's own phases.
LAYERS = (
    "spec",
    "engine",
    "trial",
    "cache",
    "executor",
    "wire",
    "netio",
    "remote",
    "worker",
    "jobs",
)

#: ``(pid, sid, name, start, end, parent sid or 0, thread id, value)``.
Span = Tuple[int, int, str, float, float, int, int, Optional[float]]
_SPAN_FIELDS = ("pid", "sid", "name", "start", "end", "parent", "thread", "value")

#: Engine classes whose ``run`` is timed, by module; one a later version
#: retires is skipped.
_ENGINES = (
    ("repro.sim.batch", "BatchFastEngine"),
    ("repro.sim.batch2d", "Batch2DEngine"),
    ("repro.sim.fast", "FastEngine"),
    ("repro.sim.engine", "Engine"),
)

#: The recorder wrappers report to.  A module global because the pool
#: entry point must be a plain module-level function (pickled by name)
#: and so cannot carry the recorder as an argument.
_ACTIVE: Optional["Recorder"] = None
_ORIGINAL_RUN_CHUNK: Optional[Callable[..., Any]] = None


class Recorder:
    """In-memory span and counter store for one traced run.

    Args:
        spool_dir: Directory where process-pool children leave their
            spans (one JSON-lines file per child process).
    """

    def __init__(self, spool_dir: Path) -> None:
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.spool_dir = Path(spool_dir)
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: Sequence[Any],
        kwargs: Dict[str, Any],
        value_of: Optional[Callable[[Any], float]] = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = time.perf_counter()
            stack.pop()
            self._append(sid, name, start, end, parent, None)
            raise
        end = time.perf_counter()
        stack.pop()
        value = value_of(result) if value_of is not None else None
        self._append(sid, name, start, end, parent, value)
        return result

    def phase(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run one of the benchmark's own phases as a span."""
        return self.call(name, fn, (), {})

    def _append(
        self,
        sid: int,
        name: str,
        start: float,
        end: float,
        parent: int,
        value: Optional[float],
    ) -> None:
        self.spans.append(
            (self.pid, sid, name, start, end, parent, threading.get_ident(), value)
        )

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (thread-safe)."""
        with self._lock:
            self.counters[name] += amount

    def reset(self) -> None:
        """Drop everything recorded so far."""
        self.spans = []
        self.counters = defaultdict(float)

    # -- process-pool children ------------------------------------------

    def adopt_process(self) -> None:
        """Start clean in a forked child (drop the parent's copy)."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.reset()
            self._local = threading.local()

    def spool(self) -> None:
        """Append a child's spans to its spool file and forget them."""
        if self.pid == self.owner_pid or not self.spans:
            return
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"child-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect_spool(self) -> None:
        """Merge (and remove) every child's spooled spans."""
        if not self.spool_dir.is_dir():
            return
        for path in sorted(self.spool_dir.glob("child-*.jsonl")):
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    self.spans.append(tuple(json.loads(line)))  # type: ignore[arg-type]
            path.unlink()

    def dump(self, path: Path) -> None:
        """Write every span, one JSON list per line, plus the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": list(_SPAN_FIELDS)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def _rounds(outcomes: Iterable[Any]) -> float:
    return float(sum(o.rounds for o in outcomes))


def traced_run_chunk(
    spec: Any, base_seed: int, indices: Sequence[int], attempt: int = 0
) -> Any:
    """Traced stand-in for ``repro.harness.exec.executor.run_chunk``."""
    rec = _ACTIVE
    if rec is None or _ORIGINAL_RUN_CHUNK is None:
        # A pool child that did not inherit the installed wrappers.
        from repro.harness.exec.executor import run_chunk

        return run_chunk(spec, base_seed, indices, attempt)
    rec.adopt_process()
    try:
        return rec.call(
            "executor.run_chunk",
            _ORIGINAL_RUN_CHUNK,
            (spec, base_seed, indices, attempt),
            {},
            _rounds,
        )
    finally:
        rec.spool()


def _file_size(path: Any) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the undo function."""
    global _ACTIVE, _ORIGINAL_RUN_CHUNK

    from repro.harness.exec import cache as cache_mod
    from repro.harness.exec import executor as executor_mod
    from repro.harness.exec import spec as spec_mod
    from repro.harness.exec import trial as trial_mod
    from repro.harness.exec import wire as wire_mod
    from repro.service import jobs as jobs_mod
    from repro.service import netio as netio_mod
    from repro.service import remote as remote_mod
    from repro.service import worker as worker_mod

    undo: List[Tuple[Any, str, Any]] = []

    def set_attr(owner: Any, attr: str, value: Any) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def traced(name: str, original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return rec.call(name, original, args, kwargs)

        return wrapper

    def patch_method(cls: type, attr: str, name: str) -> None:
        set_attr(cls, attr, traced(name, cls.__dict__[attr]))

    def patch_function(original: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
        """Replace ``original`` wherever a ``repro`` module bound it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    set_attr(mod, attr, wrapper)

    # spec
    patch_method(spec_mod.TrialSpec, "trial_seed", "spec.trial_seed")
    patch_method(spec_mod.TrialSpec, "spec_hash", "spec.spec_hash")

    # engine: whichever of the engine classes this version still has
    for module_name, class_name in _ENGINES:
        try:
            engine_cls = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            continue
        patch_method(engine_cls, "run", "engine.run")

    # trial
    for fn in (trial_mod.run_spec_batch, trial_mod.run_spec_trial, trial_mod.outcomes_digest):
        patch_function(fn, traced(f"trial.{fn.__name__}", fn))

    # cache
    cache_cls = cache_mod.ResultCache
    orig_load = cache_cls.__dict__["load"]
    orig_store = cache_cls.__dict__["store"]
    orig_store_chunk = cache_cls.__dict__["store_chunk"]
    orig_load_partial = cache_cls.__dict__["load_partial"]

    def load(self: Any, batch: Any, *args: Any, **kwargs: Any) -> Any:
        lookup = not (rec.parent_name() or "").startswith("cache.")
        size = _file_size(self.path_for(batch))
        result = rec.call("cache.load", orig_load, (self, batch) + args, kwargs)
        rec.count("cache.bytes_read", size)
        if lookup:
            rec.count("cache.hits" if result is not None else "cache.misses")
        return result

    def written(path: Any) -> Any:
        if path is not None:
            rec.count("cache.docs_written")
            rec.count("cache.bytes_written", _file_size(path))
        return path

    def store(self: Any, *args: Any, **kwargs: Any) -> Any:
        return written(rec.call("cache.store", orig_store, (self,) + args, kwargs))

    def store_chunk(self: Any, *args: Any, **kwargs: Any) -> Any:
        return written(rec.call("cache.store_chunk", orig_store_chunk, (self,) + args, kwargs))

    def load_partial(self: Any, batch: Any, *args: Any, **kwargs: Any) -> Any:
        rec.count(
            "cache.bytes_read", sum(_file_size(p) for p in self.partial_paths(batch))
        )
        return rec.call("cache.load_partial", orig_load_partial, (self, batch) + args, kwargs)

    set_attr(cache_cls, "load", load)
    set_attr(cache_cls, "store", store)
    set_attr(cache_cls, "store_chunk", store_chunk)
    set_attr(cache_cls, "load_partial", load_partial)

    # executor (local executors) and remote (RemoteExecutor)
    executor_cls = executor_mod.Executor
    orig_run_outcomes = executor_cls.__dict__["run_outcomes"]
    remote_cls = remote_mod.RemoteExecutor

    def run_outcomes(self: Any, *args: Any, **kwargs: Any) -> Any:
        layer = "remote" if isinstance(self, remote_cls) else "executor"
        result = rec.call(f"{layer}.run_outcomes", orig_run_outcomes, (self,) + args, kwargs)
        report = self.last_report
        if report is not None:
            rec.count(f"{layer}.retries", report.retries)
        return result

    set_attr(executor_cls, "run_outcomes", run_outcomes)
    _ORIGINAL_RUN_CHUNK = executor_mod.run_chunk
    patch_function(executor_mod.run_chunk, traced_run_chunk)

    # wire: documents are sized once, by the outermost encode call
    def traced_encoder(original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outer = not (rec.parent_name() or "").startswith("wire.")
            doc = rec.call(f"wire.{original.__name__}", original, args, kwargs)
            if outer:
                rec.count("wire.bytes", len(json.dumps(doc)))
            return doc

        return wrapper

    for fn in (wire_mod.plan_to_wire, wire_mod.spec_to_wire):
        patch_function(fn, traced_encoder(fn))
    for fn in (wire_mod.plan_from_wire, wire_mod.spec_from_wire):
        patch_function(fn, traced(f"wire.{fn.__name__}", fn))

    # netio: the blocking JSON client every caller goes through
    orig_request_json = netio_mod.request_json

    def request_json(base_url: str, method: str, path: str, *args: Any, **kwargs: Any) -> Any:
        if path == "/chunks":
            name = "netio.chunk"
        elif path.endswith("/outcomes"):
            name = "netio.outcomes"
        else:
            name = "netio.request"
        result = rec.call(name, orig_request_json, (base_url, method, path) + args, kwargs)
        if name == "netio.chunk" and result[0] == 200:
            rec.count("remote.chunks")
        return result

    patch_function(orig_request_json, functools.wraps(orig_request_json)(request_json))

    orig_http_request = http.client.HTTPConnection.request
    orig_http_read = http.client.HTTPResponse.read

    def http_request(self: Any, method: str, url: str, body: Any = None, *args: Any, **kwargs: Any) -> Any:
        if body is not None:
            rec.count("netio.bytes_out", len(body))
        return orig_http_request(self, method, url, body, *args, **kwargs)

    def http_read(self: Any, *args: Any, **kwargs: Any) -> Any:
        data = orig_http_read(self, *args, **kwargs)
        rec.count("netio.bytes_in", len(data))
        return data

    set_attr(http.client.HTTPConnection, "request", http_request)
    set_attr(http.client.HTTPResponse, "read", http_read)

    # worker
    patch_function(
        worker_mod.execute_wire_chunk,
        traced("worker.execute_wire_chunk", worker_mod.execute_wire_chunk),
    )

    # jobs
    manager_cls = jobs_mod.JobManager
    job_cls = jobs_mod.Job
    orig_submit = manager_cls.__dict__["submit"]
    orig_mark_running = job_cls.__dict__["mark_running"]
    submitted: Dict[int, float] = {}

    def submit(self: Any, *args: Any, **kwargs: Any) -> Any:
        job, coalesced = rec.call("jobs.submit", orig_submit, (self,) + args, kwargs)
        if coalesced:
            rec.count("jobs.dedup_hits")
        else:
            submitted.setdefault(id(job), time.perf_counter())
        return job, coalesced

    def mark_running(self: Any) -> Any:
        started = submitted.pop(id(self), None)
        if started is not None:
            rec.count("jobs.queue_wait_s", time.perf_counter() - started)
        return orig_mark_running(self)

    set_attr(manager_cls, "submit", submit)
    set_attr(job_cls, "mark_running", mark_running)
    patch_method(job_cls, "status_doc", "jobs.status_doc")
    patch_method(job_cls, "outcomes_doc", "jobs.outcomes_doc")

    _ACTIVE = rec

    def uninstall() -> None:
        global _ACTIVE, _ORIGINAL_RUN_CHUNK
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()
        _ACTIVE = None
        _ORIGINAL_RUN_CHUNK = None

    return uninstall


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[Tuple[int, int], float]:
    """Each span's duration minus the part its child spans cover.

    Children are matched to parents within one process; the covered
    part is the union of the children's intervals clipped to the
    parent's, so overlapping children (threads) are not subtracted
    twice.
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = defaultdict(list)
    for pid, _sid, _name, start, end, parent, _thread, _value in spans:
        if parent:
            children[(pid, parent)].append((start, end))
    result: Dict[Tuple[int, int], float] = {}
    for pid, sid, _name, start, end, _parent, _thread, _value in spans:
        clipped = [
            (max(a, start), min(b, end)) for a, b in children.get((pid, sid), ())
        ]
        result[(pid, sid)] = (end - start) - interval_union(clipped)
    return result


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(
    spans: Sequence[Span],
    counters: Dict[str, float],
    passes: int,
    overhead_frac: float,
) -> Dict[str, float]:
    """Per-layer metrics of a traced run, per measured pass.

    ``<name>_s`` metrics are inclusive times of the named entry points,
    counting a span only when its direct parent is in another layer
    (a cache load nested in a chunk store is part of the store).
    ``<layer>.busy_s`` is the union of the layer's span intervals and
    ``<layer>.self_s`` the sum of its spans' self times.
    """
    per = 1.0 / passes
    names = {(pid, sid): name for pid, sid, name, *_ in spans}
    own = self_times(spans)

    def outermost(span: Span) -> bool:
        parent = names.get((span[0], span[5]))
        return parent is None or _layer(parent) != _layer(span[2])

    def incl(*wanted: str) -> float:
        return per * sum(s[4] - s[3] for s in spans if s[2] in wanted and outermost(s))

    def count(name: str) -> float:
        return per * sum(1 for s in spans if s[2] == name)

    def selfsum(*wanted: str) -> float:
        return per * sum(own[(s[0], s[1])] for s in spans if s[2] in wanted)

    def counter(name: str) -> float:
        return per * counters.get(name, 0.0)

    hits, misses = counters.get("cache.hits", 0.0), counters.get("cache.misses", 0.0)
    m: Dict[str, float] = {
        "spec.trial_seed_s": incl("spec.trial_seed"),
        "spec.spec_hash_calls": count("spec.spec_hash"),
        "engine.run_s": incl("engine.run"),
        "engine.trial_rounds": per
        * sum(s[7] or 0.0 for s in spans if s[2] == "executor.run_chunk"),
        "trial.materialise_s": selfsum("trial.run_spec_batch", "trial.run_spec_trial"),
        "trial.digest_s": incl("trial.outcomes_digest"),
        "trial.digest_calls": count("trial.outcomes_digest"),
        "cache.store_s": incl("cache.store"),
        "cache.store_chunk_s": incl("cache.store_chunk"),
        "cache.bytes_written": counter("cache.bytes_written"),
        "cache.docs_written": counter("cache.docs_written"),
        "cache.load_s": incl("cache.load"),
        "cache.load_partial_s": incl("cache.load_partial"),
        "cache.bytes_read": counter("cache.bytes_read"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "executor.chunks": count("executor.run_chunk"),
        "executor.retries": counter("executor.retries"),
        "wire.encode_s": incl("wire.plan_to_wire", "wire.spec_to_wire"),
        "wire.decode_s": incl("wire.plan_from_wire", "wire.spec_from_wire"),
        "wire.bytes": counter("wire.bytes"),
        "netio.chunk_rtt_s": incl("netio.chunk"),
        "netio.outcomes_fetch_s": incl("netio.outcomes"),
        "netio.bytes_in": counter("netio.bytes_in"),
        "netio.bytes_out": counter("netio.bytes_out"),
        "remote.chunks": counter("remote.chunks"),
        "remote.retries": counter("remote.retries"),
        "worker.chunk_exec_s": incl("worker.execute_wire_chunk"),
        "jobs.queue_wait_s": counter("jobs.queue_wait_s"),
        "jobs.dedup_hits": counter("jobs.dedup_hits"),
    }
    by_layer: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_layer[_layer(span[2])].append(span)
    for layer in LAYERS:
        mine = by_layer.get(layer, [])
        m[f"{layer}.busy_s"] = per * interval_union([(s[3], s[4]) for s in mine])
        m[f"{layer}.self_s"] = per * sum(own[(s[0], s[1])] for s in mine)
    bench = by_layer.get("bench", [])
    m["trace.wall_s"] = per * sum(s[4] - s[3] for s in bench)
    m["trace.unaccounted_s"] = per * sum(own[(s[0], s[1])] for s in bench)
    m["trace.overhead_frac"] = overhead_frac
    m["trace.spans"] = per * len(spans)
    return m


def breakdown(spans: Sequence[Span], phase: str) -> Tuple[float, Dict[str, float]]:
    """Where the time of the ``phase`` spans went, by layer self time.

    Returns ``(total phase wall, {layer: self time})`` over the spans
    descending from a ``phase`` span in the same process; the phase's
    own self time is reported under ``"unaccounted"``.
    """
    parents = {(s[0], s[1]): s[5] for s in spans}
    names = {(s[0], s[1]): s[2] for s in spans}
    own = self_times(spans)
    memo: Dict[Tuple[int, int], bool] = {}

    def under(key: Tuple[int, int]) -> bool:
        chain = []
        found = False
        while key in names:
            if key in memo:
                found = memo[key]
                break
            chain.append(key)
            if names[key] == phase:
                found = True
                break
            key = (key[0], parents[key])
        for k in chain:
            memo[k] = found
        return found

    shares: Dict[str, float] = defaultdict(float)
    total = 0.0
    for span in spans:
        key = (span[0], span[1])
        if span[2] == phase:
            total += span[4] - span[3]
            shares["unaccounted"] += own[key]
        elif under(key):
            shares[_layer(span[2])] += own[key]
    return total, dict(shares)
