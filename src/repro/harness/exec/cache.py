"""Content-addressed on-disk cache of batch results.

Each completed :class:`~repro.harness.exec.spec.TrialBatch` is stored
as one document under ``.repro-cache/`` (or a caller-chosen root),
addressed by the batch key — a hash over the spec's content hash, the
base seed, and the trial count.  A stored document also records a
*code-version salt*; when the package version (or the cache schema)
changes, every old entry silently misses and is recomputed, so stale
results can never survive a code change that might alter sampled
behaviour.

Schema v4 layout (``<k2>/<key>.bin``): a column document as framed by
:func:`~repro.harness.exec.columns.pack_document` — an 8-byte
little-endian header length, a canonical JSON header (``schema``,
``salt``, ``batch_key``, ``spec``, ``trials``, ``base_seed``,
``label``, ``digest``, and the column table), then the raw outcome
column bytes.  A load is one ``read()`` plus ``np.frombuffer`` views;
it checks the header against the batch, recomputes the digest over
the loaded columns, and hands the columns back.  The cache never makes
``TrialOutcome`` objects: stores take the executors' columns as they
are, without re-encoding.  There is no upgrade path: a v2 or v3 JSON
document (at the old ``<key>.json`` name or anywhere else) is a plain
miss and the batch is recomputed.

*Partial-batch ledger*: while a batch is in flight, each completed
chunk of trial indices is persisted as its own document
(``<key>.partial/chunk-<first>-<last>.bin``, same layout and header).
An interrupted run therefore resumes at chunk granularity — the
executor reloads the ledger, recomputes only the missing indices, and
on completion the final batch document replaces the ledger (which is
then removed).  The ledger exists only where a batch runs as more than
one chunk: the serial executor runs every missing index as a single
chunk, and that chunk *is* the batch document, so it is written once
and never checkpointed.

Every document is *tamper-evident*: its ``digest`` is the canonical
content hash of its outcome columns (the same value
:func:`~repro.harness.exec.trial.outcomes_digest` gives and workers
attest in the service tier), so an entry whose outcome bytes were
altered after the fact (a Byzantine worker's checkpoint, bit rot, a
hand-edited file) reads as a miss instead of poisoning every future
cache hit.

Loads are defensive — any malformed, truncated, or mismatched
document (batch or chunk) is treated as a miss, never an error.
Stores are resilient the other way: the first ``OSError`` (read-only
or full filesystem) degrades the cache to a warned no-op, so a run
completes uncached rather than crashing.

Concurrency: every document write is an atomic rename, so no reader
ever observes a torn document — but the *ledger transitions* (a batch
store compacting the partial directory away, two writers checkpointing
chunks of the same batch) span several filesystem operations.  Those
are serialised per batch key through an advisory ``flock`` on a
sibling ``<key>.lock`` file, so concurrent server-side jobs and a
local CLI run can share one ``.repro-cache`` safely.  On platforms
without ``fcntl`` (or when the lock file itself cannot be created) the
lock degrades to a no-op and the atomic renames remain the only — and
still torn-write-free — guarantee.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

import repro
from repro.errors import ConfigurationError
from repro.harness.exec.columns import (
    OutcomeColumns,
    pack_document,
    unpack_document,
)
from repro.harness.exec.spec import TrialBatch

__all__ = ["CACHE_SCHEMA_VERSION", "DEFAULT_CACHE_DIR", "ResultCache", "cache_salt"]

#: Bumped whenever the stored document layout changes.
#: v2: partial-batch chunk ledger alongside final batch documents.
#: v3: tamper-evident outcome digests on batch and chunk documents.
#: v4: binary column documents (:mod:`repro.harness.exec.columns`).
CACHE_SCHEMA_VERSION = 4

DEFAULT_CACHE_DIR = Path(".repro-cache")

_CHUNK_DOC_RE = re.compile(r"^chunk-(\d{8})-(\d{8})\.bin$")


def cache_salt(schema: int = CACHE_SCHEMA_VERSION) -> str:
    """The code-version salt stamped into (and required of) every entry."""
    return f"{repro.__version__}/schema{schema}"


class ResultCache:
    """Column-document result store keyed by batch content hash + seed + salt.

    Args:
        root: Cache directory; created lazily on first store.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else DEFAULT_CACHE_DIR
        self._unwritable = False

    def path_for(self, batch: TrialBatch) -> Path:
        """Where ``batch``'s document lives (two-level fan-out)."""
        key = batch.batch_key()
        return self.root / key[:2] / f"{key}.bin"

    def partial_dir(self, batch: TrialBatch) -> Path:
        """Where ``batch``'s in-flight chunk ledger lives."""
        key = batch.batch_key()
        return self.root / key[:2] / f"{key}.partial"

    def lock_path(self, batch: TrialBatch) -> Path:
        """The advisory lock file serialising the batch's writers."""
        key = batch.batch_key()
        return self.root / key[:2] / f"{key}.lock"

    @contextlib.contextmanager
    def _locked(self, batch: TrialBatch) -> Iterator[None]:
        """Hold the batch's advisory write lock for the block.

        Best effort by design: without ``fcntl`` (or when the lock
        file cannot be created) the block simply runs unlocked — the
        atomic renames still rule out torn documents, the lock only
        serialises multi-step ledger transitions between cooperating
        processes.
        """
        handle = None
        if fcntl is not None:
            try:
                path = self.lock_path(batch)
                path.parent.mkdir(parents=True, exist_ok=True)
                handle = open(path, "a+")
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            except OSError:
                if handle is not None:
                    handle.close()
                handle = None
        try:
            yield
        finally:
            if handle is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                except OSError:
                    pass
                handle.close()

    def load(self, batch: TrialBatch) -> Optional[OutcomeColumns]:
        """The batch's cached outcome columns, or ``None`` on any miss.

        A hit requires the schema version, salt, batch key, spec
        fields, trial count, base seed, and outcome digest all to
        match, and the columns to hold exactly trials ``0..trials-1``;
        anything else — including a corrupt, tampered, truncated,
        legacy (v2/v3 JSON), or unreadable file — is a miss.
        """
        columns = self._load_doc(self.path_for(batch), batch)
        if columns is None:
            return None
        if not np.array_equal(
            columns.arrays["trial_index"], np.arange(batch.trials)
        ):
            return None
        return columns

    def store(
        self, batch: TrialBatch, columns: OutcomeColumns
    ) -> Optional[Path]:
        """Persist a completed batch atomically; returns the file path.

        Writes to a temp file in the destination directory and renames
        into place, so readers never observe a partial document.  Any
        chunk ledger for the batch is compacted away afterwards.  On an
        unwritable filesystem the cache degrades (one warning, then
        silent no-ops) and ``None`` is returned — the run's results are
        unaffected, just uncached.
        """
        if self._unwritable:
            return None
        buffers = self._pack(batch, columns)
        with self._locked(batch):
            try:
                written = self._write_atomic(self.path_for(batch), buffers)
            except OSError as exc:
                self._degrade(exc)
                return None
            self.clear_partial(batch)
        return written

    def store_chunk(
        self,
        batch: TrialBatch,
        indices: Sequence[int],
        columns: OutcomeColumns,
    ) -> Optional[Path]:
        """Checkpoint one completed chunk into the batch's ledger.

        The document is named after the index span it covers
        (``chunk-<first>-<last>.bin``) and written atomically, so a
        crash at any instant leaves either a valid chunk document or
        none.  Returns ``None`` on an empty chunk or a degraded cache.
        """
        if self._unwritable or not indices:
            return None
        buffers = self._pack(batch, columns)
        path = self._chunk_path(batch, indices)
        with self._locked(batch):
            if self._load_doc(self.path_for(batch), batch) is not None:
                # Another writer already completed and compacted the
                # batch; re-creating ledger state under a finished
                # document would only leave an orphan directory.
                return None
            try:
                return self._write_atomic(path, buffers)
            except OSError as exc:
                self._degrade(exc)
                return None

    def load_partial(
        self, batch: TrialBatch
    ) -> Tuple[OutcomeColumns, int]:
        """Salvage the batch's chunk ledger from an interrupted run.

        Returns ``(salvaged columns in trial order, valid chunk
        documents)``; a trial covered by several documents appears
        once.  Corrupt, truncated, or mismatched chunk documents are
        skipped (that chunk is simply recomputed); a missing ledger
        directory yields no columns and ``0``.
        """
        try:
            paths = self.partial_paths(batch)
        except OSError:
            paths = []
        parts = []
        for path in paths:
            columns = self._load_doc(path, batch)
            if columns is not None:
                parts.append(columns)
        salvaged = OutcomeColumns.concat(parts).sorted()
        index = salvaged.arrays["trial_index"]
        repeated = index[1:] == index[:-1]
        if repeated.any():
            salvaged = salvaged.take(np.flatnonzero(np.append(True, ~repeated)))
        return salvaged, len(parts)

    def partial_paths(self, batch: TrialBatch) -> List[Path]:
        """The batch's chunk-ledger documents, sorted by span."""
        directory = self.partial_dir(batch)
        if not directory.is_dir():
            return []
        return sorted(
            p for p in directory.iterdir() if _CHUNK_DOC_RE.match(p.name)
        )

    @staticmethod
    def chunk_doc_span(path: Path) -> Tuple[Optional[int], Optional[int]]:
        """The ``(first, last)`` trial span a chunk document's name claims."""
        match = _CHUNK_DOC_RE.match(path.name)
        if match is None:
            return None, None
        return int(match.group(1)), int(match.group(2))

    def clear_partial(self, batch: TrialBatch) -> None:
        """Remove the batch's chunk ledger (best effort)."""
        directory = self.partial_dir(batch)
        if directory.is_dir():
            shutil.rmtree(directory, ignore_errors=True)

    def remove_chunk(self, batch: TrialBatch, indices: Sequence[int]) -> None:
        """Expunge one chunk document from the batch's ledger.

        The audit path calls this to purge checkpoints attributed to an
        endpoint later proven Byzantine — the span's indices revert to
        "missing" and are recomputed by whoever resumes the batch.
        Best effort: an already-absent document is fine.
        """
        if not indices:
            return
        path = self._chunk_path(batch, indices)
        with self._locked(batch):
            try:
                path.unlink()
            except OSError:
                pass

    def _chunk_path(self, batch: TrialBatch, indices: Sequence[int]) -> Path:
        """The ledger document covering ``indices``' span."""
        first, last = min(indices), max(indices)
        return self.partial_dir(batch) / f"chunk-{first:08d}-{last:08d}.bin"

    def _pack(self, batch: TrialBatch, columns: OutcomeColumns) -> List[Any]:
        """A batch or chunk document's buffers for ``columns``."""
        columns = columns.sorted()
        header = dict(_identity(batch), label=batch.label, digest=columns.digest())
        return pack_document(header, columns)

    def _load_doc(
        self, path: Path, batch: TrialBatch
    ) -> Optional[OutcomeColumns]:
        """A batch or chunk document's verified columns, or ``None``.

        ``None`` on any defect: unreadable, unparseable, another
        schema, salt, or batch, a trial index outside the batch, or
        columns whose digest differs from the recorded one.
        """
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            header, columns = unpack_document(data)
        except (OSError, ConfigurationError):
            return None
        if any(header.get(k) != v for k, v in _identity(batch).items()):
            return None
        index = columns.arrays["trial_index"]
        if index.size and (index.min() < 0 or index.max() >= batch.trials):
            return None
        if columns.digest() != header.get("digest"):
            return None  # tampered or bit-rotted: recompute
        return columns

    def _write_atomic(self, path: Path, buffers: Sequence[Any]) -> Path:
        """Atomic write: temp file in the target dir, then rename."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=path.suffix
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                for buffer in buffers:
                    fh.write(buffer)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def _degrade(self, exc: OSError) -> None:
        """Disable writes after a filesystem failure; warn exactly once.

        Loads keep working (a read-only cache is still a valid source
        of prior results); only persistence stops.
        """
        if self._unwritable:
            return
        self._unwritable = True
        warnings.warn(
            f"result cache at {self.root} is not writable ({exc}); "
            "continuing uncached",
            RuntimeWarning,
            stacklevel=3,
        )


def _identity(batch: TrialBatch) -> Dict[str, Any]:
    """The header fields a document of ``batch`` must carry to be read.

    Documents also record the batch ``label`` (informational: batches
    differing only in label share a key) and the outcome ``digest``.
    """
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "salt": cache_salt(),
        "batch_key": batch.batch_key(),
        "spec": _spec_doc(batch),
        "trials": batch.trials,
        "base_seed": batch.base_seed,
    }


def _spec_doc(batch: TrialBatch) -> dict:
    """The spec as the JSON-round-trippable dict stored in documents.

    Param tuples become lists under ``json.dump``; normalise here so a
    freshly-built spec compares equal to one read back from disk.
    """
    raw = asdict(batch.spec)
    for key in (
        "protocol_params",
        "adversary_params",
        "inputs_params",
        "fault_model_params",
    ):
        raw[key] = [list(pair) for pair in raw[key]]
    return raw
