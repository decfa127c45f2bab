"""Trial outcomes: the per-trial record and its columnar codec.

:class:`TrialOutcome` is the unit the execution core hands to callers:
one trial's result, with everything the harness aggregates into
``TrialStats`` plus the per-round series the profiling experiments
need.  Its JSON record form (:meth:`TrialOutcome.to_jsonable`) is what
:meth:`ServiceClient.outcomes <repro.service.client.ServiceClient.outcomes>`
hands its callers.

:class:`OutcomeColumns` is the same data for many trials at once, as
fixed-dtype numpy columns, and this module is the only code that knows
that layout.  The engines' batch results, the executors, the outcome
digest, the cache documents, and the service wire all go through it;
``TrialOutcome`` objects are made once, by
:meth:`OutcomeColumns.to_outcomes`, at the API edge.

Layout (:data:`LAYOUT`, in canonical order):

* one int64 or bool value per trial for each scalar field;
* every nullable field carries an explicit ``*_present`` bool column
  and its value slot holds 0 when absent — no in-band sentinel, so
  ``None`` vs ``[]`` and ``decision_round=None`` vs ``timeout``
  round-trip exactly, whatever combination a record carries;
* the verdict is three bool columns plus its own decision column;
* each per-round history is an int64 ``*_lengths`` column plus one
  flat int32 ``*_values`` array, trial after trial.

Values that do not fit their column (an int outside int64, a history
entry outside int32, a verdict without exactly the four expected
keys) raise :class:`~repro.errors.ConfigurationError` rather than
wrap or truncate.

A *document* (:func:`pack_document` / :func:`unpack_document`) frames
columns for storage: an 8-byte little-endian header length, a
canonical JSON header carrying the caller's fields plus the column
table (``[name, dtype, count]`` per column), then the raw
little-endian column bytes back to back.  Reading one is a single
buffer plus ``np.frombuffer`` views — no pickle, no ``np.load``.  The
same documents are cache entries and service wire bodies; where one
body carries several (:func:`pack_documents` /
:func:`unpack_documents`), each is preceded by its own 8-byte
little-endian length.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.model import Verdict

__all__ = [
    "LAYOUT",
    "OutcomeColumns",
    "TrialOutcome",
    "pack_document",
    "pack_documents",
    "unpack_document",
    "unpack_documents",
]


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's result; :meth:`to_jsonable` gives its record form.

    Attributes:
        trial_index: Position of the trial within its batch.
        seed: The engine seed the trial ran under.
        rounds: Total rounds executed.
        decision_round: First round by whose end every surviving
            process had decided; ``None`` when the horizon was hit (or
            everyone crashed first).
        timeout: Whether the trial hit the round horizon undecided.
        crashes: Total processes crashed.
        decision: The common decision value (``None`` if none).
        verdict: Consensus verdict as a plain dict (reference engine
            only; ``None`` for fast-engine trials, whose checking is
            structural).
        crashes_per_round: Per-round crash counts (fast engine only).
        senders_per_round: Per-round broadcaster counts (fast engine
            only).
    """

    trial_index: int
    seed: int
    rounds: int
    decision_round: Optional[int]
    timeout: bool
    crashes: int
    decision: Optional[int]
    verdict: Optional[Dict[str, Any]] = None
    crashes_per_round: Optional[List[int]] = None
    senders_per_round: Optional[List[int]] = None

    @property
    def effective_round(self) -> int:
        """Decision round, or the horizon for timed-out trials.

        This is the value the factory drivers have always appended to
        ``TrialStats.decision_rounds``.
        """
        return self.rounds if self.decision_round is None else self.decision_round

    def verdict_obj(self) -> Optional[Verdict]:
        """The verdict as a :class:`~repro.sim.model.Verdict`, if any."""
        if self.verdict is None:
            return None
        return Verdict(
            agreement=bool(self.verdict["agreement"]),
            validity=bool(self.verdict["validity"]),
            termination=bool(self.verdict["termination"]),
            decision=self.verdict["decision"],
        )

    def to_jsonable(self) -> Dict[str, Any]:
        """A plain-dict form suitable for ``json.dump``."""
        return {
            "trial_index": self.trial_index,
            "seed": self.seed,
            "rounds": self.rounds,
            "decision_round": self.decision_round,
            "timeout": self.timeout,
            "crashes": self.crashes,
            "decision": self.decision,
            "verdict": self.verdict,
            "crashes_per_round": self.crashes_per_round,
            "senders_per_round": self.senders_per_round,
        }

    @classmethod
    def from_jsonable(cls, doc: Dict[str, Any]) -> "TrialOutcome":
        """Inverse of :meth:`to_jsonable`; raises on malformed docs."""
        try:
            return cls(
                trial_index=int(doc["trial_index"]),
                seed=int(doc["seed"]),
                rounds=int(doc["rounds"]),
                decision_round=(
                    None
                    if doc["decision_round"] is None
                    else int(doc["decision_round"])
                ),
                timeout=bool(doc["timeout"]),
                crashes=int(doc["crashes"]),
                decision=(
                    None if doc["decision"] is None else int(doc["decision"])
                ),
                verdict=doc.get("verdict"),
                crashes_per_round=doc.get("crashes_per_round"),
                senders_per_round=doc.get("senders_per_round"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed trial-outcome record: {exc}"
            ) from exc


_I8 = np.dtype("<i8")
_I4 = np.dtype("<i4")
_B1 = np.dtype("|b1")

#: Every column, in the canonical order the digest and documents use.
LAYOUT: Tuple[Tuple[str, np.dtype], ...] = (
    ("trial_index", _I8),
    ("seed", _I8),
    ("rounds", _I8),
    ("decision_round_present", _B1),
    ("decision_round", _I8),
    ("timeout", _B1),
    ("crashes", _I8),
    ("decision_present", _B1),
    ("decision", _I8),
    ("verdict_present", _B1),
    ("verdict_agreement", _B1),
    ("verdict_validity", _B1),
    ("verdict_termination", _B1),
    ("verdict_decision_present", _B1),
    ("verdict_decision", _I8),
    ("crashes_per_round_present", _B1),
    ("crashes_per_round_lengths", _I8),
    ("crashes_per_round_values", _I4),
    ("senders_per_round_present", _B1),
    ("senders_per_round_lengths", _I8),
    ("senders_per_round_values", _I4),
)

_HISTORIES = ("crashes_per_round", "senders_per_round")
_VERDICT_FLAGS = ("agreement", "validity", "termination")
_VERDICT_KEYS = frozenset(_VERDICT_FLAGS + ("decision",))

#: Value columns that must hold 0 wherever their presence column is
#: False (the canonical fill that makes columns <-> outcomes a bijection).
_NULLABLE = (
    ("decision_round", "decision_round_present"),
    ("decision", "decision_present"),
    ("verdict_agreement", "verdict_present"),
    ("verdict_validity", "verdict_present"),
    ("verdict_termination", "verdict_present"),
    ("verdict_decision_present", "verdict_present"),
    ("verdict_decision", "verdict_decision_present"),
    ("crashes_per_round_lengths", "crashes_per_round_present"),
    ("senders_per_round_lengths", "senders_per_round_present"),
)

_HEADER_LEN = 8


def _int_column(values: Sequence[Any], dtype: np.dtype, what: str) -> np.ndarray:
    """``values`` as a ``dtype`` column; raises unless all are in range ints."""
    if len(values) == 0:
        return np.zeros(0, dtype)
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu" or arr.ndim != 1:
        raise ConfigurationError(f"{what} must be integers, got {arr.dtype}")
    info = np.iinfo(dtype)
    # Compared as Python ints: exact for uint64 extremes on any numpy.
    if arr.dtype.kind != "b" and (int(arr.min()) < info.min or int(arr.max()) > info.max):
        raise ConfigurationError(f"{what} out of range for {dtype.name}")
    return arr.astype(dtype, copy=False)


def _bool_column(values: Sequence[Any], what: str) -> np.ndarray:
    """``values`` as a bool column; raises unless all are bools."""
    if len(values) == 0:
        return np.zeros(0, _B1)
    arr = np.asarray(values)
    if arr.dtype.kind != "b" or arr.ndim != 1:
        raise ConfigurationError(f"{what} must be bools, got {arr.dtype}")
    return arr


def _nullable(values: Sequence[Any], what: str) -> Tuple[np.ndarray, np.ndarray]:
    """``(present, values)`` columns of an ``Optional[int]`` field."""
    present = np.array([v is not None for v in values], dtype=bool)
    filled = [0 if v is None else v for v in values]
    return present, _int_column(filled, _I8, what)


class OutcomeColumns:
    """A set of trial outcomes as fixed-dtype numpy columns.

    Construction validates the columns against :data:`LAYOUT` (names,
    dtypes, per-trial lengths, canonical fill of absent values), so an
    instance always decodes.  Columns may be in any trial order;
    :meth:`sorted` gives the canonical one.

    Args:
        arrays: One 1-D array per :data:`LAYOUT` name.
    """

    __slots__ = ("arrays",)

    def __init__(self, arrays: Dict[str, np.ndarray]) -> None:
        if set(arrays) != {name for name, _ in LAYOUT}:
            raise ConfigurationError("outcome columns do not match the layout")
        n = len(arrays["trial_index"])
        for name, dtype in LAYOUT:
            arr = arrays[name]
            if arr.dtype != dtype or arr.ndim != 1:
                raise ConfigurationError(f"column {name} is not 1-D {dtype.str}")
            if dtype == _B1 and arr.size and arr.view(np.uint8).max() > 1:
                raise ConfigurationError(f"column {name} holds a non-bool byte")
            if not name.endswith("_values") and len(arr) != n:
                raise ConfigurationError(f"column {name} has {len(arr)} rows, not {n}")
        for value, present in _NULLABLE:
            if np.any(arrays[value][~arrays[present]]):
                raise ConfigurationError(f"absent {value} is not zero-filled")
        for field in _HISTORIES:
            lengths = arrays[f"{field}_lengths"]
            # Summed as Python ints: an int64 sum can wrap to any total.
            if np.any(lengths < 0) or sum(lengths.tolist()) != len(arrays[f"{field}_values"]):
                raise ConfigurationError(f"{field} lengths do not cover its values")
        self.arrays = arrays

    @classmethod
    def from_outcomes(cls, outcomes: Sequence[TrialOutcome]) -> "OutcomeColumns":
        """Encode outcome records; raises ``ConfigurationError`` on bad values."""
        try:
            return cls(_encode_records(outcomes))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"malformed trial outcome: {exc}") from exc

    @classmethod
    def from_batch_result(
        cls, result: Any, indices: Sequence[int], seeds: Sequence[int]
    ) -> "OutcomeColumns":
        """Encode a vectorized engine's ``BatchResult``, slot by slot.

        ``indices[k]`` and ``seeds[k]`` are slot ``k``'s trial index and
        seed.  The engine marks "none" with ``-1``; trial ``k``'s
        histories are the first ``rounds[k]`` rows of column ``k`` of
        the ``(R, M)`` history arrays.
        """
        rounds = result.rounds.astype(_I8)
        decision_round = result.decision_round.astype(_I8)
        decision = result.decision.astype(_I8)
        m = len(rounds)
        arrays = {
            "trial_index": _int_column(indices, _I8, "trial_index"),
            "seed": _int_column(seeds, _I8, "seed"),
            "rounds": rounds,
            "decision_round_present": decision_round >= 0,
            "decision_round": np.maximum(decision_round, 0),
            "timeout": decision_round < 0,
            "crashes": result.crashes_used.astype(_I8),
            "decision_present": decision >= 0,
            "decision": np.maximum(decision, 0),
            "verdict_present": np.zeros(m, _B1),
            "verdict_agreement": np.zeros(m, _B1),
            "verdict_validity": np.zeros(m, _B1),
            "verdict_termination": np.zeros(m, _B1),
            "verdict_decision_present": np.zeros(m, _B1),
            "verdict_decision": np.zeros(m, _I8),
        }
        for field in _HISTORIES:
            history = getattr(result, field)
            horizon = history.shape[0]
            # Trial-major: row k of the transpose is slot k's history.
            keep = np.arange(horizon)[None, :] < rounds[:, None]
            arrays[f"{field}_present"] = np.ones(m, _B1)
            arrays[f"{field}_lengths"] = np.minimum(rounds, horizon)
            arrays[f"{field}_values"] = _int_column(history.T[keep], _I4, field)
        return cls(arrays)

    @classmethod
    def empty(cls) -> "OutcomeColumns":
        """Columns holding no trials."""
        return cls({name: np.zeros(0, dtype) for name, dtype in LAYOUT})

    @classmethod
    def concat(cls, parts: Sequence["OutcomeColumns"]) -> "OutcomeColumns":
        """The rows of every part, part after part (no reordering)."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.empty()
        return cls(
            {
                name: np.concatenate([part.arrays[name] for part in parts])
                for name, _ in LAYOUT
            }
        )

    def __len__(self) -> int:
        return len(self.arrays["trial_index"])

    def take(self, rows: np.ndarray) -> "OutcomeColumns":
        """The listed rows, in the listed order (a subset or a permutation)."""
        arrays = {}
        for name, _ in LAYOUT:
            if not name.endswith("_values"):
                arrays[name] = self.arrays[name][rows]
        for field in _HISTORIES:
            lengths = self.arrays[f"{field}_lengths"]
            starts = np.cumsum(lengths) - lengths
            new_lengths = lengths[rows]
            new_starts = np.cumsum(new_lengths) - new_lengths
            gather = np.repeat(starts[rows] - new_starts, new_lengths)
            gather += np.arange(len(gather), dtype=_I8)
            arrays[f"{field}_values"] = self.arrays[f"{field}_values"][gather]
        return OutcomeColumns(arrays)

    def sorted(self) -> "OutcomeColumns":
        """These columns in trial-index order (stable; self if already)."""
        index = self.arrays["trial_index"]
        if np.all(index[1:] >= index[:-1]):
            return self
        return self.take(np.argsort(index, kind="stable"))

    def digest(self) -> str:
        """Hex sha256 over the canonical column bytes.

        Columns are taken in trial-index order and :data:`LAYOUT`
        order; each contributes its name, dtype, length, and raw
        little-endian bytes.  Trial order in the input cannot change
        it; any single field of any outcome can.
        """
        arrays = self.sorted().arrays
        h = hashlib.sha256()
        for name, dtype in LAYOUT:
            arr = np.ascontiguousarray(arrays[name])
            h.update(f"{name}:{dtype.str}:{len(arr)};".encode("ascii"))
            h.update(memoryview(arr).cast("B"))
        return h.hexdigest()

    def to_outcomes(self) -> List[TrialOutcome]:
        """Materialise one :class:`TrialOutcome` per row, in row order."""
        a = {
            name: arr.tolist()
            for name, arr in self.arrays.items()
            if not name.endswith("_values")
        }
        decision_round = [
            v if p else None
            for v, p in zip(a["decision_round"], a["decision_round_present"])
        ]
        decision = [
            v if p else None for v, p in zip(a["decision"], a["decision_present"])
        ]
        verdict = [
            {
                "agreement": agreement,
                "validity": validity,
                "termination": termination,
                "decision": vd if vd_present else None,
            }
            if present
            else None
            for present, agreement, validity, termination, vd_present, vd in zip(
                a["verdict_present"],
                a["verdict_agreement"],
                a["verdict_validity"],
                a["verdict_termination"],
                a["verdict_decision_present"],
                a["verdict_decision"],
            )
        ]
        histories = []
        for field in _HISTORIES:
            values = _shared_ints(self.arrays[f"{field}_values"])
            ends = np.cumsum(self.arrays[f"{field}_lengths"]).tolist()
            histories.append(
                [
                    values[start:end].tolist() if present else None
                    for present, start, end in zip(
                        a[f"{field}_present"], [0] + ends[:-1], ends
                    )
                ]
            )
        return [
            TrialOutcome(*row)
            for row in zip(
                a["trial_index"],
                a["seed"],
                a["rounds"],
                decision_round,
                a["timeout"],
                a["crashes"],
                decision,
                verdict,
                *histories,
            )
        ]


def _shared_ints(values: np.ndarray) -> np.ndarray:
    """``values`` ready for per-trial ``tolist``, sharing int objects.

    Per-round counts span a narrow range, so when the range is no
    wider than the array, each distinct value becomes one Python int
    that every history shares (an object-array lookup), instead of one
    int object per entry.  Lists built either way compare equal.
    """
    if values.size == 0:
        return values
    low, high = int(values.min()), int(values.max())
    if high - low >= values.size:
        return values
    table = np.empty(high - low + 1, dtype=object)
    table[:] = range(low, high + 1)
    return table[values - low]


def _encode_records(outcomes: Sequence[TrialOutcome]) -> Dict[str, np.ndarray]:
    """The :data:`LAYOUT` arrays of ``outcomes``, in list order."""
    arrays: Dict[str, np.ndarray] = {}
    for name in ("trial_index", "seed", "rounds", "crashes"):
        arrays[name] = _int_column([getattr(o, name) for o in outcomes], _I8, name)
    for name in ("decision_round", "decision"):
        present, values = _nullable([getattr(o, name) for o in outcomes], name)
        arrays[f"{name}_present"] = present
        arrays[name] = values
    arrays["timeout"] = _bool_column([o.timeout for o in outcomes], "timeout")

    verdicts = [o.verdict for o in outcomes]
    flags: Dict[str, List[Any]] = {flag: [] for flag in _VERDICT_FLAGS}
    verdict_decisions = []
    for verdict in verdicts:
        if verdict is None:
            for flag in _VERDICT_FLAGS:
                flags[flag].append(False)
            verdict_decisions.append(None)
            continue
        if not isinstance(verdict, dict) or verdict.keys() != _VERDICT_KEYS:
            raise ConfigurationError(
                f"verdict must be None or a dict with keys {sorted(_VERDICT_KEYS)}"
            )
        for flag in _VERDICT_FLAGS:
            flags[flag].append(verdict[flag])
        verdict_decisions.append(verdict["decision"])
    arrays["verdict_present"] = np.array([v is not None for v in verdicts], dtype=bool)
    for flag in _VERDICT_FLAGS:
        arrays[f"verdict_{flag}"] = _bool_column(flags[flag], f"verdict {flag}")
    present, values = _nullable(verdict_decisions, "verdict decision")
    arrays["verdict_decision_present"] = present
    arrays["verdict_decision"] = values

    for field in _HISTORIES:
        series = [getattr(o, field) for o in outcomes]
        arrays[f"{field}_present"] = np.array([s is not None for s in series], dtype=bool)
        arrays[f"{field}_lengths"] = np.array(
            [0 if s is None else len(s) for s in series], dtype=_I8
        )
        flat = list(itertools.chain.from_iterable(s for s in series if s is not None))
        arrays[f"{field}_values"] = _int_column(flat, _I4, field)
    return arrays


def pack_document(fields: Dict[str, Any], columns: OutcomeColumns) -> List[Any]:
    """A document's bytes, as buffers to write in order.

    ``fields`` become the JSON header, next to the column table under
    the key ``"columns"``.
    """
    table = [[name, dtype.str, len(columns.arrays[name])] for name, dtype in LAYOUT]
    header = json.dumps(
        dict(fields, columns=table), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    buffers: List[Any] = [len(header).to_bytes(_HEADER_LEN, "little"), header]
    for name, _ in LAYOUT:
        buffers.append(memoryview(np.ascontiguousarray(columns.arrays[name])).cast("B"))
    return buffers


def unpack_document(data: Any) -> Tuple[Dict[str, Any], OutcomeColumns]:
    """Inverse of :func:`pack_document`: ``(header fields, columns)``.

    ``data`` is ``bytes`` or a ``memoryview`` of them; the columns are
    read-only views into it.  Any defect — short or oversized header,
    malformed JSON, a column table that differs from :data:`LAYOUT` or
    runs past (or stops short of) the end of ``data``, inconsistent
    columns — raises ``ConfigurationError``.
    """
    if len(data) < _HEADER_LEN:
        raise ConfigurationError("document shorter than its header length")
    end = _HEADER_LEN + int.from_bytes(data[:_HEADER_LEN], "little")
    if end > len(data):
        raise ConfigurationError("document header runs past its end")
    try:
        header = json.loads(bytes(data[_HEADER_LEN:end]))
    except (ValueError, RecursionError) as exc:  # ValueError covers bad UTF-8
        raise ConfigurationError(f"document header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ConfigurationError("document header is not an object")
    table = header.pop("columns", None)
    expected = [[name, dtype.str] for name, dtype in LAYOUT]
    if (
        not isinstance(table, list)
        or len(table) != len(expected)
        or any(not isinstance(row, list) or row[:2] != want for row, want in zip(table, expected))
        or any(len(row) != 3 or type(row[2]) is not int or row[2] < 0 for row in table)
    ):
        raise ConfigurationError("document column table does not match the layout")
    arrays = {}
    offset = end
    for (name, dtype), (_, _, count) in zip(LAYOUT, table):
        size = count * dtype.itemsize
        if offset + size > len(data):
            raise ConfigurationError(f"column {name} runs past the document end")
        arrays[name] = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        offset += size
    if offset != len(data):
        raise ConfigurationError("document has trailing bytes after its columns")
    return header, OutcomeColumns(arrays)


def pack_documents(documents: Sequence[bytes]) -> bytes:
    """Several packed documents as one body, each after its 8-byte length."""
    parts: List[bytes] = []
    for document in documents:
        parts += [len(document).to_bytes(_HEADER_LEN, "little"), document]
    return b"".join(parts)


def unpack_documents(data: bytes) -> List[Tuple[Dict[str, Any], OutcomeColumns]]:
    """Inverse of :func:`pack_documents`; ``ConfigurationError`` on any defect."""
    view = memoryview(data)
    documents = []
    offset = 0
    while offset < len(view):
        start = offset + _HEADER_LEN
        if start > len(view):
            raise ConfigurationError("document length runs past the body end")
        end = start + int.from_bytes(view[offset:start], "little")
        if end > len(view):
            raise ConfigurationError("document runs past the body end")
        documents.append(unpack_document(view[start:end]))
        offset = end
    return documents
