"""Wire (de)serialization for specs, batches, and execution plans.

The service tier (:mod:`repro.service`) moves :class:`TrialSpec` /
:class:`TrialBatch` / :class:`ExecutionPlan` values across HTTP, so
they need a JSON form whose round trip is *exact*: a spec rebuilt from
its wire document must have the same ``spec_hash()`` — and therefore
the same derived seed stream and cache keys — as the original.  The
subtle part is tuple normalisation: the canonical in-memory form of
every ``*_params`` field is a tuple of ``(key, value)`` tuples, but
JSON has no tuples, so the wire form carries lists of two-element
lists and :func:`spec_from_wire` re-canonicalises them through
:func:`~repro.harness.exec.spec.spec_params` (the same fix the result
cache's ``_spec_doc`` applies on its own round trip).

This module lives next to :mod:`repro.harness.exec.spec` deliberately:
the REP008 payload-safety lint pass covers this package, so the wire
format is analysed under the same frozen/hashable/picklable discipline
as the spec objects themselves.

Every document carries ``{"wire": WIRE_VERSION, "kind": ...}``;
deserialisers reject unknown versions and mismatched kinds loudly
(:class:`~repro.errors.ConfigurationError`) rather than guessing, and
tolerate *extra* keys so the format can grow without breaking older
peers.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping

from repro.errors import ConfigurationError
from repro.harness.exec.spec import (
    ExecutionPlan,
    TrialBatch,
    TrialSpec,
    spec_params,
)

__all__ = [
    "WIRE_VERSION",
    "batch_from_wire",
    "batch_to_wire",
    "plan_from_wire",
    "plan_key",
    "plan_to_wire",
    "spec_from_wire",
    "spec_to_wire",
]

#: Bumped whenever the wire layout changes incompatibly.  Version 2:
#: the ``/chunks`` ``chunk_digest`` is the column digest of
#: :func:`repro.harness.exec.trial.outcomes_digest`, no longer a hash
#: of canonical JSON records.  Version 3: ``/chunks`` answers and
#: ``/jobs/<id>/outcomes`` bodies are outcome-column documents
#: (:mod:`repro.harness.exec.columns`), no longer JSON records.
WIRE_VERSION = 3

_PARAM_FIELDS = (
    "protocol_params",
    "adversary_params",
    "inputs_params",
    "fault_model_params",
)

#: Spec fields that may be absent from a wire document (older peers);
#: absent means the TrialSpec default.
_OPTIONAL_SPEC_FIELDS = (
    "inputs",
    "max_rounds",
    "engine",
    "strict_termination",
    "fault_model",
) + _PARAM_FIELDS


def _require(doc: Mapping[str, Any], kind: str) -> None:
    """Validate the envelope of a wire document."""
    if not isinstance(doc, Mapping):
        raise ConfigurationError(
            f"wire {kind} document must be an object, "
            f"got {type(doc).__name__}"
        )
    version = doc.get("wire")
    if version != WIRE_VERSION:
        raise ConfigurationError(
            f"unsupported wire version {version!r} "
            f"(this build speaks {WIRE_VERSION})"
        )
    if doc.get("kind") != kind:
        raise ConfigurationError(
            f"expected a wire {kind!r} document, got kind={doc.get('kind')!r}"
        )


def _params_from_wire(name: str, value: Any) -> tuple:
    """Re-canonicalise one ``*_params`` field from its wire form.

    Accepts lists of two-element ``[key, value]`` lists (the JSON
    round trip of the tuple form) and routes them back through
    :func:`spec_params`, which sorts keys and rejects non-primitive
    values — so a wire spec can never smuggle in a payload the frozen
    spec contract forbids.
    """
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(
            f"wire spec field {name!r} must be a list of [key, value] "
            f"pairs, got {type(value).__name__}"
        )
    pairs: Dict[str, object] = {}
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigurationError(
                f"wire spec field {name!r} entries must be [key, value] "
                f"pairs, got {item!r}"
            )
        key, val = item
        if not isinstance(key, str):
            raise ConfigurationError(
                f"wire spec field {name!r} keys must be strings, "
                f"got {key!r}"
            )
        if key in pairs:
            raise ConfigurationError(
                f"wire spec field {name!r} repeats key {key!r}"
            )
        pairs[key] = val
    return spec_params(**pairs)


def spec_to_wire(spec: TrialSpec) -> Dict[str, Any]:
    """The JSON-ready wire document of one :class:`TrialSpec`."""
    return {
        "wire": WIRE_VERSION,
        "kind": "spec",
        "protocol": spec.protocol,
        "adversary": spec.adversary,
        "n": spec.n,
        "t": spec.t,
        "inputs": spec.inputs,
        "protocol_params": [list(p) for p in spec.protocol_params],
        "adversary_params": [list(p) for p in spec.adversary_params],
        "inputs_params": [list(p) for p in spec.inputs_params],
        "max_rounds": spec.max_rounds,
        "engine": spec.engine,
        "strict_termination": spec.strict_termination,
        "fault_model": spec.fault_model,
        "fault_model_params": [list(p) for p in spec.fault_model_params],
    }


def spec_from_wire(doc: Mapping[str, Any]) -> TrialSpec:
    """Rebuild a :class:`TrialSpec` whose ``spec_hash`` matches exactly.

    Raises :class:`ConfigurationError` on a malformed document; the
    spec's own ``__post_init__`` validation then applies unchanged, so
    a wire submission can never construct a spec a local caller
    couldn't.
    """
    _require(doc, "spec")
    try:
        fields: Dict[str, Any] = {
            "protocol": str(doc["protocol"]),
            "adversary": str(doc["adversary"]),
            "n": int(doc["n"]),
            "t": int(doc["t"]),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed wire spec: {exc}") from exc
    if "inputs" in doc:
        fields["inputs"] = str(doc["inputs"])
    if doc.get("max_rounds") is not None:
        fields["max_rounds"] = int(doc["max_rounds"])
    if "engine" in doc:
        fields["engine"] = str(doc["engine"])
    if "strict_termination" in doc:
        fields["strict_termination"] = bool(doc["strict_termination"])
    if "fault_model" in doc:
        fields["fault_model"] = str(doc["fault_model"])
    for name in _PARAM_FIELDS:
        if name in doc:
            fields[name] = _params_from_wire(name, doc[name])
    return TrialSpec(**fields)


def batch_to_wire(batch: TrialBatch) -> Dict[str, Any]:
    """The JSON-ready wire document of one :class:`TrialBatch`."""
    return {
        "wire": WIRE_VERSION,
        "kind": "batch",
        "spec": spec_to_wire(batch.spec),
        "trials": batch.trials,
        "base_seed": batch.base_seed,
        "label": batch.label,
    }


def batch_from_wire(doc: Mapping[str, Any]) -> TrialBatch:
    """Rebuild a :class:`TrialBatch` with an identical ``batch_key``."""
    _require(doc, "batch")
    try:
        return TrialBatch(
            spec=spec_from_wire(doc["spec"]),
            trials=int(doc["trials"]),
            base_seed=int(doc.get("base_seed", 0)),
            label=str(doc.get("label", "")),
        )
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed wire batch: {exc}") from exc


def plan_to_wire(plan: ExecutionPlan) -> Dict[str, Any]:
    """The JSON-ready wire document of one :class:`ExecutionPlan`."""
    return {
        "wire": WIRE_VERSION,
        "kind": "plan",
        "batches": [batch_to_wire(batch) for batch in plan],
    }


def plan_from_wire(doc: Mapping[str, Any]) -> ExecutionPlan:
    """Rebuild an :class:`ExecutionPlan` from its wire document."""
    _require(doc, "plan")
    batches = doc.get("batches")
    if not isinstance(batches, (list, tuple)):
        raise ConfigurationError(
            "wire plan document must carry a 'batches' list, "
            f"got {type(batches).__name__}"
        )
    if not batches:
        raise ConfigurationError("wire plan document has no batches")
    return ExecutionPlan(
        batches=tuple(batch_from_wire(b) for b in batches)
    )


def plan_key(plan: ExecutionPlan) -> str:
    """Content hash identifying a plan's full result set (hex).

    Built over the ordered batch keys, each of which already covers the
    spec hash, base seed, and trial count — so two submissions compute
    the same plan key exactly when every cell of work (and therefore
    every cache entry) is identical.  The service tier uses this as the
    dedup/job key: the key *is* the identity of the computation.
    """
    material = json.dumps(
        [batch.batch_key() for batch in plan], separators=(",", ":")
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
