"""Single-trial execution shared by every driver.

:class:`TrialOutcome` (defined with its columnar codec in
:mod:`repro.harness.exec.columns`, re-exported here) is the unit the
whole execution core hands out: one trial's result record, so serial
loops, worker processes, and the result cache all speak the same value.

:func:`run_spec_trial` runs one trial: given a (picklable) spec, a
base seed, and a trial index, it derives the trial seed, builds fresh
objects, executes, and returns the outcome.  It is deliberately free of
any per-batch state so outcome ``i`` never depends on which worker
computed it or what ran before it.  :func:`run_spec_chunk` runs a list
of trial indices on any engine and returns their
:class:`~repro.harness.exec.columns.OutcomeColumns` — the form every
executor, the cache, and the service wire pass along.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.harness.exec.builders import (
    build_adversary,
    build_batch_adversary,
    build_fast_adversary,
    build_fault_model,
    build_inputs,
    build_protocol,
)
from repro.harness.exec.columns import OutcomeColumns, TrialOutcome
from repro.harness.exec.spec import (
    ENGINE_BATCH,
    ENGINE_BATCH2D,
    ENGINE_FAST,
    TrialSpec,
    derive_trial_seed,
)
from repro.sim.checks import verify_execution
from repro.sim.engine import Engine
from repro.sim.fast import FastEngine
from repro.sim.registry import BATCH_ENGINES

__all__ = [
    "TrialOutcome",
    "execute_fast_trial",
    "execute_reference_trial",
    "outcomes_digest",
    "run_spec_batch",
    "run_spec_chunk",
    "run_spec_trial",
]

#: Input kinds whose vectors depend on the trial's input stream.  The
#: batch path builds the input vector once per chunk for every other
#: kind (they are pure functions of ``n``), which keeps input
#: construction off the per-trial critical path.
_SAMPLED_INPUT_KINDS = frozenset({"random"})

#: XOR mask separating the input-sampling stream from the engine stream
#: (kept from the factory-based drivers so both seed the same way).
_INPUT_STREAM_MASK = 0x5EED


def outcomes_digest(outcomes: Sequence[TrialOutcome]) -> str:
    """Canonical content hash of a set of outcomes (hex sha256).

    The attestation primitive of the service tier: sha256 over the
    outcomes' canonical column bytes
    (:meth:`~repro.harness.exec.columns.OutcomeColumns.digest` — every
    column's name, dtype, length, and little-endian bytes, in a fixed
    order, trials sorted by index).  Because every outcome is a pure
    function of ``(base_seed, spec_hash, trial_index)``, any honest
    party — the worker that computed a chunk, the executor receiving
    it, an auditor re-executing it later — derives the *same* digest
    for the same work, so a digest mismatch is proof of corruption or
    a lie, never of nondeterminism.  The digest is taken over the
    canonical columns, not the bytes of a document that frames them,
    so header fields and trial order cannot change it.  Raises
    ``ConfigurationError`` on a value the columns cannot hold.
    """
    return OutcomeColumns.from_outcomes(outcomes).digest()


def execute_reference_trial(
    protocol: object,
    adversary: object,
    n: int,
    *,
    trial_index: int,
    seed: int,
    inputs: Sequence[int],
    max_rounds: Optional[int] = None,
    strict_termination: bool = False,
    fault_model: object = None,
) -> TrialOutcome:
    """Run one reference-engine trial on fresh live objects."""
    engine = Engine(
        protocol,
        adversary,
        n,
        seed=seed,
        max_rounds=max_rounds,
        strict_termination=strict_termination,
        record_payloads=False,
        fault_model=fault_model,
    )
    result = engine.run(inputs)
    verdict = verify_execution(result)
    return TrialOutcome(
        trial_index=trial_index,
        seed=seed,
        rounds=result.rounds,
        decision_round=result.decision_round,
        timeout=result.decision_round is None,
        crashes=len(result.crashed),
        decision=result.common_decision(),
        verdict={
            "agreement": verdict.agreement,
            "validity": verdict.validity,
            "termination": verdict.termination,
            "decision": verdict.decision,
        },
    )


def execute_fast_trial(
    protocol: object,
    adversary: object,
    n: int,
    *,
    trial_index: int,
    seed: int,
    inputs: Sequence[int],
    max_rounds: Optional[int] = None,
    strict_termination: bool = False,
    fault_model: object = None,
) -> TrialOutcome:
    """Run one fast-engine trial on fresh live objects."""
    engine = FastEngine(
        protocol,
        adversary,
        n,
        seed=seed,
        max_rounds=max_rounds,
        strict_termination=strict_termination,
        fault_model=fault_model,
    )
    result = engine.run(inputs)
    return TrialOutcome(
        trial_index=trial_index,
        seed=seed,
        rounds=result.rounds,
        decision_round=result.decision_round,
        timeout=result.decision_round is None,
        crashes=result.crashes_used,
        decision=result.decision,
        crashes_per_round=list(result.crashes_per_round),
        senders_per_round=list(result.senders_per_round),
    )


def run_spec_batch(
    spec: TrialSpec, trial_indices: Sequence[int], base_seed: int
) -> List[TrialOutcome]:
    """Execute a slice of a vectorized spec's trials at once.

    The batch counterpart of :func:`run_spec_trial`: one call advances
    every listed trial in lockstep through the engine class the spec's
    kind selects from :data:`repro.sim.registry.BATCH_ENGINES`
    (:class:`~repro.sim.batch.BatchFastEngine` for ``engine="batch"``,
    :class:`~repro.sim.batch2d.Batch2DEngine` for ``engine="batch2d"``).
    Per-trial seeds are the same ``(base_seed, spec_hash, trial_index)``
    hashes as everywhere else (the spec is hashed once per slice) and
    each trial's randomness is a pure function of its own seed, so
    outcomes are byte-identical however the indices are chunked across
    calls or workers — the executor contract the serial and
    process-pool paths already rely on.
    """
    if spec.engine not in BATCH_ENGINES:
        raise ConfigurationError(
            f"spec engine is {spec.engine!r}; run_spec_batch requires "
            f"one of the vectorized kinds {sorted(BATCH_ENGINES)}"
        )
    return _batch_columns(spec, list(trial_indices), base_seed).to_outcomes()


def run_spec_chunk(
    spec: TrialSpec, trial_indices: Sequence[int], base_seed: int
) -> OutcomeColumns:
    """Execute a list of ``spec``'s trials on its engine, as columns.

    Vectorized kinds run the whole list in one engine call and encode
    the engine's arrays directly; per-trial kinds run
    :func:`run_spec_trial` per index.  Raises ``ConfigurationError`` on
    a repeated index: a retrying caller that double-submitted a slice
    would otherwise silently skew the aggregate counts downstream.
    """
    indices = list(trial_indices)
    if len(set(indices)) != len(indices):
        raise ConfigurationError(f"duplicate trial indices in chunk: {indices}")
    if spec.engine in BATCH_ENGINES:
        return _batch_columns(spec, indices, base_seed)
    return OutcomeColumns.from_outcomes(
        [run_spec_trial(spec, i, base_seed) for i in indices]
    )


def _batch_columns(
    spec: TrialSpec, indices: List[int], base_seed: int
) -> OutcomeColumns:
    """One vectorized engine call over ``indices``, encoded as columns."""
    if not indices:
        return OutcomeColumns.empty()
    # One spec hash per slice: spec.trial_seed would re-hash the whole
    # spec for every index, yet the scope is the same for all of them.
    scope = spec.spec_hash()
    seeds = [derive_trial_seed(base_seed, scope, i) for i in indices]
    if spec.inputs in _SAMPLED_INPUT_KINDS:
        inputs = [
            build_inputs(spec, random.Random(seed ^ _INPUT_STREAM_MASK))
            for seed in seeds
        ]
    else:
        inputs = build_inputs(spec, random.Random(0))
    engine = BATCH_ENGINES[spec.engine](
        build_protocol(spec),
        build_batch_adversary(spec),
        spec.n,
        max_rounds=spec.max_rounds,
        strict_termination=spec.strict_termination,
        fault_model=build_fault_model(spec),
    )
    # The engine's (rounds x trials) history arrays are freed as soon
    # as they are encoded: only the columns are kept alive.
    return OutcomeColumns.from_batch_result(
        engine.run(inputs, seeds), indices, seeds
    )


def run_spec_trial(
    spec: TrialSpec, trial_index: int, base_seed: int
) -> TrialOutcome:
    """Execute trial ``trial_index`` of ``spec`` rooted at ``base_seed``.

    The module-level entry point every executor dispatches to —
    importable by name, so process-pool workers need only the picklable
    ``(spec, trial_index, base_seed)`` triple.  Every live object is
    built fresh here, inside the worker: the run protocol, the
    adversary, and (for reference-engine adversaries that inspect their
    target) a *separate* fresh probe protocol, so no state leaks
    between trials or between the adversary's view and the execution.
    """
    if spec.engine in (ENGINE_BATCH, ENGINE_BATCH2D):
        return run_spec_batch(spec, [trial_index], base_seed)[0]
    seed = spec.trial_seed(base_seed, trial_index)
    inputs = build_inputs(spec, random.Random(seed ^ _INPUT_STREAM_MASK))
    if spec.engine == ENGINE_FAST:
        return execute_fast_trial(
            build_protocol(spec),
            build_fast_adversary(spec),
            spec.n,
            trial_index=trial_index,
            seed=seed,
            inputs=inputs,
            max_rounds=spec.max_rounds,
            strict_termination=spec.strict_termination,
            fault_model=build_fault_model(spec),
        )
    probe = build_protocol(spec)
    adversary = build_adversary(spec, probe)
    return execute_reference_trial(
        build_protocol(spec),
        adversary,
        spec.n,
        trial_index=trial_index,
        seed=seed,
        inputs=inputs,
        max_rounds=spec.max_rounds,
        strict_termination=spec.strict_termination,
        fault_model=build_fault_model(spec),
    )
