"""Seeded Monte-Carlo drivers over (protocol, adversary, inputs) grids.

Two entry points, matching the two engines:

* :func:`run_reference_trials` — message-level engine, any protocol and
  adversary, full verdicts.
* :func:`run_fast_trials` — vectorized engine for SynRan-family
  protocols with :class:`~repro.sim.fast.FastAdversary` attackers,
  usable at ``n`` in the thousands.

Both are thin wrappers over the single-trial executors in
:mod:`repro.harness.exec.trial`, kept for callers that hold live
factories rather than declarative specs.  Spec-based work (anything
that should run in parallel or hit the result cache) goes through
:mod:`repro.harness.exec` instead.

Seed derivation note: per-trial seeds are
``derive_trial_seed(base_seed, scope, i)`` — a pure hash of the trial
index, not a draw from a sequential stream — so trial ``i`` is
reproducible in isolation.  This replaced the original sequential
``random.Random(base_seed).getrandbits(48)`` stream when the executor
core landed; see :mod:`repro.harness.exec.spec` for the compatibility
note.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Union

from repro.analysis.stats import Summary, summarize
from repro.errors import ConfigurationError
from repro.harness.exec.spec import (
    ENGINE_BATCH,
    ENGINE_FAST,
    ENGINE_KINDS,
    ENGINE_REFERENCE,
    FACTORY_SCOPE,
    derive_trial_seed,
)
from repro.harness.exec.columns import OutcomeColumns
from repro.harness.exec.trial import (
    TrialOutcome,
    execute_fast_trial,
    execute_reference_trial,
)
from repro.sim.batch import BatchFastAdversary
from repro.sim.batch2d import Batch2DAdversary
from repro.sim.fast import FastAdversary
from repro.sim.registry import BATCH_ENGINES
from repro.sim.model import Verdict

__all__ = ["TrialStats", "run_reference_trials", "run_fast_trials"]

_INPUT_STREAM_MASK = 0x5EED


@dataclass
class TrialStats:
    """Aggregated outcomes of a batch of executions.

    Attributes:
        decision_rounds: Per-trial decision round; trials where the
            horizon was hit without universal decision contribute the
            horizon value (and are counted in ``timeouts``).
        crashes: Per-trial total crash counts.
        decisions: Per-trial common decision (``None`` when absent).
        verdicts: Per-trial consensus verdicts (reference engine only;
            empty for fast-engine runs, whose checks are structural).
        timeouts: Number of trials that hit the round horizon.
        engine_kind: Which engine produced the batch (``"reference"``,
            ``"fast"``, or ``"batch"``).  Fast- and batch-engine
            batches carry no verdicts, so the verdict-based checks
            below refuse to answer for them rather than report a
            vacuous pass.
        missing_trials: Trials the executor expected but never
            produced — quarantined chunks under the fail-stop-tolerant
            executor.  Nonzero fails :meth:`structural_ok`, so a batch
            with holes can never read as a clean pass.
    """

    decision_rounds: List[int] = field(default_factory=list)
    crashes: List[int] = field(default_factory=list)
    decisions: List[Optional[int]] = field(default_factory=list)
    verdicts: List[Verdict] = field(default_factory=list)
    timeouts: int = 0
    engine_kind: str = ENGINE_REFERENCE
    missing_trials: int = 0

    def __post_init__(self) -> None:
        if self.engine_kind not in ENGINE_KINDS:
            raise ConfigurationError(
                f"engine_kind must be one of {ENGINE_KINDS}, "
                f"got {self.engine_kind!r}"
            )

    @classmethod
    def from_outcomes(
        cls,
        outcomes: Iterable[TrialOutcome],
        *,
        engine_kind: str,
        expected_trials: Optional[int] = None,
    ) -> "TrialStats":
        """Aggregate per-trial outcomes (in trial-index order).

        ``expected_trials`` (when known — executors pass the batch's
        trial count) records any shortfall in ``missing_trials``.
        Raises ``ConfigurationError`` on an outcome the columns of
        :meth:`from_columns` cannot hold.
        """
        return cls.from_columns(
            OutcomeColumns.from_outcomes(list(outcomes)),
            engine_kind=engine_kind,
            expected_trials=expected_trials,
        )

    @classmethod
    def from_columns(
        cls,
        columns: OutcomeColumns,
        *,
        engine_kind: str,
        expected_trials: Optional[int] = None,
    ) -> "TrialStats":
        """Aggregate outcome columns (in trial-index order), making no records.

        Trials that hit the horizon undecided contribute ``rounds`` to
        ``decision_rounds`` (:attr:`TrialOutcome.effective_round`).
        """
        a = {
            name: arr.tolist()
            for name, arr in columns.sorted().arrays.items()
            if not name.endswith("_values")
        }
        stats = cls(
            decision_rounds=[
                d if p else r
                for d, p, r in zip(
                    a["decision_round"], a["decision_round_present"], a["rounds"]
                )
            ],
            crashes=a["crashes"],
            decisions=[
                d if p else None
                for d, p in zip(a["decision"], a["decision_present"])
            ],
            verdicts=[
                Verdict(
                    agreement=agreement,
                    validity=validity,
                    termination=termination,
                    decision=decision if decided else None,
                )
                for present, agreement, validity, termination, decided, decision in zip(
                    a["verdict_present"],
                    a["verdict_agreement"],
                    a["verdict_validity"],
                    a["verdict_termination"],
                    a["verdict_decision_present"],
                    a["verdict_decision"],
                )
                if present
            ],
            timeouts=sum(a["timeout"]),
            engine_kind=engine_kind,
        )
        if expected_trials is not None and len(columns) < expected_trials:
            stats.missing_trials = expected_trials - len(columns)
        return stats

    @property
    def checked(self) -> bool:
        """Whether trials carry full consensus verdicts."""
        return self.engine_kind == ENGINE_REFERENCE

    def rounds_summary(self) -> Summary:
        return summarize([float(r) for r in self.decision_rounds])

    def all_ok(self) -> bool:
        """Every consensus verdict passed (reference engine only).

        Raises :class:`ConfigurationError` for fast-engine batches:
        they carry no verdicts, and an unchecked run must not read as a
        passing one.  Use :meth:`structural_ok` for the checks the fast
        engine does support.
        """
        self._require_checked("all_ok")
        return all(v.ok for v in self.verdicts)

    def violation_count(self) -> int:
        """Number of failed verdicts (reference engine only)."""
        self._require_checked("violation_count")
        return sum(1 for v in self.verdicts if not v.ok)

    def structural_ok(self) -> bool:
        """Engine-agnostic sanity: complete, no timeouts, all decided."""
        return (
            self.missing_trials == 0
            and self.timeouts == 0
            and all(d is not None for d in self.decisions)
        )

    def _require_checked(self, method: str) -> None:
        if not self.checked:
            raise ConfigurationError(
                f"TrialStats.{method}() needs consensus verdicts, but "
                f"this is a {self.engine_kind!r}-engine batch whose "
                "checking is structural only; use structural_ok()"
            )


def run_reference_trials(
    protocol_factory: Callable[[], object],
    adversary_factory: Callable[[], object],
    n: int,
    inputs_factory: Callable[[random.Random], Sequence[int]],
    *,
    trials: int,
    base_seed: int = 0,
    max_rounds: Optional[int] = None,
    strict_termination: bool = False,
) -> TrialStats:
    """Run ``trials`` seeded executions on the reference engine.

    Factories (rather than instances) are taken for the protocol and
    adversary so each trial gets a fresh object and no state can leak
    between trials (adversaries are also reset by the engine, so an
    instance-per-batch would work, but fresh-per-trial is the
    configuration misuse-proof choice).
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    outcomes = []
    for index in range(trials):
        seed = derive_trial_seed(base_seed, FACTORY_SCOPE, index)
        inputs = inputs_factory(random.Random(seed ^ _INPUT_STREAM_MASK))
        outcomes.append(
            execute_reference_trial(
                protocol_factory(),
                adversary_factory(),
                n,
                trial_index=index,
                seed=seed,
                inputs=inputs,
                max_rounds=max_rounds,
                strict_termination=strict_termination,
            )
        )
    return TrialStats.from_outcomes(outcomes, engine_kind=ENGINE_REFERENCE)


def run_fast_trials(
    protocol_factory: Callable[[], object],
    adversary_factory: Callable[[], FastAdversary],
    n: int,
    inputs_factory: Callable[[random.Random], Sequence[int]],
    *,
    trials: int,
    base_seed: int = 0,
    max_rounds: Optional[int] = None,
    batch: Union[bool, str] = False,
) -> TrialStats:
    """Run ``trials`` seeded executions on the vectorized engine.

    ``batch`` selects the vectorized path: ``True`` (or ``"batch"``)
    advances the trials in lockstep through one
    :class:`~repro.sim.batch.BatchFastEngine` call, ``"batch2d"``
    through the two-axis :class:`~repro.sim.batch2d.Batch2DEngine`,
    instead of a Python loop over :class:`~repro.sim.fast.FastEngine`
    runs; ``adversary_factory`` must then build the matching adversary
    kind (:class:`~repro.sim.batch.BatchFastAdversary` or
    :class:`~repro.sim.batch2d.Batch2DAdversary`).  Per-trial seeds are
    identical between all modes (the same ``FACTORY_SCOPE`` hashes), so
    coin-free configurations produce identical outcomes and
    coin-flipping ones agree in distribution.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    seeds = [
        derive_trial_seed(base_seed, FACTORY_SCOPE, index)
        for index in range(trials)
    ]
    if batch:
        engine_kind = ENGINE_BATCH if batch is True else str(batch)
        engine_cls = BATCH_ENGINES.get(engine_kind)
        if engine_cls is None:
            raise ConfigurationError(
                f"unknown batch engine kind {engine_kind!r}; available: "
                f"{sorted(BATCH_ENGINES)}"
            )
        adversary = adversary_factory()
        expected = (
            BatchFastAdversary
            if engine_kind == ENGINE_BATCH
            else Batch2DAdversary
        )
        if not isinstance(adversary, expected):
            raise ConfigurationError(
                f"run_fast_trials(batch={engine_kind!r}) needs a "
                f"{expected.__name__} factory, got "
                f"{type(adversary).__name__}"
            )
        inputs = [
            inputs_factory(random.Random(seed ^ _INPUT_STREAM_MASK))
            for seed in seeds
        ]
        engine = engine_cls(
            protocol_factory(),
            adversary,
            n,
            max_rounds=max_rounds,
            strict_termination=False,
        )
        columns = OutcomeColumns.from_batch_result(
            engine.run(inputs, seeds), range(len(seeds)), seeds
        )
        return TrialStats.from_columns(columns, engine_kind=engine_kind)
    outcomes = []
    for index, seed in zip(range(trials), seeds):
        inputs = inputs_factory(random.Random(seed ^ _INPUT_STREAM_MASK))
        outcomes.append(
            execute_fast_trial(
                protocol_factory(),
                adversary_factory(),
                n,
                trial_index=index,
                seed=seed,
                inputs=inputs,
                max_rounds=max_rounds,
                strict_termination=False,
            )
        )
    return TrialStats.from_outcomes(outcomes, engine_kind=ENGINE_FAST)
