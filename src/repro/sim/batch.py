"""Trial-axis vectorized engine: M independent trials per NumPy op.

:class:`~repro.sim.fast.FastEngine` already collapses one *round* to a
handful of integers, but it still runs one trial per ``run()`` call
inside a Python round loop — after the process-pool fan-out, that
interpreter loop is the dominant cost of every Monte-Carlo grid.  This
module turns the trial axis into the vector axis: an entire batch of M
independent trials advances in lockstep, one array operation per round,
with finished trials masked out while the rest keep stepping.

The collapse is sound because the fast engine's per-trial state is
itself uniform across the population under silent crashes:

* every sender of a trial shares the same ``b`` history, so the trial
  reduces to two counts (``ones``, ``zeros``);
* the ``tentative`` flag is set and cleared for all receivers at once,
  so it is one bool per trial (and when it is set, ``b`` is uniform —
  ``ones`` is either the whole population or zero);
* exactly one decision event ever fires per trial (STOP halts every
  tentative receiver; the deterministic stage halts every receiver),
  so ``decision``/``decision_round`` are scalars per trial;
* the deterministic flood set over ``{0, 1}`` is two monotone bools.

Randomness comes from :mod:`repro.sim.streams`: every coin word is a
pure function of ``(trial_key, counter)``, where the trial key derives
from the same hash-based per-trial seed the execution core assigns.
Trial ``i`` therefore draws identical randomness no matter how the
batch is chunked, which trials share it, or in what order workers run
— the executor's chunk-invariance and cache contracts carry over
unchanged.

Seed derivation per trial mirrors :meth:`FastEngine.run` exactly
(``random.Random(seed)`` then two ``getrandbits(64)`` draws for the
coin stream and the adversary stream), so an oblivious adversary's
committed plan is byte-identical between the engines and coin-free
trajectories (unanimous inputs, benign/oblivious adversaries) agree
exactly, seed for seed.  Coin-flipping trajectories agree only in
distribution — ``FastEngine`` consumes a ``numpy.random.Generator``
sequentially while this engine hashes counters — which is what the
differential test suite checks.

The batch engine does not support the runtime sanitizer (it has no
per-process state for :class:`~repro.lint.sanitizer.SimSanitizer` to
audit); use the fast or reference engine for sanitized runs.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._math import deterministic_stage_threshold
from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    TerminationViolation,
)
from repro.faultmodels.late import LagRing
from repro.faultmodels.omission import BatchSuppressionLedger
from repro.faultmodels.registry import resolve_fault_model
from repro.protocols.synran import SynRanProtocol
from repro.sim.engine import default_max_rounds
from repro.sim.fast import FastResult
from repro.sim.kernels import KernelBackend, resolve_kernel
from repro.sim.model import COUNTS_OMISSION, FaultModel
from repro.sim.streams import binomial, stream_keys

__all__ = [
    "BatchBenign",
    "BatchFastAdversary",
    "BatchFastEngine",
    "BatchFastView",
    "BatchOblivious",
    "BatchRandomCrash",
    "BatchResult",
    "BatchTallyAttack",
    "BatchValencyKeeper",
]

#: Integer stage codes (``stage`` array values); order matches the
#: protocol's one-way PROBABILISTIC -> SYNC -> DETERMINISTIC flow.
STAGE_PROBABILISTIC = 0
STAGE_SYNC = 1
STAGE_DETERMINISTIC = 2

#: Salts separating the random-crash adversary's two binomial streams.
_SALT_CRASH_ONES = 1
_SALT_CRASH_ZEROS = 2


@dataclass(frozen=True)
class BatchFastView:
    """Per-round view handed to a :class:`BatchFastAdversary`.

    The batch analogue of :class:`repro.sim.fast.FastView`: every field
    that was a scalar there is an ``(M,)`` array here, indexed by trial.
    Arrays are snapshots — adversaries must not mutate them.

    ``received_history[r]`` holds every trial's delivered count for
    round ``r``.  Entries for rounds a trial spent outside the
    probabilistic stage are engine bookkeeping, not protocol ``N^r``
    values; adversaries must only consult history entries for trials
    whose ``stage`` is probabilistic (mirroring the scalar engine,
    where ``n_hist`` simply stops growing after the hand-off).
    """

    round_index: int
    n: int
    stage: np.ndarray
    senders: np.ndarray
    ones: np.ndarray
    zeros: np.ndarray
    tentative: np.ndarray
    budget_remaining: np.ndarray
    received_history: Tuple[np.ndarray, ...]
    active: np.ndarray

    def received_count(self, round_index: int) -> np.ndarray:
        """``(M,)`` array of ``N^r`` with ``N^{-1} = N^0 = n``."""
        if round_index < 0:
            return np.full(self.senders.shape, self.n, dtype=np.int64)
        return self.received_history[round_index]


class BatchFastAdversary(abc.ABC):
    """Adversary for the batch engine: silent crashes only.

    Returns, per round, two ``(M,)`` arrays ``(kill_ones, kill_zeros)``
    — per trial, how many 1-senders and 0-senders to crash before
    delivery.  Each trial has its own budget ``t``; the engine enforces
    it independently per trial.
    """

    name: str = "batch-abstract"

    def __init__(self, t: int) -> None:
        if t < 0:
            raise ConfigurationError(f"budget t must be >= 0, got {t}")
        self.t = t

    def reset(self, n: int, seeds: Sequence[int]) -> None:
        """Re-key for a new batch; ``seeds[i]`` is trial ``i``'s
        adversary seed (mirroring the scalar engine's per-trial
        adversary ``random.Random``)."""

    @abc.abstractmethod
    def choose(self, view: BatchFastView) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(kill_ones, kill_zeros)`` arrays for this round."""


class BatchBenign(BatchFastAdversary):
    """Crashes nobody in any trial."""

    name = "batch-benign"

    def __init__(self, t: int = 0) -> None:
        super().__init__(t)

    def choose(self, view: BatchFastView) -> Tuple[np.ndarray, np.ndarray]:
        zero = np.zeros(view.senders.shape, dtype=np.int64)
        return (zero, zero.copy())


class BatchRandomCrash(BatchFastAdversary):
    """Binomial random crashes at ``rate`` per process per round.

    Distributionally identical to
    :class:`repro.sim.fast.FastRandomCrash`: per trial, the raw kill
    counts are ``Binomial(ones, rate)`` and ``Binomial(zeros, rate)``
    draws (from two salted counter streams), trimmed to the remaining
    budget by the same decrement-the-larger rule (ties decrement the
    1-count first).
    """

    name = "batch-random-crash"

    def __init__(self, t: int, *, rate: float = 0.05) -> None:
        super().__init__(t)
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._keys_ones = np.zeros(0, dtype=np.uint64)
        self._keys_zeros = np.zeros(0, dtype=np.uint64)

    def reset(self, n: int, seeds: Sequence[int]) -> None:
        self._keys_ones = stream_keys(seeds, salt=_SALT_CRASH_ONES)
        self._keys_zeros = stream_keys(seeds, salt=_SALT_CRASH_ZEROS)

    def choose(self, view: BatchFastView) -> Tuple[np.ndarray, np.ndarray]:
        budget = view.budget_remaining
        r = view.round_index
        k1 = binomial(self._keys_ones, r, view.ones, self.rate)
        k0 = binomial(self._keys_zeros, r, view.zeros, self.rate)
        k1[budget <= 0] = 0
        k0[budget <= 0] = 0
        return _trim_to_budget(k1, k0, budget)


def _trim_to_budget(
    k1: np.ndarray, k0: np.ndarray, budget: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Closed form of the scalar trim loop: while over budget,
    decrement the larger count (ties decrement ``k1``)."""
    over = np.maximum(k1 + k0 - np.maximum(budget, 0), 0)
    # Phase 1 of the loop drains the larger count down to the smaller.
    d1 = np.where(k1 >= k0, np.minimum(over, k1 - k0), 0)
    d0 = np.where(k0 > k1, np.minimum(over, k0 - k1), 0)
    # Phase 2 alternates, starting with k1 (the tie rule).
    rem = over - d1 - d0
    return (k1 - d1 - (rem + 1) // 2, k0 - d0 - rem // 2)


class BatchOblivious(BatchFastAdversary):
    """Non-adaptive per-trial kill plans, committed at reset time.

    The batch counterpart of :class:`repro.sim.fast.FastOblivious`:
    ``generator(n, t, rng) -> Mapping[int, int]`` is called once per
    trial with that trial's own ``random.Random(adversary_seed)``, so
    the committed plans are byte-identical to what the scalar engine
    builds from the same trial seeds.  Kills are taken zeros-first
    (deterministic and coin-independent).
    """

    name = "batch-oblivious"

    def __init__(self, t: int, generator) -> None:
        super().__init__(t)
        self.generator = generator
        self._plan = np.zeros((0, 0), dtype=np.int64)

    @classmethod
    def from_schedule(cls, t: int, schedule_generator) -> "BatchOblivious":
        """Adapt a reference-engine schedule generator (round ->
        victim -> recipients) into per-round kill counts."""

        def generator(n, t_, rng):
            schedule = schedule_generator(n, t_, rng)
            return {r: len(plan) for r, plan in schedule.items()}

        return cls(t, generator)

    def reset(self, n: int, seeds: Sequence[int]) -> None:
        plans = []
        horizon = 0
        for i, seed in enumerate(seeds):
            plan = dict(self.generator(n, self.t, random.Random(int(seed))))
            total = sum(plan.values())
            if total > self.t:
                raise ConfigurationError(
                    f"oblivious plan for trial {i} kills {total} "
                    f"processes; budget is {self.t}"
                )
            if plan:
                horizon = max(horizon, max(plan) + 1)
            plans.append(plan)
        dense = np.zeros((horizon, len(plans)), dtype=np.int64)
        for i, plan in enumerate(plans):
            for r, count in plan.items():
                dense[r, i] = count
        self._plan = dense

    def choose(self, view: BatchFastView) -> Tuple[np.ndarray, np.ndarray]:
        r = view.round_index
        if r < self._plan.shape[0]:
            planned = self._plan[r]
        else:
            planned = np.zeros(view.senders.shape, dtype=np.int64)
        k = np.minimum(
            planned,
            np.minimum(
                np.maximum(view.budget_remaining, 0),
                np.maximum(view.senders - 1, 0),
            ),
        )
        k0 = np.minimum(k, view.zeros)
        return (k - k0, k0)


class BatchTallyAttack(BatchFastAdversary):
    """Vectorized port of :class:`repro.sim.fast.FastTallyAttack`.

    Split mode trims the 1-count into the coin window; bleed mode
    breaks the STOP stability check just in time.  The scalar
    fall-through structure is preserved exactly: a trial whose 1-count
    already sits inside the window, or whose excess fits the budget,
    takes the split branch *finally*; only trials that considered the
    split and could not afford it (or never qualified) fall through to
    the bleed check.
    """

    name = "batch-tally-attack"

    def __init__(
        self,
        t: int,
        *,
        propose_lo: float = 0.5,
        propose_hi: float = 0.6,
        stop_fraction: float = 0.1,
        enable_split: bool = True,
        enable_bleed: bool = True,
    ) -> None:
        super().__init__(t)
        if not 0.0 < propose_lo < propose_hi < 1.0:
            raise ConfigurationError(
                f"need 0 < propose_lo < propose_hi < 1, got "
                f"{propose_lo}, {propose_hi}"
            )
        self.propose_lo = propose_lo
        self.propose_hi = propose_hi
        self.stop_fraction = stop_fraction
        self.enable_split = enable_split
        self.enable_bleed = enable_bleed

    def choose(self, view: BatchFastView) -> Tuple[np.ndarray, np.ndarray]:
        M = view.senders.shape[0]
        k1 = np.zeros(M, dtype=np.int64)
        k0 = np.zeros(M, dtype=np.int64)
        budget = view.budget_remaining
        p = view.senders
        eligible = (
            (budget > 0)
            & (view.stage == STAGE_PROBABILISTIC)
            & (p >= deterministic_stage_threshold(view.n))
        )
        if not eligible.any():
            return (k1, k0)

        r = view.round_index
        fall_through = eligible
        if self.enable_split:
            prev = view.received_count(r - 1)
            window_hi = np.floor(self.propose_hi * prev).astype(np.int64)
            window_lo = np.floor(self.propose_lo * prev).astype(np.int64) + 1
            considered = (
                eligible
                & (view.zeros > 0)
                & (window_lo <= window_hi)
                & (view.ones >= window_lo)
            )
            in_window = considered & (view.ones <= window_hi)
            excess = view.ones - window_hi
            split_kill = considered & ~in_window & (excess <= budget)
            k1[split_kill] = excess[split_kill]
            # In-window and affordable-split outcomes are final; only
            # unaffordable or unconsidered splits reach the bleed.
            fall_through = eligible & ~in_window & ~split_kill

        if not self.enable_bleed:
            return (k1, k0)
        bleed = fall_through & (view.tentative > 0)
        if bleed.any():
            n3 = view.received_count(r - 3)
            n2 = view.received_count(r - 2)
            bound = n3 - n2 * self.stop_fraction
            k = np.floor(p - bound).astype(np.int64) + 1
            bleed &= (p >= bound) & (k <= budget) & (k < p)
            kb0 = np.minimum(k, view.zeros)
            k0[bleed] = kb0[bleed]
            k1[bleed] = (k - kb0)[bleed]
        return (k1, k0)


class BatchValencyKeeper(BatchFastAdversary):
    """Vectorized port of :class:`repro.sim.fast.FastValencyKeeper`.

    Elementwise-identical to
    :func:`repro.sim.fast.valency_keeper_counts` per trial (the
    differential suite fuzzes the two against each other): split the
    1-count into the bivalent coin window when affordable, otherwise
    shave it below the ``decide_hi`` edge to block the tentative
    decision, otherwise break STOP stability like the tally attack's
    bleed.  The branch fall-through structure mirrors the scalar
    function exactly: an in-window or successfully-split/blocked trial
    is final; only trials that failed every window branch reach the
    bleed check.
    """

    name = "batch-valency-keeper"

    def __init__(
        self,
        t: int,
        *,
        propose_lo: float = 0.5,
        propose_hi: float = 0.6,
        decide_hi: float = 0.7,
        stop_fraction: float = 0.1,
    ) -> None:
        super().__init__(t)
        if not 0.0 < propose_lo < propose_hi < decide_hi < 1.0:
            raise ConfigurationError(
                f"need 0 < propose_lo < propose_hi < decide_hi < 1, got "
                f"{propose_lo}, {propose_hi}, {decide_hi}"
            )
        self.propose_lo = propose_lo
        self.propose_hi = propose_hi
        self.decide_hi = decide_hi
        self.stop_fraction = stop_fraction

    def choose(self, view: BatchFastView) -> Tuple[np.ndarray, np.ndarray]:
        M = view.senders.shape[0]
        k1 = np.zeros(M, dtype=np.int64)
        k0 = np.zeros(M, dtype=np.int64)
        budget = view.budget_remaining
        p = view.senders
        eligible = (
            (budget > 0)
            & (view.stage == STAGE_PROBABILISTIC)
            & (p >= deterministic_stage_threshold(view.n))
        )
        if not eligible.any():
            return (k1, k0)

        r = view.round_index
        prev = view.received_count(r - 1)
        window_hi = np.floor(self.propose_hi * prev).astype(np.int64)
        window_lo = np.floor(self.propose_lo * prev).astype(np.int64) + 1
        considered = (
            eligible
            & (view.zeros > 0)
            & (window_lo <= window_hi)
            & (view.ones >= window_lo)
        )
        in_window = considered & (view.ones <= window_hi)
        excess = view.ones - window_hi
        split = considered & ~in_window & (excess <= budget)
        k1[split] = excess[split]
        edge = np.floor(self.decide_hi * prev).astype(np.int64)
        kblk = view.ones - edge
        block = (
            considered
            & ~in_window
            & ~split
            & (view.ones > edge)
            & (kblk <= budget)
            & (kblk < p)
        )
        k1[block] = kblk[block]

        fall_through = eligible & ~in_window & ~split & ~block
        bleed = fall_through & (view.tentative > 0)
        if bleed.any():
            n3 = view.received_count(r - 3)
            n2 = view.received_count(r - 2)
            bound = n3 - n2 * self.stop_fraction
            k = np.floor(p - bound).astype(np.int64) + 1
            bleed &= (p >= bound) & (k <= budget) & (k < p)
            kb0 = np.minimum(k, view.zeros)
            k0[bleed] = kb0[bleed]
            k1[bleed] = (k - kb0)[bleed]
        return (k1, k0)


@dataclass
class BatchResult:
    """Outcome of one batched execution: trial-indexed arrays.

    Scalar sentinel conventions: ``decision_round[i] == -1`` means the
    horizon was hit; ``decision[i] == -1`` means no common decision
    (which includes the degenerate every-process-crashed termination,
    exactly as in the scalar engine).  :meth:`trial` rehydrates one
    trial as a :class:`~repro.sim.fast.FastResult` for code written
    against the scalar interface.

    ``crashes_per_round``/``senders_per_round`` are ``(R, M)`` arrays
    over the batch's full horizon; trial ``i``'s own history is the
    first ``rounds[i]`` entries of column ``i`` (later rows are zero
    padding from after the trial finished).
    """

    rounds: np.ndarray
    decision_round: np.ndarray
    decision: np.ndarray
    crashes_used: np.ndarray
    survivors: np.ndarray
    terminated: np.ndarray
    crashes_per_round: np.ndarray
    senders_per_round: np.ndarray

    def __len__(self) -> int:
        return int(self.rounds.shape[0])

    def trial(self, i: int) -> FastResult:
        """Trial ``i`` as a scalar :class:`FastResult`.

        The harness reads batch results through
        :meth:`repro.harness.exec.columns.OutcomeColumns.from_batch_result`;
        this per-slot view is the reference its tests compare against.
        """
        rounds = int(self.rounds[i])
        decision_round = int(self.decision_round[i])
        decision = int(self.decision[i])
        return FastResult(
            rounds=rounds,
            decision_round=None if decision_round < 0 else decision_round,
            decision=None if decision < 0 else decision,
            crashes_used=int(self.crashes_used[i]),
            survivors=int(self.survivors[i]),
            terminated=bool(self.terminated[i]),
            crashes_per_round=self.crashes_per_round[:rounds, i].tolist(),
            senders_per_round=self.senders_per_round[:rounds, i].tolist(),
        )


class BatchFastEngine:
    """Vectorized executor advancing M trials per round in lockstep.

    Args:
        protocol: A :class:`SynRanProtocol` (or subclass) instance; its
            thresholds/knobs configure the engine (same contract as
            :class:`~repro.sim.fast.FastEngine`).
        adversary: A :class:`BatchFastAdversary`.  The budget ``t`` is
            enforced independently per trial.
        n: Number of processes per trial.
        max_rounds: Horizon; ``None`` selects the engine default.
        strict_termination: Raise on horizon instead of flagging.
        fault_model: Failure regime (name, instance, or ``None`` for
            ``crash``); consumed at counts level exactly as in
            :class:`~repro.sim.fast.FastEngine` — crash kinds shrink
            the population, omission kinds suppress broadcasts for a
            round (budget = per-round suppression high-water mark),
            positive ``lag`` serves the adversary a stale view.  Models
            without a counts realisation are rejected.
        kernel: Inner-step kernel backend (name, instance, or ``None``
            for the environment default) — see
            :mod:`repro.sim.kernels`.  A pure performance knob: every
            backend is bit-identical, so it never appears in spec
            hashes or cache keys.

    There is no ``sanitizer`` knob: the batch engine keeps no
    per-process state for the sanitizer to audit.  Seeds are passed to
    :meth:`run` per trial, not at construction, because one engine
    instance executes many differently-seeded trials at once.
    """

    def __init__(
        self,
        protocol: SynRanProtocol,
        adversary: BatchFastAdversary,
        n: int,
        *,
        max_rounds: Optional[int] = None,
        strict_termination: bool = True,
        fault_model: Union[str, FaultModel, None] = None,
        kernel: Union[str, KernelBackend, None] = None,
    ) -> None:
        if not isinstance(protocol, SynRanProtocol):
            raise ConfigurationError(
                "BatchFastEngine supports SynRanProtocol configurations; "
                f"got {type(protocol).__name__}"
            )
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if adversary.t > n:
            raise ConfigurationError(
                f"adversary budget t={adversary.t} exceeds n={n}"
            )
        self.protocol = protocol
        self.adversary = adversary
        self.n = n
        self.max_rounds = (
            default_max_rounds(n) if max_rounds is None else max_rounds
        )
        self.strict_termination = strict_termination
        self.fault_model: FaultModel = resolve_fault_model(fault_model)
        if self.fault_model.counts_kind is None:
            raise ConfigurationError(
                f"fault model {self.fault_model.name!r} has no "
                "counts-level realisation (counts_kind is None); use "
                "the reference engine"
            )
        self.kernel: KernelBackend = resolve_kernel(kernel)

    # ------------------------------------------------------------------

    def run(
        self,
        inputs: Union[Sequence[int], np.ndarray],
        seeds: Sequence[int],
    ) -> BatchResult:
        """Execute one trial per seed on the given input bits.

        ``inputs`` is either one ``(n,)`` bit vector shared by every
        trial or an ``(M, n)`` matrix of per-trial bit vectors.
        """
        bits = np.asarray(inputs, dtype=np.int64)
        if not np.isin(bits, (0, 1)).all():
            raise ConfigurationError("inputs must be bits")
        M = len(seeds)
        if bits.ndim == 1:
            if bits.shape[0] != self.n:
                raise ConfigurationError(
                    f"expected {self.n} inputs, got {bits.shape[0]}"
                )
            ones0 = np.full(M, int(bits.sum()), dtype=np.int64)
        elif bits.ndim == 2:
            if bits.shape != (M, self.n):
                raise ConfigurationError(
                    f"expected inputs of shape ({M}, {self.n}), got "
                    f"{bits.shape}"
                )
            ones0 = bits.sum(axis=1, dtype=np.int64)
        else:
            raise ConfigurationError(
                f"inputs must be 1- or 2-dimensional, got {bits.ndim}"
            )
        return self.run_counts(ones0, seeds)

    def run_counts(
        self, ones0: Union[Sequence[int], np.ndarray], seeds: Sequence[int]
    ) -> BatchResult:
        """Execute one trial per seed given initial 1-counts.

        Under uniform views only the input *tally* matters, so this is
        the fundamental entry point; :meth:`run` reduces to it.
        """
        proto = self.protocol
        n = self.n
        M = len(seeds)
        if M < 1:
            raise ConfigurationError("need at least one trial seed")
        ones = np.asarray(ones0, dtype=np.int64).copy()
        if ones.shape != (M,):
            raise ConfigurationError(
                f"expected {M} initial 1-counts, got shape {ones.shape}"
            )
        if ((ones < 0) | (ones > n)).any():
            raise ConfigurationError(
                f"initial 1-counts must be in [0, {n}]"
            )
        zeros = n - ones

        # Per-trial stream keys, mirroring FastEngine.run's derivation:
        # master = Random(seed); coins <- getrandbits(64);
        # adversary <- getrandbits(64).
        coin_raw = np.empty(M, dtype=np.uint64)
        adv_seeds: List[int] = []
        for i, seed in enumerate(seeds):
            master = random.Random(int(seed))
            coin_raw[i] = master.getrandbits(64)
            adv_seeds.append(master.getrandbits(64))
        coin_keys = stream_keys(coin_raw)
        self.adversary.reset(n, adv_seeds)

        t = self.adversary.t
        stage = np.full(M, STAGE_PROBABILISTIC, dtype=np.int8)
        tent = np.zeros(M, dtype=bool)
        active = np.ones(M, dtype=bool)
        budget_used = np.zeros(M, dtype=np.int64)
        det_rounds_done = np.zeros(M, dtype=np.int64)
        det_has0 = np.zeros(M, dtype=bool)
        det_has1 = np.zeros(M, dtype=bool)
        decision_round = np.full(M, -1, dtype=np.int64)
        decision = np.full(M, -1, dtype=np.int64)
        rounds = np.zeros(M, dtype=np.int64)

        hist: List[np.ndarray] = []
        crashes_hist: List[np.ndarray] = []
        senders_hist: List[np.ndarray] = []
        omission = self.fault_model.counts_kind == COUNTS_OMISSION
        ledger = BatchSuppressionLedger(t, M) if omission else None
        lag = self.fault_model.lag
        # With a lagged adversary, per-round count snapshots are kept so
        # round r can be served the self-consistent view of round r-lag.
        ring: LagRing[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = LagRing(lag)

        def received(j: int) -> np.ndarray:
            return np.full(M, n, dtype=np.int64) if j < 0 else hist[j]

        threshold = deterministic_stage_threshold(n)
        det_total = proto.det_stage_rounds(n)
        # Each round's coin block is (n + 63) // 64 hash words wide, so
        # round r draws at counters [r * stride, (r + 1) * stride).
        coin_stride = (n + 63) // 64

        r = 0
        while active.any():
            if r >= self.max_rounds:
                if self.strict_termination:
                    raise TerminationViolation(
                        f"{int(active.sum())} of {M} trials undecided "
                        f"after {self.max_rounds} rounds (batch engine)"
                    )
                rounds[active] = self.max_rounds
                break

            p = ones + zeros  # inactive trials hold 0
            view = BatchFastView(
                round_index=r,
                n=n,
                stage=stage,
                senders=p,
                ones=ones,
                zeros=zeros,
                tentative=np.where(tent, p, 0),
                budget_remaining=t - budget_used,
                received_history=tuple(hist),
                active=active,
            )
            if lag:
                ring.push(
                    (
                        stage.copy(),
                        p.copy(),
                        ones.copy(),
                        zeros.copy(),
                        np.where(tent, p, 0),
                    )
                )
                j = ring.stale_round(r)
                s_stage, s_p, s_ones, s_zeros, s_tent = ring.stale(r)
                adv_view = BatchFastView(
                    round_index=j,
                    n=n,
                    stage=s_stage,
                    senders=s_p,
                    ones=s_ones,
                    zeros=s_zeros,
                    tentative=s_tent,
                    budget_remaining=t - budget_used,
                    received_history=tuple(hist[:j]),
                    active=active,
                )
            else:
                adv_view = view
            k1, k0 = self.adversary.choose(adv_view)
            k1 = np.where(active, np.asarray(k1, dtype=np.int64), 0)
            k0 = np.where(active, np.asarray(k0, dtype=np.int64), 0)
            if lag:
                # Kill counts chosen against stale class sizes may
                # overshoot today's population; the lagged adversary
                # gets the clamped effect, never an error.
                k1 = np.minimum(k1, ones)
                k0 = np.minimum(k0, zeros)
            bad = (k1 < 0) | (k0 < 0) | (k1 > ones) | (k0 > zeros)
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise ConfigurationError(
                    f"batch adversary returned invalid kill counts "
                    f"({int(k1[i])}, {int(k0[i])}) for trial {i} with "
                    f"ones={int(ones[i])}, zeros={int(zeros[i])}"
                )
            if omission:
                # Budget = high-water mark of per-round suppression: a
                # lower bound on distinct omission-faulty processes
                # (pids are anonymous at counts level).
                ledger.charge(k1 + k0)
                budget_used = ledger.used
            else:
                budget_used = budget_used + k1 + k0
                if (budget_used > t).any():
                    i = int(np.flatnonzero(budget_used > t)[0])
                    raise BudgetExceededError(
                        f"batch adversary used {int(budget_used[i])} crashes "
                        f"in trial {i}, budget is {t}"
                    )
            crashes_hist.append(k1 + k0)
            senders_hist.append(p.copy())

            d1 = ones - k1
            d0 = zeros - k0
            delivered = d1 + d0
            hist.append(delivered.copy())

            if omission:
                # Population preserved: suppressed senders keep their
                # bit and transition on the common delivered tallies;
                # the cascade overwrites the full population ``p``.
                pop = p
                ones = ones.copy()
                zeros = zeros.copy()
            else:
                # Default transition for every stage: survivors keep
                # their current bit; the probabilistic cascade
                # overwrites below.
                pop = delivered
                ones = d1.copy()
                zeros = d0.copy()

            st = stage.copy()  # pre-round stages (transitions are one-way)
            prob = active & (st == STAGE_PROBABILISTIC)
            handoff = prob & bool(proto.det_handoff) & (delivered < threshold)
            stage[handoff] = STAGE_SYNC
            prob_cont = prob & ~handoff

            # STOP rule for tentative deciders (needs a live receiver).
            stop_candidates = prob_cont & tent & (delivered > 0)
            stopped = stop_candidates & (
                received(r - 3) - delivered
                <= received(r - 2) * proto.stop_fraction
            )
            # A stopped trial decides its frozen uniform bit; tentative
            # implies all senders agreed, so ones > 0 <=> that bit is 1.
            decision[stopped] = (d1[stopped] > 0).astype(np.int64)
            decision_round[stopped] = r
            tent[stop_candidates] = False

            # Threshold cascade (first matching branch wins, as in the
            # scalar engine's elif chain).
            cascade = prob_cont & ~stopped
            if cascade.any():
                prev = received(r - 1)
                rem = cascade.copy()
                b_dec1 = rem & (d1 > proto.decide_hi * prev)
                rem &= ~b_dec1
                b_prop1 = rem & (d1 > proto.propose_hi * prev)
                rem &= ~b_prop1
                if proto.one_side_bias:
                    b_bias = rem & (d0 == 0)
                    rem &= ~b_bias
                else:
                    b_bias = np.zeros(M, dtype=bool)
                b_dec0 = rem & (d1 < proto.decide_lo * prev)
                rem &= ~b_dec0
                b_prop0 = rem & (d1 < proto.propose_lo * prev)
                coin = rem & ~b_prop0

                to_one = b_dec1 | b_prop1 | b_bias
                to_zero = b_dec0 | b_prop0
                ones[to_one] = pop[to_one]
                zeros[to_one] = 0
                ones[to_zero] = 0
                zeros[to_zero] = pop[to_zero]
                tent[b_dec1 | b_dec0] = True
                if coin.any():
                    heads = self.kernel.fair_binomial(
                        coin_keys,
                        r * coin_stride,
                        np.where(coin, pop, 0),
                    )
                    ones[coin] = heads[coin]
                    zeros[coin] = (pop - heads)[coin]

            # SYNC: the one-round delay — inbox ignored, bits frozen,
            # flood set starts empty (a process crashed in the first
            # deterministic round must not contribute its value).
            sync = active & (st == STAGE_SYNC)
            stage[sync] = STAGE_DETERMINISTIC
            det_rounds_done[sync] = 0
            det_has0[sync] = False
            det_has1[sync] = False

            # Deterministic flooding over the two frozen bit values.
            det = active & (st == STAGE_DETERMINISTIC)
            det_has1 |= det & (d1 > 0)
            det_has0 |= det & (d0 > 0)
            det_rounds_done[det] += 1
            finish = det & (det_rounds_done >= det_total) & (delivered > 0)
            decision[finish] = np.where(
                det_has0[finish], 0, np.where(det_has1[finish], 1, 0)
            )
            decision_round[finish] = r

            # A trial whose every process has crashed terminates with
            # no decision but a decision_round, like the scalar engine.
            # Omission never kills, so no trial dies under it.
            if omission:
                dead = np.zeros(M, dtype=bool)
            else:
                dead = active & (delivered == 0) & ~stopped & ~finish
            decision_round[dead] = r

            done = stopped | finish | dead
            rounds[done] = r + 1
            active &= ~done
            ones[done] = 0
            zeros[done] = 0
            r += 1

        horizon = len(crashes_hist)
        crashes = (
            np.stack(crashes_hist)
            if horizon
            else np.zeros((0, M), dtype=np.int64)
        )
        senders = (
            np.stack(senders_hist)
            if horizon
            else np.zeros((0, M), dtype=np.int64)
        )
        return BatchResult(
            rounds=rounds,
            decision_round=decision_round,
            decision=decision,
            crashes_used=budget_used,
            survivors=(
                np.full(M, n, dtype=np.int64)
                if omission
                else n - budget_used
            ),
            terminated=decision_round >= 0,
            crashes_per_round=crashes,
            senders_per_round=senders,
        )
