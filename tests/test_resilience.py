"""Tests for the fail-stop-tolerant executor layer
(:mod:`repro.harness.resilience` plus the executor/cache rewrites):
retry policy and deterministic backoff, chunk quarantine, partial-ledger
checkpointing and resume, and cache degradation on unwritable
filesystems.  The chaos-injection integration gates live in
``test_chaos.py``."""

import math
import os
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.harness.exec import (
    ENGINE_BATCH,
    ENGINE_FAST,
    OutcomeColumns,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    TrialBatch,
    TrialOutcome,
    TrialSpec,
    run_chunk,
    run_spec_trial,
)
from repro.harness.resilience import (
    BatchReport,
    ChunkFailure,
    Fault,
    FaultPlan,
    RetryPolicy,
    backoff_fraction,
)
from repro.harness.runner import TrialStats
from repro.harness.sweep import _cell_result


def fast_spec(**overrides):
    fields = dict(
        protocol="synran",
        adversary="tally-attack",
        n=16,
        t=16,
        inputs="worst",
        engine=ENGINE_FAST,
    )
    fields.update(overrides)
    return TrialSpec(**fields)


def fast_batch(trials=12, base_seed=7, **overrides):
    return TrialBatch(
        spec=fast_spec(**overrides),
        trials=trials,
        base_seed=base_seed,
        label="resilience-test",
    )


def baseline_outcomes(batch):
    """Ground truth, computed without any executor (or chaos hook)."""
    return [
        run_spec_trial(batch.spec, i, batch.base_seed)
        for i in range(batch.trials)
    ]


def jsonable(outcomes):
    return [o.to_jsonable() for o in outcomes]


def activate_plan(monkeypatch, tmp_path, plan):
    """Dump ``plan`` and point ``REPRO_CHAOS`` at it (workers inherit)."""
    monkeypatch.setenv(
        "REPRO_CHAOS", str(plan.dump(tmp_path / "fault-plan.json"))
    )


# ----------------------------------------------------------------------
# RetryPolicy / backoff
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts >= 1
        assert policy.pool_failure_limit >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_attempts=0),
            dict(backoff_base=-0.1),
            dict(backoff_cap=-1.0),
            dict(pool_failure_limit=0),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_backoff_fraction_deterministic_and_bounded(self):
        a = backoff_fraction("scope", 1)
        assert a == backoff_fraction("scope", 1)
        assert 0.0 <= a < 1.0
        assert a != backoff_fraction("scope", 2)
        assert a != backoff_fraction("other", 1)

    def test_delay_deterministic_capped_and_jittered(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5)
        d0 = policy.delay("s", 0)
        assert d0 == policy.delay("s", 0)
        # Jitter scales the raw delay into [0.5x, 1x).
        assert 0.05 <= d0 < 0.1
        # Far attempts hit the cap.
        assert 0.25 <= policy.delay("s", 10) < 0.5

    def test_zero_base_means_no_sleeping(self):
        policy = RetryPolicy(backoff_base=0.0)
        assert policy.delay("s", 0) == 0.0
        assert policy.delay("s", 5) == 0.0


class TestReportTypes:
    def test_chunk_failure_jsonable(self):
        failure = ChunkFailure(
            trial_indices=(3, 4, 5),
            attempts=3,
            kind="exception",
            error="ValueError: boom",
        )
        doc = failure.to_jsonable()
        assert doc["trial_indices"] == [3, 4, 5]
        assert doc["kind"] == "exception"

    def test_batch_report_quarantine_accounting(self):
        report = BatchReport(label="x", batch_key="k", trials=10)
        report.record_quarantine(
            ChunkFailure(
                trial_indices=(0, 1),
                attempts=3,
                kind="timeout",
                error="stalled",
            )
        )
        assert report.quarantined == 1
        assert report.to_jsonable()["failures"][0]["kind"] == "timeout"


# ----------------------------------------------------------------------
# Cache schema v2: partial ledger
# ----------------------------------------------------------------------


class TestPartialLedger:
    def test_store_chunk_and_load_partial_roundtrip(self, tmp_path):
        batch = fast_batch()
        cache = ResultCache(tmp_path / "cache")
        outcomes = baseline_outcomes(batch)
        cache.store_chunk(batch, [0, 1, 2], OutcomeColumns.from_outcomes(outcomes[0:3]))
        cache.store_chunk(batch, [6, 7, 8], OutcomeColumns.from_outcomes(outcomes[6:9]))
        salvaged, valid = cache.load_partial(batch)
        assert valid == 2
        assert salvaged.arrays["trial_index"].tolist() == [0, 1, 2, 6, 7, 8]
        assert jsonable(salvaged.to_outcomes()[0:3]) == jsonable(outcomes[0:3])

    def test_corrupt_chunk_doc_is_a_miss_not_an_error(self, tmp_path):
        batch = fast_batch()
        cache = ResultCache(tmp_path / "cache")
        outcomes = baseline_outcomes(batch)
        cache.store_chunk(batch, [0, 1, 2], OutcomeColumns.from_outcomes(outcomes[0:3]))
        cache.store_chunk(batch, [3, 4, 5], OutcomeColumns.from_outcomes(outcomes[3:6]))
        paths = cache.partial_paths(batch)
        assert len(paths) == 2
        paths[0].write_text("{torn", encoding="utf-8")
        salvaged, valid = cache.load_partial(batch)
        assert valid == 1
        assert salvaged.arrays["trial_index"].tolist() == [3, 4, 5]

    def test_truncated_chunk_doc_is_a_miss(self, tmp_path):
        batch = fast_batch()
        cache = ResultCache(tmp_path / "cache")
        outcomes = baseline_outcomes(batch)
        path = cache.store_chunk(batch, [0, 1, 2], OutcomeColumns.from_outcomes(outcomes[0:3]))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        salvaged, valid = cache.load_partial(batch)
        assert valid == 0
        assert len(salvaged) == 0

    def test_wrong_batch_chunk_doc_is_a_miss(self, tmp_path):
        batch = fast_batch()
        other = fast_batch(base_seed=8)
        cache = ResultCache(tmp_path / "cache")
        outcomes = baseline_outcomes(batch)
        cache.store_chunk(batch, [0, 1, 2], OutcomeColumns.from_outcomes(outcomes[0:3]))
        salvaged, valid = cache.load_partial(other)
        assert valid == 0
        assert len(salvaged) == 0

    def test_final_store_compacts_ledger(self, tmp_path):
        batch = fast_batch()
        cache = ResultCache(tmp_path / "cache")
        outcomes = baseline_outcomes(batch)
        cache.store_chunk(batch, [0, 1, 2], OutcomeColumns.from_outcomes(outcomes[0:3]))
        assert cache.partial_paths(batch)
        cache.store(batch, OutcomeColumns.from_outcomes(outcomes))
        assert not cache.partial_dir(batch).exists()
        assert jsonable(cache.load(batch).to_outcomes()) == jsonable(outcomes)

    def test_chunk_doc_span_parsing(self, tmp_path):
        batch = fast_batch()
        cache = ResultCache(tmp_path / "cache")
        outcomes = baseline_outcomes(batch)
        path = cache.store_chunk(batch, [0, 1, 2], OutcomeColumns.from_outcomes(outcomes[0:3]))
        assert cache.chunk_doc_span(path) == (0, 2)
        assert cache.chunk_doc_span(tmp_path / "nope.json") == (None, None)


class TestCacheDegradation:
    def test_store_degrades_with_one_warning(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        cache = ResultCache(blocker / "cache")
        batch = fast_batch()
        outcomes = baseline_outcomes(batch)
        with pytest.warns(RuntimeWarning, match="continuing uncached"):
            assert cache.store(batch, OutcomeColumns.from_outcomes(outcomes)) is None
        # Subsequent stores are silent no-ops; loads stay plain misses.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.store(batch, OutcomeColumns.from_outcomes(outcomes)) is None
            assert cache.store_chunk(batch, [0], OutcomeColumns.from_outcomes(outcomes[:1])) is None
            assert cache.load(batch) is None

    def test_run_completes_uncached_on_unwritable_root(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        batch = fast_batch()
        with pytest.warns(RuntimeWarning):
            with SerialExecutor(cache=ResultCache(blocker / "cache")) as ex:
                outcomes = ex.run_outcomes(batch)
        assert jsonable(outcomes) == jsonable(baseline_outcomes(batch))

    @pytest.mark.skipif(
        os.geteuid() == 0, reason="root ignores directory permissions"
    )
    def test_store_degrades_on_read_only_directory(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        root.chmod(0o500)
        try:
            cache = ResultCache(root)
            batch = fast_batch()
            with pytest.warns(RuntimeWarning):
                assert cache.store(batch, OutcomeColumns.from_outcomes(baseline_outcomes(batch))) is None
        finally:
            root.chmod(0o700)


# ----------------------------------------------------------------------
# Executor retry / quarantine / resume
# ----------------------------------------------------------------------


class TestRetryAndQuarantine:
    def test_transient_failure_retried_to_identical_outcomes(
        self, monkeypatch, tmp_path
    ):
        batch = fast_batch()
        expected = jsonable(baseline_outcomes(batch))
        activate_plan(
            monkeypatch, tmp_path, FaultPlan((Fault("raise", 4, times=1),))
        )
        with ParallelExecutor(
            2,
            chunk_size=3,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        ) as ex:
            outcomes = ex.run_outcomes(batch)
        assert jsonable(outcomes) == expected
        assert ex.last_report.retries >= 1
        assert ex.last_report.quarantined == 0

    def test_persistent_failure_quarantined_not_raised(
        self, monkeypatch, tmp_path
    ):
        activate_plan(
            monkeypatch, tmp_path, FaultPlan((Fault("raise", 4, times=99),))
        )
        batch = fast_batch()
        with ParallelExecutor(
            2,
            chunk_size=3,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        ) as ex:
            stats = ex.run_batch(batch)
        report = ex.last_report
        assert report.quarantined == 1
        assert report.failures[0].kind == "exception"
        assert report.failures[0].trial_indices == (3, 4, 5)
        assert "ChaosError" in report.failures[0].error
        assert stats.missing_trials == 3
        assert not stats.structural_ok()

    def test_quarantined_batch_not_stored_as_complete(
        self, monkeypatch, tmp_path
    ):
        activate_plan(
            monkeypatch, tmp_path, FaultPlan((Fault("raise", 4, times=99),))
        )
        batch = fast_batch()
        cache = ResultCache(tmp_path / "cache")
        with ParallelExecutor(
            2,
            cache=cache,
            chunk_size=3,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        ) as ex:
            ex.run_outcomes(batch)
        assert cache.load(batch) is None
        # The chunks that did complete are checkpointed for next time.
        salvaged, valid = cache.load_partial(batch)
        assert valid == 3
        assert 4 not in salvaged.arrays["trial_index"]

    def test_resume_uses_ledger_without_recomputing(self, tmp_path):
        batch = fast_batch()
        cache = ResultCache(tmp_path / "cache")
        outcomes = baseline_outcomes(batch)
        # Plant a distinctive (fabricated) chunk document: if the
        # executor recomputed the chunk, the marker would vanish.
        marked = [
            TrialOutcome(
                trial_index=o.trial_index,
                seed=o.seed,
                rounds=999,
                decision_round=999,
                timeout=False,
                crashes=o.crashes,
                decision=o.decision,
            )
            for o in outcomes[0:3]
        ]
        cache.store_chunk(batch, [0, 1, 2], OutcomeColumns.from_outcomes(marked))
        with ParallelExecutor(2, cache=cache, chunk_size=3) as ex:
            resumed = ex.run_outcomes(batch)
        assert ex.last_report.resumed_chunks == 1
        assert [o.rounds for o in resumed[0:3]] == [999, 999, 999]
        assert jsonable(resumed[3:]) == jsonable(outcomes[3:])

    def test_serial_resume_counts_ledger_chunks(self, tmp_path):
        batch = fast_batch()
        cache = ResultCache(tmp_path / "cache")
        outcomes = baseline_outcomes(batch)
        cache.store_chunk(batch, [0, 1, 2], OutcomeColumns.from_outcomes(outcomes[0:3]))
        with SerialExecutor(cache=cache) as ex:
            resumed = ex.run_outcomes(batch)
        assert ex.last_report.resumed_chunks == 1
        assert jsonable(resumed) == jsonable(outcomes)
        # Completion compacted the ledger into the final document.
        assert not cache.partial_dir(batch).exists()
        assert jsonable(cache.load(batch).to_outcomes()) == jsonable(outcomes)

    def test_resilience_summary_aggregates(self):
        batch = fast_batch(trials=4)
        with SerialExecutor() as ex:
            ex.run_outcomes(batch)
            ex.run_outcomes(batch)
        summary = ex.resilience_summary()
        assert summary["batches"] == 2
        assert summary["retries"] == 0
        assert summary["degraded_to_serial"] is False


# ----------------------------------------------------------------------
# TrialStats / sweep integration
# ----------------------------------------------------------------------


class TestStatsIntegration:
    def test_missing_trials_counted(self):
        batch = fast_batch(trials=6)
        outcomes = baseline_outcomes(batch)[:3]
        stats = TrialStats.from_outcomes(
            outcomes, engine_kind=ENGINE_FAST, expected_trials=6
        )
        assert stats.missing_trials == 3
        assert not stats.structural_ok()

    def test_no_expectation_means_no_missing(self):
        batch = fast_batch(trials=6)
        outcomes = baseline_outcomes(batch)[:3]
        stats = TrialStats.from_outcomes(outcomes, engine_kind=ENGINE_FAST)
        assert stats.missing_trials == 0

    def test_empty_cell_yields_nan_row_not_crash(self):
        batch = TrialBatch(
            spec=TrialSpec(
                protocol="synran",
                adversary="random",
                n=6,
                t=3,
                inputs="worst",
            ),
            trials=5,
            base_seed=0,
            label="empty-cell",
        )
        stats = TrialStats(missing_trials=5)
        row = _cell_result(batch, stats)
        assert math.isnan(row.mean_rounds)
        assert math.isnan(row.mean_crashes)
        assert row.violations == 0

    def test_duplicate_chunk_indices_rejected(self):
        # The chunk entry rejects a repeated index on every engine, not
        # only the vectorized ones.
        for spec in (
            fast_spec(engine=ENGINE_BATCH, adversary="random", t=8, inputs="random"),
            fast_spec(),
            fast_spec(engine="reference", adversary="random", t=8),
        ):
            with pytest.raises(ConfigurationError, match="duplicate"):
                run_chunk(spec, 0, [0, 1, 1])
