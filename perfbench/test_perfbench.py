"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root with::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import measure
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent


def span(sid, name, start, end, parent=0, pid=1, value=None):
    return (pid, sid, name, start, end, parent, 7, value)


# -- self time ----------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        span(1, "executor.run_outcomes", 0.0, 10.0),
        span(2, "trial.run_spec_batch", 1.0, 4.0, parent=1),
        span(3, "cache.store", 5.0, 9.0, parent=1),
        span(4, "engine.run", 2.0, 3.0, parent=2),
    ]
    own = tracer.self_times(spans)
    assert own[(1, 1)] == pytest.approx(3.0)
    assert own[(1, 2)] == pytest.approx(2.0)
    assert own[(1, 3)] == pytest.approx(4.0)
    assert own[(1, 4)] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Children on two threads overlap each other, and one outlives its
    # parent: covered time is [1, 5] + [8, 10] = 6 of the parent's 10.
    spans = [
        span(1, "remote.run_outcomes", 0.0, 10.0),
        span(2, "netio.chunk", 1.0, 3.0, parent=1),
        span(3, "netio.chunk", 2.0, 5.0, parent=1),
        span(4, "netio.chunk", 8.0, 12.0, parent=1),
    ]
    assert tracer.self_times(spans)[(1, 1)] == pytest.approx(4.0)


def test_self_time_matches_parents_within_a_process():
    # Span 1 of process 2 is not the parent of process 1's span 2.
    spans = [
        span(1, "executor.run_outcomes", 0.0, 10.0, pid=1),
        span(2, "engine.run", 0.0, 6.0, parent=1, pid=2),
    ]
    own = tracer.self_times(spans)
    assert own[(1, 1)] == pytest.approx(10.0)
    assert own[(2, 2)] == pytest.approx(6.0)


def test_self_times_of_a_tree_add_up_to_the_root():
    spans = [
        span(1, "bench.cold", 0.0, 10.0),
        span(2, "executor.run_outcomes", 0.5, 9.5, parent=1),
        span(3, "cache.store_chunk", 1.0, 4.0, parent=2),
        span(4, "cache.load", 1.5, 2.0, parent=3),
        span(5, "trial.outcomes_digest", 2.0, 3.0, parent=3),
    ]
    assert sum(tracer.self_times(spans).values()) == pytest.approx(10.0)


def test_layer_metrics_count_nested_same_layer_calls_in_the_outer_one():
    spans = [
        span(1, "bench.cold", 0.0, 10.0),
        span(2, "cache.store_chunk", 1.0, 4.0, parent=1),
        span(3, "cache.load", 1.5, 2.0, parent=2),
        span(4, "cache.load", 5.0, 6.0, parent=1),
        span(5, "executor.run_chunk", 6.0, 9.0, parent=1, value=120.0),
    ]
    m = tracer.layer_metrics(spans, {"cache.hits": 1.0, "cache.misses": 3.0}, 2, 0.01)
    assert m["cache.store_chunk_s"] == pytest.approx(1.5)
    assert m["cache.load_s"] == pytest.approx(0.5)  # the nested load is part of the store
    assert m["cache.busy_s"] == pytest.approx(2.0)
    assert m["cache.self_s"] == pytest.approx(2.0)
    assert m["cache.hit_ratio"] == pytest.approx(0.25)
    assert m["engine.trial_rounds"] == pytest.approx(60.0)
    assert m["executor.chunks"] == pytest.approx(0.5)
    assert m["trace.wall_s"] == pytest.approx(5.0)
    assert m["trace.unaccounted_s"] == pytest.approx(1.5)
    assert set(m) == set(run.PER_LAYER)


def test_breakdown_attributes_descendants_to_their_layers():
    spans = [
        span(1, "bench.cold", 0.0, 10.0),
        span(2, "executor.run_outcomes", 0.0, 9.0, parent=1),
        span(3, "cache.store", 1.0, 5.0, parent=2),
        span(4, "trial.outcomes_digest", 1.0, 2.0, parent=3),
        span(5, "cache.load", 20.0, 21.0),  # not under the phase
    ]
    total, shares = tracer.breakdown(spans, "bench.cold")
    assert total == pytest.approx(10.0)
    assert shares == pytest.approx(
        {"unaccounted": 1.0, "executor": 5.0, "cache": 3.0, "trial": 1.0}
    )


def test_interval_union():
    assert measure.interval_union([]) == 0.0
    assert measure.interval_union([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == pytest.approx(3.0)


# -- percentiles and spread ---------------------------------------------


@pytest.mark.parametrize(
    "n, p, rank",
    [(100, 90, 90), (15, 33, 5), (11, 9, 1), (40, 75, 30), (1000, 99, 990)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, p, rank):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted input
    got = measure.tail_percentile(samples)
    assert got == (p, float(rank), n - rank)
    assert n - rank >= 10
    # The next whole percentile up would leave fewer than ten beyond.
    assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_percentile_needs_more_than_ten_samples():
    assert measure.tail_percentile([1.0] * 10) is None
    assert measure.tail_percentile([]) is None


def test_rate_is_total_work_over_total_time():
    assert measure.rate([(100, 1.0), (100, 3.0)]) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        measure.rate([])


def test_relative_spread_uses_exclusive_quartiles():
    values = [float(v) for v in range(1, 11)]
    # statistics.quantiles(1..10, n=4) == [2.75, 5.5, 8.25]
    assert measure.relative_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_spread_seed_lists():
    import spread

    assert spread.parse_seeds("3-6") == [3, 4, 5, 6]
    assert spread.parse_seeds("3,5,8") == [3, 5, 8]


# -- metric names --------------------------------------------------------


@pytest.mark.parametrize("name", ["trials_per_s", "cache.store_s", "p-99", "9lives", "a" * 64])
def test_metric_name_accepts(name):
    assert measure.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "caché", "a" * 65, "x\n"])
def test_metric_name_rejects(name):
    with pytest.raises(ValueError):
        measure.check_metric_name(name)


def test_every_emitted_metric_name_is_valid():
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        measure.check_metric_name(name)


def test_benchmark_json_matches_the_emitted_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


# -- tracing the real program --------------------------------------------


def test_tracing_leaves_outcomes_unchanged_and_reaches_each_local_layer(tmp_path):
    from repro.harness.exec import ResultCache, SerialExecutor, TrialBatch, TrialSpec
    from repro.harness.exec import executor as executor_mod
    from repro.harness.exec.spec import TrialSpec as SpecClass

    batch = TrialBatch(
        TrialSpec("synran", "tally-attack", 32, 32, "worst", engine="batch"), 40, base_seed=5
    )
    with SerialExecutor() as ex:
        plain = ex.run_outcomes(batch)

    original_trial_seed = SpecClass.__dict__["trial_seed"]
    original_run_chunk = executor_mod.run_chunk
    rec = tracer.Recorder(tmp_path / "spool")
    uninstall = tracer.install(rec)
    try:
        def both():
            with SerialExecutor(cache=ResultCache(tmp_path / "cache")) as ex:
                cold = ex.run_outcomes(batch)
            with SerialExecutor(cache=ResultCache(tmp_path / "cache")) as ex:
                warm = ex.run_outcomes(batch)
            return cold, warm

        cold, warm = rec.phase("bench.cold", both)
    finally:
        uninstall()
    assert cold == plain and warm == plain
    assert SpecClass.__dict__["trial_seed"] is original_trial_seed
    assert executor_mod.run_chunk is original_run_chunk

    m = tracer.layer_metrics(rec.spans, rec.counters, 1, 0.0)
    assert m["spec.spec_hash_calls"] >= 40
    assert m["engine.run_s"] > 0
    assert m["engine.trial_rounds"] == sum(o.rounds for o in plain)
    assert m["executor.chunks"] == 1
    assert m["cache.docs_written"] == 2  # the chunk ledger, then the batch document
    assert m["cache.hit_ratio"] == pytest.approx(0.5)
    assert m["cache.bytes_read"] > 0
    assert m["trial.digest_calls"] == 3
    total, shares = tracer.breakdown(rec.spans, "bench.cold")
    assert sum(shares.values()) == pytest.approx(total)


def test_benchmark_files_pass_the_repo_lint():
    # REP007 keeps timings away from seeds, specs, cache keys and
    # digests; REP005 flags dead heavyweight imports.  One parse job:
    # concurrent ast.parse is unreliable on CPython 3.11.
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--jobs", "1", "--format", "text", "perfbench"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
