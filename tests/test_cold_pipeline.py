"""Byte-identity gates for the cold execution path.

The cold path (seed derivation, batch rehydration, outcome digest,
cache write) is tuned for throughput; these tests pin that every
tuning keeps trajectories, seeds, and document bytes exactly as they
were, and that a serial run writes each outcome once."""

import io
import json
import random

import pytest

from repro.harness.exec import (
    ENGINE_BATCH,
    ENGINE_BATCH2D,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    TrialBatch,
    TrialSpec,
    run_chunk,
    run_spec_batch,
)
from repro.harness.exec.builders import (
    build_batch_adversary,
    build_fault_model,
    build_inputs,
    build_protocol,
)
from repro.harness.exec.trial import outcomes_digest
from repro.sim.registry import BATCH_ENGINES

#: ``outcomes_digest`` of small batches on every engine kind, recorded
#: before the cold path was tuned.  A change in any trajectory, seed,
#: or outcome field moves the digest.
PINNED_DIGESTS = [
    (
        "batch",
        dict(protocol="synran", adversary="tally-attack", n=32, t=32,
             inputs="worst", engine=ENGINE_BATCH),
        64,
        11,
        "b609ac47b9b6faad3ca2e511f8c512241407112ffb00a28386584db7b6b76390",
    ),
    (
        "batch-random-inputs",
        dict(protocol="synran", adversary="random", n=16, t=8,
             inputs="random", engine=ENGINE_BATCH),
        48,
        5,
        "6f9be6e6da4460f51a285efb6ac96a1239e4c288031ea4cc3050d5798e9bac9f",
    ),
    (
        "batch2d",
        dict(protocol="synran", adversary="tally-attack", n=16, t=16,
             inputs="worst", engine=ENGINE_BATCH2D),
        32,
        7,
        "c84a29ccc8186372f5faa3ea4e7f2ea6152f9c94ca2c53fb741b7522f4ccef79",
    ),
    (
        "fast",
        dict(protocol="synran", adversary="tally-attack", n=16, t=16,
             inputs="worst", engine=ENGINE_FAST),
        24,
        3,
        "948cbc6b222c5726a80129422bd367621d4a4bc0eaffd194d28860ca70763543",
    ),
    (
        "reference",
        dict(protocol="synran", adversary="random", n=6, t=3,
             inputs="worst", engine=ENGINE_REFERENCE),
        12,
        2,
        "efa8c5629e246f6d66f0ef5129982c70878653ea90a1e270ab1188aad5a72271",
    ),
]


def _batch_result(spec, base_seed, trials):
    """Run ``spec`` on its vectorized engine and return the raw result."""
    seeds = [spec.trial_seed(base_seed, i) for i in range(trials)]
    engine = BATCH_ENGINES[spec.engine](
        build_protocol(spec),
        build_batch_adversary(spec),
        spec.n,
        max_rounds=spec.max_rounds,
        strict_termination=spec.strict_termination,
        fault_model=build_fault_model(spec),
    )
    return engine.run(build_inputs(spec, random.Random(0)), seeds)


class TestPinnedDigests:
    @pytest.mark.parametrize(
        "fields,trials,base_seed,digest",
        [case[1:] for case in PINNED_DIGESTS],
        ids=[case[0] for case in PINNED_DIGESTS],
    )
    def test_outcomes_digest_unchanged(self, fields, trials, base_seed, digest):
        spec = TrialSpec(**fields)
        outcomes = run_chunk(spec, base_seed, list(range(trials)))
        assert outcomes_digest(outcomes) == digest


class TestWriteDocBytes:
    def test_matches_streaming_json_dump(self, tmp_path):
        doc = {
            "none": None,
            "flags": [True, False, None],
            "floats": [0.1, -2.5, 1e-300, 3.0, float("1e20")],
            "nested": [[1, [2, [3, []]]], {"b": 1, "a": [None, 0.5]}],
            "z": {"y": {"x": "text with é and \"quotes\""}},
            "ints": [0, -1, 2**62],
        }
        expected = io.StringIO()
        json.dump(doc, expected, sort_keys=True)
        path = ResultCache(tmp_path)._write_doc(tmp_path / "d.json", doc)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")


class TestBatchRehydration:
    @pytest.mark.parametrize("engine", [ENGINE_BATCH, ENGINE_BATCH2D])
    def test_trial_equals_per_element_rehydration(self, engine):
        spec = TrialSpec(protocol="synran", adversary="tally-attack", n=16,
                         t=16, inputs="worst", engine=engine)
        result = _batch_result(spec, 9, 24)
        for i in range(len(result)):
            trial = result.trial(i)
            rounds = int(result.rounds[i])
            crashes = [int(c) for c in result.crashes_per_round[:rounds, i]]
            senders = [int(s) for s in result.senders_per_round[:rounds, i]]
            assert trial.crashes_per_round == crashes
            assert trial.senders_per_round == senders
            assert all(
                type(v) is int
                for v in trial.crashes_per_round + trial.senders_per_round
            )


class TestSliceSeeds:
    @pytest.mark.parametrize("engine", [ENGINE_BATCH, ENGINE_BATCH2D])
    def test_seeds_equal_spec_trial_seed(self, engine):
        spec = TrialSpec(protocol="synran", adversary="random", n=12, t=6,
                         inputs="random", engine=engine)
        indices = [0, 3, 4, 9, 17, 30]
        outcomes = run_spec_batch(spec, indices, 21)
        assert [o.trial_index for o in outcomes] == indices
        assert [o.seed for o in outcomes] == [
            spec.trial_seed(21, i) for i in indices
        ]

    def test_spec_hashed_once_per_slice(self, monkeypatch):
        spec = TrialSpec(protocol="synran", adversary="random", n=12, t=6,
                         inputs="random", engine=ENGINE_BATCH)
        calls = []
        original = TrialSpec.spec_hash

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(TrialSpec, "spec_hash", counting)
        run_spec_batch(spec, range(40), 3)
        assert len(calls) == 1


class _SpyCache(ResultCache):
    def __init__(self, root):
        super().__init__(root)
        self.chunk_stores = []

    def store_chunk(self, batch, indices, outcomes):
        self.chunk_stores.append(sorted(indices))
        return super().store_chunk(batch, indices, outcomes)


class TestLedgerWrites:
    def _batch(self):
        spec = TrialSpec(protocol="synran", adversary="tally-attack", n=16,
                         t=16, inputs="worst", engine=ENGINE_BATCH)
        return TrialBatch(spec=spec, trials=12, base_seed=6)

    def test_serial_cold_run_writes_one_document(self, tmp_path):
        cache = _SpyCache(tmp_path)
        outcomes = SerialExecutor(cache=cache).run_outcomes(self._batch())
        assert cache.chunk_stores == []
        documents = sorted(tmp_path.rglob("*.json"))
        assert documents == [cache.path_for(self._batch())]
        assert not cache.partial_dir(self._batch()).exists()
        assert cache.load(self._batch()) == outcomes

    def test_parallel_cold_run_checkpoints_every_chunk(self, tmp_path):
        cache = _SpyCache(tmp_path)
        with ParallelExecutor(2, cache=cache, chunk_size=4) as executor:
            outcomes = executor.run_outcomes(self._batch())
        assert sorted(cache.chunk_stores) == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]
        ]
        assert outcomes == SerialExecutor().run_outcomes(self._batch())
        assert sorted(tmp_path.rglob("*.json")) == [
            cache.path_for(self._batch())
        ]
