"""The columnar outcome codec and the binary cache documents built on it.

Round trips must be exact (``None`` vs ``[]``, ``decision_round=None``
vs ``timeout``, verdict ``None`` vs dict, 63-bit seeds), the digest
must ignore trial order but move with any single field, values the
columns cannot hold must raise ``ConfigurationError``, and a damaged
cache document of any kind must read as a miss without raising.
"""

import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.harness.exec import (
    ENGINE_BATCH,
    ENGINE_BATCH2D,
    ENGINE_FAST,
    ResultCache,
    TrialBatch,
    TrialOutcome,
    TrialSpec,
    run_chunk,
    run_chunk_columns,
)
from repro.harness.exec.builders import (
    build_batch_adversary,
    build_fault_model,
    build_inputs,
    build_protocol,
)
from repro.harness.exec.columns import (
    LAYOUT,
    OutcomeColumns,
    pack_document,
    pack_documents,
    unpack_document,
    unpack_documents,
)
from repro.harness.exec.trial import outcomes_digest
from repro.harness.resilience.chaos import _corrupt
from repro.harness.runner import TrialStats
from repro.sim.registry import BATCH_ENGINES

INT64 = st.integers(-(2**63), 2**63 - 1)
INT32 = st.integers(-(2**31), 2**31 - 1)
HISTORY = st.none() | st.lists(INT32, max_size=6)
VERDICT = st.none() | st.fixed_dictionaries(
    {
        "agreement": st.booleans(),
        "validity": st.booleans(),
        "termination": st.booleans(),
        "decision": st.none() | INT64,
    }
)
OUTCOME = st.builds(
    TrialOutcome,
    trial_index=st.integers(0, 2**20),
    seed=st.integers(0, 2**63 - 1),
    rounds=INT64,
    decision_round=st.none() | INT64,
    timeout=st.booleans(),
    crashes=INT64,
    decision=st.none() | INT64,
    verdict=VERDICT,
    crashes_per_round=HISTORY,
    senders_per_round=HISTORY,
)


def _assert_exact(decoded, outcomes):
    """Equal, and with the same Python types where ``==`` would blur them."""
    assert decoded == outcomes
    for got, want in zip(decoded, outcomes):
        assert type(got.timeout) is bool
        for field in ("decision_round", "decision"):
            assert type(getattr(got, field)) is type(getattr(want, field))
        for field in ("crashes_per_round", "senders_per_round"):
            series = getattr(got, field)
            assert type(series) is type(getattr(want, field))
            assert all(type(v) is int for v in series or [])
        if got.verdict is not None:
            assert all(
                type(got.verdict[flag]) is bool
                for flag in ("agreement", "validity", "termination")
            )


def _outcome(index, **fields):
    base = dict(
        trial_index=index,
        seed=1000 + index,
        rounds=4,
        decision_round=3,
        timeout=False,
        crashes=1,
        decision=1,
        verdict=None,
        crashes_per_round=[1, 0, 0, 0],
        senders_per_round=[8, 7, 7, 7],
    )
    base.update(fields)
    return TrialOutcome(**base)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(OUTCOME, max_size=12))
    def test_records_round_trip_exactly(self, outcomes):
        columns = OutcomeColumns.from_outcomes(outcomes)
        _assert_exact(columns.to_outcomes(), outcomes)
        header, loaded = unpack_document(
            b"".join(pack_document({"k": 1}, columns))
        )
        assert header == {"k": 1}
        _assert_exact(loaded.to_outcomes(), outcomes)
        assert loaded.digest() == outcomes_digest(outcomes)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(OUTCOME, max_size=12), st.randoms(use_true_random=False))
    def test_sorted_matches_encoding_the_sorted_list(self, outcomes, rnd):
        rnd.shuffle(outcomes)
        by_index = sorted(outcomes, key=lambda o: o.trial_index)
        got = OutcomeColumns.from_outcomes(outcomes).sorted()
        want = OutcomeColumns.from_outcomes(by_index)
        for name, _ in LAYOUT:
            assert np.array_equal(got.arrays[name], want.arrays[name]), name
        assert got.to_outcomes() == by_index

    def test_malformed_but_accepted_combinations(self):
        outcomes = [
            _outcome(0, decision_round=None, timeout=False),
            _outcome(1, decision_round=5, timeout=True, decision=None),
            _outcome(2, crashes_per_round=[], senders_per_round=None),
            _outcome(3, crashes_per_round=None, senders_per_round=[]),
            _outcome(
                4,
                verdict={
                    "agreement": False,
                    "validity": True,
                    "termination": False,
                    "decision": None,
                },
            ),
        ]
        _assert_exact(
            OutcomeColumns.from_outcomes(outcomes).to_outcomes(), outcomes
        )

    @pytest.mark.parametrize(
        "values", [[0, 1, 2, 1], [1000, -5, 7], [2**31 - 1, -(2**31)], []]
    )
    def test_histories_dense_and_sparse_ranges(self, values):
        outcomes = [_outcome(0, crashes_per_round=values), _outcome(1)]
        _assert_exact(
            OutcomeColumns.from_outcomes(outcomes).to_outcomes(), outcomes
        )


class TestConcatAndTake:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(OUTCOME, max_size=12), st.integers(0, 12))
    def test_concat_of_parts_equals_the_whole(self, outcomes, cut):
        parts = [outcomes[:cut], outcomes[cut:]]
        joined = OutcomeColumns.concat(
            [OutcomeColumns.from_outcomes(part) for part in parts]
        )
        want = OutcomeColumns.from_outcomes(outcomes)
        assert len(joined) == len(outcomes)
        for name, _ in LAYOUT:
            assert np.array_equal(joined.arrays[name], want.arrays[name]), name

    def test_concat_of_nothing_is_empty(self):
        empty = OutcomeColumns.concat([])
        assert len(empty) == 0 and empty.to_outcomes() == []
        assert empty.digest() == outcomes_digest([])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(OUTCOME, min_size=1, max_size=12), st.data())
    def test_take_selects_rows_with_their_histories(self, outcomes, data):
        rows = data.draw(
            st.lists(st.integers(0, len(outcomes) - 1), max_size=len(outcomes))
        )
        taken = OutcomeColumns.from_outcomes(outcomes).take(np.array(rows, dtype=np.int64))
        _assert_exact(taken.to_outcomes(), [outcomes[r] for r in rows])


class TestStatsFromColumns:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(OUTCOME, max_size=12), st.integers(0, 14))
    def test_matches_folding_the_records(self, outcomes, expected):
        # The per-record fold TrialStats aggregated with before it read
        # columns.
        ordered = sorted(outcomes, key=lambda o: o.trial_index)
        columns = OutcomeColumns.from_outcomes(outcomes)
        for kind in (ENGINE_FAST, "reference"):
            got = TrialStats.from_columns(
                columns, engine_kind=kind, expected_trials=expected
            )
            assert got == TrialStats(
                decision_rounds=[o.effective_round for o in ordered],
                crashes=[o.crashes for o in ordered],
                decisions=[o.decision for o in ordered],
                verdicts=[o.verdict_obj() for o in ordered if o.verdict is not None],
                timeouts=sum(1 for o in ordered if o.timeout),
                engine_kind=kind,
                missing_trials=max(0, expected - len(outcomes)),
            )
            assert type(got.timeouts) is int
            assert got == TrialStats.from_outcomes(
                outcomes, engine_kind=kind, expected_trials=expected
            )


class TestDocumentStreams:
    def _documents(self):
        docs = []
        for k in range(3):
            columns = OutcomeColumns.from_outcomes(
                [_outcome(i, crashes_per_round=None) for i in range(k)]
            )
            docs.append(b"".join(pack_document({"batch": k}, columns)))
        return docs

    def test_round_trip(self):
        unpacked = unpack_documents(pack_documents(self._documents()))
        assert [header for header, _ in unpacked] == [{"batch": k} for k in range(3)]
        assert [len(columns) for _, columns in unpacked] == [0, 1, 2]
        assert unpacked[2][1].to_outcomes() == [
            _outcome(i, crashes_per_round=None) for i in range(2)
        ]
        assert unpack_documents(b"") == []

    @pytest.mark.parametrize(
        "damage",
        [
            lambda body: body[:-1],
            lambda body: body + b"\x00",
            lambda body: body[:4],
            lambda body: (2**62).to_bytes(8, "little") + body[8:],
            lambda body: body[:8] + b"{" + body[9:],
        ],
        ids=["truncated", "trailing-byte", "short-length", "length-past-end",
             "bad-header"],
    )
    def test_damage_raises_configuration_error(self, damage):
        body = pack_documents(self._documents())
        with pytest.raises(ConfigurationError):
            unpack_documents(damage(body))


class TestBatchResultEncoding:
    @pytest.mark.parametrize("engine", [ENGINE_BATCH, ENGINE_BATCH2D])
    def test_matches_per_trial_rehydration(self, engine):
        spec = TrialSpec(protocol="synran", adversary="tally-attack", n=16,
                         t=16, inputs="worst", engine=engine)
        indices = [5, 0, 9, 3, 2, 7]
        seeds = [spec.trial_seed(4, i) for i in indices]
        result = BATCH_ENGINES[engine](
            build_protocol(spec),
            build_batch_adversary(spec),
            spec.n,
            max_rounds=spec.max_rounds,
            strict_termination=spec.strict_termination,
            fault_model=build_fault_model(spec),
        ).run(build_inputs(spec, random.Random(0)), seeds)
        # The per-trial loop run_spec_batch used before the codec.
        reference = []
        for slot, (index, seed) in enumerate(zip(indices, seeds)):
            trial = result.trial(slot)
            reference.append(
                TrialOutcome(
                    trial_index=index,
                    seed=seed,
                    rounds=trial.rounds,
                    decision_round=trial.decision_round,
                    timeout=trial.decision_round is None,
                    crashes=trial.crashes_used,
                    decision=trial.decision,
                    crashes_per_round=trial.crashes_per_round,
                    senders_per_round=trial.senders_per_round,
                )
            )
        columns = OutcomeColumns.from_batch_result(result, indices, seeds)
        _assert_exact(columns.to_outcomes(), reference)
        expected = OutcomeColumns.from_outcomes(reference)
        for name, _ in LAYOUT:
            assert np.array_equal(columns.arrays[name], expected.arrays[name])


class TestDigest:
    def _outcomes(self):
        return [
            _outcome(0),
            _outcome(1, verdict={"agreement": True, "validity": True,
                                 "termination": True, "decision": 1}),
            _outcome(2, crashes_per_round=[2, 1], senders_per_round=None),
        ]

    def test_order_invariant(self):
        outcomes = self._outcomes()
        digest = outcomes_digest(outcomes)
        assert outcomes_digest(outcomes[::-1]) == digest
        assert outcomes_digest(outcomes[1:] + outcomes[:1]) == digest

    @pytest.mark.parametrize(
        "slot,change",
        [
            (0, dict(trial_index=7)),
            (0, dict(seed=1001)),
            (0, dict(rounds=5)),
            (0, dict(decision_round=None)),
            (0, dict(decision_round=0)),
            (0, dict(timeout=True)),
            (0, dict(crashes=2)),
            (0, dict(decision=None)),
            (0, dict(decision=0)),
            (0, dict(verdict={"agreement": True, "validity": True,
                              "termination": True, "decision": None})),
            (1, dict(verdict=None)),
            (1, dict(verdict={"agreement": False, "validity": True,
                              "termination": True, "decision": 1})),
            (1, dict(verdict={"agreement": True, "validity": False,
                              "termination": True, "decision": 1})),
            (1, dict(verdict={"agreement": True, "validity": True,
                              "termination": False, "decision": 1})),
            (1, dict(verdict={"agreement": True, "validity": True,
                              "termination": True, "decision": None})),
            (1, dict(verdict={"agreement": True, "validity": True,
                              "termination": True, "decision": 0})),
            (0, dict(crashes_per_round=None)),
            (0, dict(crashes_per_round=[])),
            (0, dict(crashes_per_round=[1, 0, 0, 1])),
            (0, dict(crashes_per_round=[1, 0, 0])),
            (2, dict(senders_per_round=[])),
            (2, dict(crashes_per_round=[2], senders_per_round=[1])),
        ],
    )
    def test_any_single_field_moves_it(self, slot, change):
        outcomes = self._outcomes()
        changed = list(outcomes)
        changed[slot] = dataclasses.replace(outcomes[slot], **change)
        assert outcomes_digest(changed) != outcomes_digest(outcomes)

    def test_history_boundaries_move_it(self):
        # Same flat values, split differently between two trials.
        a = [_outcome(0, crashes_per_round=[1, 2]),
             _outcome(1, crashes_per_round=[3])]
        b = [_outcome(0, crashes_per_round=[1]),
             _outcome(1, crashes_per_round=[2, 3])]
        assert outcomes_digest(a) != outcomes_digest(b)


class TestValidation:
    @pytest.mark.parametrize(
        "change",
        [
            dict(seed=2**63),
            dict(trial_index=-(2**63) - 1),
            dict(rounds=2**64),
            dict(decision_round=2**63),
            dict(crashes_per_round=[2**31]),
            dict(senders_per_round=[-(2**31) - 1]),
            dict(crashes_per_round=[1.5]),
            dict(senders_per_round=["3"]),
            dict(crashes_per_round=7),
            dict(timeout=None),
            dict(verdict={"agreement": True}),
            dict(verdict={"agreement": True, "validity": True,
                          "termination": True, "decision": 0, "extra": 0}),
            dict(verdict=["agreement", "validity", "termination", "decision"]),
            dict(verdict={"agreement": 1, "validity": True,
                          "termination": True, "decision": 0}),
            dict(verdict={"agreement": True, "validity": True,
                          "termination": True, "decision": 2**63}),
        ],
    )
    def test_unencodable_values_raise(self, change):
        outcomes = [_outcome(0), _outcome(1, **change)]
        with pytest.raises(ConfigurationError):
            OutcomeColumns.from_outcomes(outcomes)
        with pytest.raises(ConfigurationError):
            outcomes_digest(outcomes)

    def test_inconsistent_columns_raise(self):
        arrays = dict(OutcomeColumns.from_outcomes([_outcome(0)]).arrays)
        bad = dict(arrays, crashes_per_round_lengths=np.array([9], "<i8"))
        with pytest.raises(ConfigurationError):
            OutcomeColumns(bad)
        unfilled = dict(arrays, decision_present=np.array([False]))
        with pytest.raises(ConfigurationError):
            OutcomeColumns(unfilled)


# ----------------------------------------------------------------------
# binary cache documents
# ----------------------------------------------------------------------


def _batch():
    spec = TrialSpec(protocol="synran", adversary="tally-attack", n=16,
                     t=16, inputs="worst", engine=ENGINE_FAST)
    return TrialBatch(spec=spec, trials=6, base_seed=3, label="cols")


def _rewrite_header(data, edit):
    """``data`` with its JSON header replaced by ``edit(header)``."""
    end = 8 + int.from_bytes(data[:8], "little")
    header = json.loads(data[8:end])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    return len(raw).to_bytes(8, "little") + raw + data[end:]


def _payload_start(data):
    return 8 + int.from_bytes(data[:8], "little")


def _truncate(data):
    return data[: len(data) - 3]


def _flip_first_payload_byte(data):
    i = _payload_start(data)
    return data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1:]


def _flip_last_payload_byte(data):
    return data[:-1] + bytes([data[-1] ^ 0x10])


def _flip_bool_byte(data):
    # trial_index, seed, rounds are int64; the next column is a bool.
    i = _payload_start(data) + 3 * 8 * 6
    return data[:i] + b"\xfe" + data[i + 1:]


def _table_past_eof(data):
    def edit(header):
        header["columns"][-1][2] += 100

    return _rewrite_header(data, edit)


def _unknown_dtype(data):
    def edit(header):
        header["columns"][1][1] = "<f8"

    return _rewrite_header(data, edit)


def _huge_header_length(data):
    return (2**62).to_bytes(8, "little") + data[8:]


def _wrapping_lengths(data):
    # History lengths whose int64 sum wraps to 0 next to an empty values
    # column, in reverse trial order so a load would have to re-sort.
    header, columns = unpack_document(data)
    arrays = {name: columns.arrays[name].copy() for name, _ in LAYOUT}
    arrays["trial_index"] = arrays["trial_index"][::-1].copy()
    lengths = np.zeros(len(arrays["trial_index"]), np.int64)
    lengths[:3] = [2**63 - 1, 2**63 - 1, 2]
    arrays["crashes_per_round_lengths"] = lengths
    arrays["crashes_per_round_values"] = np.zeros(0, np.int32)
    table = [[n, d.str, len(arrays[n])] for n, d in LAYOUT]
    raw = json.dumps(dict(header, columns=table)).encode("utf-8")
    return len(raw).to_bytes(8, "little") + raw + b"".join(
        arrays[n].tobytes() for n, _ in LAYOUT
    )


HOSTILE = [
    _truncate,
    _flip_first_payload_byte,
    _flip_last_payload_byte,
    _flip_bool_byte,
    _table_past_eof,
    _unknown_dtype,
    _huge_header_length,
    _wrapping_lengths,
    lambda data: b"",
    lambda data: data[:5],
]
HOSTILE_IDS = [
    "truncated",
    "first-payload-byte-flipped",
    "last-payload-byte-flipped",
    "bool-byte-not-0-or-1",
    "column-table-past-eof",
    "unknown-dtype",
    "header-length-past-eof",
    "history-lengths-wrap-int64",
    "empty",
    "shorter-than-length-prefix",
]


class TestCacheDocuments:
    def _stored(self, tmp_path):
        batch = _batch()
        cache = ResultCache(tmp_path / "cache")
        outcomes = run_chunk(batch.spec, batch.base_seed, range(batch.trials))
        path = cache.store(batch, OutcomeColumns.from_outcomes(outcomes))
        return batch, cache, outcomes, path

    def test_document_layout(self, tmp_path):
        batch, cache, outcomes, path = self._stored(tmp_path)
        assert path == cache.path_for(batch)
        data = path.read_bytes()
        header, columns = unpack_document(data)
        assert header == {
            "schema": 4,
            "salt": header["salt"],
            "batch_key": batch.batch_key(),
            "spec": header["spec"],
            "trials": batch.trials,
            "base_seed": batch.base_seed,
            "label": batch.label,
            "digest": outcomes_digest(outcomes),
        }
        end = _payload_start(data)
        assert data[8:end] == json.dumps(
            dict(header, columns=[[n, d.str, len(columns.arrays[n])]
                                  for n, d in LAYOUT]),
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        assert len(data) - end == sum(a.nbytes for a in columns.arrays.values())
        assert columns.to_outcomes() == outcomes
        assert cache.load(batch).to_outcomes() == outcomes
        # Written by atomic rename: no temp file is left behind.
        assert [p.name for p in path.parent.iterdir() if ".tmp-" in p.name] == []

    def test_failed_rename_leaves_nothing(self, tmp_path, monkeypatch):
        batch = _batch()
        cache = ResultCache(tmp_path / "cache")
        outcomes = run_chunk(batch.spec, batch.base_seed, range(batch.trials))

        def refuse(src, dst):
            raise OSError("read-only")

        monkeypatch.setattr("repro.harness.exec.cache.os.replace", refuse)
        with pytest.warns(RuntimeWarning):
            assert cache.store(batch, OutcomeColumns.from_outcomes(outcomes)) is None
        directory = cache.path_for(batch).parent
        assert [p.suffix for p in directory.iterdir()] == [".lock"]

    @pytest.mark.parametrize("damage", HOSTILE, ids=HOSTILE_IDS)
    def test_damaged_batch_document_is_a_miss(self, tmp_path, damage):
        batch, cache, _, path = self._stored(tmp_path)
        path.write_bytes(damage(path.read_bytes()))
        assert cache.load(batch) is None

    @pytest.mark.parametrize("damage", HOSTILE, ids=HOSTILE_IDS)
    def test_damaged_chunk_document_is_a_miss(self, tmp_path, damage):
        batch = _batch()
        cache = ResultCache(tmp_path / "cache")
        outcomes = run_chunk(batch.spec, batch.base_seed, range(batch.trials))
        path = cache.store_chunk(batch, [0, 1, 2], OutcomeColumns.from_outcomes(outcomes[:3]))
        cache.store_chunk(batch, [3, 4, 5], OutcomeColumns.from_outcomes(outcomes[3:]))
        path.write_bytes(damage(path.read_bytes()))
        salvaged, valid = cache.load_partial(batch)
        assert valid == 1
        assert salvaged.arrays["trial_index"].tolist() == [3, 4, 5]

    def test_chaos_garbage_is_a_miss(self, tmp_path):
        batch, cache, _, path = self._stored(tmp_path)
        assert _corrupt(path)
        assert cache.load(batch) is None
        chunk = cache.store_chunk(
            batch, [0], run_chunk_columns(batch.spec, batch.base_seed, [0])
        )
        assert _corrupt(chunk)
        salvaged, valid = cache.load_partial(batch)
        assert (len(salvaged), valid) == (0, 0)

    def test_other_batch_document_is_a_miss(self, tmp_path):
        batch, cache, _, path = self._stored(tmp_path)
        other = dataclasses.replace(batch, base_seed=4)
        cache.path_for(other).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(other).write_bytes(path.read_bytes())
        assert cache.load(other) is None

    def test_label_is_not_part_of_the_identity(self, tmp_path):
        batch, cache, outcomes, _ = self._stored(tmp_path)
        relabelled = dataclasses.replace(batch, label="elsewhere")
        assert cache.load(relabelled).to_outcomes() == outcomes
