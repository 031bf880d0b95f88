"""Tests for trace records and trace sets."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from repro.net.trace import TraceRecord, TraceSet, atomic_write_json

NAN = float("nan")


def make_record(round_index=0, n_tx=3, lossy=False):
    return TraceRecord(
        round_index=round_index,
        n_tx=n_tx,
        node_ids=[0, 1, 2],
        reliability_array=np.array([1.0, 0.8 if lossy else 1.0, 0.5 if lossy else 1.0]),
        radio_on_array=np.array([8.0, 10.0, 12.0]),
        interference_ratio=0.3 if lossy else 0.0,
        had_losses=lossy,
    )


class TestTraceRecord:
    def test_worst_nodes_sorted_by_reliability(self):
        record = make_record(lossy=True)
        assert record.worst_nodes(2) == [2, 1]

    def test_worst_nodes_requires_positive_k(self):
        with pytest.raises(ValueError):
            make_record().worst_nodes(0)

    def test_worst_nodes_ties_broken_by_id(self):
        record = make_record()
        assert record.worst_nodes(3) == [0, 1, 2]


class TestTraceSet:
    def test_append_starts_first_episode(self):
        trace = TraceSet()
        trace.append(make_record())
        assert trace.episode_starts == [0]
        assert len(trace) == 1

    def test_episodes_split_correctly(self):
        trace = TraceSet()
        trace.start_episode()
        trace.append(make_record(0))
        trace.append(make_record(1))
        trace.start_episode()
        trace.append(make_record(2))
        episodes = trace.episodes()
        assert len(episodes) == 2
        assert len(episodes[0]) == 2
        assert len(episodes[1]) == 1

    def test_iteration_and_indexing(self):
        trace = TraceSet()
        trace.append(make_record(0))
        trace.append(make_record(1))
        assert trace[1].round_index == 1
        assert [r.round_index for r in trace] == [0, 1]

    def test_dict_roundtrip(self):
        trace = TraceSet(metadata={"topology": "test"})
        trace.start_episode()
        trace.append(make_record(0, lossy=True))
        trace.append(make_record(1))
        rebuilt = TraceSet.from_dict(trace.to_dict())
        assert len(rebuilt) == 2
        assert rebuilt.metadata["topology"] == "test"
        assert rebuilt[0].had_losses
        assert rebuilt[0].node_ids == trace[0].node_ids == (0, 1, 2)
        assert np.array_equal(rebuilt[0].reliability_array, trace[0].reliability_array)
        assert np.array_equal(rebuilt[0].radio_on_array, trace[0].radio_on_array)

    def test_file_roundtrip(self, tmp_path):
        trace = TraceSet()
        trace.append(make_record(0))
        path = tmp_path / "traces" / "t.json"
        trace.save(path)
        loaded = TraceSet.load(path)
        assert len(loaded) == 1
        assert loaded[0].n_tx == 3

    def test_empty_episodes(self):
        assert TraceSet().episodes() == []

    @pytest.mark.parametrize("records", [0, 1, 5])
    def test_save_writes_json_dumps_of_to_dict(self, tmp_path, records):
        """The streamed file is byte for byte ``json.dumps(to_dict())``,
        metadata with brackets and non-ASCII text and NaN values included."""
        trace = TraceSet(metadata={"topology": "test []", "note": "ü"})
        for index in range(records):
            if index % 2 == 0:
                trace.start_episode()
            record = make_record(index, lossy=index % 2 == 1)
            record.reliability_array[0] = NAN if index == 3 else 0.1 * index
            trace.append(record)
        path = tmp_path / "t.json"
        trace.save(path)
        assert path.read_bytes() == json.dumps(trace.to_dict()).encode("utf-8")
        assert list(tmp_path.iterdir()) == [path]

    def test_save_holds_one_record_at_a_time(self, tmp_path):
        """Saving a trace of about 1 MB of text peaks far below it: the
        text is written record by record, not built whole."""
        rng = np.random.default_rng(0)
        trace = TraceSet()
        trace.start_episode()
        for index in range(1500):
            trace.append(TraceRecord(
                round_index=index,
                n_tx=index % 9,
                node_ids=list(range(18)),
                reliability_array=rng.uniform(size=18),
                radio_on_array=rng.uniform(2.0, 20.0, size=18),
            ))
        path = tmp_path / "t.json"
        tracemalloc.start()
        try:
            trace.save(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 1_000_000
        assert peak < 1_000_000

    def test_atomic_write_is_one_dumps(self, tmp_path):
        """The file holds exactly ``json.dumps(payload)``: the bytes the
        pure-Python ``json.dump`` encoder wrote, floats included."""
        trace = TraceSet(metadata={"topology": "test", "note": "ü"})
        trace.append(make_record(0, lossy=True))
        payload = {**trace.to_dict(), "values": [0.1, 1e-300, -2.5, 3, None, True]}
        path = tmp_path / "nested" / "payload.json"
        atomic_write_json(path, payload)
        assert path.read_bytes() == json.dumps(payload).encode("utf-8")
        assert list(path.parent.iterdir()) == [path]


class TestTraceRecordDegenerateInputs:
    def test_k_larger_than_node_count_returns_all(self):
        record = make_record(lossy=True)
        assert record.worst_nodes(50) == [2, 1, 0]

    def test_empty_reliabilities(self):
        record = TraceRecord(
            round_index=0,
            n_tx=3,
            node_ids=[],
            reliability_array=np.zeros(0),
            radio_on_array=np.zeros(0),
        )
        assert record.worst_nodes(5) == []

    def test_nan_reliabilities_rank_worst_first(self):
        # Churned nodes that dropped out mid-round report NaN; they must
        # surface first (deterministically, ties by id), not poison the sort.
        record = TraceRecord(
            round_index=0,
            n_tx=3,
            node_ids=[0, 1, 2, 3],
            reliability_array=np.array([0.9, NAN, 0.1, NAN]),
            radio_on_array=np.full(4, 8.0),
        )
        assert record.worst_nodes(3) == [1, 3, 2]
        assert record.worst_nodes(10) == [1, 3, 2, 0]

    def test_nan_survives_json_roundtrip(self):
        trace = TraceSet()
        trace.append(
            TraceRecord(
                round_index=0,
                n_tx=2,
                node_ids=[0, 1],
                reliability_array=np.array([1.0, NAN]),
                radio_on_array=np.array([8.0, 8.0]),
            )
        )
        rebuilt = TraceSet.from_dict(trace.to_dict())
        assert math.isnan(rebuilt[0].reliability_array[1])
        assert rebuilt[0].worst_nodes(1) == [1]

    def test_legacy_dict_format_still_loads(self):
        legacy = {
            "metadata": {},
            "episode_starts": [0],
            "records": [
                {
                    "round_index": 0,
                    "n_tx": 4,
                    "reliabilities": {"0": 1.0, "1": 0.5},
                    # Radio-on keys in another order: values follow ids.
                    "radio_on_ms": {"1": 9.0, "0": 8.0},
                    "interference_ratio": 0.1,
                    "had_losses": True,
                }
            ],
        }
        trace = TraceSet.from_dict(legacy)
        record = trace[0]
        assert record.node_ids == (0, 1)
        assert record.reliability_array.dtype == record.radio_on_array.dtype == np.float64
        assert record.reliability_array.tolist() == [1.0, 0.5]
        assert record.radio_on_array.tolist() == [8.0, 9.0]
        assert record.interference_ratio == 0.1 and record.had_losses
        assert record.worst_nodes(1) == [1]
        # Saved again, the record takes the array format.
        assert TraceSet.from_dict(trace.to_dict())[0].radio_on_array.tolist() == [8.0, 9.0]


class TestRewardPathDegenerateInputs:
    """The reward path must stay well-defined on degenerate round data."""

    def test_reward_on_loss_free_round_with_n_tx_zero(self):
        from repro.rl.reward import RewardConfig, compute_reward

        assert compute_reward(0, had_losses=False) == pytest.approx(1.0)

    def test_reward_zero_on_losses_regardless_of_n_tx(self):
        from repro.rl.reward import compute_reward

        for n_tx in (0, 3, 100):
            assert compute_reward(n_tx, had_losses=True) == 0.0

    def test_negative_n_tx_rejected(self):
        from repro.rl.reward import compute_reward

        with pytest.raises(ValueError):
            compute_reward(-1, had_losses=False)

    def test_reward_from_worst_nodes_of_degenerate_record(self):
        # A record whose worst nodes all dropped out (NaN) still yields a
        # well-defined reward: the loss flag, not the NaNs, drives Eq. 3.
        from repro.rl.reward import compute_reward

        record = TraceRecord(
            round_index=0,
            n_tx=5,
            node_ids=[1, 2],
            reliability_array=np.array([NAN, NAN]),
            radio_on_array=np.array([20.0, 20.0]),
            had_losses=True,
        )
        assert record.worst_nodes(2) == [1, 2]
        assert compute_reward(record.n_tx, record.had_losses) == 0.0
