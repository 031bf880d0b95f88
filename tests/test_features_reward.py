"""Tests for the Table-I feature encoding and the Eq. 3 reward."""

import numpy as np
import pytest

from repro.rl.features import FeatureConfig, FeatureEncoder, PAPER_FEATURE_CONFIG
from repro.rl.reward import RewardConfig, compute_reward


class TestFeatureConfig:
    def test_paper_config_has_31_inputs(self):
        assert PAPER_FEATURE_CONFIG.input_size == 31

    def test_input_size_formula(self):
        config = FeatureConfig(num_input_nodes=5, history_size=3, n_max=4)
        assert config.input_size == 2 * 5 + 5 + 3

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FeatureConfig(num_input_nodes=0)
        with pytest.raises(ValueError):
            FeatureConfig(history_size=-1)
        with pytest.raises(ValueError):
            FeatureConfig(reliability_floor=1.0)


class TestNormalization:
    def test_radio_on_range(self):
        encoder = FeatureEncoder()
        assert encoder.normalize_radio_on(0.0) == pytest.approx(-1.0)
        assert encoder.normalize_radio_on(20.0) == pytest.approx(1.0)
        assert encoder.normalize_radio_on(10.0) == pytest.approx(0.0)
        assert encoder.normalize_radio_on(50.0) == pytest.approx(1.0)

    def test_reliability_range(self):
        encoder = FeatureEncoder()
        assert encoder.normalize_reliability(1.0) == pytest.approx(1.0)
        assert encoder.normalize_reliability(0.75) == pytest.approx(0.0)
        assert encoder.normalize_reliability(0.5) == pytest.approx(-1.0)
        # Anything below the 50 % floor saturates at -1.
        assert encoder.normalize_reliability(0.2) == pytest.approx(-1.0)


class DictReferenceEncoder(FeatureEncoder):
    """The dict-keyed Table-I encoder, kept as the reference for ``encode_arrays``.

    It takes ``{node id: value}`` maps, fills nodes listed in
    ``expected_nodes`` but absent from the feedback in pessimistically
    (0 % reliability, full radio-on time) and ranks the worst ``K`` with
    Python's ``sorted`` on ``(reliability, node id)`` -- an independent
    formulation of what :meth:`FeatureEncoder.encode_arrays` computes
    with one ``lexsort`` on arrays that are already filled in.
    """

    def select_worst_nodes(self, reliabilities, expected_nodes=None):
        merged = dict(reliabilities)
        if expected_nodes is not None:
            for node in expected_nodes:
                merged.setdefault(node, 0.0)
        ranked = sorted(merged.items(), key=lambda item: (item[1], item[0]))
        return [node for node, _ in ranked[: self.config.num_input_nodes]]

    def encode(self, reliabilities, radio_on_ms, n_tx, expected_nodes=None):
        config = self.config
        if not 0 <= n_tx <= config.n_max:
            raise ValueError(f"n_tx must be within [0, {config.n_max}]")
        radio_rows = []
        reliability_rows = []
        for node in self.select_worst_nodes(reliabilities, expected_nodes):
            if node in reliabilities:
                reliability = reliabilities[node]
                radio = radio_on_ms.get(node, config.max_radio_on_ms)
            else:
                reliability = 0.0
                radio = config.max_radio_on_ms
            reliability_rows.append(self.normalize_reliability(reliability))
            radio_rows.append(self.normalize_radio_on(radio))
        while len(radio_rows) < config.num_input_nodes:
            radio_rows.append(-1.0)
            reliability_rows.append(1.0)
        one_hot = [0.0] * (config.n_max + 1)
        one_hot[n_tx] = 1.0
        return np.array(radio_rows + reliability_rows + one_hot + self._history, dtype=float)

    def encode_round(self, reliabilities, radio_on_ms, n_tx, had_losses, expected_nodes=None):
        vector = self.encode(reliabilities, radio_on_ms, n_tx, expected_nodes)
        self.record_history(had_losses)
        return vector


def encode(encoder, reliabilities, radio_on_ms, n_tx):
    """``encode_arrays`` on ``{node id: value}`` maps (same keys, same order)."""
    return encoder.encode_arrays(
        list(reliabilities),
        np.array(list(reliabilities.values()), dtype=float),
        np.array([radio_on_ms[node] for node in reliabilities], dtype=float),
        n_tx=n_tx,
    )


class TestEncoding:
    def test_vector_size_matches_config(self):
        encoder = FeatureEncoder(FeatureConfig(num_input_nodes=4, history_size=1, n_max=3))
        vector = encode(encoder, {0: 1.0, 1: 0.9}, {0: 5.0, 1: 6.0}, n_tx=2)
        assert vector.shape == (2 * 4 + 4 + 1,)

    def test_one_hot_encoding_of_ntx(self):
        encoder = FeatureEncoder()
        vector = encode(encoder, {i: 1.0 for i in range(10)}, {i: 5.0 for i in range(10)}, n_tx=4)
        one_hot = vector[20:29]
        assert one_hot[4] == 1.0
        assert one_hot.sum() == pytest.approx(1.0)

    def test_worst_nodes_selected(self):
        encoder = FeatureEncoder(FeatureConfig(num_input_nodes=2, history_size=0))
        reliabilities = {0: 1.0, 1: 0.3, 2: 0.6, 3: 0.99}
        # Distinct radio-on times identify the selected nodes: 1, then 2.
        vector = encode(encoder, reliabilities, {0: 0.0, 1: 2.0, 2: 4.0, 3: 6.0}, n_tx=3)
        assert vector[:2].tolist() == [
            encoder.normalize_radio_on(2.0),
            encoder.normalize_radio_on(4.0),
        ]
        assert vector[2:4].tolist() == [
            encoder.normalize_reliability(0.3),
            encoder.normalize_reliability(0.6),
        ]

    def test_silent_nodes_treated_pessimistically(self):
        # Silent nodes arrive filled in (0 % reliability, 20 ms radio-on),
        # as the global view and the trace records provide them.
        encoder = FeatureEncoder(FeatureConfig(num_input_nodes=3, history_size=0))
        vector = encode(encoder, {0: 1.0, 1: 0.0, 2: 0.0}, {0: 5.0, 1: 20.0, 2: 20.0}, n_tx=3)
        # The two silent nodes appear with -1 reliability and +1 radio-on.
        assert list(vector[:3]).count(1.0) >= 2
        assert list(vector[3:6]).count(-1.0) >= 2
        reference = DictReferenceEncoder(encoder.config)
        assert reference.select_worst_nodes({0: 1.0}, expected_nodes=[0, 1, 2]) == [1, 2, 0]
        expected = reference.encode({0: 1.0}, {0: 5.0}, n_tx=3, expected_nodes=[0, 1, 2])
        assert vector.tolist() == expected.tolist()

    def test_small_deployments_padded(self):
        encoder = FeatureEncoder()
        vector = encode(encoder, {0: 1.0, 1: 1.0}, {0: 4.0, 1: 4.0}, n_tx=3)
        assert vector.shape == (31,)

    def test_values_bounded(self):
        encoder = FeatureEncoder()
        rng = np.random.default_rng(0)
        reliabilities = {i: float(rng.uniform(0, 1)) for i in range(18)}
        radio = {i: float(rng.uniform(0, 25)) for i in range(18)}
        vector = encode(encoder, reliabilities, radio, n_tx=5)
        assert np.all(vector >= -1.0) and np.all(vector <= 1.0)

    def test_invalid_ntx_rejected(self):
        encoder = FeatureEncoder()
        with pytest.raises(ValueError):
            encode(encoder, {0: 1.0}, {0: 1.0}, n_tx=9)


class TestHistory:
    def test_history_starts_all_good(self):
        assert FeatureEncoder().history == [1.0, 1.0]

    def test_record_history_shifts(self):
        encoder = FeatureEncoder()
        encoder.record_history(True)
        assert encoder.history == [-1.0, 1.0]
        encoder.record_history(False)
        assert encoder.history == [1.0, -1.0]

    def test_history_length_fixed(self):
        encoder = FeatureEncoder()
        for _ in range(10):
            encoder.record_history(True)
        assert len(encoder.history) == 2

    def test_encode_round_updates_history_after_encoding(self):
        encoder = FeatureEncoder()
        vector = encoder.encode_round_arrays(
            [0], np.array([0.5]), np.array([20.0]), n_tx=3, had_losses=True
        )
        # The history rows of this vector still show the pre-round state.
        assert vector[-1] == 1.0 and vector[-2] == 1.0
        assert encoder.history[0] == -1.0

    def test_zero_history_config(self):
        encoder = FeatureEncoder(FeatureConfig(history_size=0))
        encoder.record_history(True)
        assert encoder.history == []


class TestReward:
    def test_losses_give_zero(self):
        assert compute_reward(3, had_losses=True) == 0.0

    def test_no_losses_reward_formula(self):
        assert compute_reward(0, False) == pytest.approx(1.0)
        assert compute_reward(8, False) == pytest.approx(1.0 - 0.3)
        assert compute_reward(4, False) == pytest.approx(1.0 - 0.15)

    def test_lower_ntx_preferred_when_clean(self):
        assert compute_reward(1, False) > compute_reward(5, False)

    def test_custom_constants(self):
        config = RewardConfig(efficiency_weight=0.8, n_max=4)
        assert compute_reward(4, False, config) == pytest.approx(0.2)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            compute_reward(-1, False)
        with pytest.raises(ValueError):
            RewardConfig(n_max=0)
        with pytest.raises(ValueError):
            RewardConfig(efficiency_weight=-0.1)


class TestEncodeArrays:
    def test_encode_arrays_matches_dict_encoding(self):
        encoder = FeatureEncoder(FeatureConfig(num_input_nodes=4, history_size=2))
        rng = np.random.default_rng(7)
        node_ids = [3, 1, 8, 5, 2, 13]
        reliabilities = rng.random(len(node_ids))
        radio = rng.random(len(node_ids)) * 20.0
        via_dict = DictReferenceEncoder(encoder.config).encode(
            dict(zip(node_ids, reliabilities.tolist())),
            dict(zip(node_ids, radio.tolist())),
            n_tx=3,
            expected_nodes=node_ids,
        )
        via_arrays = encoder.encode_arrays(node_ids, reliabilities, radio, n_tx=3)
        assert via_arrays.tolist() == via_dict.tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_ties_rank_by_node_id_like_the_reference(self, seed):
        # Quantized reliabilities (as the 2-byte header carries them)
        # tie often; both encoders then rank by node id.
        rng = np.random.default_rng(seed)
        node_ids = rng.permutation(40)[:18].tolist()
        reliabilities = rng.integers(0, 4, size=18) / 3.0
        radio = rng.integers(0, 255, size=18) * (20.0 / 255)
        reference = DictReferenceEncoder()
        reference.record_history(True)
        encoder = FeatureEncoder()
        encoder.record_history(True)
        for n_tx in (0, 4, 8):
            expected = reference.encode_round(
                dict(zip(node_ids, reliabilities.tolist())),
                dict(zip(node_ids, radio.tolist())),
                n_tx,
                had_losses=n_tx == 4,
            )
            vector = encoder.encode_round_arrays(
                node_ids, reliabilities, radio, n_tx, had_losses=n_tx == 4
            )
            assert vector.tolist() == expected.tolist()

    def test_encode_round_arrays_updates_history(self):
        encoder = FeatureEncoder(FeatureConfig(num_input_nodes=2, history_size=2))
        vector = encoder.encode_round_arrays(
            [1, 2], np.array([1.0, 0.4]), np.array([2.0, 9.0]), n_tx=2, had_losses=True
        )
        assert vector.shape[0] == encoder.input_size
        assert encoder.history == [-1.0, 1.0]

    def test_encode_arrays_pads_small_deployments(self):
        encoder = FeatureEncoder(FeatureConfig(num_input_nodes=5, history_size=1))
        vector = encoder.encode_arrays([1], np.array([0.9]), np.array([3.0]), n_tx=1)
        via_dict = DictReferenceEncoder(encoder.config).encode({1: 0.9}, {1: 3.0}, n_tx=1)
        assert vector.tolist() == via_dict.tolist()
