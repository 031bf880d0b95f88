"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.net.interference import BurstJammer, CompositeInterference
from repro.net.packet import DimmerFeedbackHeader
from repro.rl.environment import Action, apply_action
from repro.rl.exp3 import Exp3
from repro.rl.features import FeatureConfig, FeatureEncoder
from repro.rl.qnetwork import QNetwork
from repro.rl.quantized import QuantizedNetwork
from repro.rl.reward import RewardConfig, compute_reward


@settings(max_examples=50, deadline=None)
@given(
    radio=st.floats(min_value=0.0, max_value=40.0),
    reliability=st.floats(min_value=0.0, max_value=1.0),
)
def test_feedback_header_roundtrip_error_bounded(radio, reliability):
    """Quantizing the 2-byte header never loses more than one LSB of precision."""
    header = DimmerFeedbackHeader(radio_on_ms=radio, reliability=reliability)
    decoded = DimmerFeedbackHeader.decode(header.encode())
    assert abs(decoded.reliability - reliability) <= 1.0 / 255 + 1e-9
    assert abs(decoded.radio_on_ms - min(radio, 20.0)) <= 20.0 / 255 + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    reliabilities=st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.floats(min_value=0.0, max_value=1.0),
        min_size=1,
        max_size=40,
    ),
    radio=st.floats(min_value=0.0, max_value=30.0),
    n_tx=st.integers(min_value=0, max_value=8),
    k=st.integers(min_value=1, max_value=15),
    m=st.integers(min_value=0, max_value=4),
)
def test_feature_encoding_always_bounded_and_sized(reliabilities, radio, n_tx, k, m):
    """The Table-I encoding always produces a vector of the right size in [-1, 1]."""
    config = FeatureConfig(num_input_nodes=k, history_size=m)
    encoder = FeatureEncoder(config)
    vector = encoder.encode_arrays(
        list(reliabilities),
        np.array(list(reliabilities.values())),
        np.full(len(reliabilities), radio),
        n_tx=n_tx,
    )
    assert vector.shape == (config.input_size,)
    assert np.all(vector >= -1.0 - 1e-9)
    assert np.all(vector <= 1.0 + 1e-9)
    one_hot = vector[2 * k: 2 * k + 9]
    assert one_hot.sum() == 1.0


@settings(max_examples=50, deadline=None)
@given(
    n_tx=st.integers(min_value=0, max_value=8),
    had_losses=st.booleans(),
    weight=st.floats(min_value=0.0, max_value=1.0),
)
def test_reward_bounded_and_monotone(n_tx, had_losses, weight):
    """Eq. 3 rewards live in [0, 1] and never increase with N_TX."""
    config = RewardConfig(efficiency_weight=weight, n_max=8)
    reward = compute_reward(n_tx, had_losses, config)
    assert 0.0 <= reward <= 1.0
    if n_tx < 8:
        assert compute_reward(n_tx + 1, had_losses, config) <= reward + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    n_tx=st.integers(min_value=0, max_value=8),
    actions=st.lists(st.sampled_from(list(Action)), min_size=1, max_size=30),
)
def test_apply_action_stays_in_range(n_tx, actions):
    """No action sequence can push N_TX outside [n_min, n_max]."""
    value = n_tx
    for action in actions:
        value = apply_action(value, action, n_max=8, n_min=0)
        assert 0 <= value <= 8


@settings(max_examples=30, deadline=None)
@given(
    rewards=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1), st.floats(min_value=0.0, max_value=1.0)),
        min_size=1,
        max_size=60,
    ),
    gamma=st.floats(min_value=0.05, max_value=1.0),
)
def test_exp3_probabilities_remain_a_distribution(rewards, gamma):
    """Exp3 probabilities always form a distribution with the exploration floor."""
    bandit = Exp3(num_arms=2, gamma=gamma, seed=0)
    for arm, reward in rewards:
        bandit.update(arm, reward)
        probabilities = bandit.probabilities()
        assert abs(probabilities.sum() - 1.0) < 1e-9
        assert np.all(probabilities >= gamma / 2 - 1e-9)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_quantized_network_tracks_float_network(data):
    """Integer inference stays within a small bound of float inference."""
    seed = data.draw(st.integers(min_value=0, max_value=1000))
    network = QNetwork((8, 12, 3), seed=seed)
    quantized = QuantizedNetwork(network, scale=100)
    x = np.array(
        data.draw(
            st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=8)
        )
    )
    assert np.allclose(quantized(x), network(x), atol=0.15)


@settings(max_examples=25, deadline=None)
@given(
    ratio=st.floats(min_value=0.01, max_value=0.9),
    start=st.floats(min_value=0.0, max_value=10_000.0),
    duration=st.floats(min_value=0.1, max_value=30.0),
)
def test_jammer_penalty_always_valid(ratio, start, duration):
    """Burst-jammer penalties are always probabilities."""
    jammer = BurstJammer(position=(0.0, 0.0), interference_ratio=ratio, channels=None)
    composite = CompositeInterference([jammer, jammer])
    for source in (jammer, composite):
        penalty = source.penalty_windows(np.array([[1.0, 1.0]]), np.array([start]), duration, 26)
        assert 0.0 <= penalty[0, 0] <= 1.0
