"""Table I — input vector of Dimmer's DQN.

Regenerates the table's rows (input type, number of rows, normalization)
from the feature-encoder implementation and checks the 31-element total
used throughout the evaluation.
"""

import numpy as np

from repro.experiments.reporting import format_table
from repro.rl.features import FeatureConfig, FeatureEncoder


def build_table1_rows(config: FeatureConfig):
    """Rows of Table I for a given feature configuration."""
    return [
        ["Radio-on time", config.num_input_nodes, f"[0, {config.max_radio_on_ms:.0f}ms] -> [-1,1]"],
        ["Reliability", config.num_input_nodes, "[50, 100%] -> [-1,1]"],
        ["N parameter", config.n_max + 1, "One-hot encoding"],
        ["History", config.history_size, "-1 if losses, otherwise 1"],
        ["Total", config.input_size, ""],
    ]


def test_table1_input_vector(benchmark):
    config = FeatureConfig()

    def build():
        encoder = FeatureEncoder(config)
        return encoder.encode_arrays(range(18), np.ones(18), np.full(18, 8.0), n_tx=3)

    vector = benchmark(build)
    rows = build_table1_rows(config)
    print()
    print(format_table(["Input", "Number of rows", "Normalization"], rows,
                       title="Table I: input vector of Dimmer's DQN"))
    assert vector.shape == (31,)
    assert config.input_size == 31
    assert rows[-1][1] == 31
